"""Moduli of continuity, sampled Hölder seminorms, kernel-class norms, and
densities of the form f0 + sum_j d_j f_j with Hölder components.

Seminorms and kernel norms are estimated on finite sample sets, so they are
lower bounds of the true suprema that increase with sample density; the
grids used are documented where they matter and no convergence rate is
claimed.  The norm attached to a component representation is the norm of
that representation, an upper bound for the infimum over representations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (_BLOCK_BYTES, Domain, cached_boundary_rule,
                       cached_volume_rule)


# ---------------------------------------------------------------------------
# moduli of continuity


def omega_theta_eval(theta: float, r):
    """The modulus r^theta |ln r| capped at r_theta = e^{-1/theta}:
    0 at r = 0, r^theta |ln r| on (0, r_theta], constant beyond."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise ValueError("r must be nonnegative")
    r_theta = np.exp(-1.0 / theta)
    plateau = r_theta ** theta / theta
    out = np.full(r.shape, plateau)
    small = (r > 0) & (r <= r_theta)
    out[small] = r[small] ** theta * np.abs(np.log(r[small]))
    out[r == 0.0] = 0.0
    return float(out[0]) if scalar else out


class Modulus:
    """A modulus of continuity omega driving seminorm estimation.

    Kinds: ``power`` (r^alpha), ``omega_theta`` (r^theta |ln r|, capped), or
    ``custom`` (any callable; sampled-checked against the admissibility
    conditions, violations warn rather than raise).
    """

    def __init__(self, fn, kind: str, param=None, check: bool = True):
        self._fn = fn
        self.kind = kind
        self.param = param
        if check:
            self._sampled_check()

    @staticmethod
    def power(alpha: float) -> "Modulus":
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        return Modulus(lambda r: np.asarray(r, dtype=float) ** alpha,
                       "power", alpha, check=False)

    @staticmethod
    def omega(theta: float) -> "Modulus":
        return Modulus(lambda r: omega_theta_eval(theta, r),
                       "omega_theta", theta, check=False)

    @staticmethod
    def custom(fn) -> "Modulus":
        return Modulus(fn, "custom", None, check=True)

    def __call__(self, r):
        return self._fn(r)

    def _sampled_check(self):
        t = np.geomspace(1e-8, 1.0, 64)
        v = np.asarray(self(t), dtype=float)
        ok = (abs(float(self(0.0))) == 0.0 and np.all(v > 0)
              and np.all(np.diff(v) >= -1e-15))
        if ok:
            a = np.array([1.0, 2.0, 5.0, 10.0, 100.0])
            ratios = np.asarray(self(np.outer(a, t))) / (a[:, None] * v[None, :])
            ok = np.isfinite(ratios).all() and ratios.max() <= 1.0 + 1e-9
        if not ok:
            warnings.warn("custom modulus violates the sampled admissibility "
                          "conditions (omega(0)=0, positivity, monotonicity, "
                          "omega(at) <= a omega(t) for a in [1, 100])",
                          stacklevel=3)

    def __repr__(self):
        if self.kind == "custom":
            return "Modulus(custom)"
        return f"Modulus({self.kind}:{self.param})"


def holder_seminorm(points, values, modulus: Modulus) -> float:
    """max over distinct sample pairs of |f(x) - f(y)| / omega(|x - y|).

    A lower bound for the true seminorm, monotone under sample inclusion.
    Duplicate points carrying different values are rejected.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    vals = np.asarray(values)
    if len(pts) != len(vals):
        raise ValueError("points and values must have equal length")
    if len(pts) < 2:
        raise ValueError("need at least two sample points")
    return _seminorms(pts, modulus, [vals])[0]


def _seminorms(pts, modulus, values):
    """``holder_seminorm`` of each array in values on the (m, n) points
    pts, over the pairs i < j alone, a block of rows i at a time: each
    block's distances and their modulus are formed once for every array,
    and its (pairs,) arrays stay near ``_BLOCK_BYTES``, so memory does not
    grow with m^2.  The distances have the bits of the full distance
    matrix's norm (the squared coordinate differences summed in
    coordinate order), and a maximum does not depend on the blocks."""
    m = len(pts)
    rows = max(1, _BLOCK_BYTES // (8 * m))
    peaks = [[] for _ in values]
    for a in range(0, m - 1, rows):
        i, j = np.nonzero(np.arange(a, min(a + rows, m))[:, None]
                          < np.arange(m))
        i += a
        sq = 0.0
        for k in range(pts.shape[1]):
            dk = pts[i, k] - pts[j, k]
            sq = sq + dk * dk
        d = np.sqrt(sq)
        coincident = d == 0.0
        apart = ~coincident
        omega = np.asarray(modulus(d[apart]), dtype=float)
        for c, vals in enumerate(values):
            dv = np.abs(vals[i] - vals[j])
            if np.any(dv[coincident] > 0):
                raise ValueError("duplicate points with differing values")
            if len(omega):
                peaks[c].append(np.max(dv[apart] / omega))
    return [float(np.max(p)) if p else 0.0 for p in peaks]


def kernel_class_norm(K, X, Y, s1: float, s2: float, s3: float) -> float:
    """Sampled two-sup norm of an off-diagonal kernel:

        sup |x-y|^{s1} |K(x,y)|
        + sup_{y outside B(x', 2|x'-x''|)} |x'-y|^{s2} / |x'-x''|^{s3}
                                            * |K(x',y) - K(x'',y)|.

    A lower bound for the true norm, increasing with sample density.
    ``K`` must accept broadcast arrays of points.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    m, q = len(X), len(Y)
    KM = np.empty((m, q), dtype=complex)
    for i in range(m):
        KM[i] = K(np.broadcast_to(X[i], Y.shape), Y)
    dxy = np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=-1)
    off = dxy > 0
    sup1 = float(np.max(dxy[off] ** s1 * np.abs(KM[off])))
    sup2 = 0.0
    for i in range(m):
        d = np.linalg.norm(X - X[i], axis=-1)        # |x' - x''|
        for i2 in range(m):
            if d[i2] == 0.0:
                continue
            mask = dxy[i] >= 2.0 * d[i2]
            mask &= dxy[i2] > 0
            if not np.any(mask):
                continue
            val = (dxy[i, mask] ** s2 / d[i2] ** s3
                   * np.abs(KM[i, mask] - KM[i2, mask]))
            sup2 = max(sup2, float(np.max(val)))
    return sup1 + sup2


# ---------------------------------------------------------------------------
# negative-exponent densities and pairings


@dataclass(frozen=True, eq=False)
class NegativeExponentDensity:
    """Representation (f0, ..., fn) of f = f0 + sum_j d_j f_j.

    ``components`` are callables on closure(Omega); ``alpha`` the claimed
    Hölder exponent of the components; ``norm_bound`` the sum of their
    estimated C^{0,alpha} norms (an upper bound of the infimum norm over
    representations, estimated on the sample cloud of the constructor).
    """

    components: tuple
    alpha: float
    norm_bound: float

    @property
    def dim(self) -> int:
        return len(self.components) - 1


def negative_density(domain: Domain, components, alpha: float,
                     N: int = 24) -> NegativeExponentDensity:
    """Build a density from components, estimating norm_bound on the union
    of a volume rule and a boundary rule at resolution N."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    components = tuple(components)
    if len(components) != domain.dim + 1:
        raise ValueError(f"need {domain.dim + 1} components")
    vq = cached_volume_rule(domain, N)
    bq = cached_boundary_rule(domain, N)
    cloud = np.concatenate([vq.nodes, bq.nodes], axis=0)
    # thin to keep the pairwise scan cheap
    if len(cloud) > 600:
        idx = np.linspace(0, len(cloud) - 1, 600).astype(int)
        cloud = cloud[idx]
    values = [np.asarray(comp(cloud), dtype=complex) for comp in components]
    bound = 0.0
    for v, seminorm in zip(values, _seminorms(cloud, Modulus.power(alpha),
                                              values)):
        bound += float(np.max(np.abs(v)))
        bound += seminorm
    return NegativeExponentDensity(components, float(alpha), bound)


def integral_functional_I(domain: Domain, nd: NegativeExponentDensity,
                          N: int = 64) -> complex:
    """Extended integration functional:
    int_Omega f0 dy + int_dOmega sum_j nu_j f_j dsigma."""
    vq = cached_volume_rule(domain, N)
    bq = cached_boundary_rule(domain, N)
    total = np.sum(np.asarray(nd.components[0](vq.nodes)) * vq.weights)
    for j in range(domain.dim):
        total += np.sum(bq.normals[:, j]
                        * np.asarray(nd.components[j + 1](bq.nodes))
                        * bq.weights)
    return complex(total)


def extension_pairing_E(domain: Domain, nd: NegativeExponentDensity, v,
                        grad_v, N: int = 64) -> complex:
    """Pairing of the density with a C^1 test function v:

    int_Omega f0 v + int_dOmega sum_j nu_j f_j v dsigma
    - sum_j int_Omega f_j d_j v.
    """
    vq = cached_volume_rule(domain, N)
    bq = cached_boundary_rule(domain, N)
    v_in = np.asarray(v(vq.nodes))
    v_bd = np.asarray(v(bq.nodes))
    total = np.sum(np.asarray(nd.components[0](vq.nodes)) * v_in * vq.weights)
    gv = np.asarray(grad_v(vq.nodes))
    for j in range(domain.dim):
        fj_in = np.asarray(nd.components[j + 1](vq.nodes))
        fj_bd = np.asarray(nd.components[j + 1](bq.nodes))
        total += np.sum(bq.normals[:, j] * fj_bd * v_bd * bq.weights)
        total -= np.sum(fj_in * gv[:, j] * vq.weights)
    return complex(total)


def canonical_pairing_J(domain: Domain, f, v, N: int = 64) -> complex:
    """int_Omega f v dy (the inclusion of integrable functions)."""
    vq = cached_volume_rule(domain, N)
    return complex(np.sum(np.asarray(f(vq.nodes)) * np.asarray(v(vq.nodes))
                          * vq.weights))
