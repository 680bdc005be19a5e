"""Volume potentials, layer potentials, and the subtraction operator.

The main objects are integrals of a fundamental solution (or of a general
odd homogeneous kernel) against densities on a domain or its boundary:

* volume potential  int_Omega S(x - y) f(y) dy  and its first derivatives;
* second derivatives assembled from the subtraction operator
  G_l[k, psi](x) = int_Omega d_l k(x - y) (psi(y) - psi(x)) dy, the boundary
  kernel operators K[k, mu]^{+/-}, and the integrable remainder of the
  gradient-kernel split;
* the single layer potential, continuous across the boundary, with a graded
  parametric rule for on-surface (and nearly on-surface) evaluation;
* the volume potential of a density f0 + sum_j d_j f_j given through its
  components, which trades the distributional derivative for a boundary term
  plus differentiated volume terms.

Interior evaluation uses the polar rule centered at the point; exterior
evaluation uses the regular rule far from the boundary and a chord rule
close to it.  Points within 1e-9 of the boundary are rejected; transmission
is tested through one-sided limits (see :mod:`volpot.verify`).

Everything here is a pure function of immutable inputs: batch evaluation
over point grids may run on several threads, and results are
bit-reproducible at a fixed thread count of one (the golden-test mode).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NearBoundaryError
from .fundsol import FundamentalSolution
from .geometry import (Domain, cached_boundary_rule, cached_volume_rule,
                       exterior_chord_rule, near_exterior_star_rule,
                       singular_volume_rule, _gl01, _axis_frame)
from .schauder import NegativeExponentDensity

# Exterior points closer to the boundary than this fraction of the domain
# scale are handled by the chord rule instead of the regular volume rule.
NEAR_FRACTION = 0.1


def _classify_or_raise(domain, x):
    cls = domain.classify(x)
    if cls == 0:
        raise NearBoundaryError(
            "point is within 1e-9 of the boundary; evaluate one-sided limits "
            "at finite offsets instead")
    return cls


def _volume_nodes_for(domain, x, N):
    cls = _classify_or_raise(domain, x)
    if cls > 0:
        return singular_volume_rule(domain, x, N)
    dist = domain.distance_to_boundary(x)
    if dist < NEAR_FRACTION * domain.bounding_radius:
        if domain.kind == "ball":
            return exterior_chord_rule(domain, x, N)
        return near_exterior_star_rule(domain, x, N)
    return cached_volume_rule(domain, N)


def volume_potential(fs: FundamentalSolution, domain: Domain, f, x,
                     N: int = 64) -> complex:
    """int_Omega S(x - y) f(y) dy for bounded f on the closure."""
    x = np.asarray(x, dtype=float)
    vq = _volume_nodes_for(domain, x, N)
    vals = fs.eval(x[None, :] - vq.nodes) * f(vq.nodes)
    return complex(np.sum(vals * vq.weights))


def volume_potential_gradient(fs: FundamentalSolution, domain: Domain, f, x,
                              N: int = 64) -> np.ndarray:
    """Gradient of the volume potential, int_Omega grad S(x - y) f(y) dy."""
    x = np.asarray(x, dtype=float)
    vq = _volume_nodes_for(domain, x, N)
    g = fs.grad(x[None, :] - vq.nodes)
    return np.sum(g * (f(vq.nodes) * vq.weights)[:, None], axis=0)


def radial_extension(domain: Domain, f):
    """Extend f from closure(Omega) to R^n by transporting values along rays
    from the star center, clamped at the boundary (Lipschitz-preserving)."""
    center = domain.center if domain.kind == "ball" else np.zeros(domain.dim)

    def ext(y):
        y = np.asarray(y, dtype=float)
        single = y.ndim == 1
        pts = np.atleast_2d(y)
        d = pts - center[None, :]
        r = np.linalg.norm(d, axis=-1)
        if domain.kind == "ball":
            rb = domain.radius
        else:
            rb = domain.rho(np.arctan2(d[:, 1], d[:, 0]))
        scale = np.where(r > 0, np.minimum(1.0, rb / np.maximum(r, 1e-300)), 1.0)
        clamped = center[None, :] + d * scale[:, None]
        out = np.asarray(f(clamped))
        return out[0] if single else out

    return ext


def subtracted_integral_G(k, psi, l: int, domain: Domain, x, N: int = 64,
                          dk=None) -> complex:
    """G_l[k, psi](x) = int_Omega d_l k(x - y) (psi(y) - psi(x)) dy.

    ``k`` maps points z (m, n) to kernel values; it must be odd and
    positively homogeneous of degree -(n-1) (checked by sampling).  ``dk``,
    if given, maps z to the full gradient (m, n); otherwise the l-th
    derivative is taken by central differences with a relative step.
    The subtraction makes the integrand absolutely integrable, so the
    singularity-clustered rule applies directly; exterior points of the
    bounding ball see a smooth integrand and use the regular rules.
    """
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) > domain.bounding_radius * (1.0 + 1e-12):
        raise DomainError("x must lie in the closure of the bounding ball")
    _check_odd_homogeneous(k, domain.dim)
    vq = _volume_nodes_for(domain, x, N)
    z = x[None, :] - vq.nodes
    if dk is not None:
        dkl = np.asarray(dk(z))[:, l]
    else:
        h = 1e-6 * np.linalg.norm(z, axis=-1)
        step = np.zeros_like(z)
        step[:, l] = h
        dkl = (np.asarray(k(z + step)) - np.asarray(k(z - step))) / (2.0 * h)
    diff = psi(vq.nodes) - psi(x)
    return complex(np.sum(dkl * diff * vq.weights))


def _check_odd_homogeneous(k, n, tol=1e-8):
    rng = np.random.default_rng(7)
    z = rng.standard_normal((8, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    z *= rng.uniform(0.5, 1.5, size=(8, 1))
    v = np.asarray(k(z))
    scale = np.max(np.abs(v)) + 1e-300
    if np.max(np.abs(np.asarray(k(-z)) + v)) > tol * scale:
        raise ValueError("kernel is not odd")
    hom = np.asarray(k(2.0 * z)) * 2.0 ** (n - 1)
    if np.max(np.abs(hom - v)) > tol * scale:
        raise ValueError(f"kernel is not homogeneous of degree -({n}-1)")


def boundary_kernel_K(k, mu, domain: Domain, x, side: str = "interior",
                      N: int = 64) -> complex:
    """K[k, mu](x) = int_dOmega k(x - y) mu(y) dsigma_y for x off the
    boundary; spectrally convergent there.  On-surface extension values are
    out of scope (points in the 1e-9 band are rejected)."""
    x = np.asarray(x, dtype=float)
    cls = _classify_or_raise(domain, x)
    if side == "interior" and cls < 0:
        raise DomainError("interior-side evaluation at an exterior point")
    if side == "exterior" and cls > 0:
        raise DomainError("exterior-side evaluation at an interior point")
    return _boundary_integral(domain,
                              lambda y, nu: np.asarray(k(x[None, :] - y)) * mu(y),
                              x, N)


def single_layer(fs: FundamentalSolution, domain: Domain, phi, x,
                 N: int = 64) -> complex:
    """Single layer potential int_dOmega S(x - y) phi(y) dsigma_y.

    Defined on all of R^n.  Off the boundary the plain boundary rule is
    spectrally accurate; on (or within ~10% of the domain scale of) the
    boundary a parameter-space rule graded about the nearest boundary
    parameter handles the log (2D) or |.|^{-1} (3D) singularity at order
    well above 3.
    """
    x = np.asarray(x, dtype=float)
    return _boundary_integral(
        domain, lambda y, nu: fs.eval(x[None, :] - y) * phi(y), x, N)


def _boundary_integral(domain, integrand, x, N):
    """integrand(y, nu) is vectorized over boundary points y with outward
    normals nu; x only steers the far/near/graded rule choice."""
    dist = domain.distance_to_boundary(x)
    scale = domain.bounding_radius
    if dist > 0.1 * scale:
        bq = cached_boundary_rule(domain, N)
        return complex(np.sum(integrand(bq.nodes, bq.normals) * bq.weights))
    if domain.dim == 2:
        return _graded_curve_integral(domain, integrand, x, N)
    return _graded_sphere_integral(domain, integrand, x, N)


# Grading exponent for the parameter-space substitution around the singular
# (or nearest) parameter.
GRADING_EXPONENT = 3


def _graded_curve_integral(domain, integrand, x, N):
    theta0 = _nearest_boundary_parameter(domain, x)
    np_half = max(24, 2 * N)
    u, w = _gl01(np_half)
    s = np.pi * u ** GRADING_EXPONENT
    ws = np.pi * GRADING_EXPONENT * u ** (GRADING_EXPONENT - 1) * w
    total = 0.0 + 0.0j
    for sgn in (+1.0, -1.0):
        theta = theta0 + sgn * s
        y = domain.boundary_point(theta)
        nu = domain.boundary_normal(theta)
        jac = domain.boundary_jacobian(theta)
        total += np.sum(integrand(y, nu) * jac * ws)
    return complex(total)


def _nearest_boundary_parameter(domain, x):
    if domain.kind == "ball":
        d = x - domain.center
        if np.linalg.norm(d) < 1e-14:
            return 0.0
        return float(np.arctan2(d[1], d[0]))
    theta = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    b = domain.boundary_point(theta)
    i = int(np.argmin(np.linalg.norm(b - x[None, :], axis=1)))
    lo, hi = theta[i] - 2 * np.pi / 1024, theta[i] + 2 * np.pi / 1024
    for _ in range(40):  # golden-section-free trisection refinement
        t = np.linspace(lo, hi, 5)
        b = domain.boundary_point(t)
        j = int(np.argmin(np.linalg.norm(b - x[None, :], axis=1)))
        lo, hi = t[max(j - 1, 0)], t[min(j + 1, 4)]
    return float(0.5 * (lo + hi))


def _graded_sphere_integral(domain, integrand, x, N):
    # Polar-cap coordinates about the axis through x: colatitude psi from
    # the nearest pole, graded toward psi = 0.
    R, c = domain.radius, domain.center
    d = x - c
    r0 = np.linalg.norm(d)
    axis = d / r0 if r0 > 1e-14 else np.array([0.0, 0.0, 1.0])
    e1, e2 = _axis_frame(axis)
    npsi = max(24, 2 * N)
    u, w = _gl01(npsi)
    psi = np.pi * u ** GRADING_EXPONENT
    wpsi = np.pi * GRADING_EXPONENT * u ** (GRADING_EXPONENT - 1) * w
    nphi = max(16, N)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    dirs = (np.cos(psi)[:, None, None] * axis[None, None, :]
            + np.sin(psi)[:, None, None] * (np.cos(phi)[None, :, None] * e1
                                            + np.sin(phi)[None, :, None] * e2))
    dirs = dirs.reshape(-1, 3)
    wts = np.repeat(wpsi * np.sin(psi), nphi) * (2.0 * np.pi / nphi) * R ** 2
    y = c[None, :] + R * dirs
    return complex(np.sum(integrand(y, dirs) * wts))


def volume_potential_hessian(fs: FundamentalSolution, domain: Domain, f, x,
                             N: int = 64, extension=None) -> np.ndarray:
    """Second derivatives of the volume potential at a strictly interior x.

    Entry (l, j) is assembled as

        G_l[k_{j,1}, Ef](x) - Ef(x) K^+[k_{j,1}, nu_l](x)
        + int_Omega d_l k_{j,2}(x - y) f(y) dy

    with the gradient-kernel split supplied by ``fs``; the remainder term is
    absolutely integrable and uses the same singularity-clustered rule.
    ``extension`` defaults to ray transport from the star center (only its
    values on closure(Omega) enter for interior x).
    """
    x = np.asarray(x, dtype=float)
    if domain.classify(x) <= 0:
        raise NearBoundaryError("Hessian evaluation requires an interior point")
    ef = extension if extension is not None else radial_extension(domain, f)
    fx = complex(np.asarray(ef(x[None, :]))[0])

    vq = singular_volume_rule(domain, x, N)
    z = x[None, :] - vq.nodes
    j1 = fs.k1_jacobian(z)                       # (m, l, j) = d_l k1_j
    fvals = np.asarray(f(vq.nodes), dtype=complex)
    diff = (fvals - fx) * vq.weights
    H = np.einsum("mlj,m->lj", j1, diff)

    bq = cached_boundary_rule(domain, N)
    kb = fs.k1(x[None, :] - bq.nodes)            # (mb, j)
    K = np.einsum("mj,ml,m->lj", kb, bq.normals, bq.weights)
    H = H - fx * K

    if fs.kind == "modified-helmholtz":
        j2 = fs.k2_jacobian(z)
        H = H + np.einsum("mlj,m->lj", j2, fvals * vq.weights)
    return H if np.iscomplexobj(H) else H.astype(complex)


def volume_potential_negative(fs: FundamentalSolution, domain: Domain,
                              nd: NegativeExponentDensity, x,
                              N: int = 64) -> complex:
    """Volume potential of f0 + sum_j d_j f_j given by its components:

        int_Omega S(x-y) f0 dy
        + sum_j int_dOmega S(x-y) nu_j f_j dsigma
        + sum_j d/dx_j int_Omega S(x-y) f_j dy.

    All volume terms share one rule and one kernel pass: the rule for x is
    built once, S and grad S are evaluated once on its nodes, and f0 and
    every f_j are reduced against those arrays.
    """
    x = np.asarray(x, dtype=float)
    n = domain.dim
    comps = nd.components
    vq = _volume_nodes_for(domain, x, N)
    z = x[None, :] - vq.nodes
    total = complex(np.sum(fs.eval(z) * comps[0](vq.nodes) * vq.weights))

    def moment(y, nu):
        out = np.zeros(y.shape[0], dtype=complex)
        for j in range(n):
            out = out + nu[:, j] * np.asarray(comps[j + 1](y))
        return fs.eval(x[None, :] - y) * out

    total += _boundary_integral(domain, moment, x, N)
    # grad before the weighted components exist, so they do not add to
    # the peak memory of the kernel pass
    g = fs.grad(z)
    fw = np.stack([np.asarray(comps[j + 1](vq.nodes)) * vq.weights
                   for j in range(n)], axis=1)
    for gj in np.sum(g * fw, axis=0):
        total += gj
    return complex(total)


def exterior_field(fs: FundamentalSolution, tau, x) -> complex:
    """Field of a discretized compactly supported functional
    tau = (nodes, weights, values) at a point x outside its support hull:
    sum_i w_i v_i S(x - y_i).  Rejects x inside the bounding sphere of the
    nodes or closer than 1e-6 to it (conservative hull test)."""
    nodes, weights, values = (np.asarray(a) for a in tau)
    x = np.asarray(x, dtype=float)
    centroid = np.mean(nodes, axis=0)
    hull_r = float(np.max(np.linalg.norm(nodes - centroid[None, :], axis=1)))
    if np.linalg.norm(x - centroid) < hull_r + 1e-6:
        raise DomainError("x lies inside (or too close to) the support hull")
    return complex(np.sum(weights * values * fs.eval(x[None, :] - nodes)))


@dataclass(frozen=True, eq=False)
class PotentialField:
    """Convenience wrapper fixing (fundamental solution, domain, side, N).

    Interior and exterior fields of the same density agree on the boundary
    in the sense of one-sided limits; see verify.check_transmission.
    """

    fs: FundamentalSolution
    domain: Domain
    side: str           # "interior" | "exterior"
    resolution: int

    def _check(self, x):
        cls = _classify_or_raise(self.domain, x)
        want = 1 if self.side == "interior" else -1
        if cls != want:
            raise DomainError(f"point is not on the {self.side} side")

    def value(self, f, x):
        self._check(x)
        return volume_potential(self.fs, self.domain, f, x, self.resolution)

    def gradient(self, f, x):
        self._check(x)
        return volume_potential_gradient(self.fs, self.domain, f, x,
                                         self.resolution)

    def hessian(self, f, x):
        self._check(x)
        return volume_potential_hessian(self.fs, self.domain, f, x,
                                        self.resolution)
