"""Fundamental solutions of the supported operators.

Three kinds are provided in closed form:

* ``laplace``: the Newtonian kernel log|x|/(2 pi) (n = 2) or
  -1/(4 pi |x|) (n = 3);
* ``anisotropic-principal``: S_n(T^{-1} x) / sqrt(det a2) for a pure
  principal part a2 = T T^t;
* ``modified-helmholtz``: the screened kernel -K0(kappa |x|)/(2 pi) (n = 2)
  or -exp(-kappa |x|)/(4 pi |x|) (n = 3).

Every kind exposes the value, the gradient, the Hessian, and the split of
each gradient component into an odd part that is positively homogeneous of
degree -(n-1) plus a milder remainder obtained by subtraction.  The
homogeneous part is

    k1_j(x) = |T^{-1} x|^{-n} (a2^{-1} x)_j / (s_n sqrt(det a2)),

which is the whole gradient for the laplace and anisotropic-principal kinds.

Along a ray x = -r d (r > 0, d a unit vector) the kernels factor into a
power of r times a function of d, which lets the potentials call them
once per direction instead of once per node:

    k1(-r d) = -r^(1-n) k1(d)              (odd, degree -(n-1));
    d_l k1_j(-r d) = r^(-n) d_l k1_j(d)    (even, degree -n);
    grad S(-r d) = -f'(r) d                (screened S = f(|x|)).

``radial_gradient`` and ``k2_radial`` give the screened kernel's radial
factors for the last form and for the k2 Jacobian below.  The Laplace and
anisotropic kernels are homogeneous along a ray, S(r d) = k (log r +
log q(d)) (n = 2) or a(d)/r (n = 3), so on rays with radii r = s t their
sum against a radial table needs only two moments of it (``ray_value``).

The Jacobians ``k1_jacobian`` and ``k2_jacobian`` also have a weighted
form: given an (m,) weight vector w, real or complex, they return the
(n, n) moment sum_m w_m d_l k_j(x_m) without forming the (m, n, n) array.
With U = x a2^{-1} and c = 1/(s_n sqrt(det a2)), the k1 moment is

    c [a2^{-1} sum w |T^{-1}x|^{-n} - n U^t diag(w |T^{-1}x|^{-n-2}) U],

and the k2 moment of the screened kernel S = f(|x|) is

    sum w (alpha x x^t + beta I),
    alpha = (f'' - f'/r)/r^2 + n c r^{-n-2},   beta = f'/r - c r^{-n},

with alpha and beta formed per point, so the cancellation of the two
singular parts happens before any summation.  Real and imaginary parts of
w are summed separately, from contiguous copies, as real (n, m) @ (m, n)
products; a part that is all zero costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _bessel
from .errors import SingularPointError
from .operators import (OperatorCoefficients, factor_principal,
                        helmholtz_modified, laplacian)

KINDS = ("laplace", "anisotropic-principal", "modified-helmholtz")


_DIM_ERROR = "only dimensions 2 and 3 are supported"


def sphere_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n (n = 2 or 3)."""
    if n == 2:
        return 2.0 * np.pi
    if n == 3:
        return 4.0 * np.pi
    raise ValueError(_DIM_ERROR)


def _rowdot(a, b):
    # sum_j a[..., j] * b[..., j], accumulated column by column: bitwise
    # equal to np.sum(a * b, axis=-1) for n = 2, 3, and several times
    # faster than a reduction along so short an axis
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j] * b[..., j]
    return out


def _as_points(x, n):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != n:
        raise ValueError(f"points must have {n} components")
    r = np.sqrt(_rowdot(pts, pts))
    if np.any(r == 0.0):
        raise SingularPointError("fundamental solution evaluated at x = 0")
    return pts, r, single


def laplace_Sn(n: int, x):
    """Fundamental solution of the Laplacian: log|x|/s_2 or |x|^{2-n}/((2-n) s_n)."""
    return laplace_fundamental(n).eval(x)


def principal_anisotropic(op: OperatorCoefficients, x):
    """S_n(T^{-1} x)/sqrt(det a2) for the principal part of ``op``."""
    return principal_fundamental(op).eval(x)


def modified_helmholtz(n: int, kappa: float, x):
    """Fundamental solution of Delta - kappa^2."""
    return helmholtz_fundamental(n, kappa).eval(x)


@dataclass(frozen=True, eq=False)
class FundamentalSolution:
    """Evaluable fundamental solution with gradient, Hessian and kernel split.

    All evaluation methods accept a single point of shape (n,) or a batch of
    shape (m, n); x = 0 raises :class:`SingularPointError`.  Instances are
    immutable and safe to share across threads.
    """

    operator: OperatorCoefficients
    kind: str
    dim: int
    kappa: float
    T: np.ndarray
    _a2_inv: np.ndarray
    _sqrt_det: float

    # -- scalar value ------------------------------------------------------

    def eval(self, x):
        pts, r, single = _as_points(x, self.dim)
        if self.kind == "laplace":
            out = self._laplace_value(r)
        elif self.kind == "anisotropic-principal":
            m = self._ellip_radius(pts)
            out = self._laplace_value(m) / self._sqrt_det
        else:
            out = self._helmholtz_value(r)
        return out[0] if single else out

    def _laplace_value(self, r):
        if self.dim == 2:
            return np.log(r) / (2.0 * np.pi)
        return -1.0 / (4.0 * np.pi * r)

    def _helmholtz_value(self, r):
        if self.dim == 2:
            return -_bessel.k0(self.kappa * r) / (2.0 * np.pi)
        return -np.exp(-self.kappa * r) / (4.0 * np.pi * r)

    def _ellip_radius(self, pts, u=None):
        # |T^{-1} x| as the quadratic form sqrt(x . a2^{-1} x), with
        # u = x a2^{-1} when the caller already has it; for a2 = I this is |x|.
        if u is None:
            u = pts @ self._a2_inv
        return np.sqrt(_rowdot(u, pts))

    # -- gradient and its odd-homogeneous / remainder split ----------------

    def k1(self, x):
        """Odd part of the gradient, positively homogeneous of degree -(n-1)."""
        pts, _, single = _as_points(x, self.dim)
        out = self._k1(pts)
        return out[0] if single else out

    def _k1(self, pts):
        n = self.dim
        u = pts @ self._a2_inv
        m = self._ellip_radius(pts, u)
        # scaled in place, a column at a time: one (m, n) array alive
        # instead of three, and no broadcast along the short axis
        u *= 1.0 / (sphere_measure(n) * self._sqrt_det)
        s = m ** (-n)
        for k in range(n):
            u[:, k] *= s
        return u

    def grad(self, x):
        """Gradient of the fundamental solution (bitwise equal to the sum of
        the two parts returned by :meth:`split_gradient`)."""
        pts, r, single = _as_points(x, self.dim)
        out = self._k1(pts)
        if self.kind == "modified-helmholtz":
            out = out + (self._helmholtz_grad(pts, r) - out)
        return out[0] if single else out

    def split_gradient(self, x):
        """Pair (k1, k2) with grad = k1 + k2; k2 = 0 unless the kind carries
        lower-order terms (modified-helmholtz)."""
        pts, r, single = _as_points(x, self.dim)
        k1 = self._k1(pts)
        if self.kind == "modified-helmholtz":
            k2 = self._helmholtz_grad(pts, r) - k1
        else:
            k2 = np.zeros_like(k1)
        if single:
            return k1[0], k2[0]
        return k1, k2

    def _helmholtz_grad(self, pts, r):
        kr = self.kappa * r
        if self.dim == 2:
            radial = self.kappa * _bessel.k1(kr) / (2.0 * np.pi * r)
        else:
            radial = np.exp(-kr) * (1.0 + kr) / (4.0 * np.pi * r ** 3)
        return pts * radial[:, None]

    # -- second derivatives ------------------------------------------------

    def hess(self, x):
        """Hessian matrix; symmetric, annihilated by the operator off 0."""
        pts, r, single = _as_points(x, self.dim)
        if self.kind == "modified-helmholtz":
            out = self._radial_hessian(pts, r)
        else:
            out = self._k1_jacobian(pts)
        return out[0] if single else out

    def _radial_derivs(self, r):
        """(f'(r), f''(r)) of the screened kernel S = f(|x|)."""
        kr = self.kappa * r
        if self.dim == 2:
            k1 = _bessel.k1(kr)
            fp = self.kappa * k1 / (2.0 * np.pi)
            fpp = -(self.kappa ** 2) * (_bessel.k0(kr) + k1 / kr) / (2.0 * np.pi)
        else:
            e = np.exp(-kr)
            fp = e * (1.0 + kr) / (4.0 * np.pi * r ** 2)
            fpp = -e * (2.0 + 2.0 * kr + kr ** 2) / (4.0 * np.pi * r ** 3)
        return fp, fpp

    def _radial_hessian(self, pts, r):
        # H = f''(r) xh xh^t + (f'(r)/r) (I - xh xh^t) for S = f(|x|).
        fp, fpp = self._radial_derivs(r)
        xh = pts / r[:, None]
        proj = xh[:, :, None] * xh[:, None, :]
        eye = np.eye(self.dim)[None, :, :]
        return (fpp[:, None, None] * proj
                + (fp / r)[:, None, None] * (eye - proj))

    def k1_jacobian(self, x, weights=None):
        """Matrix of partial derivatives d_l k1_j; even, homogeneous of
        degree -n, zero mean on the sphere.

        With an (m,) vector ``weights``, real or complex, returns the (n, n)
        matrix sum_m weights[m] d_l k1_j(x[m]) instead of the (m, n, n)
        array (see the module docstring)."""
        pts, _, single = _as_points(x, self.dim)
        if weights is not None:
            return _moment(self.dim, weights, len(pts),
                           lambda: self._k1_moment_terms(pts))
        out = self._k1_jacobian(pts)
        return out[0] if single else out

    def _k1_moment_terms(self, pts):
        # per-point (scalar, vectors, outer weight) of d_l k1_j
        # = c [a2^{-1} m^{-n} - n m^{-n-2} u u^t]
        n = self.dim
        u = pts @ self._a2_inv
        m = self._ellip_radius(pts, u)
        c = 1.0 / (sphere_measure(n) * self._sqrt_det)
        scal = c * m ** (-n)
        return self._a2_inv, scal, u, -n * scal / m ** 2

    def _k1_jacobian(self, pts):
        n = self.dim
        u = pts @ self._a2_inv
        m = self._ellip_radius(pts, u)
        c = 1.0 / (sphere_measure(n) * self._sqrt_det)
        outer = u[:, :, None] * u[:, None, :]
        return c * m[:, None, None] ** (-n) * (
            self._a2_inv[None, :, :] - n * outer / (m ** 2)[:, None, None])

    def k2_jacobian(self, x, weights=None):
        """d_l k2_j = Hessian - d_l k1_j; integrable (degree -(n-1)).

        With an (m,) vector ``weights``, real or complex, returns the (n, n)
        matrix sum_m weights[m] d_l k2_j(x[m]), as :meth:`k1_jacobian`."""
        pts, r, single = _as_points(x, self.dim)
        if weights is not None:
            terms = (None if self.kind != "modified-helmholtz"
                     else lambda: self._k2_moment_terms(pts, r))
            return _moment(self.dim, weights, len(pts), terms)
        if self.kind == "modified-helmholtz":
            out = self._radial_hessian(pts, r) - self._k1_jacobian(pts)
        else:
            out = np.zeros((pts.shape[0], self.dim, self.dim))
        return out[0] if single else out

    def _k2_moment_terms(self, pts, r):
        # per-point (scalar, vectors, outer weight) of d_l k2_j
        # = beta I + alpha z z^t
        beta, alpha_r2 = self.k2_radial(r)
        return np.eye(self.dim), beta, pts, alpha_r2 / (r * r)

    # -- the kernels along a ray -------------------------------------------

    def radial_value(self, dirs, rn):
        """S(r d) at the (rays, P) radii rn on rays with the unit directions
        dirs, |T^{-1} d| taken once per direction: one log per node for
        the 2D log kernels, plus one per direction for the anisotropic
        one."""
        if self.kind == "modified-helmholtz":
            return self._helmholtz_value(rn)
        q = (None if self.kind == "laplace"
             else self._ellip_radius(dirs)[:, None])
        if self.dim == 3:     # S(r q) / sqrt(det a2) = S(r q sqrt(det a2))
            return self._laplace_value(
                rn if q is None else rn * (q * self._sqrt_det))
        out = np.log(rn)
        if q is not None:
            out += np.log(q)
        out *= 1.0 / (2.0 * np.pi * self._sqrt_det)
        return out

    def ray_value(self, dirs, s, m1, ml):
        """sum_j S(r_ij d_i) r_ij^(n-1) wt_j along each ray i with the unit
        direction dirs[i] and the radii r_ij = s_i t_j, for a radial table
        (t, wt) with the moments m1 = sum t wt and ml = sum t log t wt.
        For the homogeneous kinds only: with q = |T^{-1} d|, S(r d) =
        k (log r + log q) in 2D, so the sum is k s ((log s + log q) m1 +
        ml), k = 1/(2 pi sqrt(det a2)); S(r d) = -k / (q r) in 3D, so it
        is -k s m1 / q, k = 1/(4 pi sqrt(det a2)).  One number per ray, no
        radius."""
        if self.kind == "modified-helmholtz":
            raise ValueError("the screened kernel is not homogeneous")
        q = None if self.kind == "laplace" else self._ellip_radius(dirs)
        if self.dim == 3:
            out = s * (-m1 / (4.0 * np.pi * self._sqrt_det))
            return out if q is None else out / q
        log_sq = np.log(s)
        if q is not None:
            log_sq += np.log(q)
        return (log_sq * m1 + ml) * s * (1.0 / (2.0 * np.pi * self._sqrt_det))

    def radial_gradient(self, r):
        """f'(r) of the screened kernel S = f(|x|), whose gradient at
        x = -r d, for a unit vector d, is -f'(r) d."""
        kr = self.kappa * r
        if self.dim == 2:
            return self.kappa * _bessel.k1(kr) / (2.0 * np.pi)
        return np.exp(-kr) * (1.0 + kr) / (4.0 * np.pi * r ** 2)

    def k2_radial(self, r):
        """(beta, alpha r^2) of the screened kernel at |x| = r, so that
        d_l k2_j(-r d) = beta I + alpha r^2 d d^t for a unit vector d; the
        two singular parts cancel in each, point by point."""
        n = self.dim
        fp, fpp = self._radial_derivs(r)
        c = 1.0 / (sphere_measure(n) * self._sqrt_det)
        crn = c * r ** (-n)
        fpr = fp / r
        return fpr - crn, fpp - fpr + n * crn


def _moment(n, weights, m, terms):
    """sum_k w_k (E s_k + o_k v_k v_k^t) for the per-point terms
    (E, s, v, o) = terms(), an (n, n) matrix, (m,) scalars, (m, n) vectors
    and (m,) outer weights; terms None stands for a zero kernel.  A complex
    w is summed as contiguous copies of its real and imaginary parts, so
    the real part of the result has the bits of the same weights passed as
    real; parts that are all zero are skipped, so terms() is not called
    when w = 0."""
    w = np.asarray(weights)
    if w.shape != (m,):
        raise ValueError(f"weights must have shape ({m},), got {w.shape}")
    cplx = np.iscomplexobj(w)
    out = np.zeros((n, n), dtype=complex if cplx else float)
    parts = ([(1.0, np.ascontiguousarray(w.real)),
              (1j, np.ascontiguousarray(w.imag))] if cplx else [(1.0, w)])
    parts = [(unit, p) for unit, p in parts if np.any(p)]
    if terms is None or not parts:
        return out
    E, s, v, o = terms()
    for unit, p in parts:
        out += unit * (E * (p @ s) + (v.T * (p * o)) @ v)
    return out


def gradient_split(fs: FundamentalSolution, j: int, x):
    """Component j of the gradient split: (k_{j,1}(x), k_{j,2}(x))."""
    k1, k2 = fs.split_gradient(x)
    return k1[..., j], k2[..., j]


def _make(op, kind, kappa=0.0):
    if op.dim not in (2, 3):
        raise ValueError(_DIM_ERROR)
    T = factor_principal(op)
    a2_inv = np.linalg.inv(op.a2)
    a2_inv = 0.5 * (a2_inv + a2_inv.T)
    a2_inv.setflags(write=False)
    sqrt_det = float(np.prod(np.diag(T)))
    return FundamentalSolution(op, kind, op.dim, float(kappa), T, a2_inv,
                               sqrt_det)


def laplace_fundamental(n: int) -> FundamentalSolution:
    return _make(laplacian(n), "laplace")


def principal_fundamental(op: OperatorCoefficients) -> FundamentalSolution:
    if not op.is_principal_only:
        raise ValueError(
            "anisotropic-principal fundamental solutions require a1 = 0, a0 = 0")
    return _make(op, "anisotropic-principal")


def helmholtz_fundamental(n: int, kappa: float) -> FundamentalSolution:
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return _make(helmholtz_modified(n, kappa), "modified-helmholtz", kappa)


def fundamental_solution(op: OperatorCoefficients) -> FundamentalSolution:
    """Pick the closed-form kind matching ``op``.

    Supported: a1 = 0 with either a0 = 0 (laplace / anisotropic-principal)
    or a2 = I and a0 = -kappa^2 < 0 real (modified-helmholtz).
    """
    if np.any(op.a1):
        raise ValueError("no closed-form fundamental solution with drift terms")
    identity = np.array_equal(op.a2, np.eye(op.dim))
    if op.a0 == 0:
        if identity:
            return laplace_fundamental(op.dim)
        return principal_fundamental(op)
    if identity and op.a0.imag == 0 and op.a0.real < 0:
        return _make(op, "modified-helmholtz", np.sqrt(-op.a0.real))
    raise ValueError(
        "unsupported operator: need a0 = 0, or a2 = I with real a0 < 0")
