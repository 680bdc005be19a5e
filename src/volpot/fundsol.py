"""Fundamental solutions of the supported operators, as one radial profile.

With a2 = T T^t, every kernel is a radial profile g in the metric of a2,
S(x) = g(|T^{-1} x|) / sqrt(det a2), and the operator alone picks g
(``fundamental_solution``):

* kappa = 0 (a1 = 0, a0 = 0, any a2): g(r) = log(r)/(2 pi) (n = 2) or
  -1/(4 pi r) (n = 3); a2 = I gives the Laplace kernel;
* kappa > 0 (a1 = 0, a2 = I, a0 = -kappa^2): the screened profile
  g(r) = -K0(kappa r)/(2 pi) (n = 2) or -exp(-kappa r)/(4 pi r) (n = 3).

Kernel arithmetic branches only on the dimension, on kappa > 0 and on
a2 = I; ``kind`` only labels reports.  Each gradient component splits into
the gradient of the kappa = 0 profile, odd and positively homogeneous of
degree -(n-1),

    k1_j(x) = |T^{-1} x|^{-n} (a2^{-1} x)_j / (s_n sqrt(det a2)),

plus a remainder k2 = grad S - k1, zero unless kappa > 0.  Along a ray
x = -r d (r > 0, d a unit vector) the kernels factor, so the potentials
call them once per direction instead of once per node: k1(-r d) =
-r^(1-n) k1(d), d_l k1_j(-r d) = r^(-n) d_l k1_j(d), and for the screened
S = f(|x|), grad S(-r d) = -f'(r) d (``radial_gradient``).

A ray from x of length l integrates a constant density in closed form
wherever its radial integrals int_0^l h(r) r^(n-1) dr have one (the
kernel's ``_radial_primitives``).  For kappa = 0, S(r d) = k (log r +
log q(d)) (n = 2) or a(d)/r (n = 3), so a sum on radii r = s t against a
radial table needs two moments of it (``ray_value``).  For the screened
kernel in 3D, with U = kappa l and k = 1/(4 pi), r^2 times g, f', beta
and alpha r^2 each integrate exactly: to -(k/kappa^2) (1 - e^-U (1 + U)),
(k/kappa) (2 - e^-U (2 + U)), k (-Ein(U) - expm1(-U)) and
k (3 Ein(U) - 4 + e^-U (4 + U)), with Ein(U) = int_0^U (1 - e^-t)/t dt
(``_bessel.ein``): the radial integration method of X.-W. Gao (Eng.
Anal. Bound. Elem. 26, 2002) with the radial integral done exactly
(``ray_value``, ``_ray_gradient``, ``_ray_k2``).  Each is entire in U
and cancels to O(U) or O(U^2) at 0, where kappa may be 1e-6, so below
U = 2 it is summed from its Taylor series, whose terms then fall fast,
and from the closed form above, where at most a factor 5 cancels.  The 2D screened
kernel has none: its gradient's primitive int_0^U u K1(u) du needs the
integral of K0, a Struve-function form, so it stays per node.

Every second derivative is one term form (E, s, v, o): at point k, the
matrix E s_k + o_k v_k v_k^t.  With U = x a2^{-1}, m = |T^{-1} x| and
c = 1/(s_n sqrt(det a2)), d k1 is (a2^{-1}, c m^{-n}, U, -n c m^{-n-2});
the screened Hessian is (I, f'/r, x, (f'' - f'/r)/r^2), and d k2 is
(I, beta, x, alpha) with beta = f'/r - c r^{-n} and
alpha = (f'' - f'/r)/r^2 + n c r^{-n-2} formed per point (``k2_radial``),
so the two singular parts cancel before any summation.  Given an (m,)
weight vector w, real or complex, ``k1_jacobian`` and ``k2_jacobian``
return the (n, n) moment sum_k w_k (E s_k + o_k v_k v_k^t) without the
(m, n, n) array, the real and imaginary parts of w summed separately as
real (n, m) @ (m, n) products; a part that is all zero costs nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _bessel
from .errors import SingularPointError, UnsupportedOperatorError
from .operators import (OperatorCoefficients, factor_principal,
                        helmholtz_modified, laplacian)

_DIM_ERROR = "only dimensions 2 and 3 are supported"


def sphere_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n (n = 2 or 3)."""
    if n == 2:
        return 2.0 * np.pi
    if n == 3:
        return 4.0 * np.pi
    raise UnsupportedOperatorError(_DIM_ERROR)


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


@dataclass(frozen=True, eq=False)
class FundamentalSolution:
    """Evaluable fundamental solution with gradient, Hessian and kernel split.

    All evaluation methods accept a single point of shape (n,) or a batch of
    shape (m, n); x = 0 raises :class:`SingularPointError`.  Instances are
    immutable and safe to share across threads.
    """

    operator: OperatorCoefficients
    dim: int
    kappa: float
    T: np.ndarray
    _a2_inv: np.ndarray
    _sqrt_det: float
    _iso: bool          # a2 = I: |T^{-1} x| = |x|

    @property
    def kind(self) -> str:
        """Label of the kernel in reports: ``laplace``,
        ``anisotropic-principal`` or ``modified-helmholtz``."""
        if self.kappa > 0:
            return "modified-helmholtz"
        return "laplace" if self._iso else "anisotropic-principal"

    def _g(self, r):
        """The radial profile g(r), S(x) = g(|T^{-1} x|) / sqrt(det a2)."""
        if self.kappa > 0:
            if self.dim == 2:
                return -_bessel.k0(self.kappa * r) / (2.0 * np.pi)
            return -np.exp(-self.kappa * r) / (4.0 * np.pi * r)
        if self.dim == 2:
            return np.log(r) / (2.0 * np.pi)
        return -1.0 / (4.0 * np.pi * r)

    def _ellip_radius(self, pts, u=None):
        # |T^{-1} x| as the quadratic form sqrt(x . a2^{-1} x), with
        # u = x a2^{-1} when the caller already has it; for a2 = I this is |x|.
        if u is None:
            u = pts @ self._a2_inv
        return np.sqrt(_rowdot(u, pts))

    # -- scalar value ------------------------------------------------------

    def eval(self, x):
        pts, r, single = _as_points(x, self.dim)
        if self._iso:
            out = self._g(r)
        else:
            out = self._g(self._ellip_radius(pts)) / self._sqrt_det
        return out[0] if single else out

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

    def _split(self, pts, r):
        # (k1, k2) at the points; k2 None where the gradient is k1 alone
        k1 = self._k1(pts)
        if self.kappa > 0:
            return k1, pts * (self.radial_gradient(r) / r)[:, None] - k1
        return k1, None

    def grad(self, x):
        """Gradient of the fundamental solution (bitwise equal to the sum of
        the two parts returned by :meth:`split_gradient`)."""
        pts, r, single = _as_points(x, self.dim)
        out, k2 = self._split(pts, r)
        if k2 is not None:
            out = out + k2
        return out[0] if single else out

    def split_gradient(self, x):
        """Pair (k1, k2) with grad = k1 + k2; k2 = 0 unless kappa > 0."""
        pts, r, single = _as_points(x, self.dim)
        k1, k2 = self._split(pts, r)
        if k2 is None:
            k2 = np.zeros_like(k1)
        if single:
            return k1[0], k2[0]
        return k1, k2

    # -- second derivatives ------------------------------------------------

    def hess(self, x):
        """Hessian matrix; symmetric, annihilated by the operator off 0."""
        return self._second(x, None, "hess")

    def k1_jacobian(self, x, weights=None):
        """Matrix of partial derivatives d_l k1_j; even, homogeneous of
        degree -n, zero mean on the sphere.  With an (m,) vector
        ``weights``, the (n, n) moment sum_m weights[m] d_l k1_j(x[m])."""
        return self._second(x, weights, "k1")

    def k2_jacobian(self, x, weights=None):
        """d_l k2_j = Hessian - d_l k1_j; integrable (degree -(n-1)).
        ``weights`` as in :meth:`k1_jacobian`."""
        return self._second(x, weights, "k2")

    def _second(self, x, weights, part):
        pts, r, single = _as_points(x, self.dim)
        if weights is not None:
            return _moment(self.dim, weights, len(pts),
                           lambda: self._terms(pts, r, part))
        out = _expand(self.dim, len(pts), self._terms(pts, r, part))
        return out[0] if single else out

    def _terms(self, pts, r, part):
        """Per-point terms (E, s, v, o) of d k1 (part "k1"), d k2 ("k2") or
        the Hessian ("hess"); None for the zero k2 of a kappa = 0 kernel."""
        n = self.dim
        if part == "k1" or (part == "hess" and self.kappa == 0):
            # d_l k1_j = c [a2^{-1} m^{-n} - n m^{-n-2} u u^t]
            u = pts @ self._a2_inv
            m = self._ellip_radius(pts, u)
            c = 1.0 / (sphere_measure(n) * self._sqrt_det)
            scal = c * m ** (-n)
            return self._a2_inv, scal, u, -n * scal / m ** 2
        if self.kappa == 0:
            return None
        s, a_r2 = self.k2_radial(r) if part == "k2" else self._hess_radial(r)
        return np.eye(n), s, pts, a_r2 / (r * r)

    # -- the screened profile's radial derivatives -------------------------

    def _fprime(self, r):
        # f'(r) of the screened profile, with what f'' reuses of it: the
        # K1(kappa r) (n = 2) or exp(-kappa r) (n = 3) it is formed from
        kr = self.kappa * r
        if self.dim == 2:
            k1 = _bessel.k1(kr)
            return self.kappa * k1 / (2.0 * np.pi), k1, kr
        e = np.exp(-kr)
        return e * (1.0 + kr) / (4.0 * np.pi * r ** 2), e, kr

    def radial_gradient(self, r):
        """f'(r) of the screened kernel S = f(|x|), whose gradient at
        x = -r d, for a unit vector d, is -f'(r) d."""
        return self._fprime(r)[0]

    def _hess_radial(self, r):
        # (f'/r, f'' - f'/r): the Hessian of S = f(|x|) at x = -r d is
        # (f'/r) I + (f'' - f'/r) d d^t
        fp, aux, kr = self._fprime(r)
        if self.dim == 2:
            fpp = -(self.kappa ** 2) * (_bessel.k0(kr) + aux / kr) / (2.0 * np.pi)
        else:
            fpp = -aux * (2.0 + 2.0 * kr + kr ** 2) / (4.0 * np.pi * r ** 3)
        fpr = fp / r
        return fpr, fpp - fpr

    def k2_radial(self, r):
        """(beta, alpha r^2) of the screened kernel at |x| = r, so that
        d_l k2_j(-r d) = beta I + alpha r^2 d d^t for a unit vector d; the
        two singular parts cancel in each, point by point."""
        n = self.dim
        fpr, a_r2 = self._hess_radial(r)
        c = 1.0 / (sphere_measure(n) * self._sqrt_det)
        crn = c * r ** (-n)
        return fpr - crn, a_r2 + n * crn

    # -- the kernels along a ray -------------------------------------------

    def radial_value(self, dirs, rn):
        """S(r d) at the (rays, P) radii rn on rays with the unit directions
        dirs, |T^{-1} d| taken once per direction: one log per node for
        the 2D log kernels, plus one per direction for a2 != I."""
        q = None if self._iso else self._ellip_radius(dirs)[:, None]
        if self.kappa > 0 or self.dim == 3:
            # g(r) where a2 = I; in 3D with kappa = 0,
            # g(r q) / sqrt(det a2) = g(r q sqrt(det a2))
            return self._g(rn if q is None else rn * (q * self._sqrt_det))
        out = np.log(rn)
        if q is not None:
            out += np.log(q)
        out *= 1.0 / (2.0 * np.pi * self._sqrt_det)
        return out

    @property
    def _radial_primitives(self):
        """Whether a ray from x sums a constant density in closed form,
        one number per ray and no radius (``ray_value``): kappa = 0, or
        the screened kernel in 3D."""
        return self.kappa == 0 or self.dim == 3

    def ray_value(self, dirs, s, m1, ml):
        """sum_j S(r_ij d_i) r_ij^(n-1) wt_j along each ray i with the unit
        direction dirs[i] and the radii r_ij = s_i t_j, for a radial table
        (t, wt) with the moments m1 = sum t wt and ml = sum t log t wt.
        For kappa = 0, with q = |T^{-1} d|, S(r d) = k (log r + log q) in
        2D, so the sum is k s ((log s + log q) m1 + ml),
        k = 1/(2 pi sqrt(det a2)); S(r d) = -k / (q r) in 3D, so it is
        -k s m1 / q, k = 1/(4 pi sqrt(det a2)).  For the screened kernel
        in 3D it is the integral the table approximates, (1/s) int_0^s
        g(r) r^2 dr, exactly (see the module docstring), and the moments
        go unused.  One number per ray, no radius; the 2D screened kernel
        raises ValueError."""
        if self.kappa > 0:
            if self.dim == 2:
                raise ValueError("the 2D screened kernel is not homogeneous "
                                 "and has no radial primitive")
            return (-1.0 / (4.0 * np.pi * self.kappa)) * _primitives(
                self.kappa * s, _VALUE)[0]
        q = None if self._iso else self._ellip_radius(dirs)
        if self.dim == 3:
            out = s * (-m1 / (4.0 * np.pi * self._sqrt_det))
            return out if q is None else out / q
        log_sq = np.log(s)
        if q is not None:
            log_sq += np.log(q)
        return (log_sq * m1 + ml) * s * (1.0 / (2.0 * np.pi * self._sqrt_det))

    def _ray_gradient(self, s):
        """(1/s) int_0^s f'(r) r^2 dr of the screened 3D kernel for the
        ray lengths s: the ray's gradient sum for f = 1 is minus this
        times its direction."""
        return _primitives(self.kappa * s, _GRADIENT)[0] / (4.0 * np.pi)

    def _ray_k2(self, s):
        """(1/s) int_0^s (beta, alpha r^2) r^2 dr (``k2_radial``) of the
        screened 3D kernel for the ray lengths s: the ray's k2 moment for
        f = 1 is the first times I plus the second times d d^t."""
        b, a = _primitives(self.kappa * s, _K2)
        scale = self.kappa / (4.0 * np.pi)
        return b * scale, a * scale


def _value_closed(U):
    return (1.0 - np.exp(-U) * (1.0 + U),)


def _gradient_closed(U):
    return (2.0 - np.exp(-U) * (2.0 + U),)


def _k2_closed(U):
    ein = _bessel.ein(U)
    return (-ein - np.expm1(-U),
            3.0 * ein - 4.0 + np.exp(-U) * (4.0 + U))


def _series(coef):
    return _bessel.taylor_coefficients(coef, 24)


# The screened 3D primitives divided by U (see the module docstring), one
# family per ray method: the Taylor series of each primitive over U (the
# coefficient j - 1 of each is that of U^j in the primitive over its
# constant factor) and the closed forms of them all.  Below U = 2 the
# first term left out is below 1e-16 of the sum.
_PRIMITIVE_CUT = 2.0
_VALUE = ((_series(lambda j: ((-1) ** j * (j - 1), 1)),), _value_closed)
_GRADIENT = ((_series(lambda j: ((-1) ** j * (j - 2), 1)),),
             _gradient_closed)
_K2 = ((_series(lambda j: ((-1) ** (j + 1) * (j - 1), j)),
        _series(lambda j: ((-1) ** (j + 1) * (j - 1) * (j - 3), j))),
       _k2_closed)


def _primitives(U, family):
    """The primitives of family = (series, closed) over U at the values
    U: their series below _PRIMITIVE_CUT, closed(U) over U above it."""
    series, closed = family
    outs = [np.empty_like(U) for _ in series]
    small = U < _PRIMITIVE_CUT
    u = U[small]
    for out, coeffs in zip(outs, series):
        out[small] = _bessel.power_series(coeffs, u)
    if not small.all():
        u = U[~small]
        for out, v in zip(outs, closed(u)):
            out[~small] = v / u
    return outs


def _expand(n, m, terms):
    """The (m, n, n) array E s_k + o_k v_k v_k^t of the per-point terms
    (E, s, v, o); zeros for terms None."""
    if terms is None:
        return np.zeros((m, n, n))
    E, s, v, o = terms
    return E * s[:, None, None] + (o[:, None] * v)[:, :, None] * v[:, None, :]


def _moment(n, weights, m, terms):
    """sum_k w_k (E s_k + o_k v_k v_k^t) for the per-point terms
    (E, s, v, o) = terms(), an (n, n) matrix, (m,) scalars, (m, n) vectors
    and (m,) outer weights; terms() None stands for a zero kernel.  A
    complex w is summed as contiguous copies of its real and imaginary
    parts, so the real part of the result has the bits of the same weights
    passed as real; parts that are all zero are skipped, so terms() is not
    called when w = 0."""
    w = np.asarray(weights)
    if w.shape != (m,):
        raise ValueError(f"weights must have shape ({m},), got {w.shape}")
    cplx = np.iscomplexobj(w)
    out = np.zeros((n, n), dtype=complex if cplx else float)
    parts = ([(1.0, np.ascontiguousarray(w.real)),
              (1j, np.ascontiguousarray(w.imag))] if cplx else [(1.0, w)])
    parts = [(unit, p) for unit, p in parts if np.any(p)]
    terms = terms() if parts else None
    if terms is None:
        return out
    E, s, v, o = terms
    for unit, p in parts:
        out += unit * (E * (p @ s) + (v.T * (p * o)) @ v)
    return out


def _make(op, kappa=0.0):
    if op.dim not in (2, 3):
        raise UnsupportedOperatorError(_DIM_ERROR)
    T = factor_principal(op)
    a2_inv = np.linalg.inv(op.a2)
    a2_inv = 0.5 * (a2_inv + a2_inv.T)
    a2_inv.setflags(write=False)
    sqrt_det = float(np.prod(np.diag(T)))
    return FundamentalSolution(op, op.dim, float(kappa), T, a2_inv, sqrt_det,
                               bool(np.array_equal(op.a2, np.eye(op.dim))))


def laplace_fundamental(n: int) -> FundamentalSolution:
    return _make(laplacian(n))


def principal_fundamental(op: OperatorCoefficients) -> FundamentalSolution:
    if not op.is_principal_only:
        raise UnsupportedOperatorError(
            "principal-part fundamental solutions require a1 = 0, a0 = 0")
    return _make(op)


def helmholtz_fundamental(n: int, kappa: float) -> FundamentalSolution:
    if not kappa > 0:
        raise UnsupportedOperatorError("kappa must be positive")
    return _make(helmholtz_modified(n, kappa), kappa)


def fundamental_solution(op: OperatorCoefficients) -> FundamentalSolution:
    """The kernel of ``op``: the kappa = 0 profile for a1 = 0 and a0 = 0,
    the screened one for a1 = 0, a2 = I and real a0 = -kappa^2 < 0.  Any
    other operator raises :class:`UnsupportedOperatorError`, naming the
    terms that have no kernel."""
    if np.any(op.a1):
        raise UnsupportedOperatorError(
            "no fundamental solution for the drift term a1 != 0")
    if op.a0 == 0:
        return _make(op)
    if not np.array_equal(op.a2, np.eye(op.dim)):
        raise UnsupportedOperatorError(
            f"no fundamental solution for a0 = {op.a0} with a2 != I: the "
            "screened kernel needs a2 = I")
    if op.a0.imag != 0 or not op.a0.real < 0:
        raise UnsupportedOperatorError(
            f"no fundamental solution for a0 = {op.a0}: the screened kernel "
            "needs a real a0 < 0")
    return _make(op, np.sqrt(-op.a0.real))
