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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _bessel
from .errors import SingularPointError
from .operators import (OperatorCoefficients, factor_principal,
                        helmholtz_modified, laplacian)

KINDS = ("laplace", "anisotropic-principal", "modified-helmholtz")


def sphere_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n (n = 2 or 3)."""
    if n == 2:
        return 2.0 * np.pi
    if n == 3:
        return 4.0 * np.pi
    raise ValueError("only dimensions 2 and 3 are supported")


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
    pts, r, single = _as_points(x, n)
    if n == 2:
        out = np.log(r) / (2.0 * np.pi)
    else:
        out = -1.0 / (4.0 * np.pi * r)
    return out[0] if single else out


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
        # scaled in place: one (m, n) array alive instead of three
        u *= 1.0 / (sphere_measure(n) * self._sqrt_det)
        u *= m[:, None] ** (-n)
        return u

    def grad(self, x):
        """Gradient of the fundamental solution (bitwise equal to the sum of
        the two parts returned by :meth:`split_gradient`)."""
        k1, k2 = self.split_gradient(x)
        return k1 + k2

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

    def _radial_hessian(self, pts, r):
        # H = f''(r) xh xh^t + (f'(r)/r) (I - xh xh^t) for S = f(|x|).
        kr = self.kappa * r
        if self.dim == 2:
            fp = self.kappa * _bessel.k1(kr) / (2.0 * np.pi)
            fpp = -(self.kappa ** 2) * (_bessel.k0(kr)
                                        + _bessel.k1(kr) / kr) / (2.0 * np.pi)
        else:
            e = np.exp(-kr)
            fp = e * (1.0 + kr) / (4.0 * np.pi * r ** 2)
            fpp = -e * (2.0 + 2.0 * kr + kr ** 2) / (4.0 * np.pi * r ** 3)
        xh = pts / r[:, None]
        proj = xh[:, :, None] * xh[:, None, :]
        eye = np.eye(self.dim)[None, :, :]
        return (fpp[:, None, None] * proj
                + (fp / r)[:, None, None] * (eye - proj))

    def k1_jacobian(self, x):
        """Matrix of partial derivatives d_l k1_j; even, homogeneous of
        degree -n, zero mean on the sphere."""
        pts, _, single = _as_points(x, self.dim)
        out = self._k1_jacobian(pts)
        return out[0] if single else out

    def _k1_jacobian(self, pts):
        n = self.dim
        u = pts @ self._a2_inv
        m = self._ellip_radius(pts, u)
        c = 1.0 / (sphere_measure(n) * self._sqrt_det)
        outer = u[:, :, None] * u[:, None, :]
        return c * m[:, None, None] ** (-n) * (
            self._a2_inv[None, :, :] - n * outer / (m ** 2)[:, None, None])

    def k2_jacobian(self, x):
        """d_l k2_j = Hessian - d_l k1_j; integrable (degree -(n-1))."""
        pts, r, single = _as_points(x, self.dim)
        if self.kind == "modified-helmholtz":
            out = self._radial_hessian(pts, r) - self._k1_jacobian(pts)
        else:
            out = np.zeros((pts.shape[0], self.dim, self.dim))
        return out[0] if single else out


def gradient_split(fs: FundamentalSolution, j: int, x):
    """Component j of the gradient split: (k_{j,1}(x), k_{j,2}(x))."""
    k1, k2 = fs.split_gradient(x)
    return k1[..., j], k2[..., j]


def _make(op, kind, kappa=0.0):
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
