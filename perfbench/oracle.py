"""Closed-form references for the unit-ball potentials of f = 1 in 3D.

Each reference returns (value, gradient, hessian) at a point x; the Hessian
is None outside the ball, where the benchmark does not ask for it.  None of
these use volpot's quadrature, so they can judge it.

* Laplace: (r^2 - 3)/6 inside, -1/(3r) outside.
* Screened, (Delta - kappa^2) u = 1_B: -1/kappa^2 + A sinh(kappa r)/r inside
  and B exp(-kappa r)/r outside, with A, B fixed by C^1 matching at r = 1.
* Anisotropic principal part a2 = T T^t (T diagonal): the substitution
  y = T w turns the potential at x into the Newtonian potential at T^{-1} x
  of the uniform ellipsoid with semi-axes 1/T_ii, whose index-symbol
  integrals over s in (lambda, inf) are taken by Gauss-Legendre after the
  map s = lambda + (t/(1-t))^2 (converged to rounding at 256 nodes).
"""

import numpy as np
from numpy.polynomial.legendre import leggauss


def laplace_ball(x):
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r < 1.0:
        return (r * r - 3.0) / 6.0, x / 3.0, np.eye(3) / 3.0
    return -1.0 / (3.0 * r), x / (3.0 * r ** 3), None


def screened_ball(kappa, x):
    k = float(kappa)
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    # C^1 matching at r = 1 of A sinh(kr)/r - 1/k^2 and B exp(-kr)/r
    sh1, ch1, ex1 = np.sinh(k), np.cosh(k), np.exp(-k)
    A, B = np.linalg.solve([[sh1, -ex1], [k * ch1 - sh1, ex1 * (k + 1.0)]],
                           [1.0 / k ** 2, 0.0])
    if r < 1e-12:
        u0 = A * k - 1.0 / k ** 2
        return u0, np.zeros(3), np.eye(3) * (k * k * u0 + 1.0) / 3.0
    if r < 1.0:
        sh, ch = np.sinh(k * r), np.cosh(k * r)
        u = A * sh / r - 1.0 / k ** 2
        up = A * (k * r * ch - sh) / r ** 2
        upp = A * (k * k * sh / r - 2.0 * k * ch / r ** 2 + 2.0 * sh / r ** 3)
    else:
        ex = np.exp(-k * r)
        u = B * ex / r
        up = -B * ex * (k * r + 1.0) / r ** 2
        upp = B * ex * (k * k / r + 2.0 * k / r ** 2 + 2.0 / r ** 3)
    xh = x / r
    proj = np.outer(xh, xh)
    hess = upp * proj + (up / r) * (np.eye(3) - proj)
    return u, up * xh, (hess if r < 1.0 else None)


def _ellipsoid(semi_axes, xi, order=256):
    a2 = np.asarray(semi_axes, dtype=float) ** 2
    inside = np.sum(xi ** 2 / a2) < 1.0
    lam = 0.0
    if not inside:
        # largest root of sum xi_i^2 / (a_i^2 + lam) = 1 (decreasing in lam)
        lo, hi = 0.0, 1.0
        while np.sum(xi ** 2 / (a2 + hi)) > 1.0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.sum(xi ** 2 / (a2 + mid)) > 1.0:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)
    t, w = leggauss(order)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    s = lam + (t / (1.0 - t)) ** 2
    ds = 2.0 * t / (1.0 - t) ** 3 * w
    inv = 1.0 / (a2[None, :] + s[:, None])
    dw = ds / np.sqrt(np.prod(a2[None, :] + s[:, None], axis=1))
    pre = float(np.prod(np.sqrt(a2))) / 4.0
    u = -pre * np.sum((1.0 - np.sum(xi[None, :] ** 2 * inv, axis=1)) * dw)
    g = 2.0 * pre * xi * np.sum(inv * dw[:, None], axis=0)
    h = np.diag(2.0 * pre * np.sum(inv * dw[:, None], axis=0))
    return u, g, (h if inside else None)


def anisotropic_ball(diag_a2, x):
    """Potential of f = 1 on the unit ball for the principal part
    diag(diag_a2), whose Cholesky factor T is diag(sqrt(diag_a2))."""
    t = np.sqrt(np.asarray(diag_a2, dtype=float))
    x = np.asarray(x, dtype=float)
    u, g, h = _ellipsoid(1.0 / t, x / t)
    return u, g / t, (None if h is None else h / np.outer(t, t))
