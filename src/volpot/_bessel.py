"""Modified Bessel functions K0 and K1, dependency-free.

Three branches, each accurate to ~1e-14 relative and agreeing at the seams
well below 1e-12:

* x <= 2: the classical ascending series built on I0/I1 and harmonic numbers,
  summed to k = 14.  There q = x^2/4 <= 1, so each later term is at most
  H_k / (15!)^2 ~ 2^-78 of its sum's first term.  Three of the four sums
  have positive terms; the K1 harmonic sum changes sign once, near
  x = 0.93, where the tests compare float by float.  Every later term is
  thus below half an ulp of its sum and would leave it unchanged: the
  truncation is exact, not approximate.
* 2 < x <= 40: Chebyshev interpolants (fitted once at import time) of the
  scaled function sqrt(x) e^x K_nu(x) in the variable 1/x.  The interpolation
  data come from the integral representation
      K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt,
  evaluated by the trapezoid rule, which converges exponentially here.
* x > 40: the large-argument expansion of sqrt(pi/(2x)) e^{-x}; at x = 40
  its optimal truncation error is far below machine precision.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev

_EULER_GAMMA = 0.5772156649015328606065

_SERIES_CUT = 2.0
_ASYMPTOTIC_CUT = 40.0
_W_LO = 1.0 / _ASYMPTOTIC_CUT
_W_HI = 1.0 / _SERIES_CUT
_CHEB_DEGREE = 48
_SERIES_TERMS = 14


# The series run in place on a few (m,) buffers: potentials call them once
# per node block, and every temporary is one more block-sized array that
# the heap must grow for, page in and hand back on each call.

def _k0_series(x):
    q = x * x
    q /= 4.0
    term = np.ones_like(x)
    i0 = np.ones_like(x)
    s = np.zeros_like(x)
    tmp = np.empty_like(x)
    h = 0.0
    for k in range(1, _SERIES_TERMS + 1):
        term *= q
        term /= k * k
        i0 += term
        h += 1.0 / k
        s += np.multiply(term, h, out=tmp)
    # -(log(x / 2) + gamma) i0 + s
    out = np.divide(x, 2.0, out=term)
    np.log(out, out=out)
    out += _EULER_GAMMA
    np.negative(out, out=out)
    out *= i0
    out += s
    return out


def _k1_series(x):
    q = x * x
    q /= 4.0
    term = x / 2.0
    i1 = term.copy()
    for k in range(1, _SERIES_TERMS + 1):
        term *= q
        term /= k * (k + 1)
        i1 += term
    c = np.ones_like(x)          # (x^2/4)^k / (k! (k+1)!)
    hk, hk1 = 0.0, 1.0           # harmonic numbers H_k, H_{k+1}
    s = np.full_like(x, -2.0 * _EULER_GAMMA + hk + hk1)
    for k in range(1, _SERIES_TERMS + 1):
        c *= q
        c /= k * (k + 1)
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        s += np.multiply(c, -2.0 * _EULER_GAMMA + hk + hk1, out=term)
    # 1/x + log(x / 2) i1 - (x / 4) s
    out = np.divide(x, 2.0, out=c)
    np.log(out, out=out)
    out *= i1
    out += np.divide(1.0, x, out=term)
    s *= np.divide(x, 4.0, out=term)
    out -= s
    return out


def _scaled_integral(nu: int, x: float) -> float:
    """sqrt(x) e^x K_nu(x) via an exponentially convergent trapezoid rule."""
    T = float(np.arccosh(1.0 + 50.0 / x))
    h = 0.02
    t = np.arange(0.0, T + h, h)
    w = np.exp(-x * (np.cosh(t) - 1.0)) * np.cosh(nu * t)
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(np.sqrt(x) * h * np.sum(w))


def _fit_mid_branch(nu: int) -> np.ndarray:
    def g(t):
        w = 0.5 * ((_W_HI - _W_LO) * t + (_W_HI + _W_LO))
        return np.array([_scaled_integral(nu, 1.0 / wi) for wi in w])

    return chebyshev.chebinterpolate(g, _CHEB_DEGREE)


_CHEB_K0 = _fit_mid_branch(0)
_CHEB_K1 = _fit_mid_branch(1)


def _k_mid(x, coeffs):
    w = 1.0 / x
    t = (2.0 * w - (_W_HI + _W_LO)) / (_W_HI - _W_LO)
    return chebyshev.chebval(t, coeffs) * np.exp(-x) / np.sqrt(x)


def _k_asymptotic(nu: int, x):
    # K_nu(x) ~ sqrt(pi/(2x)) e^{-x} sum_k a_k(nu)/x^k; terms via recurrence.
    out = np.ones_like(x)
    term = np.ones_like(x)
    mu = 4.0 * nu * nu
    for k in range(1, 18):
        term = term * (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        out = out + term
    with np.errstate(under="ignore"):
        return np.sqrt(np.pi / (2.0 * x)) * np.exp(-x) * out


def _eval(x, series_fn, cheb_coeffs, nu):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x <= 0.0):
        raise ValueError("K_nu requires a positive argument")
    small = x <= _SERIES_CUT
    if small.all():
        out = series_fn(x)
        return out[0] if scalar else out
    out = np.empty_like(x)
    large = x > _ASYMPTOTIC_CUT
    mid = ~small & ~large
    if np.any(small):
        out[small] = series_fn(x[small])
    if np.any(mid):
        out[mid] = _k_mid(x[mid], cheb_coeffs)
    if np.any(large):
        out[large] = _k_asymptotic(nu, x[large])
    return out[0] if scalar else out


def k0(x):
    """Modified Bessel function of the second kind, order 0."""
    return _eval(x, _k0_series, _CHEB_K0, 0)


def k1(x):
    """Modified Bessel function of the second kind, order 1."""
    return _eval(x, _k1_series, _CHEB_K1, 1)
