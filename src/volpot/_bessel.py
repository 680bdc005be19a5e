"""Modified Bessel functions K0 and K1, and the entire exponential
integral Ein, dependency-free.

K0 and K1 take three branches, each accurate to ~1e-14 relative and agreeing at the seams
well below 1e-12:

* x <= 2: the classical ascending series built on I0/I1 and harmonic numbers.
  There q = x^2/4 <= 1.  Term j of the two K0 sums, i0 = sum q^j/(j!)^2
  and s = sum H_j q^j/(j!)^2, is at most q^j/(j!)^2 (times H_j in s).  As
  i0 >= 1 and s >= q, once q^j/(j!)^2 < 2^-56 and H_j q^(j-1)/(j!)^2 <
  2^-57 for every later j, each later term is below half an ulp of its
  sum, leaves it unchanged when added, and the sum can stop: the
  truncation is exact, not approximate, and its place depends on the
  argument.  After terms 3, 6 and 9 the arguments whose q lies below that
  point's cut-off (``_K0_CUTOFFS``) stop; half of a screened pass's
  arguments need at most 2 terms and nine in ten at most 6.  The rest run
  to k = 14, past the 12 that q <= 1 needs.  The K1 sums run to k = 14 for
  every argument: three of their four sums have positive terms, but the K1
  harmonic sum changes sign once, near x = 0.93 (where the tests compare
  float by float), so its terms have no floor to compare against.
* 2 < x <= 40: Chebyshev interpolants (fitted once at import time) of the
  scaled function sqrt(x) e^x K_nu(x) in the variable 1/x.  The interpolation
  data come from the integral representation
      K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt,
  evaluated by the trapezoid rule, which converges exponentially here.
* x > 40: the large-argument expansion of sqrt(pi/(2x)) e^{-x}; at x = 40
  its optimal truncation error is far below machine precision.

The series run on a per-thread workspace of five float buffers of
``_CHUNK`` elements (320 KiB), allocated on a thread's first call and
reused by every later one: potentials call the kernels once per node
block, and fresh block-sized temporaries would be faulted in page by page
on every call.  Inputs of any shape are flattened and summed a chunk at a
time; every operation acts on one element at a time, so chunking changes
no value.  The returned array is always fresh.

Ein(x) = int_0^x (1 - e^-t) / t dt = E1(x) + log(x) + gamma (``ein``)
takes two branches, each a fixed number of steps, so no loop waits on
convergence:

* x <= 4: its power series sum_j (-1)^(j+1) x^j / (j j!), 30 terms by
  Horner's rule (``power_series``); the first one left out is below
  1e-17 of Ein at x = 4;
* x > 4: E1 from 24 steps of its even continued fraction
  e^-x / (x + 1 - 1 / (x + 3 - 4 / (x + 5 - 9 / ...))), evaluated from
  the tail; at x = 4 they leave E1 within 7e-18 of Ein (20 steps left
  1.8e-16).

Both agree with an exact reference to 4e-16 relative (see
``tests/test_ray_primitives.py``).
"""

from __future__ import annotations

import math
import threading

import numpy as np
from numpy.polynomial import chebyshev

_EULER_GAMMA = 0.5772156649015328606065

_SERIES_CUT = 2.0
_ASYMPTOTIC_CUT = 40.0
_W_LO = 1.0 / _ASYMPTOTIC_CUT
_W_HI = 1.0 / _SERIES_CUT
_CHEB_DEGREE = 48
_SERIES_TERMS = 14


# checkpoint k -> the q below which every K0 term after the k-th is
# negligible (see the module docstring; tests derive them again)
_K0_CUTOFFS = {3: 1.24e-5, 6: 2.02e-2, 9: 0.315}
_CHUNK = 8192
_workspace = threading.local()


def _buffers(m):
    """Five (m,) float buffers of this thread's workspace, m <= _CHUNK."""
    bufs = getattr(_workspace, "bufs", None)
    if bufs is None:
        bufs = _workspace.bufs = np.empty((5, _CHUNK))
    return bufs[:, :m]


def _k0_series(x, out):
    q, term, i0, s, tmp = _buffers(len(x))
    np.multiply(x, x, out=q)
    q /= 4.0
    term.fill(1.0)
    i0.fill(1.0)
    s.fill(0.0)
    # the working set: every argument, or once at most half of them still
    # need terms, those gathered (with their chunk positions ``idx``); its
    # sums are scattered back into i0 and s before each gather and at the end
    wq, wt, wi, ws, wtmp = q, term, i0, s, tmp
    idx = None
    h = 0.0
    for k in range(1, _SERIES_TERMS + 1):
        wt *= wq
        wt /= k * k
        wi += wt
        h += 1.0 / k
        ws += np.multiply(wt, h, out=wtmp)
        if k in _K0_CUTOFFS:
            need = np.flatnonzero(wq >= _K0_CUTOFFS[k])
            if not len(need):
                break
            if 2 * len(need) <= len(wq):
                if idx is not None:
                    i0[idx] = wi
                    s[idx] = ws
                idx = need if idx is None else idx[need]
                wq, wt, wi, ws = wq[need], wt[need], wi[need], ws[need]
                wtmp = tmp[:len(need)]
    if idx is not None:
        i0[idx] = wi
        s[idx] = ws
    # -(log(x / 2) + gamma) i0 + s
    np.divide(x, 2.0, out=out)
    np.log(out, out=out)
    out += _EULER_GAMMA
    np.negative(out, out=out)
    out *= i0
    out += s


def _k1_series(x, out):
    q, term, i1, c, s = _buffers(len(x))
    np.multiply(x, x, out=q)
    q /= 4.0
    np.divide(x, 2.0, out=term)
    i1[:] = term
    for k in range(1, _SERIES_TERMS + 1):
        term *= q
        term /= k * (k + 1)
        i1 += term
    c.fill(1.0)                  # (x^2/4)^k / (k! (k+1)!)
    hk, hk1 = 0.0, 1.0           # harmonic numbers H_k, H_{k+1}
    s.fill(-2.0 * _EULER_GAMMA + hk + hk1)
    for k in range(1, _SERIES_TERMS + 1):
        c *= q
        c /= k * (k + 1)
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        s += np.multiply(c, -2.0 * _EULER_GAMMA + hk + hk1, out=term)
    # 1/x + log(x / 2) i1 - (x / 4) s
    np.divide(x, 2.0, out=out)
    np.log(out, out=out)
    out *= i1
    out += np.divide(1.0, x, out=term)
    s *= np.divide(x, 4.0, out=term)
    out -= s


def _series(series_fn, x):
    """series_fn over x of any shape, a chunk at a time, into a fresh array."""
    flat = x.reshape(-1)
    out = np.empty(flat.shape)
    for i in range(0, len(flat), _CHUNK):
        series_fn(flat[i:i + _CHUNK], out[i:i + _CHUNK])
    return out.reshape(x.shape)


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
        out = _series(series_fn, x)
        return out[0] if scalar else out
    out = np.empty_like(x)
    large = x > _ASYMPTOTIC_CUT
    mid = ~small & ~large
    if np.any(small):
        out[small] = _series(series_fn, x[small])
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


_EIN_CUT = 4.0
_EIN_TERMS = 30
_E1_STEPS = 24


def taylor_coefficients(coef, terms):
    """The coefficients p / (q j!), (p, q) = coef(j), for j = 1 .. terms,
    each rounded once from its exact value (a quotient of Python ints is
    correctly rounded)."""
    out = []
    for j in range(1, terms + 1):
        p, q = coef(j)
        out.append(p / (q * math.factorial(j)))
    return np.array(out)


# coefficients of x^0 .. x^29 of Ein(x) / x
_EIN_SERIES = taylor_coefficients(lambda j: ((-1) ** (j + 1), j), _EIN_TERMS)


def power_series(coeffs, x):
    """sum_j coeffs[j] x^j by Horner's rule, in place on one fresh array
    the shape of x."""
    out = np.full(np.shape(x), coeffs[-1])
    for a in coeffs[-2::-1]:
        out *= x
        out += a
    return out


def ein(x):
    """The entire exponential integral Ein(x) = int_0^x (1 - e^-t) / t dt
    for an array of x >= 0 (see the module docstring)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= _EIN_CUT
    xs = x[small]
    out[small] = xs * power_series(_EIN_SERIES, xs)
    if not small.all():
        xl = x[~small]
        d = xl + (2 * _E1_STEPS + 1)
        for j in range(_E1_STEPS, 0, -1):
            d = xl + (2 * j - 1) - (j * j) / d
        out[~small] = np.exp(-xl) / d + np.log(xl) + _EULER_GAMMA
    return out
