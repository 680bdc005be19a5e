import sys
import threading
from fractions import Fraction
from math import factorial

import numpy as np
from scipy import special

from volpot import _bessel


def test_k0_k1_accuracy_against_scipy():
    x = np.concatenate([np.geomspace(1e-6, 2.0, 60),
                        np.linspace(2.0, 40.0, 97),
                        np.geomspace(40.0, 650.0, 40)])
    assert np.max(np.abs(_bessel.k0(x) - special.k0(x)) / special.k0(x)) < 1e-12
    assert np.max(np.abs(_bessel.k1(x) - special.k1(x)) / special.k1(x)) < 1e-12


def test_branch_seam_agreement():
    # k0 and k1 take the series branch at x = 2
    for seam, small, mid in ((2.0, _bessel.k0, _bessel._CHEB_K0),
                             (2.0, _bessel.k1, _bessel._CHEB_K1)):
        x = np.array([seam])
        gap = abs(small(x)[0] - _bessel._k_mid(x, mid)[0])
        assert gap < 1e-12 * special.k0(seam)
    for nu, mid in ((0, _bessel._CHEB_K0), (1, _bessel._CHEB_K1)):
        x = np.array([40.0])
        gap = abs(_bessel._k_asymptotic(nu, x)[0] - _bessel._k_mid(x, mid)[0])
        assert gap < 1e-12 * special.kn(nu, 40.0)


def test_scalar_and_array_shapes():
    assert np.isscalar(float(_bessel.k0(1.0)))
    out = _bessel.k1(np.array([[0.5, 1.0], [2.0, 3.0]]))
    assert out.shape == (2, 2)


def _k0_series_31(x):
    q = x * x / 4.0
    term = np.ones_like(x)
    i0 = np.ones_like(x)
    s = np.zeros_like(x)
    h = 0.0
    for k in range(1, 32):
        term = term * q / (k * k)
        i0 = i0 + term
        h += 1.0 / k
        s = s + term * h
    return -(np.log(x / 2.0) + _bessel._EULER_GAMMA) * i0 + s


def _k1_series_31(x):
    q = x * x / 4.0
    term = x / 2.0
    i1 = term.copy()
    for k in range(1, 32):
        term = term * q / (k * (k + 1))
        i1 = i1 + term
    s = np.zeros_like(x)
    c = np.ones_like(x)
    hk, hk1 = 0.0, 1.0
    for k in range(0, 32):
        if k > 0:
            c = c * q / (k * (k + 1))
            hk += 1.0 / k
            hk1 += 1.0 / (k + 1)
        s = s + (-2.0 * _bessel._EULER_GAMMA + hk + hk1) * c
    return 1.0 / x + np.log(x / 2.0) * i1 - (x / 4.0) * s


def _cutoff_holds(q, k, j_max=40):
    """Every K0 term after the k-th is negligible at q <= 1 (the bound of
    the _bessel docstring, in exact arithmetic); the terms fall with j, so
    j_max = 40 covers every later one."""
    h = sum(Fraction(1, j) for j in range(1, k + 1))
    for j in range(k + 1, j_max):
        h += Fraction(1, j)
        f2 = factorial(j) ** 2
        if not (q ** j / f2 < Fraction(1, 2 ** 56)
                and h * q ** (j - 1) / f2 < Fraction(1, 2 ** 57)):
            return False
    return True


def test_k0_cutoffs_follow_from_the_term_bound():
    for k, cut in _bessel._K0_CUTOFFS.items():
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _cutoff_holds(Fraction(mid), k) else (lo, mid)
        # the literal keeps the bound and gives away under 1% of the range
        assert _cutoff_holds(Fraction(cut), k)
        assert 0.99 * lo < cut <= lo


def test_series_truncation_is_bitwise_exact():
    # the 31-term series is the reference (every x <= 2 takes the series
    # branch); the K1 harmonic sum changes sign near x = 0.9307780097, so
    # every float within 2e5 ulps of it is checked, as are the floats
    # within 1000 ulps of the x where each K0 cut-off stops the sum.  The
    # shuffled copy mixes arguments that stop at different terms in one
    # chunk, and the 2-D and scalar inputs go through the reshapes.
    root = 0.9307780096828530
    cut_x = [2.0 * np.sqrt(c) for c in _bessel._K0_CUTOFFS.values()]
    x = np.concatenate([np.linspace(0.0, 2.0, 1_000_001)[1:],
                        np.geomspace(1e-300, 2.0, 100_001), [2.0],
                        root + np.arange(-200_000, 200_001)
                        * np.spacing(root)]
                       + [c + np.arange(-1000, 1001) * np.spacing(c)
                          for c in cut_x])
    shuffled = np.random.default_rng(0).permutation(x)
    grid = x[:1_000_000].reshape(1000, 1000)
    for fn, ref in ((_bessel.k0, _k0_series_31), (_bessel.k1, _k1_series_31)):
        assert np.array_equal(fn(x), ref(x))
        assert np.array_equal(fn(shuffled), ref(shuffled))
        out = fn(grid)
        assert out.shape == grid.shape
        assert np.array_equal(out, ref(grid))
        for c in cut_x:
            assert fn(c) == ref(np.array([c]))[0]


def test_series_workspace_threads_match_serial():
    x = np.random.default_rng(1).uniform(1e-3, 2.5, 200_000)
    serial = [_bessel.k0(x), _bessel.k1(x)]
    results = [None] * 4

    def work(i):
        results[i] = [[_bessel.k0(x), _bessel.k1(x)] for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for res in results:
        for pair in res:
            assert np.array_equal(pair[0], serial[0])
            assert np.array_equal(pair[1], serial[1])


def test_series_workspace_stays_one_chunk():
    x = np.linspace(1e-3, 2.0, 1_000_000)
    first = _bessel.k0(x)
    kept = first.copy()
    second = _bessel.k1(x[::-1].copy())
    assert _bessel._workspace.bufs.shape == (5, _bessel._CHUNK)
    for out in (first, second):
        assert not np.shares_memory(out, _bessel._workspace.bufs)
    assert np.array_equal(first, kept)


def _horner(coeffs, x):
    acc = coeffs[-1]
    for a in coeffs[-2::-1]:
        acc = acc * x + a
    return acc


def test_power_series_takes_a_complex_argument():
    # the buffer takes the result type of the coefficients and x: a
    # complex x gives a complex sum, and a real one keeps the bits of a
    # plain Horner loop
    coeffs = _bessel._EIN_SERIES
    z = np.array([0.5 + 1.0j, -2.0 + 0.3j, 3.0j, 1e-3 - 4.0j])
    got = _bessel.power_series(coeffs, z)
    assert got.dtype == np.complex128
    want = np.array([_horner(coeffs, complex(v)) for v in z])
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * np.abs(want))
    x = np.linspace(0.0, 4.0, 41)
    got = _bessel.power_series(coeffs, x)
    assert got.dtype == np.float64
    assert got.tolist() == [_horner(coeffs.tolist(), float(v)) for v in x]
