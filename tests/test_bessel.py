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
    for seam, small, mid in ((2.0, _bessel._k0_series, _bessel._CHEB_K0),
                             (2.0, _bessel._k1_series, _bessel._CHEB_K1)):
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


def test_series_truncation_is_bitwise_exact():
    # the 31-term series is the reference; the K1 harmonic sum changes sign
    # near x = 0.9307780097, so every float within 2e5 ulps of it is checked
    root = 0.9307780096828530
    x = np.concatenate([np.linspace(0.0, 2.0, 1_000_001)[1:],
                        np.geomspace(1e-300, 2.0, 100_001), [2.0],
                        root + np.arange(-200_000, 200_001)
                        * np.spacing(root)])
    assert np.array_equal(_bessel._k0_series(x), _k0_series_31(x))
    assert np.array_equal(_bessel._k1_series(x), _k1_series_31(x))
