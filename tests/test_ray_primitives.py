"""The screened 3D kernel's exact radial primitives and Ein.

A ray from x of length l sums a constant density with the screened 3D
kernel in closed form (``fundsol``): with U = kappa l and k = 1/(4 pi),

    value     (1/l) int_0^l g(r) r^2 dr     = -(k/kappa) (1 - e^-U (1 + U)) / U
    gradient  (1/l) int_0^l f'(r) r^2 dr    = k (2 - e^-U (2 + U)) / U
    k2, beta  (1/l) int_0^l beta r^2 dr     = k kappa (-Ein(U) - expm1(-U)) / U
    k2, alpha (1/l) int_0^l alpha r^4 dr    = k kappa (3 Ein(U) - 4 + e^-U (4 + U)) / U

The reference is exact: e^-U and Ein(U) = sum_j (-1)^(j+1) U^j / (j j!)
as Fractions of the float U, their Taylor series run until the next term
is below 2^-200, and pi to 50 digits, so every reference is the correctly
rounded value.  scipy's quad on the per-node profiles (``fs.eval``,
``fs.radial_gradient``, ``fs.k2_radial``) and scipy's exp1 check that the
reference integrates what the per-node path sums.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from volpot import _bessel, helmholtz_fundamental, laplace_fundamental
from volpot.fundsol import _PRIMITIVE_CUT
from volpot.geometry import _radial_tables

# the largest relative error of any primitive or of Ein against the exact
# reference, over every U and kappa below; fixed, never to be loosened
REL_BOUND = 2.8e-15

PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494")
TINY = Fraction(1, 2 ** 200)
KAPPAS = (1e-6, 1.0, 30.0)


def _exact(U):
    """(e^-U, Ein(U)) for the Fraction U, exact to 2^-200."""
    e, ein, term, j = Fraction(1), Fraction(0), Fraction(1), 0
    while True:
        j += 1
        term = term * -U / j          # (-U)^j / j!
        e += term
        ein -= term / j
        if j > U and abs(term) < TINY:
            return e, ein


def _reference(kappa, ell):
    """The four per-ray sums of the docstring for the float kappa and ray
    length ell, exactly, as Fractions."""
    K, L = Fraction(kappa), Fraction(ell)
    U = K * L
    e, ein = _exact(U)
    k = 1 / (4 * PI)
    return (-(k / K) * (1 - e * (1 + U)) / U,
            k * (2 - e * (2 + U)) / U,
            k * K * (-ein + 1 - e) / U,
            k * K * (3 * ein - 4 + e * (4 + U)) / U)


def _u_values():
    """U from 1e-12 to 50, and both sides of the primitives' cut and of
    Ein's."""
    u = list(np.geomspace(1e-12, 50.0, 61))
    for cut in (_PRIMITIVE_CUT, _bessel._EIN_CUT):
        u += [np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf)]
    return np.array(u)


def _computed(fs, ell):
    b, a = fs._ray_k2(ell)
    return (fs.ray_value(None, ell, 0.5, -0.25), fs._ray_gradient(ell), b, a)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_primitives_match_exact_reference(kappa):
    fs = helmholtz_fundamental(3, kappa)
    ell = _u_values() / kappa
    got = _computed(fs, ell)
    worst = 0.0
    for i, l in enumerate(ell):
        for name, g, ref in zip(("value", "gradient", "beta", "alpha"),
                                (v[i] for v in got),
                                _reference(kappa, float(l))):
            rel = abs(Fraction(float(g)) - ref) / abs(ref)
            assert rel <= REL_BOUND, (name, kappa, l, float(rel))
            worst = max(worst, float(rel))
    assert worst > 0.0


def test_ein_matches_exact_reference():
    x = _u_values()
    got = _bessel.ein(x)
    for xi, g in zip(x, got):
        ref = _exact(Fraction(float(xi)))[1]
        rel = abs(Fraction(float(g)) - ref) / ref
        assert rel <= REL_BOUND, (xi, float(rel))
    assert _bessel.ein(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


def test_ein_matches_scipy_exp1():
    # Ein(x) = E1(x) + log(x) + gamma, which cancels badly below x ~ 1
    x = np.geomspace(1.0, 700.0, 200)
    ref = special.exp1(x) + np.log(x) + np.euler_gamma
    assert np.all(np.abs(_bessel.ein(x) - ref) <= 4e-16 * ref)


# quad reports the k2 profiles' rounding as a warning; the bound below
# allows for it
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("kappa, ell", [(1.0, 1e-3), (1.0, 0.3), (1.0, 1.9),
                                        (1.0, 2.1), (3.0, 1.5), (30.0, 0.7),
                                        (1e-3, 2.0)])
def test_primitives_integrate_the_node_profiles(kappa, ell):
    # quad on the integrands the per-node path sums: g r^2 (``fs.eval``),
    # f' r^2, beta r^2 and alpha r^4 (``fs.k2_radial``).  The k2 profiles
    # are differences of terms of size k / r, which cancel to O(kappa^2 r)
    # node by node, so their rounding, about eps k / r at each node, bounds
    # how well quad can know them: 1e-14 k / l after the integral over l
    fs = helmholtz_fundamental(3, kappa)
    k = 1.0 / (4.0 * np.pi)
    e1 = np.array([[1.0, 0.0, 0.0]])
    profiles = (lambda r: fs.eval(r * e1)[0] * r * r,
                lambda r: fs.radial_gradient(np.array([r]))[0] * r * r,
                lambda r: fs.k2_radial(np.array([r]))[0][0] * r * r,
                lambda r: fs.k2_radial(np.array([r]))[1][0] * r * r)
    got = _computed(fs, np.array([ell]))
    for i, (h, g) in enumerate(zip(profiles, got)):
        ref = integrate.quad(h, 0.0, ell, epsabs=0.0, epsrel=1e-13,
                             limit=200)[0] / ell
        rounding = 1e-14 * k / ell if i >= 2 else 0.0
        assert abs(g[0] - ref) <= 1e-11 * abs(ref) + rounding, (i, g[0], ref)


def test_small_kappa_tends_to_the_laplace_ray_sums():
    # kappa -> 0: the value tends to the Laplace kernel's per-ray sum from
    # the table moments, -k s m1 (m1 = 1/2 to rounding), the gradient's
    # factor to k = 1/(4 pi) (the Laplace per-ray gradient is W k1(d),
    # k1(d) = k d), and the k2 terms to 0; the gaps are O(kappa s)
    kappa = 1e-6
    fs = helmholtz_fundamental(3, kappa)
    lap = laplace_fundamental(3)
    s = np.geomspace(1e-6, 3.0, 25)
    _, _, (_, m1, ml) = _radial_tables(7, 14)
    dirs = np.tile([[0.0, 0.0, 1.0]], (len(s), 1))
    want = lap.ray_value(dirs, s, m1, ml)
    got = fs.ray_value(dirs, s, m1, ml)
    assert np.all(np.abs(got - want) <= (kappa * s + 1e-15) * np.abs(want))
    k = 1.0 / (4.0 * np.pi)
    assert np.all(np.abs(fs._ray_gradient(s) - k) <= (kappa * s) ** 2 * k
                  + 4e-16 * k)
    b, a = fs._ray_k2(s)
    assert np.all(np.abs(b) <= kappa * kappa * s * k)
    assert np.all(np.abs(a) <= kappa * kappa * s * k)


def test_series_coefficients_are_correctly_rounded():
    # coefficient of U^(j-1): p / (q j!) rounded once, against Fraction
    from volpot.fundsol import _GRADIENT, _K2, _VALUE
    forms = {"value": (lambda j: Fraction((-1) ** j * (j - 1)),
                       _VALUE[0][0]),
             "gradient": (lambda j: Fraction((-1) ** j * (j - 2)),
                          _GRADIENT[0][0]),
             "beta": (lambda j: Fraction((-1) ** (j + 1) * (j - 1), j),
                      _K2[0][0]),
             "alpha": (lambda j: Fraction((-1) ** (j + 1) * (j - 1)
                                          * (j - 3), j), _K2[0][1])}
    for name, (coef, c) in forms.items():
        assert [float(coef(j) / math.factorial(j))
                for j in range(1, len(c) + 1)] == c.tolist(), name
    assert [float(Fraction((-1) ** (j + 1), j * math.factorial(j)))
            for j in range(1, len(_bessel._EIN_SERIES) + 1)] \
        == _bessel._EIN_SERIES.tolist()
