"""The 2D screened kernel's K0 and K1 series factored along rays from x.

On a ray from x every radius is r = s t for the ray length s and one
radial table t, so ``_bessel.ray_series`` sums the x = kappa r <= 2
series as one small matrix product per block of rays (see the
``_bessel`` docstring).  These tests hold it to scipy and to the
elementwise series over a sweep of tables, spans and kappas, derive its
term count from the truncation bound, and check which evaluations take
it: values and gradients on rays from x, and nothing else.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from volpot import (_bessel, cosine_star, helmholtz_fundamental, make_ball,
                    volume_potential, volume_potential_gradient,
                    volume_potential_hessian)
from volpot.geometry import (_radial_order, _radial_panel_count,
                             _radial_tables)
from volpot.potentials import _excised_rules, _rule_sum

EPS = np.finfo(float).eps
# Over the sweep below the factored K0 is no less accurate than the
# elementwise series at its worst (3.1e-15 against 9.1e-15 relative to
# scipy).  The factored K1 is, near x = 2, where the sums cancel about
# sevenfold and the split log and the per-term products add roundings:
# 2.27e-15 against 1.63e-15 (2.68e-15 against 1.78e-15 on a sweep of
# 4000 spans).  Both maxima, and the most the factored error exceeds the
# elementwise one at any point, |ray - ref| - |elementwise - ref| over
# |ref| eps (11.7 eps for K0 and 10.2 for K1 here, 14.6 and 10.6 on the
# 4000-span sweep), read the same on numpy's AVX-512 and AVX2 kernels
# and on OpenBLAS' SkylakeX and Haswell dgemm.  The bounds are fixed from
# the densest sweep measured, never to be loosened.
EXCESS_EPS = 15.0
K1_WORST = 2.7e-15
KAPPAS = (1e-3, 1.0, 30.0)


def _sweep():
    """(t, ks, x) over every radial table of N = 8 .. 128 and spans from
    1e-12 to 5 / kappa, with x = kappa (s t) rounded as the per-node
    kernel forms it."""
    tables = sorted({(_radial_order(N), _radial_panel_count(N))
                     for N in range(8, 129)})
    for table in tables:
        t = _radial_tables(*table)[0]
        for kappa in KAPPAS:
            s = np.geomspace(1e-12, 5.0 / kappa, 1000)
            yield t, kappa * s, kappa * (s[:, None] * t)


@pytest.mark.parametrize("nu", [0, 1])
def test_factored_series_holds_to_scipy_and_the_elementwise_series(nu):
    ref_fn, elementwise = ((special.k0, _bessel.k0) if nu == 0
                           else (special.k1, _bessel.k1))
    worst_ray = worst_elementwise = worst_excess = 0.0
    for t, ks, x in _sweep():
        got = _bessel.ray_series(nu, ks, t, 1.0)
        assert np.all(np.isfinite(got))
        small = x <= 2.0
        xs = x[small]
        ref = ref_fn(xs)
        err_ray = np.abs(got[small] - ref) / ref
        err_el = np.abs(elementwise(xs) - ref) / ref
        worst_ray = max(worst_ray, err_ray.max())
        worst_elementwise = max(worst_elementwise, err_el.max())
        worst_excess = max(worst_excess, ((err_ray - err_el) / EPS).max())
    assert worst_excess <= EXCESS_EPS, worst_excess
    bound = worst_elementwise if nu == 0 else K1_WORST
    assert worst_ray <= bound, (worst_ray, worst_elementwise)


def test_factored_series_scales_and_caches_its_table_by_content():
    t = _radial_tables(7, 14)[0]
    ks = np.array([1e-9, 0.3, 1.9])
    for nu in (0, 1):
        one = _bessel.ray_series(nu, ks, t, 1.0)
        assert np.array_equal(_bessel.ray_series(nu, ks, t.copy(), 1.0), one)
        scaled = _bessel.ray_series(nu, ks, t, -0.25)
        assert np.allclose(scaled, -0.25 * one, rtol=4 * EPS, atol=0.0)
    # another table of the same length gets its own factors
    other = _bessel.ray_series(0, ks, 0.5 * t, 1.0)
    assert np.allclose(other, _bessel.ray_series(0, 0.5 * ks, t, 1.0),
                       rtol=1e-14, atol=0.0)
    assert not np.allclose(other, _bessel.ray_series(0, ks, t, 1.0))


@pytest.mark.parametrize("kappa", KAPPAS)
def test_kernel_on_rays_matches_the_per_node_profile(kappa):
    # fs.radial_value and fs.radial_gradient given the factored radii:
    # the per-node bits wherever kappa r > 2, the series' accuracy below
    fs = helmholtz_fundamental(2, kappa)
    t = _radial_tables(10, 18)[0]
    s = np.geomspace(1e-9, 6.0, 300) / kappa
    rn = s[:, None] * t
    far = kappa * rn > 2.0
    assert far.any() and (~far).any()
    dirs = np.tile([1.0, 0.0], (len(s), 1))
    for got, want in ((fs.radial_value(dirs, rn, (s, t)),
                       fs.radial_value(dirs, rn)),
                      (fs.radial_gradient(rn, (s, t)),
                       fs.radial_gradient(rn))):
        assert np.array_equal(got[far], want[far])
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def _k0_tail_negligible(K):
    """Every K0 term after the K-th is below 2^-56 of K0 at x <= 2: with
    K0(x) >= K0(2), the term (H_j - gamma) q^j / j!^2 of the second sum
    is at most H_j / (j!^2 K0(2)), and log(x / 2) q^j / j!^2 at most
    1 / (2 e j j!^2 K0(2)), as |log q| q^j <= 1 / (e j)."""
    m = special.k0(2.0)
    for j in range(K + 1, 40):
        f2 = math.factorial(j) ** 2
        h = float(sum(Fraction(1, i) for i in range(1, j + 1)))
        if not (h / (f2 * m) < 2.0 ** -56
                and 1.0 / (2 * math.e * j * f2 * m) < 2.0 ** -56):
            return False
    return True


def _k1_tail_negligible(K):
    """Every K1 term after the K-th is below 2^-56 of K1 at x <= 2: with
    m = 2 K1(2) <= x K1(x), the term (x / 4) d_j q^j of the harmonic sum
    is at most |d_j| q^(j+1) / m, and log(x / 2) (x / 2) q^j / (j! (j+1)!)
    at most 1 / (e (j+1) j! (j+1)! m); i1 >= 1 bounds its own terms."""
    m = 2.0 * special.k1(2.0)
    gamma = _bessel._EULER_GAMMA
    for j in range(K + 1, 40):
        f = math.factorial(j) * math.factorial(j + 1)
        h = sum(Fraction(1, i) for i in range(1, j + 1))
        d = abs(float(2 * h + Fraction(1, j + 1)) - 2.0 * gamma) / f
        if not (1.0 / f < 2.0 ** -56 and d / m < 2.0 ** -56
                and 1.0 / (math.e * (j + 1) * f * m) < 2.0 ** -56):
            return False
    return True


def test_factored_term_count_follows_from_the_term_bound():
    K = _bessel._RAY_TERMS
    assert _k0_tail_negligible(K) and _k1_tail_negligible(K)
    # the least such count: K0 needs every term up to K
    assert not _k0_tail_negligible(K - 1)


def _record_bessel(monkeypatch):
    """Patch _bessel.k0, k1 and ray_series to record the arguments of the
    elementwise kernels and count the factored calls."""
    seen = {"args": [], "ray": 0}
    for name in ("k0", "k1"):
        fn = getattr(_bessel, name)

        def wrapped(x, fn=fn):
            seen["args"].append(np.atleast_1d(np.asarray(x, dtype=float)))
            return fn(x)
        monkeypatch.setattr(_bessel, name, wrapped)
    ray_series = _bessel.ray_series

    def counted(*args):
        seen["ray"] += 1
        return ray_series(*args)
    monkeypatch.setattr(_bessel, "ray_series", counted)
    return seen


def _least(seen):
    return min((a.min() for a in seen["args"] if a.size), default=np.inf)


STAR = cosine_star([1.0, 0.0, 0.0, 0.2])
DISK = make_ball(2, [0.0, 0.0], 1.0)
FS = helmholtz_fundamental(2, 1.0)


def _bump(y):
    y = np.atleast_2d(y)
    return np.exp(-2.0 * (y[:, 0] ** 2 + y[:, 1] ** 2))


def _star_point(theta, delta):
    y, _, nu = STAR._boundary(np.array([theta]))
    return y[0] + delta * nu[0]


@pytest.mark.parametrize("delta", [-1e-3, 1e-3, -0.3])
def test_rays_from_x_take_no_elementwise_series(monkeypatch, delta):
    # values and gradients of bump on the flux rays of the star, both
    # sides: the elementwise kernels see only arguments above 2
    x = _star_point(2.5, delta)
    seen = _record_bessel(monkeypatch)
    volume_potential(FS, STAR, _bump, x, 32)
    volume_potential_gradient(FS, STAR, _bump, x, 32)
    assert seen["ray"] > 0
    assert _least(seen) > 2.0


def test_far_rule_excised_rays_and_k2_stay_per_node(monkeypatch):
    seen = _record_bessel(monkeypatch)
    # the far rule runs the kernel on the offsets x - y
    volume_potential(FS, DISK, _bump, np.array([2.5, 0.5]), 32)
    assert seen["ray"] == 0 and _least(seen) <= 2.0
    # excised rays (lo > 0) sum fs.eval on the offsets
    seen["args"].clear()
    x = _star_point(1.0, -0.2)
    rays = _excised_rules(STAR, x, 32, [1e-2])[0]
    _rule_sum(x, rays, lambda z, y: FS.eval(z))
    assert seen["ray"] == 0 and _least(seen) <= 2.0
    # the Hessian's k2 term (``k2_radial``) on rays from x
    seen["args"].clear()
    volume_potential_hessian(FS, STAR, _bump, x, 32)
    assert seen["ray"] == 0 and _least(seen) <= 2.0
