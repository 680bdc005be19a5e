"""Disk points near the boundary take the flux rays, on either side.

Every 2D point within the near/far switch (``potentials._far``, 0.1
radii) takes the flux rays of ``geometry._flux_rays``: rays from x to the
nodes of the graded boundary rule, one ray set per point, on the disk as
on a star domain.  Deeper disk points keep the polar rule about x, and
verify's excised sums keep it at every distance (with r above the
distance the flux rays would converge only algebraically).

The N-ladder: values and gradients of ``one`` and ``bump`` with the
Laplace, anisotropic diag(4, 1) and screened kernels, delta = +-1e-2,
+-1e-3 and +-1e-4 about the unit circle (delta > 0 inside), against the
closed form of ``one`` under the Laplace kernel and the N = 256 value
elsewhere.  Values and gradients are within 1e-14 at N = 64, the
anisotropic gradients within 1e-13 at N = 96, and every error falls from
N = 64 to N = 128 unless it is at 1e-15 already.  The polar rule that
the flux rays replaced there stayed 2.9e-13 (value) and 2.0e-12
(gradient) off at 1e-3 inside, f = 1 with the Laplace kernel, at N = 64
and N = 128 alike.

Two trades of the flux rays are pinned at their measured sizes:
gradients at delta = +-1e-4 and low N (the graded rule holds
2 max(24, 2N) nodes, where the polar rule took 1200 rays whatever N
was), and the anisotropic gradient at delta = +-1e-4.

The chord-grading slice (``tests/test_chord_grading.py``) is kept at its
2D points, on the flux rays: 5.5 degrees off the plane x1 = 0, 0.099
bounding radii, 1e-2 and 1e-3 outside a unit disk centred at the origin
or at 3 e1, with ``one`` and ``abs_x1``, whose kink crosses the centred
disk, against the closed form or 4N.
"""

from functools import lru_cache

import numpy as np
import pytest

from volpot import (anisotropic, disk, get_preset, helmholtz_fundamental,
                    laplace_fundamental, principal_fundamental,
                    volume_potential, volume_potential_gradient,
                    volume_potential_negative)
from volpot import geometry, potentials
from volpot.geometry import (Domain, _drain, _flux_rays,
                             _graded_boundary_rule, _nearest_point)
from volpot.schauder import NegativeExponentDensity
from volpot.verify import check_maximal_bound

DISK = disk()
ONE = get_preset("one")
BUMP = get_preset("bump")
ABS_X1 = get_preset("abs_x1")
KERNELS = {"laplace": laplace_fundamental(2),
           "anisotropic": principal_fundamental(
               anisotropic(np.diag([4.0, 1.0]))),
           "screened": helmholtz_fundamental(2, 1.0)}
DENSITIES = {"one": ONE, "bump": BUMP}
DELTAS = (1e-2, -1e-2, 1e-3, -1e-3, 1e-4, -1e-4)
REFERENCE_N = 256


def _on_circle(theta, delta):
    """The point delta inside (delta < 0: outside) the unit circle at the
    angle theta."""
    return (1.0 - delta) * np.array([np.cos(theta), np.sin(theta)])


def _value_and_gradient(fs, domain, f, x, N):
    return np.concatenate([[volume_potential(fs, domain, f, x, N)],
                           volume_potential_gradient(fs, domain, f, x, N)])


def _closed_form_one(x):
    """The f = 1 Laplace potential of the unit disk and its gradient:
    (|x|^2 - 1) / 4 and x / 2 inside, log|x| / 2 and x / (2 |x|^2)
    outside."""
    r2 = x @ x
    if r2 < 1.0:
        return np.concatenate([[(r2 - 1.0) / 4.0], x / 2.0])
    return np.concatenate([[np.log(r2) / 4.0], x / (2.0 * r2)])


@lru_cache(maxsize=None)
def _ladder_errors(kname, dname, delta, theta=0.7):
    """|value error| and max |gradient error| per N in (32, 64, 96, 128)
    at the point delta from the unit circle at the angle theta."""
    fs, f = KERNELS[kname], DENSITIES[dname]
    x = _on_circle(theta, delta)
    if kname == "laplace" and dname == "one":
        ref = _closed_form_one(x)
    else:
        ref = _value_and_gradient(fs, DISK, f, x, REFERENCE_N)
    out = {}
    for N in (32, 64, 96, 128):
        err = np.abs(_value_and_gradient(fs, DISK, f, x, N) - ref)
        out[N] = (err[0], np.max(err[1:]))
    return out


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("dname", sorted(DENSITIES))
@pytest.mark.parametrize("kname", sorted(KERNELS))
def test_near_boundary_errors_fall_with_N(kname, dname, delta):
    err = _ladder_errors(kname, dname, delta)
    for part in (0, 1):
        e64, e128 = err[64][part], err[128][part]
        assert e128 < e64 or e64 <= 1e-15, (part, err)
    assert err[64][0] <= 1e-14, err
    if kname == "anisotropic":
        assert err[96][1] <= 1e-13, err
    else:
        assert err[64][1] <= 1e-14, err


def test_low_N_gradient_trade_stays_at_its_measured_size():
    # f = 1, Laplace kernel, 9 angles, delta = +-1e-4, against the closed
    # form: the gradient is 1.9e-7 off at N = 16 and 6.0e-10 at N = 32
    # (the polar and chord rules stayed within 5.8e-14 and 3.2e-15); the
    # values are 9.3e-9 and 3.5e-12 off under both
    worst = {16: [0.0, 0.0], 32: [0.0, 0.0]}
    for theta in 2.0 * np.pi * np.arange(9) / 9:
        for delta in (1e-4, -1e-4):
            x = _on_circle(theta, delta)
            ref = _closed_form_one(x)
            for N, w in worst.items():
                err = np.abs(_value_and_gradient(KERNELS["laplace"], DISK, ONE,
                                                 x, N) - ref)
                w[0] = max(w[0], err[0])
                w[1] = max(w[1], np.max(err[1:]))
    assert worst[16][0] <= 9.3e-9 and worst[16][1] <= 1.9e-7, worst
    assert worst[32][0] <= 3.5e-12 and worst[32][1] <= 6.0e-10, worst


def test_anisotropic_gradient_trade_stays_at_its_measured_size():
    # f = 1, diag(4, 1), 4 angles, against N = 256: the gradient at
    # delta = +-1e-4 is 4.1e-8, 3.9e-11 and 2.2e-14 off at N = 32, 64 and
    # 96, and 3.9e-13 off at +-1e-3 and N = 64 (the polar rule stayed
    # 1.1e-12 off at 1e-3 inside for every N); the values are within
    # 2.5e-16 at N = 64, at rounding
    fs = KERNELS["anisotropic"]
    worst = {}
    for theta in (0.7, 2.0, 4.0, 5.5):
        for delta in (1e-4, -1e-4, 1e-3, -1e-3):
            x = _on_circle(theta, delta)
            ref = _value_and_gradient(fs, DISK, ONE, x, REFERENCE_N)
            for N in (32, 64, 96):
                err = np.abs(_value_and_gradient(fs, DISK, ONE, x, N) - ref)
                key = (abs(delta), N)
                w = worst.setdefault(key, [0.0, 0.0])
                w[0] = max(w[0], err[0])
                w[1] = max(w[1], np.max(err[1:]))
    assert worst[1e-4, 32][1] <= 4.1e-8, worst
    assert worst[1e-4, 64][1] <= 3.9e-11, worst
    assert worst[1e-4, 96][1] <= 2.2e-14, worst
    assert worst[1e-3, 64][1] <= 3.9e-13, worst
    assert max(worst[d, 64][0] for d in (1e-4, 1e-3)) <= 1e-15, worst


# -- the chord-grading slice in 2D, on the flux rays ---------------------------

TILT = np.radians(5.5)
CHORD_CASES = [(N, shift, dist_key) for N in (8, 16, 64)
               for shift in (0.0, 3.0) for dist_key in ("far", 1e-2, 1e-3)]
# the largest error of each N where the density is smooth on the rays
# (``one``, and ``abs_x1`` off the centred disk), and where the kink of
# abs_x1 crosses the centred disk, which converges algebraically;
# measured: 2.3e-6, 7.0e-7 and 1.1e-15 smooth, 2.0e-5, 3.7e-6 and 6.1e-7
# with the kink.  The graded boundary rule holds 2 x 24, 2 x 32 and
# 2 x 128 nodes at N = 8, 16 and 64.
SMOOTH_BOUND = {8: 3e-6, 16: 1e-6, 64: 2e-15}
KINK_BOUND = {8: 3e-5, 16: 5e-6, 64: 1e-6}


def _chord_point(shift, dist_key):
    domain = disk(1.0, (shift, 0.0))
    # "far": 0.099 bounding radii, just inside the reach of the near rule
    # for the centred disk
    dist = 0.099 * domain.bounding_radius if dist_key == "far" else dist_key
    return domain, domain.center + (1.0 + dist) * np.array(
        [np.sin(TILT), np.cos(TILT)])


def _one_and_abs_x1(y):
    # one density through the real part, the other through the imaginary
    # part: the kernels are real, so each part is its own potential
    return ONE(y) + 1j * ABS_X1(y)


@lru_cache(maxsize=None)
def _flux_everywhere(kname, N, shift, dist_key):
    """Value and gradient of ``one`` (real part) and ``abs_x1`` (imaginary
    part) at the point on the flux rays, also where ``volume_potential``
    hands it to the regular rule (0.099 bounding radii from the shifted
    disk)."""
    domain, x = _chord_point(shift, dist_key)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(potentials, "NEAR_FRACTION", np.inf)
        return _value_and_gradient(KERNELS[kname], domain, _one_and_abs_x1,
                                   x, N)


@pytest.mark.parametrize("N, shift, dist_key", CHORD_CASES)
def test_flux_rays_at_the_chord_grading_points(N, shift, dist_key):
    domain, x = _chord_point(shift, dist_key)
    for kname in KERNELS:
        got = _flux_everywhere(kname, N, shift, dist_key)
        ref = _flux_everywhere(kname, 4 * N, shift, dist_key)
        if kname == "laplace":
            ref = np.concatenate([[np.pi * KERNELS[kname].eval(
                x - domain.center)], np.pi * KERNELS[kname].grad(
                x - domain.center)]) + 1j * ref.imag
        one, abs_x1 = np.abs((got - ref).real), np.abs((got - ref).imag)
        smooth = one if shift == 0.0 else np.maximum(one, abs_x1)
        assert np.max(smooth) <= SMOOTH_BOUND[N], (kname, one, abs_x1)
        if shift == 0.0:
            assert np.max(abs_x1) <= KINK_BOUND[N], (kname, abs_x1)


@pytest.mark.parametrize("N", [64, 128])
@pytest.mark.parametrize("dist", [3.0, 10.0])
def test_far_exterior_flux_rays_keep_the_closed_form(N, dist):
    # points 3 and 10 radii from a disk centred 100 radii from the origin,
    # on the flux rays (``volume_potential`` gives them the regular rule):
    # outside the disk the Laplace kernel is harmonic, so the potential of
    # ``one`` is pi S(x - c) and its gradient pi grad S(x - c); measured
    # within 6.7e-16, and the drained weights sum to pi within 4.3e-16
    center = np.array([100.0, 0.0])
    domain = disk(1.0, center)
    x = center + (1.0 + dist) * np.array([np.sin(TILT), np.cos(TILT)])
    fs = KERNELS["laplace"]
    exact = np.pi * np.concatenate([[fs.eval(x - center)],
                                    fs.grad(x - center)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(potentials, "NEAR_FRACTION", np.inf)
        got = _value_and_gradient(fs, domain, ONE, x, N).real
    assert np.max(np.abs(got - exact)) <= 1e-15
    graded = _graded_boundary_rule(domain, N, _nearest_point(domain, x))
    rule = _drain(_flux_rays(x, N, graded)[0])
    assert abs(np.sum(rule.weights) - np.pi) <= 1e-15 * np.pi


# -- the work of an evaluation ----------------------------------------------------


def _count(monkeypatch, module, name, calls):
    build = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return build(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("delta", [1e-2, 1e-4, -1e-4, -0.09])
def test_near_disk_evaluations_take_the_flux_rays_once(delta, monkeypatch):
    # a value, a gradient or a negative-density value within the switch
    # solves for the nearest point once and builds the graded boundary
    # rule once (the negative density's boundary term shares it), and
    # casts no ray
    def cast(*args):
        raise AssertionError("a near disk evaluation cast a ray")

    monkeypatch.setattr(Domain, "ray_exit", cast)
    calls = []
    for module in (geometry, potentials):
        for name in ("_nearest_point", "_graded_boundary_rule"):
            _count(monkeypatch, module, name, calls)
    x = _on_circle(0.7, delta)
    nd = NegativeExponentDensity((BUMP, BUMP, ONE), 1.0, 0.0)
    for fs in KERNELS.values():
        for evaluate in (
                lambda: volume_potential(fs, DISK, BUMP, x, 16),
                lambda: volume_potential_gradient(fs, DISK, ONE, x, 16),
                lambda: volume_potential_negative(fs, DISK, nd, x, 16)):
            calls.clear()
            evaluate()
            assert sorted(calls) == ["_graded_boundary_rule",
                                     "_nearest_point"], (fs.kind, calls)


def test_disk_excised_sums_keep_the_polar_rule(monkeypatch):
    # verify's excised sums at a disk point 1e-3 inside, with radii above
    # and below that distance, take the polar rule about x (one ray cast)
    # and no flux ray
    def flux(*args, **kwargs):
        raise AssertionError("an excised disk sum took the flux rays")

    monkeypatch.setattr(geometry, "_flux_rays", flux)
    casts = []
    _count(monkeypatch, Domain, "ray_exit", casts)
    x = _on_circle(0.7, 1e-3)
    check_maximal_bound(KERNELS["laplace"].eval, DISK, x[None, :],
                        [1e-1, 1e-2, 1e-4], N=16)
    assert casts == ["ray_exit"]
