"""The exterior chord rule grades its chords only down to the distance.

The chord rule serves exterior points near a 3D ball (2D points near the
boundary take the flux rays; their cases moved to
``tests/test_disk_flux.py``, at the same points).
``geometry._chord_rays`` grades every chord toward its entry point through
``_chord_levels`` levels: enough for the innermost panel of the longest
chord, 2R, to reach the point's distance to the ball (none beyond 2R),
plus ceil(14 / p) for order-p panels to reach rounding there, and never
more than ``_radial_panel_count(N)``.  The kernel's near-singularity sits
that distance before the entry point, and a graded panel narrower than it
gains nothing more.

The accuracy slice compares the rule with the full depth,
``_radial_panel_count(N)`` levels, and with the same rays graded through
30 levels (the reference).  The bound is twice the full-depth error plus
1e-15, for the value and for the gradient, and for both the smooth density
``one`` and ``abs_x1``.  The points sit 5.5 degrees off the plane x1 = 0,
where ``abs_x1``'s kink crosses the chords near their entry points.

``one`` meets the bound in every case.  ``abs_x1`` misses it in one case,
0.1 bounding radii from a centred ball at N = 20: there the kink falls
inside the graded rule's innermost panel of the chords that enter near
x1 = 0, which the full-depth rule splits 5 more times.  That case is
marked as an expected failure; the graded rule still stays within the
full-depth rule's own error there, estimated by |full(N) - full(2N)|.
"""

from functools import lru_cache

import numpy as np
import pytest

from volpot import (anisotropic, exterior_chord_rule, get_preset,
                    helmholtz_fundamental, laplace_fundamental, make_ball,
                    principal_fundamental, volume_potential,
                    volume_potential_gradient)
from volpot import geometry, potentials
from volpot.geometry import (_chord_levels, _chord_rays, _radial_order,
                             _radial_panel_count)

ONE = get_preset("one")
ABS_X1 = get_preset("abs_x1")
TILT = np.radians(5.5)


def _kernels(n):
    return (laplace_fundamental(n),
            principal_fundamental(anisotropic(np.diag([4.0, 1.0, 2.0][:n]))),
            helmholtz_fundamental(n, 1.0))


def _point(domain, dist):
    a, b = np.sin(TILT), np.cos(TILT)
    return domain.center + (domain.radius + dist) * np.array([a, 0.6 * b,
                                                              0.8 * b])


def _both(y):
    # one density through the real part, the other through the imaginary
    # part: the kernels are real, so each part is its own potential
    return ONE(y) + 1j * ABS_X1(y)


def _graded(fs, domain, x, N, levels=None):
    """Value and gradient of the volume potentials of ``one`` (real part)
    and ``abs_x1`` (imaginary part) at x on the chord rule, the chords
    graded through ``levels`` levels: ``_chord_levels``' when None.  The
    chord rule serves every point here, also those that ``volume_potential``
    hands to the regular rule (0.1 radii out and beyond)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(potentials, "NEAR_FRACTION", np.inf)
        if levels is not None:
            mp.setattr(geometry, "_chord_levels",
                       lambda R, dist, p, n_panels: levels)
        return np.concatenate([[volume_potential(fs, domain, _both, x, N)],
                               volume_potential_gradient(fs, domain, _both,
                                                         x, N)])


def _case(n, N, shift, dist_key):
    domain = make_ball(n, shift * np.eye(n)[0], 1.0)
    # "far": 0.099 bounding radii, just inside the chord rule's reach in
    # ``volume_potential`` for the centred ball
    dist = 0.099 * domain.bounding_radius if dist_key == "far" else dist_key
    return domain, _point(domain, dist)


@lru_cache(maxsize=None)
def _errors(n, N, shift, dist_key):
    """Per kernel, the errors of the graded and of the full-depth rule
    against 30 levels: (graded, full) pairs of complex arrays, value first,
    then the gradient."""
    domain, x = _case(n, N, shift, dist_key)
    out = []
    for fs in _kernels(n):
        ref = _graded(fs, domain, x, N, 30)
        full = _graded(fs, domain, x, N, _radial_panel_count(N))
        out.append((_graded(fs, domain, x, N) - ref, full - ref))
    return out


def test_chord_levels_follow_the_distance():
    # N = 64: 11, 14 and 18 radial panels at offsets 1e-2, 1e-3 and 1e-4
    # instead of 19; at N = 20 (p = 4) and 1e-4 the cap is above the full
    # depth, 14
    p, n_panels = _radial_order(64), _radial_panel_count(64)
    assert [_chord_levels(1.0, d, p, n_panels) + 1
            for d in (1e-2, 1e-3, 1e-4)] == [11, 14, 18]
    p, n_panels = _radial_order(20), _radial_panel_count(20)
    assert _chord_levels(1.0, 1e-4, p, n_panels) == n_panels == 14
    ball = make_ball(3, [0.0, 0.0, 0.0], 1.0)
    x = (1.0 + 1e-4) * np.array([1.0, 2.0, -2.0]) / 3.0
    assert _chord_rays(ball, x, 20)[0].n_panels == 14


def test_chord_levels_stop_at_two_radii():
    # beyond dist = 2R the kernel needs no grading; ceil(14 / p) levels
    # remain, never fewer
    for N in (16, 64, 112, 128):
        p, n_panels = _radial_order(N), _radial_panel_count(N)
        extra = -(-14 // p)
        assert [_chord_levels(1.0, d, p, n_panels)
                for d in (2.0, 2.5, 16.0, 1e6)] == [extra] * 4
        assert _chord_levels(1.0, 1.0, p, n_panels) == extra + 1


@pytest.mark.parametrize("n, N", [(3, 24)])
@pytest.mark.parametrize("dist", [3.0, 10.0])
def test_far_exterior_points_keep_the_accuracy(n, N, dist):
    # Points 3 and 10 radii from a ball centred 100 radii from the origin,
    # on the chord rule (``volume_potential`` gives them the regular rule).
    # Outside the ball the Laplace kernel is harmonic, so the potential of
    # ``one`` is |B| S(x - c) and its gradient |B| grad S(x - c); the
    # graded rule stays within twice the full-depth rule's error against
    # them
    center = 100.0 * np.eye(n)[0]
    ball = make_ball(n, center, 1.0)
    x = _point(ball, dist)
    p = _radial_order(N)
    assert _chord_rays(ball, x, N)[0].n_panels == -(-14 // p)
    fs = laplace_fundamental(n)
    vol = 4.0 * np.pi / 3.0
    exact = vol * np.concatenate([[fs.eval(x - center)],
                                  fs.grad(x - center)])
    graded = _graded(fs, ball, x, N).real
    full = _graded(fs, ball, x, N, _radial_panel_count(N)).real
    assert np.max(np.abs(graded - exact)) <= (
        2.0 * np.max(np.abs(full - exact)) + 1e-15)
    rule = exterior_chord_rule(ball, x, N)
    assert np.all(np.linalg.norm(rule.nodes - center, axis=1) <= 1.0)
    assert abs(np.sum(rule.weights) - vol) <= 1e-8 * vol


CASES = [(3, N, shift, dist_key) for N in (8, 20) for shift in (0.0, 3.0)
         for dist_key in ("far", 1e-2, 1e-3)]
# abs_x1 misses the bound here (see the module docstring)
KINK_MISSES = [(3, 20, 0.0, "far")]


def _graded_or_full(case):
    """Whether the cap binds at the case's point; where it does not, check
    that the rule is the full-depth one."""
    n, N = case[:2]
    domain, x = _case(*case)
    p, n_panels = _radial_order(N), _radial_panel_count(N)
    levels = _chord_levels(domain.radius, np.linalg.norm(x - domain.center)
                           - domain.radius, p, n_panels)
    if levels < n_panels:
        return True
    assert _chord_rays(domain, x, N)[0].n_panels == n_panels
    return False


def _within_bound(part, case):
    for graded, full in _errors(*case):
        for q in (slice(0, 1), slice(1, None)):
            if (np.max(np.abs(part(graded[q])))
                    > 2.0 * np.max(np.abs(part(full[q]))) + 1e-15):
                return False
    return True


@pytest.mark.parametrize("n, N, shift, dist_key", CASES)
def test_graded_chords_keep_the_accuracy_of_one(n, N, shift, dist_key):
    case = (n, N, shift, dist_key)
    if _graded_or_full(case):
        assert _within_bound(np.real, case)


@pytest.mark.parametrize("n, N, shift, dist_key", [
    pytest.param(*case, marks=pytest.mark.xfail(
        strict=True, reason="the kink falls in the innermost graded panel"))
    if case in KINK_MISSES else case for case in CASES])
def test_graded_chords_keep_the_accuracy_of_abs_x1(n, N, shift, dist_key):
    case = (n, N, shift, dist_key)
    if _graded_or_full(case):
        assert _within_bound(np.imag, case)


@pytest.mark.parametrize("n, N, shift, dist_key", KINK_MISSES)
def test_kink_misses_stay_within_the_rule_error(n, N, shift, dist_key):
    # where abs_x1 misses the bound, the graded rule moves it by less than
    # the full-depth rule's own error, |full(N) - full(2N)|
    domain, x = _case(n, N, shift, dist_key)
    for fs in _kernels(n):
        graded = _graded(fs, domain, x, N).imag
        full = _graded(fs, domain, x, N, _radial_panel_count(N)).imag
        full2 = _graded(fs, domain, x, 2 * N, _radial_panel_count(2 * N))
        assert np.max(np.abs(graded - full)) <= 0.1 * np.max(
            np.abs(full2.imag - full))
