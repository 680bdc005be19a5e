"""The sphere's graded cap grades its polar angles only down to the distance.

Every point within the near/far switch of a 3D ball, inside or outside,
takes the flux rays of ``geometry._flux_rays`` on the graded boundary rule
(2D points near the boundary take them too; their cases are in
``tests/test_disk_flux.py``, at the same points).  On the sphere that rule
is a polar cap about the nearest boundary point whose polar angles are the
order-12 Gauss-Legendre panels of ``_radial_tables``, graded dyadically
through ``_cap_levels`` levels: enough for the innermost panel, pi R
2^-levels wide, to be at most half the point's distance to the sphere.
The kernel's near-singularity sits that distance from the cap's pole, and
a graded panel narrower than it gains nothing more.

The accuracy slice compares the rule with the full depth, the cap graded
through the levels of a point within the boundary band
(``_cap_levels(R, 0)``), and with the same rays on a cap graded through 40
levels (the reference).  The bound is twice the full-depth error plus
1e-15, for the value and for the gradient, and for both the smooth density
``one`` and ``abs_x1``.  The points sit 5.5 degrees off the plane x1 = 0,
where ``abs_x1``'s kink crosses the rays of the points outside the centred
ball.  Every case meets the bound, ``abs_x1`` too; three levels fewer
than ``_cap_levels`` miss it in every case, by 1e-11 to 1e-6.
"""

from functools import lru_cache

import numpy as np
import pytest

from volpot import (anisotropic, exterior_chord_rule, get_preset,
                    helmholtz_fundamental, laplace_fundamental, make_ball,
                    principal_fundamental, volume_potential,
                    volume_potential_gradient)
from volpot import geometry, potentials
from volpot.geometry import (CAP_ORDER, _cap_levels, _graded_boundary_rule,
                             _nearest_point)

ONE = get_preset("one")
ABS_X1 = get_preset("abs_x1")
TILT = np.radians(5.5)
REFERENCE_LEVELS = 40


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
    and ``abs_x1`` (imaginary part) at x on the flux rays, the cap graded
    through ``levels`` levels: ``_cap_levels``' when None.  The flux rays
    serve every point here, also those that ``volume_potential`` hands to
    the regular rule (0.1 radii out and beyond)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(potentials, "NEAR_FRACTION", np.inf)
        if levels is not None:
            mp.setattr(geometry, "_cap_levels", lambda R, dist: levels)
        return np.concatenate([[volume_potential(fs, domain, _both, x, N)],
                               volume_potential_gradient(fs, domain, _both,
                                                         x, N)])


def _case(n, N, shift, dist_key):
    domain = make_ball(n, shift * np.eye(n)[0], 1.0)
    # "far": 0.099 bounding radii, just inside the flux rays' reach in
    # ``volume_potential`` for the centred ball
    dist = 0.099 * domain.bounding_radius if dist_key == "far" else dist_key
    return domain, _point(domain, dist)


@lru_cache(maxsize=None)
def _errors(n, N, shift, dist_key):
    """Per kernel, the errors of the graded and of the full-depth cap
    against 40 levels: (graded, full) pairs of complex arrays, value first,
    then the gradient."""
    domain, x = _case(n, N, shift, dist_key)
    out = []
    for fs in _kernels(n):
        ref = _graded(fs, domain, x, N, REFERENCE_LEVELS)
        full = _graded(fs, domain, x, N, _cap_levels(domain.radius, 0.0))
        out.append((_graded(fs, domain, x, N) - ref, full - ref))
    return out


def test_cap_levels_follow_the_distance():
    # 10, 13 and 16 levels at offsets 1e-2, 1e-3 and 1e-4 from the unit
    # sphere: the innermost panel is at most half the distance wide, the
    # one a level up is not; 12 polar angles per panel, max(16, N)
    # azimuths
    levels = [_cap_levels(1.0, d) for d in (1e-2, 1e-3, 1e-4)]
    assert levels == [10, 13, 16]
    for d, k in zip((1e-2, 1e-3, 1e-4), levels):
        assert np.pi * 0.5 ** k <= d / 2.0 < np.pi * 0.5 ** (k - 1)
    ball = make_ball(3, [0.0, 0.0, 0.0], 1.0)
    x = (1.0 + 1e-4) * np.array([1.0, 2.0, -2.0]) / 3.0
    for N in (12, 20, 40):
        bq = _graded_boundary_rule(ball, N, _nearest_point(ball, x))
        assert len(bq.weights) == CAP_ORDER * 17 * max(16, N)
    # the radius scales the distance
    assert _cap_levels(2.0, 2e-4) == _cap_levels(1.0, 1e-4)


def test_cap_levels_stop_at_the_band_and_at_one():
    # a point within the boundary band (the single layer reads the sphere
    # itself) takes the band's levels, never more; from pi R out one
    # level remains, never fewer
    band = _cap_levels(1.0, geometry.BOUNDARY_BAND)
    assert band == 33
    assert [_cap_levels(1.0, d) for d in (0.0, 1e-12, 1e-300)] == [band] * 3
    assert [_cap_levels(1.0, d) for d in (np.pi, 10.0, 1e6)] == [1] * 3
    assert [_cap_levels(1.0, d) for d in (1.0, 3.0)] == [3, 2]


@pytest.mark.parametrize("n, N", [(3, 24)])
@pytest.mark.parametrize("dist", [3.0, 10.0])
def test_far_exterior_points_keep_the_accuracy(n, N, dist):
    # Points 3 and 10 radii from a ball centred 100 radii from the origin,
    # on the flux rays (``volume_potential`` gives them the regular rule).
    # Outside the ball the Laplace kernel is harmonic, so the potential of
    # ``one`` is |B| S(x - c) and its gradient |B| grad S(x - c); the
    # graded cap stays within twice the full-depth cap's error against
    # them
    center = 100.0 * np.eye(n)[0]
    ball = make_ball(n, center, 1.0)
    x = _point(ball, dist)
    assert _cap_levels(1.0, dist) == (2 if dist == 3.0 else 1)
    fs = laplace_fundamental(n)
    vol = 4.0 * np.pi / 3.0
    exact = vol * np.concatenate([[fs.eval(x - center)],
                                  fs.grad(x - center)])
    graded = _graded(fs, ball, x, N).real
    full = _graded(fs, ball, x, N, _cap_levels(1.0, 0.0)).real
    assert np.max(np.abs(graded - exact)) <= (
        2.0 * np.max(np.abs(full - exact)) + 1e-15)
    rule = exterior_chord_rule(ball, x, N)
    assert abs(np.sum(rule.weights) - vol) <= 1e-8 * vol


CASES = [(3, N, shift, dist_key) for N in (8, 20) for shift in (0.0, 3.0)
         for dist_key in ("far", 1e-2, 1e-3)]


def _within_bound(part, case):
    for graded, full in _errors(*case):
        for q in (slice(0, 1), slice(1, None)):
            if (np.max(np.abs(part(graded[q])))
                    > 2.0 * np.max(np.abs(part(full[q]))) + 1e-15):
                return False
    return True


@pytest.mark.parametrize("n, N, shift, dist_key", CASES)
def test_graded_cap_keeps_the_accuracy_of_one(n, N, shift, dist_key):
    assert _within_bound(np.real, (n, N, shift, dist_key))


@pytest.mark.parametrize("n, N, shift, dist_key", CASES)
def test_graded_cap_keeps_the_accuracy_of_abs_x1(n, N, shift, dist_key):
    assert _within_bound(np.imag, (n, N, shift, dist_key))
