"""Star-domain volume rules against Green's representation formula.

On a star domain every volume rule about a point, interior or exterior
near the boundary, is the flux rule: rays from x to the nodes of the
graded boundary rule (``geometry._flux_rays``).  For f = L w with
w = e^{k.y} the potential is a boundary integral (``oracles.
green_exp_value``), which no volume rule enters; it is summed here on
the graded boundary rule at N = 512, pinned against a 2^20-node
trapezoid.  The star value errors must fall with N, to at most 1e-9 at
N = 32 and 1e-11 at N = 64.
"""

import numpy as np
import pytest

import oracles
from volpot import (DensityPreset, cosine_star, ellipse, helmholtz_fundamental,
                    laplace_fundamental, singular_volume_rule,
                    volume_potential, volume_potential_gradient,
                    volume_potential_hessian, volume_potential_negative)
from volpot.geometry import (Domain, _graded_boundary_rule, _nearest_point,
                             near_exterior_star_rule)
from volpot.schauder import NegativeExponentDensity
from volpot.verify import check_maximal_bound

STAR = cosine_star([1.0, 0.0, 0.0, 0.2])
WAVY = cosine_star([1.0, 0.0, 0.3])
ELLIPSE = ellipse(2.0, 1.0)
LAPLACE = laplace_fundamental(2)
SCREENED = helmholtz_fundamental(2, 1.0)
K_LAPLACE = np.array([0.6, 0.8])
K_SCREENED = np.array([2.0, 0.0])      # f = 3 e^{2 y1}


def _probe(domain, theta, delta):
    """The point delta inside (delta < 0: outside) the boundary, along the
    normal at parameter theta."""
    return (domain.boundary_point(theta)
            - delta * domain.boundary_normal(theta))


# the points of tests/golden/star_near.cfg, and 42 probes of the wavy star
# and the ellipse
STAR_NEAR = [_probe(STAR, theta, delta) for theta in (0.3, 1.0, 2.5)
             for delta in (1e-2, 1e-4, -1e-4, -1e-2)]
PROBE_ANGLES = 2.0 * np.pi * np.arange(7) / 7


def _probes(domain):
    return [_probe(domain, theta, delta) for theta in PROBE_ANGLES
            for delta in (0.1, -0.1, 1e-2, -1e-2, 1e-4, -1e-4)]


def _density(fs, k):
    lam = oracles.exp_eigenvalue(fs.operator, k)
    return DensityPreset("exp", lambda y: lam * np.exp(np.asarray(y) @ k),
                         None)


def _reference(fs, k, domain, x, N=512):
    bq = _graded_boundary_rule(domain, N, _nearest_point(domain, x))
    return oracles.green_exp_value(fs, k, x, domain.classify(x) > 0,
                                   [(bq.nodes, bq.weights, bq.normals)])


@pytest.mark.parametrize("fs, k, domain, x", [
    (LAPLACE, K_LAPLACE, STAR, _probe(STAR, 1.0, 1e-2)),
    (LAPLACE, K_LAPLACE, STAR, _probe(STAR, 2.5, -1e-2)),
    (LAPLACE, K_LAPLACE, WAVY, _probe(WAVY, np.pi / 2, 0.1)),
    (LAPLACE, K_LAPLACE, ELLIPSE, _probe(ELLIPSE, 2.5, 1e-2)),
    (LAPLACE, K_LAPLACE, ELLIPSE, _probe(ELLIPSE, 1.0, -1e-2)),
    (SCREENED, K_SCREENED, STAR, _probe(STAR, 1.0, 1e-2)),
    (SCREENED, K_SCREENED, STAR, _probe(STAR, 2.5, -1e-2))],
    ids=["star-in", "star-out", "wavy-in", "ellipse-in", "ellipse-out",
         "screened-star-in", "screened-star-out"])
def test_green_reference_matches_a_fine_trapezoid(fs, k, domain, x):
    # the graded boundary rule at N = 512 against 2^20 trapezoid nodes,
    # at offsets 1e-2 and 0.1 on both sides: they agree to 3.3e-16
    ref = oracles.green_exp_value(
        fs, k, x, domain.classify(x) > 0,
        oracles.star_trapezoid(domain.rho, domain.drho))
    assert abs(_reference(fs, k, domain, x) - ref) <= 1e-14 * max(1.0,
                                                                  abs(ref))


CASES = {"star_near screened": (STAR, SCREENED, K_SCREENED, STAR_NEAR),
         "star_near laplace": (STAR, LAPLACE, K_LAPLACE, STAR_NEAR),
         "wavy star": (WAVY, LAPLACE, K_LAPLACE, _probes(WAVY)),
         "ellipse": (ELLIPSE, LAPLACE, K_LAPLACE, _probes(ELLIPSE))}


@pytest.mark.parametrize("label", list(CASES))
def test_star_values_converge_to_green_reference(label):
    # measured: 1.7e-10 / 5.8e-13 (star_near, screened), 1.1e-11 / 1.7e-13
    # (laplace), 1.2e-11 / 2.2e-13 (wavy star), 3.3e-11 / 5.1e-13
    # (ellipse) at N = 32 / 64
    domain, fs, k, points = CASES[label]
    f = _density(fs, k)
    refs = [_reference(fs, k, domain, x) for x in points]
    err = {N: max(abs(volume_potential(fs, domain, f, x, N) - ref)
                  for x, ref in zip(points, refs)) for N in (32, 64)}
    assert err[32] <= 1e-9 and err[64] <= 1e-11, err
    assert err[64] <= err[32] / 10.0, err


def test_star_evaluations_cast_no_ray(monkeypatch):
    # values, gradients, Hessians, component densities, the drained
    # builders and verify's excised sums, inside and outside, near and far
    def cast(*args):
        raise AssertionError("a star evaluation cast a ray")

    monkeypatch.setattr(Domain, "ray_intervals", cast)
    monkeypatch.setattr(Domain, "ray_exit", cast)
    f = _density(LAPLACE, K_LAPLACE)
    nd = NegativeExponentDensity((f, f, f), 1.0, 1.0)
    inside = [np.array([0.1, 0.2]), STAR_NEAR[1], STAR_NEAR[0]]
    for x in inside + STAR_NEAR[2:4] + [np.array([3.0, 1.0])]:
        for fs in (LAPLACE, SCREENED):
            volume_potential(fs, STAR, f, x, 16)
            volume_potential_gradient(fs, STAR, f, x, 16)
            volume_potential_negative(fs, STAR, nd, x, 16)
            if STAR.classify(x) > 0:
                volume_potential_hessian(fs, STAR, f, x, 16)
    for x in inside:
        singular_volume_rule(STAR, x, 16, r_min=1e-3)
    near_exterior_star_rule(STAR, STAR_NEAR[2], 16)
    check_maximal_bound(LAPLACE.eval, STAR, np.array(inside), [1e-1, 1e-3],
                        N=16)
