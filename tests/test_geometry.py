import numpy as np
import pytest

import oracles
from volpot import (DomainError, NearBoundaryError, boundary_rule,
                    cosine_star, disk, ellipse, make_ball, make_star2d,
                    singular_volume_rule, volume_rule)
from volpot.geometry import _gl01, _leggauss, exterior_chord_rule


def test_make_ball_validation():
    with pytest.raises(DomainError):
        make_ball(2, [0, 0], -1.0)
    with pytest.raises(DomainError):
        make_ball(4, [0, 0, 0, 0], 1.0)


def test_star_positive_rho_required():
    with pytest.raises(DomainError):
        make_star2d(lambda t: np.cos(t))  # changes sign


def test_disk_boundary_length_and_normal():
    d = disk()
    bq = boundary_rule(d, 64)
    assert np.sum(bq.weights) == pytest.approx(2.0 * np.pi, abs=1e-12)
    # normal at (1, 0)
    n = d.boundary_normal(0.0)
    assert np.allclose(n, [1.0, 0.0], atol=1e-15)


def test_ball3_volume_and_surface():
    b = make_ball(3, [0.0, 0.0, 0.0], 1.0)
    vq = volume_rule(b, 24)
    assert np.sum(vq.weights) == pytest.approx(4.0 * np.pi / 3.0, abs=1e-8)
    bq = boundary_rule(b, 24)
    assert np.sum(bq.weights) == pytest.approx(4.0 * np.pi, abs=1e-10)


def test_star_trivial_matches_ball():
    s = make_star2d(lambda t: np.ones_like(t), lambda t: np.zeros_like(t))
    d = disk()
    theta = np.linspace(0.0, 2.0 * np.pi, 33)
    assert np.allclose(s.boundary_point(theta), d.boundary_point(theta),
                       atol=1e-12)
    assert np.allclose(s.boundary_normal(theta), d.boundary_normal(theta),
                       atol=1e-12)
    vq_s, vq_d = volume_rule(s, 32), volume_rule(d, 32)
    assert np.sum(vq_s.weights) == pytest.approx(np.sum(vq_d.weights),
                                                 abs=1e-12)
    bq_s, bq_d = boundary_rule(s, 32), boundary_rule(d, 32)
    assert np.sum(bq_s.weights) == pytest.approx(np.sum(bq_d.weights),
                                                 abs=1e-12)


def test_ellipse_area():
    e = ellipse(2.0, 1.0)
    vq = volume_rule(e, 48)
    assert np.sum(vq.weights) == pytest.approx(2.0 * np.pi, abs=1e-10)


def test_perturbed_circle_area_oracle():
    rho = lambda t: 1.0 + 0.2 * np.cos(3.0 * t)
    s = cosine_star([1.0, 0.0, 0.0, 0.2])
    vq = volume_rule(s, 48)
    assert np.sum(vq.weights) == pytest.approx(
        oracles.trapezoid_area_oracle(rho), abs=1e-10)


def test_volume_rule_polynomial_exactness():
    d = disk()
    vq = volume_rule(d, 32)
    assert vq.integrate(np.ones(len(vq.weights))) == pytest.approx(
        np.pi, abs=1e-12)
    assert vq.integrate(vq.nodes[:, 0] ** 2) == pytest.approx(
        np.pi / 4.0, abs=1e-10)
    b = make_ball(3, [0, 0, 0], 1.0)
    vq = volume_rule(b, 24)
    r2 = np.sum(vq.nodes ** 2, axis=1)
    assert vq.integrate(r2) == pytest.approx(4.0 * np.pi / 5.0, abs=1e-8)


def test_singular_rule_inverse_distance_at_center():
    d = disk()
    vq = singular_volume_rule(d, np.zeros(2), 64)
    r = np.linalg.norm(vq.nodes, axis=1)
    assert vq.integrate(1.0 / r) == pytest.approx(2.0 * np.pi, abs=1e-10)


def test_singular_rule_inverse_distance_off_center():
    d = disk()
    x = np.array([0.5, 0.0])
    vq = singular_volume_rule(d, x, 64)
    r = np.linalg.norm(vq.nodes - x[None, :], axis=1)
    assert vq.integrate(1.0 / r) == pytest.approx(
        oracles.disk_inverse_distance_integral(x), abs=1e-6)


def test_singular_rule_smooth_consistency():
    d = disk()
    x = np.array([0.3, -0.2])
    f = lambda pts: np.exp(pts[:, 0]) * np.cos(pts[:, 1])
    vq_s = singular_volume_rule(d, x, 48)
    vq_r = volume_rule(d, 48)
    assert vq_s.integrate(f(vq_s.nodes)) == pytest.approx(
        vq_r.integrate(f(vq_r.nodes)), abs=1e-10)


def test_singular_rule_star_domain():
    s = cosine_star([1.0, 0.0, 0.0, 0.2])
    x = np.array([0.1, 0.2])
    vq = singular_volume_rule(s, x, 48)
    f = lambda pts: np.ones(len(pts))
    assert vq.integrate(f(vq.nodes)) == pytest.approx(
        oracles.trapezoid_area_oracle(lambda t: 1.0 + 0.2 * np.cos(3 * t)),
        abs=1e-9)


def test_singular_rule_covers_nonconvex_lobes():
    # from a point near the boundary of a wavy domain, rays re-enter the
    # neighboring lobes; the rule must integrate over every inside-interval
    s = cosine_star([1.0, 0.0, 0.0, 0.15])
    xb = s.boundary_point(0.98)
    x = xb - 1e-3 * s.boundary_normal(0.98)
    vq = singular_volume_rule(s, x, 48)
    area = oracles.trapezoid_area_oracle(lambda t: 1.0 + 0.15 * np.cos(3 * t))
    # coverage floor: the sqrt-edged angular windows of the re-entered
    # lobes limit near-boundary accuracy on strongly wavy domains
    assert np.sum(vq.weights) == pytest.approx(area, abs=5e-5)
    first, extras = s.ray_intervals(x, np.stack(
        [np.cos(np.linspace(0, 2 * np.pi, 64)),
         np.sin(np.linspace(0, 2 * np.pi, 64))], axis=1))
    assert len(extras) > 0    # the wavy boundary really is re-entered


def test_singular_rule_rejects_non_interior():
    d = disk()
    with pytest.raises(NearBoundaryError):
        singular_volume_rule(d, np.array([1.0, 0.0]), 16)
    with pytest.raises(NearBoundaryError):
        singular_volume_rule(d, np.array([2.0, 0.0]), 16)


def test_exterior_chord_rule_smooth_area():
    d = disk()
    vq = exterior_chord_rule(d, np.array([1.001, 0.0]), 48)
    assert np.sum(vq.weights) == pytest.approx(np.pi, rel=1e-9)
    b = make_ball(3, [0, 0, 0], 1.0)
    vq = exterior_chord_rule(b, np.array([1.01, 0.0, 0.0]), 32)
    assert np.sum(vq.weights) == pytest.approx(4 * np.pi / 3, rel=1e-7)


def test_boundary_normals_properties():
    for dom in (disk(), ellipse(2.0, 1.0), cosine_star([1, 0, 0, 0.2]),
                make_ball(3, [0.1, 0.0, -0.2], 0.8)):
        bq = boundary_rule(dom, 32)
        lengths = np.linalg.norm(bq.normals, axis=1)
        assert np.max(np.abs(lengths - 1.0)) <= 1e-12
        # outward: positive dot with the radial direction from the center
        center = dom.center if dom.kind == "ball" else np.zeros(dom.dim)
        radial = bq.nodes - center[None, :]
        assert np.all(np.einsum("ij,ij->i", bq.normals, radial) > 0)
        # integral of the normal over a closed boundary vanishes
        assert np.max(np.abs(bq.normals.T @ bq.weights)) <= 1e-10


def test_divergence_theorem_all_kinds():
    for dom in (disk(), ellipse(2.0, 1.0), cosine_star([1, 0, 0, 0.2]),
                make_ball(3, [0.0, 0.0, 0.0], 1.0)):
        vq = volume_rule(dom, 48)
        bq = boundary_rule(dom, 48)
        lhs = dom.dim * np.sum(vq.weights)          # int div(y) dy
        rhs = np.sum(np.einsum("ij,ij->i", bq.nodes, bq.normals) * bq.weights)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_boundary_trapezoid_spectral_convergence():
    s = cosine_star([1, 0, 0, 0.2])
    g = lambda pts: np.exp(pts[:, 0]) * np.cos(2.0 * pts[:, 1])
    ref_bq = boundary_rule(s, 512)
    ref = ref_bq.integrate(g(ref_bq.nodes))
    errs = []
    for N in (8, 16, 32):
        bq = boundary_rule(s, N)
        errs.append(abs(bq.integrate(g(bq.nodes)) - ref))
    for e0, e1 in zip(errs, errs[1:]):
        if e0 < 1e-12:
            break
        assert e0 / max(e1, 1e-16) >= 10.0


def test_boundary_parametrization_consistency():
    for dom in (disk(), ellipse(2.0, 1.0), cosine_star([1, 0, 0, 0.2])):
        theta = np.linspace(0, 2 * np.pi, 17)
        pts = dom.boundary_point(theta)
        assert np.max(np.abs(dom.radial_gap(pts))) <= 1e-12


def test_gauss_legendre_nodes_cached_read_only():
    for rule, total in ((_gl01, 1.0), (_leggauss, 2.0)):
        u, w = rule(12)
        again = rule(12)
        assert again[0] is u and again[1] is w
        assert w.sum() == pytest.approx(total, rel=1e-15)
        for arr in (u, w):
            with pytest.raises(ValueError):
                arr[0] = 0.5
