import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

import oracles
from volpot import (DomainError, NearBoundaryError, PotentialField,
                    VolpotError,
                    boundary_kernel_K, cosine_star, disk, ellipse,
                    exterior_field, get_preset, helmholtz_fundamental,
                    laplace_fundamental, make_ball, negative_density,
                    principal_fundamental, radial_extension, single_layer,
                    subtracted_integral_G,
                    volume_potential, volume_potential_gradient,
                    volume_potential_hessian, volume_potential_negative,
                    volume_rule)
from volpot.geometry import singular_volume_rule
from volpot.operators import OperatorCoefficients
from volpot import geometry, potentials
from volpot.potentials import _Plan, _boundary_integral
from volpot.schauder import NegativeExponentDensity

FS2 = laplace_fundamental(2)
FS3 = laplace_fundamental(3)
DISK = disk()
BALL = make_ball(3, [0.0, 0.0, 0.0], 1.0)
ONE = get_preset("one")
X1 = get_preset("x1")
X1SQ = get_preset("x1sq")


def k_grad2(z):
    z = np.asarray(z)
    r2 = np.sum(z * z, axis=-1)
    return z[..., 0] / (2.0 * np.pi * r2)


def dk_grad2(z):
    z = np.asarray(z)
    r2 = np.sum(z * z, axis=-1)
    out = -2.0 * z * (z[..., 0] / r2)[..., None]
    out[..., 0] += 1.0
    return out / (2.0 * np.pi * r2[..., None])


# -- volume potential closed forms ------------------------------------------

def test_disk_volume_potential_interior():
    assert volume_potential(FS2, DISK, ONE, np.zeros(2), 64) == pytest.approx(
        -0.25, abs=1e-8)


def test_disk_volume_potential_exterior():
    val = volume_potential(FS2, DISK, ONE, np.array([2.0, 0.0]), 64)
    assert val == pytest.approx(np.log(2.0) / 2.0, abs=1e-10)


def test_shifted_ball_switches_rule_by_its_radius(monkeypatch):
    # exterior points switch from the flux rays to the regular rule
    # at 0.1 radii from the ball, wherever it sits: 5 radii from a unit
    # disk centred at 100 e1 the regular rule serves, as it would at the
    # origin, and gives the closed form (R^2 / 2) log|x - c|
    c = np.array([100.0, 0.0])
    shifted, calls = disk(1.0, c), []
    flux = potentials._flux_rays
    monkeypatch.setattr(potentials, "_flux_rays",
                        lambda *a, **k: calls.append(a) or flux(*a, **k))
    val = volume_potential(FS2, shifted, ONE, c + [5.0, 0.0], 64)
    assert not calls
    assert abs(val - 0.5 * np.log(5.0)) <= 1e-12
    volume_potential(FS2, shifted, ONE, c + [1.05, 0.0], 64)
    assert len(calls) == 1


def test_layer_and_volume_rules_share_the_near_far_switch(monkeypatch):
    # a unit disk centred 100 radii out: the point 4 radii from its
    # boundary is far for the volume rule, and so for the boundary rules,
    # whose switch reads the same NEAR_FRACTION of the radius; a single
    # layer of 1 there is 2 pi R S(5) = log 5
    dom = disk(1.0, (100.0, 0.0))
    x = np.array([105.0, 0.0])
    calls = []
    graded = potentials._graded_boundary_rule

    def counted(*args):
        calls.append(1)
        return graded(*args)

    monkeypatch.setattr(potentials, "_graded_boundary_rule", counted)
    val = single_layer(FS2, dom, ONE, x, 64)
    assert calls == []
    assert abs(val - np.log(5.0)) <= 1e-12
    assert potentials._far(dom, dom.distance_to_boundary(x))
    single_layer(FS2, dom, ONE, np.array([101.05, 0.0]), 64)
    assert calls == [1]


STAR = cosine_star([1, 0, 0, 0.2])


@pytest.mark.parametrize("domain, x", [
    (STAR, np.array([0.1, -0.2])), (STAR, np.array([1.199, 0.0])),
    (STAR, np.array([1.201, 0.0])), (STAR, np.array([2.0, 1.0])),
    (DISK, np.array([0.3, -0.2])), (DISK, np.array([1.001, 0.0])),
    (BALL, np.array([0.0, 0.6, 0.7999])), (BALL, np.array([0.0, 0.0, 3.0]))],
    ids=["star-interior", "star-near-interior", "star-near-exterior",
         "star-far", "disk-interior", "disk-near-exterior", "ball-interior",
         "ball-far"])
def test_each_evaluation_solves_for_the_nearest_point_once(domain, x,
                                                           monkeypatch):
    # the calls at a point share its plan (potentials._plan).  The first
    # call solves geometry._nearest_point once and builds the graded
    # boundary rule at most once (its flux rays and boundary terms share
    # it; a far interior star point builds it for its flux rays alone).
    # The calls that follow, whatever their quantity or kernel, solve
    # nothing and build the graded rule at most once in all, where the
    # first call did not need it; once every call has run, a second round
    # solves and builds nothing.  A point one ulp away, a new N or another
    # domain of the same shape solves again.  Every call makes one
    # integrand call per boundary integral, on the cached plain rule far
    # from the boundary and the graded rule near it
    n = domain.dim
    N = 16
    far = potentials._far(domain, domain.distance_to_boundary(x))
    plain = geometry.cached_boundary_rule(domain, N)
    solves, builds, integrands, rules = [], [], [], []
    solve = potentials._nearest_point
    build = potentials._graded_boundary_rule
    integral = potentials._boundary_integral

    def counted_solve(*args):
        solves.append(1)
        return solve(*args)

    def counted_build(*args):
        builds.append(1)
        return build(*args)

    def counted_integral(plan, integrand):
        rules.append(plan.boundary)
        return integral(plan, lambda y, nu: integrands.append(1)
                        or integrand(y, nu))

    monkeypatch.setattr(geometry, "_nearest_point", counted_solve)
    monkeypatch.setattr(potentials, "_nearest_point", counted_solve)
    monkeypatch.setattr(geometry, "_graded_boundary_rule", counted_build)
    monkeypatch.setattr(potentials, "_graded_boundary_rule", counted_build)
    monkeypatch.setattr(potentials, "_boundary_integral", counted_integral)
    nd = NegativeExponentDensity((X1, ONE, X1SQ, ONE)[:n + 1], 1.0, 0.0)
    side = "interior" if domain.classify(x) > 0 else "exterior"

    def k_odd(z):       # z_1 / |z|^n: odd, homogeneous of degree -(n-1)
        z = np.asarray(z)
        return z[..., 0] / np.sum(z * z, axis=-1) ** (n / 2.0)

    def evaluations(fs, x=x, domain=domain, N=N):
        out = {
            "value": lambda: volume_potential(fs, domain, X1SQ, x, N),
            "gradient": lambda: volume_potential_gradient(fs, domain, X1SQ,
                                                          x, N),
            "single layer": lambda: single_layer(fs, domain, ONE, x, N),
            "negative": lambda: volume_potential_negative(fs, domain, nd, x,
                                                          N),
            "K": lambda: boundary_kernel_K(fs.eval, ONE, domain, x, side,
                                           N)}
        if domain.classify(x) > 0:
            out["hessian"] = lambda: volume_potential_hessian(
                fs, domain, X1SQ, x, N)
        if np.linalg.norm(x) <= domain.bounding_radius:
            out["G"] = lambda: subtracted_integral_G(
                k_odd, lambda y: np.asarray(y)[..., 0] ** 2, 0, domain, x, N)
        return out

    kernels = (laplace_fundamental(n), helmholtz_fundamental(n, 1.0))
    layers = {"single layer", "negative", "K", "hessian"}
    star_flux = domain.kind == "star2d" and far and side == "interior"
    for name, evaluate in evaluations(kernels[0]).items():
        monkeypatch.setattr(potentials, "_last", threading.local())
        for seen in (solves, builds, integrands, rules):
            seen.clear()
        evaluate()
        assert len(solves) == 1, name
        if star_flux:
            assert len(builds) == (name not in ("single layer", "K")), name
        assert len(builds) <= 1, name
        assert len(rules) == len(integrands) == (name in layers), name
        for rule in rules:
            assert (rule is plain) == far, name
        for fs in kernels:
            for again in evaluations(fs).values():
                integrands.clear()
                rules.clear()
                again()
                assert len(rules) == len(integrands) <= 1, name
        assert len(solves) == 1 and len(builds) <= 1, name
    solves.clear()
    builds.clear()
    for fs in kernels:
        for again in evaluations(fs).values():
            again()
    assert solves == builds == []

    moved = x.copy()
    moved[0] = np.nextafter(moved[0], np.inf)
    for other in ({"x": moved}, {"N": N + 1},
                  {"domain": dataclasses.replace(domain)}):
        solves.clear()
        evaluations(kernels[0], **other)["value"]()
        assert len(solves) == 1, other


def test_ball_volume_potential_center():
    assert volume_potential(FS3, BALL, ONE, np.zeros(3), 48) == pytest.approx(
        -0.5, abs=1e-6)


def test_near_boundary_band_rejected():
    with pytest.raises(NearBoundaryError):
        volume_potential(FS2, DISK, ONE, np.array([1.0 + 1e-10, 0.0]), 16)


def test_gradient_closed_forms():
    g = volume_potential_gradient(FS2, DISK, ONE, np.array([0.5, 0.0]), 64)
    assert np.allclose(g, [0.25, 0.0], atol=1e-7)
    g = volume_potential_gradient(FS2, DISK, ONE, np.array([2.0, 0.0]), 64)
    assert np.allclose(g, [0.25, 0.0], atol=1e-9)
    zero = lambda y: np.zeros(len(y))
    g = volume_potential_gradient(FS2, DISK, zero, np.array([0.5, 0.0]), 16)
    assert np.all(g == 0.0)


# -- subtraction operator ----------------------------------------------------

def test_G_constant_density_exactly_zero():
    val = subtracted_integral_G(k_grad2, _psi_const, 0, DISK,
                                np.array([0.2, 0.1]), 32)
    assert val == 0.0


def _psi_const(y):
    y = np.asarray(y)
    if y.ndim == 1:
        return 1.0
    return np.ones(y.shape[0])


def _psi_x1sq(y):
    y = np.asarray(y)
    if y.ndim == 1:
        return y[0] ** 2
    return y[:, 0] ** 2


def _psi_x1(y):
    y = np.asarray(y)
    if y.ndim == 1:
        return y[0]
    return y[:, 0]


def test_G_golden_value():
    # int_disk d_1 k (0 - y) y_1^2 dy with k = z1/(2 pi |z|^2)
    val = subtracted_integral_G(k_grad2, _psi_x1sq, 0, DISK, np.zeros(2), 64)
    assert val.real == pytest.approx(-0.125, abs=1e-6)
    assert abs(val.imag) < 1e-14


def test_G_odd_integrand_vanishes():
    val = subtracted_integral_G(k_grad2, _psi_x1, 0, DISK, np.zeros(2), 64)
    assert abs(val) <= 1e-8


def test_G_with_supplied_gradient_matches_fd():
    x = np.array([0.1, -0.3])
    v1 = subtracted_integral_G(k_grad2, _psi_x1sq, 1, DISK, x, 48)
    v2 = subtracted_integral_G(k_grad2, _psi_x1sq, 1, DISK, x, 48, dk=dk_grad2)
    assert v1 == pytest.approx(v2, abs=1e-9)


def test_G_rejects_bad_kernels():
    even = lambda z: 1.0 / np.sum(np.asarray(z) ** 2, axis=-1)
    with pytest.raises(ValueError):
        subtracted_integral_G(even, _psi_x1, 0, DISK, np.zeros(2), 16)
    wrong_degree = lambda z: np.asarray(z)[..., 0] / np.sum(
        np.asarray(z) ** 2, axis=-1) ** 1.5
    with pytest.raises(ValueError):
        subtracted_integral_G(wrong_degree, _psi_x1, 0, DISK, np.zeros(2), 16)


def test_G_rejects_point_outside_bounding_ball():
    with pytest.raises(DomainError):
        subtracted_integral_G(k_grad2, _psi_x1, 0, DISK,
                              np.array([5.0, 0.0]), 16)


# -- boundary kernel operators -----------------------------------------------

def test_K_odd_kernel_constant_moment_cancels():
    val = boundary_kernel_K(k_grad2, lambda y: np.ones(len(y)), DISK,
                            np.zeros(2), "interior", 64)
    assert abs(val) <= 1e-12


def test_K_cosine_moment_value():
    mu = lambda y: np.asarray(y)[:, 0]  # = cos(theta) on the unit circle
    val = boundary_kernel_K(k_grad2, mu, DISK, np.zeros(2), "interior", 64)
    assert val.real == pytest.approx(-0.5, abs=1e-10)


def test_K_exterior_against_oracle():
    mu_nodes = lambda y: np.asarray(y)[:, 0]
    x = np.array([3.0, 0.0])
    val = boundary_kernel_K(k_grad2, mu_nodes, DISK, x, "exterior", 64)
    ref = oracles.boundary_kernel_oracle(k_grad2, np.cos, x)
    assert val.real == pytest.approx(ref, abs=1e-10)


def test_K_side_validation():
    with pytest.raises(DomainError):
        boundary_kernel_K(k_grad2, lambda y: np.ones(len(y)), DISK,
                          np.array([2.0, 0.0]), "interior", 16)


@pytest.mark.parametrize("side", ["exterior ", "Interior", "inside", ""])
def test_K_and_potential_field_reject_an_unknown_side(side):
    # a misspelt side neither skips the side check nor runs as another side
    for x in (np.array([0.5, 0.0]), np.array([1.5, 0.0])):
        with pytest.raises(DomainError, match="'interior' or 'exterior'"):
            boundary_kernel_K(k_grad2, lambda y: np.ones(len(y)), DISK, x,
                              side, 16)
    with pytest.raises(DomainError, match="'interior' or 'exterior'"):
        PotentialField(FS2, DISK, side, 32)


# -- one dimension for kernel, domain and point ----------------------------------

B3_POINT = np.array([0.33333, 0.66666, -0.66666])


def _unit(y):
    return np.ones(len(y))


# (kernel, domain, point) with one dimension off: a 2D kernel on the ball
# (whose value was -0.0935 instead of -1/3), a 3D kernel on the disk
# (-0.25 instead of -0.2375), and points of the wrong length
MISMATCHED = [(FS2, BALL, B3_POINT), (FS3, DISK, np.array([0.2, 0.1])),
              (FS2, DISK, np.array([0.2, 0.1, 0.0])),
              (FS3, BALL, np.array([0.2, 0.1]))]


@pytest.mark.parametrize("fs, domain, x", MISMATCHED,
                         ids=["2d-kernel-3d-ball", "3d-kernel-disk",
                              "3d-point-disk", "2d-point-ball"])
def test_potentials_reject_mismatched_dimensions(fs, domain, x):
    nd = NegativeExponentDensity((ONE,) + (_zero,) * domain.dim, 1.0, 1.0)
    for call in (
            lambda: volume_potential(fs, domain, ONE, x, 20),
            lambda: volume_potential_gradient(fs, domain, ONE, x, 20),
            lambda: volume_potential_hessian(fs, domain, ONE, x, 20),
            lambda: volume_potential_negative(fs, domain, nd, x, 20),
            lambda: single_layer(fs, domain, ONE, x, 20)):
        with pytest.raises(DomainError):
            call()
    if fs.dim != domain.dim:
        with pytest.raises(DomainError, match="kernel on a"):
            PotentialField(fs, domain, "interior", 20)
    else:
        with pytest.raises(DomainError, match="must be a point of"):
            boundary_kernel_K(k_grad2, _unit, domain, x, "interior", 16)
        with pytest.raises(DomainError, match="must be a point of"):
            subtracted_integral_G(k_grad2, X1, 0, domain, x, 16)


# -- Hessian ------------------------------------------------------------------

def test_hessian_disk_constant_density():
    for x in (np.zeros(2), np.array([0.3, 0.2]), np.array([-0.5, 0.1]),
              np.array([0.0, 0.6]), np.array([0.2, -0.4])):
        H = volume_potential_hessian(FS2, DISK, ONE, x, 64)
        assert np.max(np.abs(H - 0.5 * np.eye(2))) <= 1e-6
        assert np.max(np.abs(H - H.T)) <= 1e-6


def test_hessian_zero_density():
    zero = lambda y: np.zeros(len(y))
    H = volume_potential_hessian(FS2, DISK, zero, np.array([0.1, 0.1]), 16)
    assert np.all(H == 0.0)


def test_hessian_trace_recovers_density():
    x = np.array([0.2, 0.1])
    H = volume_potential_hessian(FS2, DISK, X1SQ, x, 64)
    assert np.trace(H).real == pytest.approx(x[0] ** 2, abs=1e-4)


def test_hessian_helmholtz_pde_trace():
    fs = helmholtz_fundamental(2, 1.0)
    x = np.array([0.25, -0.15])
    H = volume_potential_hessian(fs, DISK, ONE, x, 64)
    u = volume_potential(fs, DISK, ONE, x, 64)
    # (Delta - kappa^2) P[f] = f
    assert (np.trace(H) - u).real == pytest.approx(1.0, abs=1e-5)
    assert np.max(np.abs(H - H.T)) <= 1e-6


def test_hessian_anisotropic_pde_trace():
    op = OperatorCoefficients(2, np.diag([4.0, 1.0]), [0, 0], 0)
    fs = principal_fundamental(op)
    x = np.array([0.2, 0.3])
    H = volume_potential_hessian(fs, DISK, ONE, x, 64)
    assert np.sum(op.a2 * H).real == pytest.approx(1.0, abs=1e-5)


# -- single layer -------------------------------------------------------------

def test_single_layer_values_2d():
    assert abs(single_layer(FS2, DISK, ONE, np.zeros(2), 64)) <= 1e-12
    val = single_layer(FS2, DISK, ONE, np.array([np.e, 0.0]), 64)
    assert val.real == pytest.approx(1.0, abs=1e-10)
    on = single_layer(FS2, DISK, ONE, np.array([1.0, 0.0]), 64)
    assert abs(on) <= 1e-10


def test_single_layer_values_3d():
    val = single_layer(FS3, BALL, ONE, np.array([0.3, 0.0, 0.0]), 32)
    assert val.real == pytest.approx(-1.0, abs=1e-8)
    on = single_layer(FS3, BALL, ONE, np.array([0.0, 1.0, 0.0]), 32)
    assert on.real == pytest.approx(-1.0, abs=1e-8)


@pytest.mark.parametrize("N", [12, 20, 40])
@pytest.mark.parametrize("delta", [0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3,
                                   -1e-3])
def test_single_layer_near_the_sphere_is_closed_form(N, delta):
    # the single layer of one on the unit sphere is -1 / max(1, |x|); on
    # and near the sphere the graded cap takes polar panels down to the
    # distance (the boundary band's levels on the sphere itself), to
    # rounding
    for d in (np.array([1.0, 2.0, -2.0]) / 3.0, np.array([0.0, 0.6, 0.8]),
              np.array([2.0, -3.0, 6.0]) / 7.0):
        x = (1.0 + delta) * d
        exact = -1.0 / max(1.0, float(np.linalg.norm(x)))
        val = single_layer(FS3, BALL, ONE, x, N)
        assert abs(val - exact) <= 1e-14, (d, val - exact)


def test_single_layer_continuity_across_boundary():
    # values just inside, on, and just outside agree to the offset scale
    xb = DISK.boundary_point(0.7)
    nu = DISK.boundary_normal(0.7)
    on = single_layer(FS2, DISK, ONE, xb, 48)
    near_in = single_layer(FS2, DISK, ONE, xb - 1e-5 * nu, 48)
    near_out = single_layer(FS2, DISK, ONE, xb + 1e-5 * nu, 48)
    assert abs(on - near_in) < 1e-4
    assert abs(on - near_out) < 1e-4


# -- negative-exponent densities ----------------------------------------------

def _zero(y):
    return np.zeros(np.asarray(y).shape[0])


def test_negative_reduces_to_classical():
    nd = negative_density(DISK, (ONE, _zero, _zero), 1.0)
    x = np.array([0.3, 0.1])
    assert volume_potential_negative(FS2, DISK, nd, x, 48) == \
        volume_potential(FS2, DISK, ONE, x, 48)


def test_negative_divergence_representation():
    # (0, y1, 0) represents d_1 y1 = 1
    nd = negative_density(DISK, (_zero, X1, _zero), 1.0)
    val = volume_potential_negative(FS2, DISK, nd, np.zeros(2), 64)
    assert val.real == pytest.approx(-0.25, abs=1e-6)


def test_negative_compact_component_integrates_by_parts():
    # f1 = (1 - 4 r^2)^4 on r < 1/2, zero outside: no boundary contribution,
    # so the potential equals the classical potential of d_1 f1
    def f1(y):
        y = np.asarray(y)
        q = np.maximum(1.0 - 4.0 * np.sum(y * y, axis=-1), 0.0)
        return q ** 4

    def d1f1(y):
        y = np.asarray(y)
        q = np.maximum(1.0 - 4.0 * np.sum(y * y, axis=-1), 0.0)
        return -32.0 * y[..., 0] * q ** 3

    nd = negative_density(DISK, (_zero, f1, _zero), 1.0)
    x = np.array([0.1, 0.2])
    lhs = volume_potential_negative(FS2, DISK, nd, x, 64)
    rhs = volume_potential(FS2, DISK, d1f1, x, 64)
    assert lhs == pytest.approx(rhs, abs=1e-6)


def _negative_by_composition(fs, domain, nd, x, N):
    # reference: each term from its own public call, with its own rule
    comps = nd.components
    n = domain.dim

    def moment(y, nu):
        dens = sum(nu[:, j] * comps[j + 1](y) for j in range(n))
        return fs.eval(x[None, :] - y) * dens

    total = volume_potential(fs, domain, comps[0], x, N)
    total += _boundary_integral(_Plan(domain, x, N), moment)
    for j in range(n):
        total += volume_potential_gradient(fs, domain, comps[j + 1], x, N)[j]
    return total


@pytest.mark.parametrize("domain, N", [(DISK, 32), (ellipse(2.0, 1.0), 32),
                                       (BALL, 8)])
def test_negative_matches_composition(domain, N):
    n = domain.dim
    comps = (X1SQ, ONE, X1) + ((X1SQ,) if n == 3 else ())
    nd = negative_density(domain, comps, 1.0)
    e = np.zeros(n)
    e[0], e[1] = np.cos(0.7), np.sin(0.7)
    rb = 1.0 if domain.kind == "ball" else float(domain.rho(0.7))
    fs = FS2 if n == 2 else FS3
    for r in (rb - 1e-3, 0.3 * rb, rb + 1e-3, 3.0 * rb):
        x = r * e
        got = volume_potential_negative(fs, domain, nd, x, N)
        ref = _negative_by_composition(fs, domain, nd, x, N)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


# -- exterior field -----------------------------------------------------------

def test_exterior_field_matches_volume_potential():
    vq = volume_rule(DISK, 48)
    tau = (vq.nodes, vq.weights, np.ones(len(vq.weights)))
    val = exterior_field(FS2, tau, np.array([2.0, 0.0]))
    assert val.real == pytest.approx(np.log(2.0) / 2.0, abs=1e-10)


def test_exterior_field_annihilated_by_operator():
    vq = volume_rule(DISK, 48)
    tau = (vq.nodes, vq.weights, np.ones(len(vq.weights)))
    from volpot import apply_operator_fd, laplacian
    u = lambda p: exterior_field(FS2, tau, p)
    val, scale = apply_operator_fd(laplacian(2), u, np.array([2.5, 0.3]),
                                   3e-4, return_scale=True)
    assert abs(val) <= 1e-8 * max(scale, 1.0)


def test_exterior_field_dipole_decay():
    # plus/minus point masses: the far field decays at least like 1/|x|
    nodes = np.array([[0.1, 0.0], [-0.1, 0.0]])
    weights = np.array([1.0, 1.0])
    values = np.array([1.0, -1.0])
    tau = (nodes, weights, values)
    near = abs(exterior_field(FS2, tau, np.array([2.0, 0.0])))
    far = abs(exterior_field(FS2, tau, np.array([1e4, 0.0])))
    assert far <= 1e-3 * near


def test_exterior_field_rejects_hull_points():
    vq = volume_rule(DISK, 16)
    tau = (vq.nodes, vq.weights, np.ones(len(vq.weights)))
    with pytest.raises(DomainError):
        exterior_field(FS2, tau, np.array([0.2, 0.0]))


# -- cross-cutting invariants ---------------------------------------------------

@pytest.mark.parametrize("fs,dom", [
    (FS2, DISK),
    (FS3, BALL),
    (helmholtz_fundamental(2, 1.0), DISK),
    (helmholtz_fundamental(3, 1.0), BALL),
    (principal_fundamental(OperatorCoefficients(2, np.diag([4.0, 1.0]),
                                                [0, 0], 0)), DISK),
    (principal_fundamental(OperatorCoefficients(3, np.diag([4.0, 1.0, 2.0]),
                                                np.zeros(3), 0)), BALL),
])
def test_derivative_recursion_all_kinds(fs, dom):
    # d_j P[phi] = P[d_j phi] - v[nu_j phi] at interior and exterior points
    n = dom.dim
    pts = [np.zeros(n), np.full(n, 0.25), np.full(n, 2.0 / np.sqrt(n))]
    pts[2][0] *= 1.2
    for x in pts:
        g = volume_potential_gradient(fs, dom, X1, x, 48)
        for j in range(n):
            dphi = lambda y, _j=j: (np.ones(len(y)) if _j == 0
                                    else np.zeros(len(y)))
            pj = volume_potential(fs, dom, dphi, x, 48)
            vj = _boundary_integral(
                _Plan(dom, np.asarray(x, dtype=float), 48),
                lambda y, nu, _j=j: fs.eval(x[None, :] - y) * nu[:, _j]
                * np.asarray(X1(y)))
            assert abs(g[j] - (pj - vj)) <= 1e-5


def test_linearity_in_density():
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal(2)
    f = lambda y: np.sin(np.asarray(y)[:, 0])
    g = lambda y: np.asarray(y)[:, 1] ** 2
    combo = lambda y: a * f(y) + b * g(y)
    x = np.array([0.3, -0.2])
    lhs = volume_potential(FS2, DISK, combo, x, 32)
    rhs = (a * volume_potential(FS2, DISK, f, x, 32)
           + b * volume_potential(FS2, DISK, g, x, 32))
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_translation_covariance():
    shift = np.array([0.4, -0.7])
    dom2 = make_ball(2, shift, 1.0)
    f_shift = lambda y: ONE(y)
    x = np.array([0.2, 0.3])
    v1 = volume_potential(FS2, DISK, ONE, x, 48)
    v2 = volume_potential(FS2, dom2, f_shift, x + shift, 48)
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_radial_extension_transport():
    ext = radial_extension(DISK, X1)
    # outside: value of the boundary point on the same ray
    assert ext(np.array([3.0, 0.0])) == pytest.approx(1.0, abs=1e-14)
    assert ext(np.array([0.5, 0.0])) == pytest.approx(0.5, abs=1e-14)


def test_potential_field_wrapper_enforces_side():
    field = PotentialField(FS2, DISK, "interior", 32)
    assert field.value(ONE, np.array([0.0, 0.0])).real == pytest.approx(
        -0.25, abs=1e-8)
    with pytest.raises(DomainError):
        field.value(ONE, np.array([2.0, 0.0]))
    ext = PotentialField(FS2, DISK, "exterior", 32)
    with pytest.raises(DomainError):
        ext.gradient(ONE, np.array([0.0, 0.0]))


def test_potential_field_hessian():
    field = PotentialField(FS2, DISK, "interior", 32)
    x = np.array([0.3, -0.2])
    H = field.hessian(X1SQ, x)
    assert np.array_equal(H, volume_potential_hessian(FS2, DISK, X1SQ, x, 32))
    with pytest.raises(DomainError, match="not on the interior side"):
        field.hessian(X1SQ, np.array([1.5, 0.0]))
    ext = PotentialField(FS2, DISK, "exterior", 32)
    with pytest.raises(NearBoundaryError):
        ext.hessian(X1SQ, np.array([1.5, 0.0]))


# -- Hessian from weighted kernel moments ---------------------------------------

def _dense_hessian(fs, domain, f, x, N):
    """volume_potential_hessian as assembled from dense (m, n, n) Jacobians
    contracted by einsum; the reference for the weighted-moment form."""
    x = np.asarray(x, dtype=float)
    fx = complex(np.asarray(radial_extension(domain, f)(x[None, :]))[0])
    vq = singular_volume_rule(domain, x, N)
    z = x[None, :] - vq.nodes
    fvals = np.asarray(f(vq.nodes), dtype=complex)
    H = np.einsum("mlj,m->lj", fs.k1_jacobian(z), (fvals - fx) * vq.weights)
    K = [[_boundary_integral(_Plan(domain, x, N), lambda y, nu, l=l, j=j:
                             fs.k1(x[None, :] - y)[:, j] * nu[:, l])
          for j in range(len(x))] for l in range(len(x))]
    H = H - fx * np.array(K)
    if fs.kind == "modified-helmholtz":
        H = H + np.einsum("mlj,m->lj", fs.k2_jacobian(z), fvals * vq.weights)
    return H


def _hessian_kernels(n):
    a2 = {2: [[3.0, 0.7], [0.7, 1.2]],
          3: [[2.0, 0.4, -0.3], [0.4, 1.5, 0.6], [-0.3, 0.6, 2.5]]}[n]
    return [laplace_fundamental(n),
            principal_fundamental(OperatorCoefficients(n, np.array(a2),
                                                       np.zeros(n), 0)),
            helmholtz_fundamental(n, 1.0)]


@pytest.mark.parametrize("domain", [DISK, ellipse(2.0, 1.0),
                                    cosine_star([1.0, 0.0, 0.0, 0.2]), BALL],
                         ids=["disk", "ellipse", "cosine_star", "ball3d"])
def test_hessian_matches_dense_assembly(domain):
    n = domain.dim
    N = 48 if n == 2 else 12
    points = [np.array(p[:n]) for p in ((0.05, 0.02, -0.01),
                                        (0.3, -0.2, 0.1), (-0.5, 0.1, 0.2))]
    densities = [X1SQ, get_preset("abs_x1"), get_preset("bump", 2.0),
                 get_preset("cos_k", 3.0)]
    for fs in _hessian_kernels(n):
        for f in densities:
            for x in points:
                H = volume_potential_hessian(fs, domain, f, x, N)
                ref = _dense_hessian(fs, domain, f, x, N)
                assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_hessian_memory_bounded():
    # screened 3D Hessian at interior offset 1e-4: 720k nodes at N = 20,
    # where one (nodes, 3, 3) array alone takes 52 MB
    fs = helmholtz_fundamental(3, 1.0)
    x = (1.0 - 1e-4) * np.array([1.0, 2.0, -2.0]) / 3.0
    tracemalloc.start()
    try:
        volume_potential_hessian(fs, BALL, X1SQ, x, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200e6


@pytest.mark.parametrize("N", [3, 0, -5])
@pytest.mark.parametrize("x", [(0.3, -0.2), (1.0 + 1e-3, 0.0), (2.5, 0.5)],
                         ids=["interior", "near", "far"])
def test_volume_rules_reject_N_below_4(N, x):
    x = np.array(x)
    for fn in (volume_potential, volume_potential_gradient):
        with pytest.raises(VolpotError, match="N must be at least 4"):
            fn(FS2, DISK, X1SQ, x, N)
    if x[0] < 1.0:
        with pytest.raises(VolpotError, match="N must be at least 4"):
            volume_potential_hessian(FS2, DISK, X1SQ, x, N)
