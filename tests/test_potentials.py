import numpy as np
import pytest

import oracles
from volpot import (DomainError, NearBoundaryError, PotentialField,
                    boundary_kernel_K, disk, ellipse, exterior_field,
                    get_preset, helmholtz_fundamental, laplace_fundamental,
                    make_ball, negative_density, principal_fundamental,
                    radial_extension, single_layer, subtracted_integral_G,
                    volume_potential, volume_potential_gradient,
                    volume_potential_hessian, volume_potential_negative,
                    volume_rule)
from volpot.operators import OperatorCoefficients
from volpot.potentials import _boundary_integral

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
    total += _boundary_integral(domain, moment, x, N)
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
    from volpot.potentials import _boundary_integral
    for x in pts:
        g = volume_potential_gradient(fs, dom, X1, x, 48)
        for j in range(n):
            dphi = lambda y, _j=j: (np.ones(len(y)) if _j == 0
                                    else np.zeros(len(y)))
            pj = volume_potential(fs, dom, dphi, x, 48)
            vj = _boundary_integral(
                dom,
                lambda y, nu, _j=j: fs.eval(x[None, :] - y) * nu[:, _j]
                * np.asarray(X1(y)),
                np.asarray(x, dtype=float), 48)
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
