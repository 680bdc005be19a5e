import tracemalloc

import numpy as np
import pytest

import oracles
from volpot import (Modulus, canonical_pairing_J, disk, extension_pairing_E,
                    get_preset, holder_seminorm, integral_functional_I,
                    kernel_class_norm, laplace_fundamental, make_ball,
                    negative_density, omega_theta_eval)
from volpot.geometry import cached_boundary_rule, cached_volume_rule

DISK = disk()
ONE = get_preset("one")
X1 = get_preset("x1")
X1SQ = get_preset("x1sq")


def _zero(y):
    return np.zeros(np.asarray(y).shape[0])


# -- moduli -------------------------------------------------------------------

def test_omega_theta_branch_values():
    assert omega_theta_eval(1.0, 0.0) == 0.0
    # at r = r_theta = e^{-1} the value is r |ln r| = e^{-1}
    assert omega_theta_eval(1.0, np.exp(-1.0)) == pytest.approx(
        np.exp(-1.0), rel=1e-14)
    # plateau beyond r_theta
    assert omega_theta_eval(1.0, 1.0) == pytest.approx(np.exp(-1.0),
                                                       rel=1e-14)
    assert omega_theta_eval(1.0, 7.3) == omega_theta_eval(1.0, 1.0)


def test_omega_theta_admissibility_sampled():
    for theta in (0.3, 0.7, 1.0):
        om = Modulus.omega(theta)
        t = np.geomspace(1e-8, 1.0, 50)
        v = np.asarray(om(t))
        assert np.all(v > 0)
        assert np.all(np.diff(v) >= -1e-16)
        for a in (1.0, 2.0, 10.0, 100.0):
            assert np.all(np.asarray(om(a * t)) <= a * v * (1.0 + 1e-12))


def test_custom_modulus_warns_on_violation():
    with pytest.warns(UserWarning):
        Modulus.custom(lambda r: np.asarray(r) ** 2)  # fails omega(at)<=a om(t)


def test_holder_seminorm_linear_function():
    x = np.linspace(0.0, 1.0, 21)
    assert holder_seminorm(x, x, Modulus.power(1.0)) == pytest.approx(
        1.0, abs=1e-14)


def test_holder_seminorm_constant():
    x = np.linspace(0.0, 1.0, 13)
    assert holder_seminorm(x, np.full_like(x, 3.7), Modulus.power(0.5)) == 0.0


def test_holder_seminorm_sqrt_dyadic():
    x = np.array([0.0] + [2.0 ** -k for k in range(20)])
    v = np.sqrt(x)
    assert holder_seminorm(x, v, Modulus.power(0.5)) == pytest.approx(
        1.0, abs=1e-12)


def test_holder_seminorm_duplicate_points_rejected():
    with pytest.raises(ValueError):
        holder_seminorm(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0]),
                        Modulus.power(1.0))


def test_holder_seminorm_monotone_under_inclusion():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1, 1, size=(40, 2))
    vals = np.sin(3 * pts[:, 0]) + np.abs(pts[:, 1])
    om = Modulus.power(1.0)
    small = holder_seminorm(pts[:20], vals[:20], om)
    large = holder_seminorm(pts, vals, om)
    assert large >= small


def _holder_full_matrix(pts, vals, modulus):
    # the seminorm read off the upper triangle of the full m x m distance
    # and value-difference matrices
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    dv = np.abs(vals[:, None] - vals[None, :])
    iu = np.triu_indices(len(pts), k=1)
    d, dv = d[iu], dv[iu]
    keep = d != 0.0
    return float(np.max(dv[keep]
                        / np.asarray(modulus(d[keep]), dtype=float)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_holder_seminorm_matches_the_full_matrix_bitwise(n):
    rng = np.random.default_rng(n)
    pts = rng.uniform(-1.0, 1.0, size=(120, n))
    pts[7] = pts[3]         # a duplicate point with an equal value
    vals = np.cos(pts @ np.arange(1.0, n + 1.0)) + 1j * pts[:, 0]
    for om in (Modulus.power(1.0), Modulus.power(0.4), Modulus.omega(0.5)):
        got = holder_seminorm(pts, vals, om)
        assert got == _holder_full_matrix(pts, vals, om), om


@pytest.mark.parametrize("domain", [DISK, make_ball(3, [0.0, 0.0, 0.0], 1.0)],
                         ids=["disk", "ball3d"])
def test_norm_bound_keeps_its_bits(domain):
    # negative_density forms each block of the cloud's pair distances once
    # for all the components; its bound against the constructor written out with the
    # full-matrix seminorm per component
    comps = (X1SQ, X1, _zero, X1)[:domain.dim + 1]
    nd = negative_density(domain, comps, 0.7)
    cloud = np.concatenate([cached_volume_rule(domain, 24).nodes,
                            cached_boundary_rule(domain, 24).nodes])
    if len(cloud) > 600:
        cloud = cloud[np.linspace(0, len(cloud) - 1, 600).astype(int)]
    bound = 0.0
    for comp in comps:
        v = np.asarray(comp(cloud), dtype=complex)
        bound += float(np.max(np.abs(v)))
        bound += _holder_full_matrix(cloud, v, Modulus.power(0.7))
    assert nd.norm_bound == bound


def test_norm_bound_memory_does_not_grow_with_the_pairs():
    # the 600-point cloud has 179,700 pairs i < j, scanned a block of rows
    # at a time: the bound's peak is 1.7 MB
    comps = (ONE, X1, X1)
    negative_density(DISK, comps, 1.0)
    tracemalloc.start()
    try:
        negative_density(DISK, comps, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


# -- kernel class norms --------------------------------------------------------

def test_kernel_class_norm_constant_kernel():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(20, 2))
    Y = rng.uniform(-1, 1, size=(40, 2))
    K = lambda x, y: np.ones(np.asarray(x).shape[0])
    assert kernel_class_norm(K, X, Y, 0, 1, 1) == pytest.approx(1.0,
                                                                abs=1e-14)


def test_kernel_class_norm_inverse_distance_approaches_three():
    # colinear configurations with |x' - y| = 2 |x' - x''| drive the second
    # sup to 2; the first sup is identically 1
    def K(x, y):
        return 1.0 / np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1)

    vals = []
    ts = np.linspace(0.05, 0.95, 7)
    for _ in range(3):
        X = np.stack([ts, np.zeros_like(ts)], axis=1)
        Y = np.concatenate([np.zeros((1, 2)),
                            np.stack([-ts, np.zeros_like(ts)], axis=1)])
        vals.append(kernel_class_norm(K, X, Y, 1, 2, 1))
        ts = np.sort(np.concatenate([ts, 0.5 * (ts[1:] + ts[:-1])]))
    assert all(v <= 3.0 + 1e-9 for v in vals)
    assert vals[0] <= vals[1] <= vals[2]
    assert vals[-1] >= 2.9


def test_kernel_class_norm_gradient_kernel_stable():
    fs = laplace_fundamental(2)

    def K(x, y):
        return fs.grad(np.asarray(x) - np.asarray(y))[..., 0]

    rng = np.random.default_rng(5)
    vals = []
    for m in (30, 60):
        X = rng.uniform(-0.7, 0.7, size=(m, 2))
        Y = rng.uniform(-0.7, 0.7, size=(2 * m, 2))
        vals.append(kernel_class_norm(K, X, Y, 1, 2, 1))
    assert np.isfinite(vals).all()
    assert abs(vals[1] - vals[0]) <= 0.05 * max(vals)


# -- negative-exponent densities and pairings -----------------------------------

def test_norm_bound_upper_bounds_realized_density():
    # nd = (0, y1, 0) realizes f = 1; nd = (x1sq, x1, 0) realizes x1^2 + 1
    nd1 = negative_density(DISK, (_zero, X1, _zero), 1.0)
    assert 1.0 <= nd1.norm_bound
    nd2 = negative_density(DISK, (X1SQ, X1, _zero), 1.0)
    realized_sup = 2.0        # sup |y1^2 + 1| on the disk
    assert realized_sup <= nd2.norm_bound


def test_integral_functional_examples():
    nd = negative_density(DISK, (ONE, _zero, _zero), 1.0)
    assert integral_functional_I(DISK, nd, 64).real == pytest.approx(
        np.pi, abs=1e-10)
    nd2 = negative_density(DISK, (_zero, X1, _zero), 1.0)
    assert integral_functional_I(DISK, nd2, 64).real == pytest.approx(
        np.pi, abs=1e-10)


def test_integral_functional_representation_independent():
    nd1 = negative_density(DISK, (ONE, _zero, _zero), 1.0)
    nd2 = negative_density(DISK, (_zero, X1, _zero), 1.0)
    assert abs(integral_functional_I(DISK, nd1, 64)
               - integral_functional_I(DISK, nd2, 64)) <= 1e-10


def test_extension_pairing_constant_test_function():
    nd = negative_density(DISK, (_zero, X1, _zero), 1.0)
    val = extension_pairing_E(DISK, nd, ONE, lambda y: np.zeros_like(y), 64)
    assert val == pytest.approx(integral_functional_I(DISK, nd, 64),
                                abs=1e-12)


def test_extension_pairing_x1_against_x1():
    nd = negative_density(DISK, (_zero, X1, _zero), 1.0)
    val = extension_pairing_E(DISK, nd, X1, X1.grad, 64)
    assert abs(val) <= 1e-10


def test_extension_pairing_classical_density():
    nd = negative_density(DISK, (X1SQ, _zero, _zero), 1.0)
    val = extension_pairing_E(DISK, nd, X1SQ, X1SQ.grad, 64)
    ref = canonical_pairing_J(DISK, X1SQ, X1SQ, 64)
    assert val == pytest.approx(ref, abs=1e-12)


def test_canonical_pairing_values():
    assert canonical_pairing_J(DISK, ONE, ONE, 64).real == pytest.approx(
        np.pi, abs=1e-12)
    assert canonical_pairing_J(DISK, ONE, _zero, 64) == 0.0


def test_pairing_agreement_smooth():
    cosk = get_preset("cos_k", k=2.0)
    nd = negative_density(DISK, (cosk, _zero, _zero), 1.0)
    lhs = extension_pairing_E(DISK, nd, X1SQ, X1SQ.grad, 64)
    rhs = canonical_pairing_J(DISK, cosk, X1SQ, 64)
    assert lhs == pytest.approx(rhs, abs=1e-10)


# -- seminorm machinery invariants ----------------------------------------------

def _random_sampled_functions(rng, n_funcs=10, n_pts=60):
    out = []
    for _ in range(n_funcs):
        pts = rng.uniform(-1.0, 1.0, size=(n_pts, 2))
        a, b, c = rng.standard_normal(3)
        vals = (a * np.sin(2.0 * pts[:, 0]) + b * np.abs(pts[:, 1])
                + c * pts[:, 0] * pts[:, 1])
        out.append((pts, vals))
    return out


def test_tail_bound():
    rng = np.random.default_rng(21)
    om = Modulus.omega(1.0)
    for pts, vals in _random_sampled_functions(rng):
        supf = np.max(np.abs(vals))
        for a in (0.3, 0.7, 1.2):
            d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
            dv = np.abs(vals[:, None] - vals[None, :])
            mask = d >= a
            if not np.any(mask):
                continue
            lhs = np.max(dv[mask] / np.asarray(om(d[mask])))
            assert lhs <= 2.0 * supf / float(om(a)) + 1e-12


def test_embedding_chain_orderings():
    theta, theta_prime = 1.0, 0.5
    diameter = 2.0 * np.sqrt(2.0)
    c, c_prime = oracles.embedding_constants(theta, theta_prime, diameter)
    om_theta = Modulus.omega(theta)
    rng = np.random.default_rng(22)
    for pts, vals in _random_sampled_functions(rng):
        s_pow = holder_seminorm(pts, vals, Modulus.power(theta))
        s_om = holder_seminorm(pts, vals, om_theta)
        s_pow_prime = holder_seminorm(pts, vals, Modulus.power(theta_prime))
        assert s_om <= c * s_pow + 1e-12
        assert s_pow_prime <= c_prime * s_om + 1e-12
