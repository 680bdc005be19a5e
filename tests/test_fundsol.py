import numpy as np
import pytest
from scipy import special

from volpot import (SingularPointError, apply_operator_fd, gradient_split,
                    helmholtz_fundamental, laplace_fundamental, laplace_Sn,
                    modified_helmholtz, principal_anisotropic,
                    principal_fundamental)
from volpot.fundsol import _rowdot, fundamental_solution
from volpot.operators import OperatorCoefficients, helmholtz_modified, laplacian


@pytest.fixture(scope="module")
def all_kinds():
    aniso = OperatorCoefficients(2, np.diag([4.0, 1.0]), [0, 0], 0)
    return [laplace_fundamental(2), laplace_fundamental(3),
            principal_fundamental(aniso),
            helmholtz_fundamental(2, 1.0), helmholtz_fundamental(3, 1.0)]


def test_laplace_Sn_values():
    assert laplace_Sn(2, np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
    assert laplace_Sn(2, np.array([np.e, 0.0])) == pytest.approx(
        1.0 / (2.0 * np.pi), rel=1e-14)
    assert laplace_Sn(3, np.array([0.0, 1.0, 0.0])) == pytest.approx(
        -1.0 / (4.0 * np.pi), rel=1e-14)


def test_singular_point_rejected():
    with pytest.raises(SingularPointError):
        laplace_Sn(2, np.zeros(2))
    with pytest.raises(SingularPointError):
        helmholtz_fundamental(3, 1.0).grad(np.zeros(3))


def test_principal_matches_laplace_for_identity():
    fs = laplace_fundamental(2)
    op = laplacian(2)
    x = np.array([[0.3, -0.4], [1.2, 0.7]])
    assert np.allclose(principal_anisotropic(op, x), fs.eval(x), atol=1e-15)


def test_principal_anisotropic_value():
    op = OperatorCoefficients(2, np.diag([4.0, 1.0]), [0, 0], 0)
    # T^{-1}(2, 0) = (1, 0), so S_2 vanishes there
    val = principal_anisotropic(op, np.array([2.0, 0.0]))
    assert val == pytest.approx(0.0, abs=1e-15)


def test_principal_fd_residual():
    op = OperatorCoefficients(2, np.diag([4.0, 1.0]), [0, 0], 0)
    fs = principal_fundamental(op)
    u = lambda p: fs.eval(p)
    val, scale = apply_operator_fd(op, u, np.array([0.3, 0.7]), 1e-4,
                                   return_scale=True)
    assert abs(val) <= 1e-6 * scale


def test_modified_helmholtz_values():
    # kappa -> 0 recovers the Newtonian kernel in 3D; the analytic gap is
    # (1 - e^{-kappa r})/(4 pi r) ~ kappa / (4 pi) ~ 8e-8 at kappa = 1e-6
    x = np.array([0.5, 0.2, -0.1])
    assert modified_helmholtz(3, 1e-6, x) == pytest.approx(
        laplace_Sn(3, x), abs=1e-7)
    assert modified_helmholtz(3, 1.0, np.array([1.0, 0, 0])) == pytest.approx(
        -np.exp(-1.0) / (4.0 * np.pi), rel=1e-13)
    # 2D value against the scipy Bessel oracle
    assert modified_helmholtz(2, 1.0, np.array([1.0, 0.0])) == pytest.approx(
        -special.k0(1.0) / (2.0 * np.pi), rel=1e-12)


def test_gradient_closed_forms():
    fs = laplace_fundamental(2)
    g = fs.grad(np.array([1.0, 0.0]))
    assert np.allclose(g, [1.0 / (2.0 * np.pi), 0.0], atol=1e-15)
    fsh = helmholtz_fundamental(3, 1.0)
    g = fsh.grad(np.array([1.0, 0.0, 0.0]))
    assert g[0] == pytest.approx(2.0 * np.exp(-1.0) / (4.0 * np.pi), rel=1e-12)
    assert abs(g[1]) < 1e-15 and abs(g[2]) < 1e-15


def test_gradient_matches_finite_differences(all_kinds):
    rng = np.random.default_rng(2)
    for fs in all_kinds:
        n = fs.dim
        for _ in range(6):
            x = rng.standard_normal(n)
            x *= rng.uniform(0.1, 5.0) / np.linalg.norm(x)
            h = 1e-5 * np.linalg.norm(x)
            g = fs.grad(x)
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd = (fs.eval(x + e) - fs.eval(x - e)) / (2.0 * h)
                assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_hessian_closed_form_laplace():
    fs = laplace_fundamental(2)
    H = fs.hess(np.array([1.0, 0.0]))
    assert np.allclose(H, np.array([[-1.0, 0.0], [0.0, 1.0]]) / (2.0 * np.pi),
                       atol=1e-15)


def test_hessian_annihilated_off_origin(all_kinds):
    # trace of a2-weighted Hessian plus lower-order terms vanishes for x != 0
    for fs in all_kinds:
        x = np.full(fs.dim, 0.5)
        if fs.dim == 3:
            x = x * np.array([1.0, 0.7, -0.4])
        H = fs.hess(x)
        assert np.allclose(H, H.T, atol=1e-14)
        resid = np.sum(fs.operator.a2 * H) + fs.operator.a0 * fs.eval(x)
        assert abs(resid) <= 1e-10


def test_fd_operator_residual_random_points(all_kinds):
    rng = np.random.default_rng(9)
    for fs in all_kinds:
        op = fs.operator
        u = lambda p: fs.eval(p)
        for _ in range(10):
            x = rng.standard_normal(fs.dim)
            r = rng.uniform(0.2, 2.0)
            x *= r / np.linalg.norm(x)
            val, scale = apply_operator_fd(op, u, x, 1e-4 * r,
                                           return_scale=True)
            assert abs(val) <= 1e-6 * scale


def test_laplace_rotational_symmetry():
    rng = np.random.default_rng(4)
    fs = laplace_fundamental(2)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        x = rng.standard_normal(2)
        assert fs.eval(q @ x) == pytest.approx(fs.eval(x), abs=1e-14)


def test_split_laplace_remainder_zero():
    fs = laplace_fundamental(2)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 2))
    k1, k2 = fs.split_gradient(x)
    assert np.all(k2 == 0.0)
    assert np.array_equal(k1, fs.grad(x))


def test_split_oddness_homogeneity_exact(all_kinds):
    rng = np.random.default_rng(3)
    for fs in all_kinds:
        x = rng.standard_normal((12, fs.dim))
        k1, _ = fs.split_gradient(x)
        k1_neg, _ = fs.split_gradient(-x)
        assert np.array_equal(k1_neg, -k1)
        k1_scaled, _ = fs.split_gradient(2.0 * x)
        assert np.array_equal(k1_scaled, k1 * 2.0 ** (-(fs.dim - 1)))


def test_split_sums_bitwise(all_kinds):
    rng = np.random.default_rng(6)
    for fs in all_kinds:
        x = rng.standard_normal((15, fs.dim))
        k1, k2 = fs.split_gradient(x)
        assert np.array_equal(k1 + k2, fs.grad(x))


def test_gradient_split_component_api():
    fs = helmholtz_fundamental(3, 1.0)
    x = np.array([0.4, -0.2, 0.6])
    k1j, k2j = gradient_split(fs, 1, x)
    full1, full2 = fs.split_gradient(x)
    assert k1j == full1[1] and k2j == full2[1]


def test_helmholtz_remainder_weighted_bound():
    # |x|^{n-2+1/2} |k2| stays bounded as |x| -> 0 (n = 3)
    fs = helmholtz_fundamental(3, 1.0)
    vals = []
    for ex in range(1, 7):
        x = np.array([10.0 ** -ex, 0.0, 0.0])
        _, k2 = fs.split_gradient(x)
        vals.append(np.linalg.norm(x) ** 1.5 * np.max(np.abs(k2)))
    assert all(v <= vals[0] + 1e-12 for v in vals)


def test_fundamental_solution_factory():
    assert fundamental_solution(laplacian(2)).kind == "laplace"
    assert fundamental_solution(
        OperatorCoefficients(2, np.diag([4.0, 1.0]), [0, 0], 0)
    ).kind == "anisotropic-principal"
    fs = fundamental_solution(helmholtz_modified(2, 2.0))
    assert fs.kind == "modified-helmholtz"
    assert fs.kappa == pytest.approx(2.0)
    with pytest.raises(ValueError):
        fundamental_solution(OperatorCoefficients(2, np.eye(2), [1, 0], 0))


def test_eval_closed_form_relative_accuracy(all_kinds):
    # spot-check the 1e-12 relative contract on a log-spaced radius range
    for fs in all_kinds:
        for r in np.geomspace(1e-3, 10.0, 9):
            x = np.zeros(fs.dim)
            x[0] = r
            v = fs.eval(x)
            if fs.kind == "laplace":
                ref = laplace_Sn(fs.dim, x)
            elif fs.kind == "anisotropic-principal":
                ref = laplace_Sn(fs.dim, np.linalg.solve(fs.T, x)) / fs._sqrt_det
            elif fs.dim == 2:
                ref = -special.k0(fs.kappa * r) / (2.0 * np.pi)
            else:
                ref = -np.exp(-fs.kappa * r) / (4.0 * np.pi * r)
            assert v == pytest.approx(ref, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("a2", [
    [[3.0, 0.7], [0.7, 1.2]],
    [[2.0, 0.4, -0.3], [0.4, 1.5, 0.6], [-0.3, 0.6, 2.5]],
])
def test_anisotropic_matches_linear_solve_reference(a2):
    # the kernels use |T^{-1} x| as sqrt(x . a2^{-1} x); the reference
    # takes z = T^{-1} x by a linear solve, as the closed form reads
    a2 = np.array(a2)
    n = len(a2)
    fs = principal_fundamental(OperatorCoefficients(n, a2, np.zeros(n), 0))
    x = np.random.default_rng(3).standard_normal((500, n))
    z = np.linalg.solve(fs.T, x.T).T
    m = np.linalg.norm(z, axis=1)
    u = np.linalg.solve(fs.T.T, z.T).T              # a2^{-1} x
    c = 1.0 / (4.0 * np.pi if n == 3 else 2.0 * np.pi) / fs._sqrt_det
    k1 = c * u / m[:, None] ** n
    jac = c / m[:, None, None] ** n * (
        np.linalg.inv(a2)[None] - n * u[:, :, None] * u[:, None, :]
        / (m ** 2)[:, None, None])

    def rel(got, ref):
        err = np.abs(got - ref).reshape(len(x), -1).max(axis=1)
        return np.max(err / np.abs(ref).reshape(len(x), -1).max(axis=1))

    assert rel(fs.eval(x), laplace_Sn(n, z) / fs._sqrt_det) <= 1e-13
    assert rel(fs.k1(x), k1) <= 1e-13
    assert rel(fs.k1_jacobian(x), jac) <= 1e-13


def test_rowdot_matches_norm_bitwise():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        x = rng.standard_normal((1000, n))
        x *= np.geomspace(1e-6, 1e3, 1000)[:, None]
        assert np.array_equal(np.sqrt(_rowdot(x, x)),
                              np.linalg.norm(x, axis=-1))
