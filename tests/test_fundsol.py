import numpy as np
import pytest
from scipy import special

from volpot import (SingularPointError, UnsupportedOperatorError,
                    VolpotError, apply_operator_fd, helmholtz_fundamental,
                    laplace_fundamental, principal_fundamental)
from volpot.fundsol import _rowdot, fundamental_solution
from volpot.geometry import _radial_tables
from volpot.operators import OperatorCoefficients, helmholtz_modified, laplacian


@pytest.fixture(scope="module")
def all_kinds():
    aniso = OperatorCoefficients(2, np.diag([4.0, 1.0]), [0, 0], 0)
    return [laplace_fundamental(2), laplace_fundamental(3),
            principal_fundamental(aniso),
            helmholtz_fundamental(2, 1.0), helmholtz_fundamental(3, 1.0)]


def _newtonian(n, r):
    # the kappa = 0 profile, written out
    return np.log(r) / (2.0 * np.pi) if n == 2 else -1.0 / (4.0 * np.pi * r)


def test_laplace_values():
    S2, S3 = laplace_fundamental(2).eval, laplace_fundamental(3).eval
    assert S2(np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
    assert S2(np.array([np.e, 0.0])) == pytest.approx(
        1.0 / (2.0 * np.pi), rel=1e-14)
    assert S3(np.array([0.0, 1.0, 0.0])) == pytest.approx(
        -1.0 / (4.0 * np.pi), rel=1e-14)


def test_laplace_eval_keeps_written_out_bits():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        S = laplace_fundamental(n).eval
        x = rng.standard_normal((200, n)) * 10.0 ** rng.uniform(-8, 3, (200, 1))
        r = np.sqrt(np.sum(x * x, axis=-1))
        assert np.array_equal(S(x), _newtonian(n, r))
        assert S(x[0]) == _newtonian(n, r[:1])[0]


def test_dimension_four_rejected():
    # every kernel is defined for n = 2 and 3 only; n = 4 must not fall
    # through to the 3D formulas
    aniso4 = OperatorCoefficients(4, np.diag([4.0, 1.0, 1.0, 2.0]),
                                  np.zeros(4), 0)
    calls = [lambda: laplace_fundamental(4),
             lambda: helmholtz_fundamental(4, 1.0),
             lambda: principal_fundamental(aniso4),
             lambda: fundamental_solution(laplacian(4)),
             lambda: fundamental_solution(helmholtz_modified(4, 1.0))]
    for call in calls:
        with pytest.raises(ValueError, match="dimensions 2 and 3"):
            call()


@pytest.mark.parametrize("call, match", [
    (lambda: laplace_fundamental(4), "dimensions 2 and 3"),
    (lambda: fundamental_solution(
        OperatorCoefficients(2, np.eye(2), [0.5, 0], 0)), "drift term a1"),
    (lambda: fundamental_solution(
        OperatorCoefficients(2, [[2, 0.6], [0.6, 1]], [0, 0], -1)),
     "a2 != I"),
    (lambda: fundamental_solution(
        OperatorCoefficients(2, np.eye(2), [0, 0], 1)), "real a0 < 0"),
    (lambda: fundamental_solution(
        OperatorCoefficients(2, np.eye(2), [0, 0], -1 + 1j)), "real a0 < 0"),
    (lambda: principal_fundamental(helmholtz_modified(2, 1.0)), "a0 = 0"),
    (lambda: helmholtz_fundamental(2, 0.0), "kappa must be positive"),
    (lambda: helmholtz_fundamental(3, -1.0), "kappa must be positive")],
    ids=["dim4", "drift", "a0-anisotropic", "a0-positive", "a0-complex",
         "principal-of-screened", "kappa0", "kappa-negative"])
def test_unsupported_operators_raise_a_volpot_error(call, match):
    # a VolpotError for the CLI's exit 2, and still a ValueError for
    # callers that catch that
    with pytest.raises(UnsupportedOperatorError, match=match) as err:
        call()
    assert isinstance(err.value, VolpotError)
    assert isinstance(err.value, ValueError)


def test_kernel_follows_the_operator():
    # the operator alone picks the kernel: a principal part a2 = I is the
    # Laplace kernel, bit for bit, whichever constructor builds it
    x = np.random.default_rng(5).standard_normal((50, 2))
    for fs in (principal_fundamental(laplacian(2)),
               fundamental_solution(laplacian(2))):
        assert fs.kind == "laplace" and fs.kappa == 0.0
        assert np.array_equal(fs.eval(x), laplace_fundamental(2).eval(x))


def test_singular_point_rejected():
    with pytest.raises(SingularPointError):
        laplace_fundamental(2).eval(np.zeros(2))
    with pytest.raises(SingularPointError):
        helmholtz_fundamental(3, 1.0).grad(np.zeros(3))


def test_principal_matches_laplace_for_identity():
    fs = laplace_fundamental(2)
    op = laplacian(2)
    x = np.array([[0.3, -0.4], [1.2, 0.7]])
    assert np.allclose(principal_fundamental(op).eval(x), fs.eval(x),
                       atol=1e-15)


def test_principal_anisotropic_value():
    op = OperatorCoefficients(2, np.diag([4.0, 1.0]), [0, 0], 0)
    # T^{-1}(2, 0) = (1, 0), so S_2 vanishes there
    val = principal_fundamental(op).eval(np.array([2.0, 0.0]))
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
    assert helmholtz_fundamental(3, 1e-6).eval(x) == pytest.approx(
        laplace_fundamental(3).eval(x), abs=1e-7)
    assert helmholtz_fundamental(3, 1.0).eval(
        np.array([1.0, 0, 0])) == pytest.approx(
        -np.exp(-1.0) / (4.0 * np.pi), rel=1e-13)
    # 2D value against the scipy Bessel oracle
    assert helmholtz_fundamental(2, 1.0).eval(
        np.array([1.0, 0.0])) == pytest.approx(
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


def test_ray_factorization(all_kinds):
    # at x = -r d: k1 = -r^(1-n) k1(d), d k1 = r^-n d k1(d), and for the
    # screened kernel grad S = -f'(r) d, d k2 = beta I + alpha r^2 d d^t
    rng = np.random.default_rng(8)
    for fs in all_kinds:
        n = fs.dim
        d = rng.standard_normal((10, n))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        r = 10.0 ** rng.uniform(-4.0, 0.3, 10)
        x = -r[:, None] * d
        assert np.allclose(fs.k1(x), -r[:, None] ** (1 - n) * fs.k1(d),
                           rtol=1e-13, atol=0.0)
        assert np.allclose(fs.k1_jacobian(x),
                           r[:, None, None] ** -n * fs.k1_jacobian(d),
                           rtol=1e-13, atol=0.0)
        if fs.kind != "modified-helmholtz":
            continue
        assert np.allclose(fs.grad(x), -fs.radial_gradient(r)[:, None] * d,
                           rtol=1e-13, atol=0.0)
        # beta and alpha r^2 cancel two r^-n terms, so they take |x| as
        # the kernels compute it, and the reference is the weighted moment
        # of each point (the dense k2 Jacobian cancels less accurately)
        beta, alpha_r2 = fs.k2_radial(np.sqrt(_rowdot(x, x)))
        ref = (beta[:, None, None] * np.eye(n)
               + alpha_r2[:, None, None] * d[:, :, None] * d[:, None, :])
        for xi, Ri in zip(x, ref):
            Hi = fs.k2_jacobian(xi[None, :], weights=np.ones(1))
            assert np.max(np.abs(Hi - Ri)) <= 1e-13 * np.max(np.abs(Ri))


def test_split_sums_bitwise(all_kinds):
    rng = np.random.default_rng(6)
    for fs in all_kinds:
        x = rng.standard_normal((15, fs.dim))
        k1, k2 = fs.split_gradient(x)
        assert np.array_equal(k1 + k2, fs.grad(x))


def test_split_gradient_single_point_matches_batch():
    fs = helmholtz_fundamental(3, 1.0)
    x = np.array([0.4, -0.2, 0.6])
    k1, k2 = fs.split_gradient(x)
    batch1, batch2 = fs.split_gradient(x[None, :])
    assert k1.shape == k2.shape == (3,)
    assert np.array_equal(k1, batch1[0]) and np.array_equal(k2, batch2[0])


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
    with pytest.raises(UnsupportedOperatorError):
        fundamental_solution(OperatorCoefficients(2, np.eye(2), [1, 0], 0))


def test_eval_closed_form_relative_accuracy(all_kinds):
    # spot-check the 1e-12 relative contract on a log-spaced radius range
    for fs in all_kinds:
        for r in np.geomspace(1e-3, 10.0, 9):
            x = np.zeros(fs.dim)
            x[0] = r
            v = fs.eval(x)
            if fs.kind == "laplace":
                ref = _newtonian(fs.dim, r)
            elif fs.kind == "anisotropic-principal":
                z = np.linalg.solve(fs.T, x)
                ref = _newtonian(fs.dim, np.linalg.norm(z)) / fs._sqrt_det
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

    assert rel(fs.eval(x), _newtonian(n, m) / fs._sqrt_det) <= 1e-13
    assert rel(fs.k1(x), k1) <= 1e-13
    assert rel(fs.k1_jacobian(x), jac) <= 1e-13


def test_rowdot_matches_norm_bitwise():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        x = rng.standard_normal((1000, n))
        x *= np.geomspace(1e-6, 1e3, 1000)[:, None]
        assert np.array_equal(np.sqrt(_rowdot(x, x)),
                              np.linalg.norm(x, axis=-1))


WEIGHTED_KINDS = [
    laplace_fundamental(2), laplace_fundamental(3),
    principal_fundamental(OperatorCoefficients(
        2, np.array([[3.0, 0.7], [0.7, 1.2]]), [0, 0], 0)),
    principal_fundamental(OperatorCoefficients(
        3, np.array([[2.0, 0.4, -0.3], [0.4, 1.5, 0.6], [-0.3, 0.6, 2.5]]),
        [0, 0, 0], 0)),
    helmholtz_fundamental(2, 1.0), helmholtz_fundamental(3, 1.0),
]


@pytest.mark.parametrize("fs", WEIGHTED_KINDS,
                         ids=lambda fs: f"{fs.kind}-{fs.dim}d")
def test_weighted_jacobians_match_dense_sum(fs):
    # the weighted forms against the einsum of the dense (m, n, n) arrays;
    # |z| spans 1e-6..3 and the weights carry the polar Jacobian |z|^n of a
    # quadrature rule, as in volume_potential_hessian (closer to z = 0 the
    # per-point cancellation in d k2 costs both forms the same digits)
    rng = np.random.default_rng(11)
    m, n = 3000, fs.dim
    z = rng.standard_normal((m, n))
    z *= (np.geomspace(1e-6, 3.0, m) / np.linalg.norm(z, axis=1))[:, None]
    jac = np.linalg.norm(z, axis=1) ** n
    real = rng.standard_normal(m) * jac
    cplx = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * jac
    for name in ("k1_jacobian", "k2_jacobian"):
        dense = getattr(fs, name)(z)
        for w in (real, cplx, real.astype(complex), 1j * real):
            got = getattr(fs, name)(z, weights=w)
            ref = np.einsum("mlj,m->lj", dense, w)
            assert got.shape == (n, n) and got.dtype == ref.dtype
            scale = np.max(np.abs(ref))
            if name == "k2_jacobian" and fs.kind != "modified-helmholtz":
                assert scale == 0.0 and np.all(got == 0.0)
            else:
                assert np.max(np.abs(got - ref)) <= 1e-12 * scale
        for w in (np.zeros(m), np.zeros(m, dtype=complex)):
            got = getattr(fs, name)(z, weights=w)
            assert got.dtype == w.dtype and np.all(got == 0.0)
        with pytest.raises(ValueError):
            getattr(fs, name)(z, weights=real[:-1])


@pytest.mark.parametrize("fs", WEIGHTED_KINDS,
                         ids=lambda fs: f"{fs.kind}-{fs.dim}d")
def test_weighted_jacobians_same_bits_real_or_complex(fs):
    # one weight vector passed as real, as complex and as imaginary: each
    # part of a complex moment has the bits of the real moment
    rng = np.random.default_rng(12)
    m, n = 3000, fs.dim
    z = rng.standard_normal((m, n))
    z *= (np.geomspace(1e-3, 3.0, m) / np.linalg.norm(z, axis=1))[:, None]
    w = rng.standard_normal(m) * np.linalg.norm(z, axis=1) ** n
    for name in ("k1_jacobian", "k2_jacobian"):
        real = getattr(fs, name)(z, weights=w)
        as_complex = getattr(fs, name)(z, weights=w.astype(complex))
        as_imag = getattr(fs, name)(z, weights=1j * w)
        assert np.array_equal(as_complex.real, real)
        assert np.array_equal(as_imag.imag, real)
        assert np.all(as_complex.imag == 0.0) and np.all(as_imag.real == 0.0)


@pytest.mark.parametrize("fs", [
    laplace_fundamental(2), laplace_fundamental(3),
    principal_fundamental(OperatorCoefficients(2, np.diag([4.0, 1.0]),
                                               [0, 0], 0)),
    principal_fundamental(OperatorCoefficients(3, np.diag([4.0, 1.0, 2.0]),
                                               [0, 0, 0], 0))],
    ids=["laplace2", "laplace3", "aniso2", "aniso3"])
def test_ray_value_matches_node_sums(fs):
    # the per-ray sums of the homogeneous kinds from the table moments
    # against the same sums taken node by node on the radii s t
    rng = np.random.default_rng(fs.dim)
    dirs = rng.standard_normal((40, fs.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    s = 10.0 ** rng.uniform(-6.0, 0.5, 40)
    t, wt, (_, m1, ml) = _radial_tables(7, 14)
    r = s[:, None] * t
    terms = fs.radial_value(dirs, r) * r ** (fs.dim - 1) * wt
    got = fs.ray_value(dirs, s, m1, ml)
    assert np.all(np.abs(got - np.sum(terms, axis=1))
                  <= 1e-14 * np.sum(np.abs(terms), axis=1))


def test_ray_value_rejects_the_screened_kernel():
    with pytest.raises(ValueError, match="not homogeneous"):
        helmholtz_fundamental(2, 1.0).ray_value(np.eye(2), np.ones(2),
                                                0.5, -0.25)
