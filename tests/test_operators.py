import numpy as np
import pytest

from volpot import (EllipticityError, SymmetryError, apply_operator_fd,
                    ellipticity_margin, factor_principal, from_multiindex,
                    laplacian)
from volpot.operators import OperatorCoefficients


def test_from_multiindex_laplacian():
    op = from_multiindex({(2, 0): 1, (0, 2): 1})
    assert np.array_equal(op.a2, np.eye(2))
    assert not np.any(op.a1)
    assert op.a0 == 0


def test_from_multiindex_mixed_halved():
    op = from_multiindex({(1, 1): 1, (2, 0): 1, (0, 2): 1})
    assert op.a2[0, 1] == 0.5
    assert op.a2[1, 0] == 0.5


def test_from_multiindex_zeroth_order():
    op = from_multiindex({(0, 0): -1, (2, 0): 1, (0, 2): 1})
    assert op.a0 == -1


def test_from_multiindex_first_order():
    op = from_multiindex({(2, 0): 1, (0, 2): 1, (1, 0): 2j})
    assert op.a1[0] == 2j


def test_complex_second_order_rejected():
    with pytest.raises(SymmetryError):
        from_multiindex({(2, 0): 1j, (0, 2): 1})


def test_non_elliptic_rejected():
    with pytest.raises(EllipticityError):
        from_multiindex({(2, 0): 1, (0, 2): -1})
    with pytest.raises(EllipticityError):
        OperatorCoefficients(2, [[1, 2], [2, 1]], [0, 0], 0)


def test_a2_exactly_symmetric():
    op = OperatorCoefficients(2, [[2.0, 0.3], [0.3, 1.0]], [0, 0], 0)
    assert op.a2[0, 1] == op.a2[1, 0]


def test_ellipticity_margin_values():
    assert ellipticity_margin(laplacian(2)) == pytest.approx(1.0, abs=1e-14)
    op = OperatorCoefficients(2, np.diag([4.0, 1.0]), [0, 0], 0)
    assert ellipticity_margin(op) == pytest.approx(1.0, abs=1e-14)
    # eigenvalues of [[1, .9], [.9, 1]] are 1 +- 0.9
    op = OperatorCoefficients(2, [[1, 0.9], [0.9, 1]], [0, 0], 0)
    assert ellipticity_margin(op) == pytest.approx(0.1, abs=1e-12)


def test_margin_invariant_under_rotation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((2, 2))
        spd = a @ a.T + 0.5 * np.eye(2)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        op1 = OperatorCoefficients(2, spd, [0, 0], 0)
        op2 = OperatorCoefficients(2, q @ spd @ q.T, [0, 0], 0)
        assert ellipticity_margin(op1) == pytest.approx(
            ellipticity_margin(op2), abs=1e-12)


def test_factor_principal_closed_forms():
    assert np.array_equal(factor_principal(laplacian(2)), np.eye(2))
    op = OperatorCoefficients(2, np.diag([4.0, 1.0]), [0, 0], 0)
    assert np.allclose(factor_principal(op), np.diag([2.0, 1.0]), atol=1e-15)
    op = OperatorCoefficients(2, [[2.0, 1.0], [1.0, 2.0]], [0, 0], 0)
    T = factor_principal(op)
    expected = np.array([[np.sqrt(2.0), 0.0],
                         [1.0 / np.sqrt(2.0), np.sqrt(1.5)]])
    assert np.allclose(T, expected, atol=1e-14)
    assert np.allclose(T @ T.T, op.a2, atol=1e-15)


def test_factor_principal_random_spd():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        # condition number up to 1e6
        eigs = 10.0 ** rng.uniform(-3, 3, size=n)
        a2 = q @ np.diag(eigs) @ q.T
        op = OperatorCoefficients(n, a2, np.zeros(n), 0)
        T = factor_principal(op)
        assert np.all(np.diag(T) > 0)
        assert np.max(np.abs(T @ T.T - op.a2)) <= 1e-14 * np.max(np.abs(op.a2))
        assert np.prod(np.diag(T)) == pytest.approx(
            np.sqrt(np.linalg.det(op.a2)), rel=1e-10)


def test_fd_quadratic_exact():
    # dyadic data make the second differences exact in floating point
    u = lambda p: float(p @ p)
    x = np.array([0.25, -0.5])
    assert apply_operator_fd(laplacian(2), u, x, 0.5) == 4.0
    u3 = lambda p: float(p @ p)
    assert apply_operator_fd(laplacian(3), u3, np.zeros(3), 0.5) == 6.0


def test_fd_exponential_cancellation():
    op = from_multiindex({(2, 0): 1, (0, 2): 1, (0, 0): -1})
    u = lambda p: np.exp(p[0])
    val = apply_operator_fd(op, u, np.zeros(2), 1e-4)
    assert abs(val) <= 1e-7


def test_fd_drift_linear_exact():
    op = from_multiindex({(2, 0): 1, (0, 2): 1, (1, 0): 1})
    u = lambda p: p[0]
    assert apply_operator_fd(op, u, np.array([0.25, 0.75]), 0.25) == 1.0


def test_fd_second_order_convergence():
    # error ratio between steps h and h/2 should be ~4
    u = lambda p: np.sin(p[0]) * np.cos(p[1])
    x = np.array([0.4, 0.7])
    exact = -2.0 * np.sin(x[0]) * np.cos(x[1])
    errs = []
    for h in (4e-2, 2e-2):
        errs.append(abs(apply_operator_fd(laplacian(2), u, x, h) - exact))
    assert 3.6 <= errs[0] / errs[1] <= 4.4


def test_fd_cross_terms():
    op = from_multiindex({(2, 0): 1, (0, 2): 1, (1, 1): 1})
    u = lambda p: p[0] * p[1]
    assert apply_operator_fd(op, u, np.array([0.5, 0.25]), 0.25) \
        == pytest.approx(1.0, abs=1e-12)


def _full_stencil(op, u, x, h):
    """apply_operator_fd with every cross pair evaluated, zero or not, and
    the axis points evaluated again for the drift: the reference the
    skipped stencil points and the reused axis values must keep the bits
    of."""
    n = op.dim
    ux = u(x)
    e = np.eye(n) * h
    terms = [op.a2[j, j] * (u(x + e[j]) - 2.0 * ux + u(x - e[j])) / h ** 2
             for j in range(n)]
    for l in range(n):
        for j in range(l + 1, n):
            cross = (u(x + e[l] + e[j]) - u(x + e[l] - e[j])
                     - u(x - e[l] + e[j]) + u(x - e[l] - e[j])) / (4.0 * h ** 2)
            terms.append(2.0 * op.a2[l, j] * cross)
    terms += [op.a1[j] * (u(x + e[j]) - u(x - e[j])) / (2.0 * h)
              for j in range(n) if op.a1[j] != 0]
    terms.append(op.a0 * ux)
    return sum(terms), max(abs(t) for t in terms)


@pytest.mark.parametrize("op, calls", [
    (laplacian(2), 5),
    (laplacian(3), 7),
    (OperatorCoefficients(3, np.diag([4.0, 1.0, 2.0]), [0.5, 0.0, -1.0],
                          -2.0), 7),
    (OperatorCoefficients(3, [[2.0, 0.3, 0.0], [0.3, 1.0, 0.0],
                              [0.0, 0.0, 1.5]], np.zeros(3), 0.0), 11),
    (OperatorCoefficients(2, [[2.0, -0.4], [-0.4, 1.0]], [1.0, 0.0], 1.0),
     9),
], ids=["laplace-2d", "laplace-3d", "diagonal-3d", "one-pair-3d",
        "full-2d"])
def test_fd_skips_zero_cross_coefficients(op, calls):
    # calls: 2n + 1 points and 4 per nonzero a2[l, j] (l < j); the drift
    # terms reuse the values at x +- h e_j
    def u(p):
        count[0] += 1
        return np.exp(0.7 * p[0]) * np.sin(p[1] + 0.2) + p[-1] * p[0] ** 3

    x = np.array([0.3, -0.4, 0.15])[:op.dim]
    count = [0]
    value, scale = apply_operator_fd(op, u, x, 1e-2, return_scale=True)
    assert count[0] == calls
    ref_value, ref_scale = _full_stencil(op, u, x, 1e-2)
    assert complex(value) == complex(ref_value)
    assert scale == ref_scale
