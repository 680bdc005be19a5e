"""Constant-coefficient second-order elliptic operators.

An operator acts on a scalar field u as

    sum_{l,j} a2[l,j] d_l d_j u  +  sum_j a1[j] d_j u  +  a0 u

with a real symmetric principal matrix ``a2`` and complex lower-order
coefficients.  Every constructor enforces the ellipticity condition
min eig(a2) > 0; downstream formulas (principal factorizations,
fundamental solutions) assume it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EllipticityError, SymmetryError

# Constructors reject operators whose ellipticity margin is below this.
ELLIPTICITY_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)
class OperatorCoefficients:
    """Immutable coefficient tuple (a2, a1, a0) of a second-order operator.

    Attributes
    ----------
    dim : int
        Space dimension, 2 or 3.
    a2 : (n, n) float array
        Real symmetric positive definite principal matrix.  Stored exactly
        symmetric (entry [l, j] is bitwise equal to entry [j, l]).
    a1 : (n,) complex array
        First-order coefficients.
    a0 : complex
        Zeroth-order coefficient.
    """

    dim: int
    a2: np.ndarray
    a1: np.ndarray
    a0: complex

    def __post_init__(self):
        a2 = np.asarray(self.a2)
        if np.iscomplexobj(a2) and np.any(a2.imag != 0):
            raise SymmetryError("second-order coefficients must be real")
        a2 = np.array(a2.real, dtype=float)
        if a2.shape != (self.dim, self.dim):
            raise ValueError(f"a2 must be {self.dim}x{self.dim}, got {a2.shape}")
        a2 = 0.5 * (a2 + a2.T)  # commutative sums: exactly symmetric entries
        a1 = np.array(np.asarray(self.a1), dtype=complex).reshape(self.dim)
        a2.setflags(write=False)
        a1.setflags(write=False)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a0", complex(self.a0))
        margin = ellipticity_margin(self)
        if not margin > ELLIPTICITY_THRESHOLD:
            raise EllipticityError(
                "operator violates the ellipticity assumption: "
                f"min eigenvalue of a2 is {margin:.3e}"
            )

    @property
    def is_principal_only(self) -> bool:
        return not np.any(self.a1) and self.a0 == 0

    def __repr__(self):
        return (
            f"OperatorCoefficients(dim={self.dim}, a2={self.a2.tolist()}, "
            f"a1={self.a1.tolist()}, a0={self.a0})"
        )


def laplacian(dim: int) -> OperatorCoefficients:
    """The Laplace operator in ``dim`` dimensions."""
    return OperatorCoefficients(dim, np.eye(dim), np.zeros(dim), 0.0)


def helmholtz_modified(dim: int, kappa: float) -> OperatorCoefficients:
    """The screened Laplacian  Delta - kappa^2."""
    return OperatorCoefficients(dim, np.eye(dim), np.zeros(dim), -(kappa ** 2))


def anisotropic(a2) -> OperatorCoefficients:
    """Pure principal-part operator with matrix ``a2``."""
    a2 = np.asarray(a2, dtype=float)
    n = a2.shape[0]
    return OperatorCoefficients(n, a2, np.zeros(n), 0.0)


def from_multiindex(coeffs: dict) -> OperatorCoefficients:
    """Build an operator from a multi-index coefficient map.

    Keys are multi-indices gamma (tuples of non-negative ints, |gamma| <= 2),
    values the coefficients of D^gamma.  The diagonal of the principal matrix
    is a[2e_j], the off-diagonal entries are a[e_l + e_j] / 2, first-order
    entries are a[e_j], and the zero multi-index gives a0.  Missing keys
    default to zero.
    """
    if not coeffs:
        raise ValueError("empty coefficient map")
    dims = {len(g) for g in coeffs}
    if len(dims) != 1:
        raise ValueError("all multi-indices must have the same length")
    n = dims.pop()
    a2 = np.zeros((n, n))
    a1 = np.zeros(n, dtype=complex)
    a0 = 0.0 + 0.0j
    for gamma, c in coeffs.items():
        gamma = tuple(int(g) for g in gamma)
        order = sum(gamma)
        if order > 2 or any(g < 0 for g in gamma):
            raise ValueError(f"multi-index {gamma} has order > 2")
        if order == 2:
            if complex(c).imag != 0:
                raise SymmetryError(
                    f"second-order coefficient for {gamma} must be real"
                )
            c = complex(c).real
            nz = [j for j, g in enumerate(gamma) if g > 0]
            if len(nz) == 1:
                a2[nz[0], nz[0]] = c
            else:
                l, j = nz
                a2[l, j] = c / 2.0
                a2[j, l] = c / 2.0
        elif order == 1:
            j = gamma.index(1)
            a1[j] = c
        else:
            a0 = complex(c)
    return OperatorCoefficients(n, a2, a1, a0)


def ellipticity_margin(op: OperatorCoefficients) -> float:
    """Infimum of xi^t a2 xi over the unit sphere (= min eigenvalue of a2)."""
    return float(np.linalg.eigvalsh(op.a2)[0])


def factor_principal(op: OperatorCoefficients) -> np.ndarray:
    """Lower-triangular T with positive diagonal and T T^t = a2."""
    try:
        return np.linalg.cholesky(op.a2)
    except np.linalg.LinAlgError as exc:
        raise EllipticityError(f"principal matrix is not positive definite: {exc}")


def apply_operator_fd(op: OperatorCoefficients, u, x, h: float,
                      return_scale: bool = False):
    """Apply the operator to a scalar field by second-order central differences.

    ``u`` is called at x, at x +- h e_j (once each: the drift terms reuse
    those values), and at the four points x +- h e_l +- h e_j of each pair
    l < j with a2[l, j] != 0: a zero coefficient's term is +-0, which
    leaves the sum and the scale unchanged.
    Exact for quadratic polynomials up to rounding.  With
    ``return_scale=True`` also returns the magnitude of the largest group of
    terms (principal / drift / zeroth order), used for relative residuals.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=float)
    n = op.dim
    e = np.eye(n) * h
    ux = u(x)
    axis = [(u(x + e[j]), u(x - e[j])) for j in range(n)]
    terms = [op.a2[j, j] * (up - 2.0 * ux + um) / h ** 2
             for j, (up, um) in enumerate(axis)]
    for l in range(n):
        for j in range(l + 1, n):
            if op.a2[l, j] != 0:
                el, ej = e[l], e[j]
                cross = (u(x + el + ej) - u(x + el - ej)
                         - u(x - el + ej) + u(x - el - ej)) / (4.0 * h ** 2)
                terms.append(2.0 * op.a2[l, j] * cross)
    terms += [op.a1[j] * (up - um) / (2.0 * h)
              for j, (up, um) in enumerate(axis) if op.a1[j] != 0]
    terms.append(op.a0 * ux)
    value = sum(terms)
    if return_scale:
        return value, max(abs(t) for t in terms)
    return value
