"""Exception types shared across the package."""


class VolpotError(Exception):
    """Base class for all package-specific errors."""


class EllipticityError(VolpotError):
    """The principal coefficient matrix violates the ellipticity assumption."""


class SymmetryError(VolpotError):
    """Second-order coefficients are not real (the principal part must be
    a real symmetric matrix)."""


class SingularPointError(VolpotError):
    """A fundamental solution was evaluated at its singular point x = 0."""


class DomainError(VolpotError):
    """Invalid domain data, or a point on the wrong side of the boundary."""


class NearBoundaryError(DomainError):
    """Evaluation point falls inside the hard rejection band around the
    boundary (width 1e-9); use one-sided limits instead."""


class UnsupportedOperatorError(VolpotError, ValueError):
    """The operator (or its dimension or kappa) has no fundamental solution
    here; also a ``ValueError``, for callers that catch that."""


class ConfigError(VolpotError):
    """Malformed run configuration."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
