"""Exception types shared across the package.

The CLI maps these onto process exit codes (see ``dahp.cli``), so library
code should raise the most specific class that applies.
"""


class DahpError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DahpError):
    """Invalid or incomplete experiment configuration."""


class DataError(DahpError):
    """Malformed or inconsistent input data (CSV files, series shapes)."""


class NumericalError(DahpError):
    """A numerical computation failed (overflow, non-convergence, ...)."""


class NonConvergenceError(NumericalError):
    """An iterative solver stopped before reaching its tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class IndefiniteMatrixError(NumericalError):
    """A matrix required to be symmetric positive definite is not."""


class InfeasibleConstraintError(NumericalError):
    """A constrained problem has no feasible point (LP or surplus floor)."""
