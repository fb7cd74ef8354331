"""Exception types shared across the package."""


class SosregError(Exception):
    """Base class for all package errors."""


class DomainError(SosregError):
    """A point or region lies outside a function's declared domain."""


class NonnegativityError(SosregError):
    """A function assumed nonnegative evaluated negative."""


class DerivativeError(SosregError):
    """A derivative could not be evaluated (order cap, NaN, unsupported node)."""


class ClassificationError(SosregError):
    """Cell classification is inconsistent with the control distance."""


class BoundaryRootError(SosregError):
    """A fiber minimizer landed on the search interval boundary."""


class ConvergenceError(SosregError):
    """An iterative solver stopped before meeting its tolerance."""


class QuadratureError(SosregError):
    """Quadrature failed to converge to the requested tolerance."""


class CoverBudgetError(SosregError):
    """Cover construction exceeded the cell budget."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


class CoverageHoleError(SosregError):
    """A point of the declared region is not covered by any cell."""
