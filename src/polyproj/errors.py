"""Exception taxonomy shared across the package."""


class PolyprojError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(PolyprojError, ValueError):
    """Polytope dimension out of range (n < 1, or family-specific caps)."""


class InvalidArgumentError(PolyprojError, ValueError):
    """Argument outside its documented domain (negative index, bad flag, ...)."""


class InvalidFaceError(PolyprojError, ValueError):
    """Requested canonical face does not exist for this family/dimension."""


class InvalidPairError(PolyprojError, ValueError):
    """Face pair (F, G) with F not a face of G where that is required."""


class NumericError(PolyprojError, RuntimeError):
    """Numerical routine failed or a numerical invariant does not hold."""


class DegenerateGeometryError(PolyprojError, RuntimeError):
    """Input points/generators numerically rank-deficient where full rank is required."""


class SimulationAbortError(PolyprojError, RuntimeError):
    """Simulation stopped early; carries diagnostic counters."""

    def __init__(self, message: str, degenerate: int = 0, replications: int = 0):
        super().__init__(message)
        self.degenerate = degenerate
        self.replications = replications


class TruncationError(PolyprojError, RuntimeError):
    """Series truncation could not reach the requested bound."""

    def __init__(self, message: str, achieved_bound: float):
        super().__init__(f"{message} (achieved bound {achieved_bound:.3e})")
        self.achieved_bound = achieved_bound
