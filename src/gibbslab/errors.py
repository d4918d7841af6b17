"""Exception types shared across the package."""

__all__ = [
    "GibbsLabError",
    "SpaceError",
    "MeasureError",
    "EnergyError",
    "StepSizeFailureError",
    "CollisionError",
    "TrappedChainError",
    "EnumerationCapError",
    "InfeasibleConstraintError",
    "ConfigError",
]


class GibbsLabError(Exception):
    """Base class for all package errors."""


class SpaceError(GibbsLabError):
    """Bad space construction request (unknown kind, aliasing guard, ...)."""


class MeasureError(GibbsLabError):
    """Invalid measure data (negative density, wrong mass, wrong space)."""


class EnergyError(GibbsLabError):
    """Invalid energy-model request (bad parameter, unmet hypothesis,
    incompatible space or model)."""


class StepSizeFailureError(GibbsLabError):
    """The mirror descent stalled far from optimality or met a non-finite
    gradient."""


class CollisionError(GibbsLabError):
    """Two particles approached within the collision tolerance during a
    configuration optimization; carries the offending index pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class TrappedChainError(GibbsLabError):
    """Every proposal landed in an infinite-energy region for too long."""


class EnumerationCapError(GibbsLabError):
    """Exact enumeration was requested beyond the state-space cap."""


class InfeasibleConstraintError(GibbsLabError):
    """The constraint set for a rate-function profile is empty."""


class ConfigError(GibbsLabError):
    """Run configuration failed strict validation."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column

