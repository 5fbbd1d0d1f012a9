"""Exception types shared across the package."""


class CurvLabError(Exception):
    """Base class for all curvlab errors."""


class SlotError(CurvLabError):
    """Bad tensor slot index, variance mismatch, or slot-list problem."""


class ScalarKindError(CurvLabError):
    """Operands of different scalar kinds (exact and float) were combined."""


class ExactnessError(CurvLabError):
    """A value (e.g. sqrt(det g)) is not rational, so exact arithmetic cannot hold it."""


class JetOrderError(CurvLabError):
    """A derivative was requested beyond the valid truncation order."""


class DegenerateMetricError(CurvLabError):
    """The metric is singular at the base point."""


class DimensionError(CurvLabError):
    """An operation was invoked in a dimension where it is not defined."""


class ConfigError(CurvLabError):
    """Malformed model configuration or CLI arguments."""
