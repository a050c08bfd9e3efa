"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Shapes or sizes are inconsistent for the requested operation."""


class TapeError(RuntimeError):
    """The autodiff graph cannot satisfy the request (detached or already consumed)."""


class StateError(RuntimeError):
    """A stateful component was used before it holds valid state."""


class ConfigurationError(ValueError):
    """A configuration value or combination of values is invalid."""


class SkeletonError(ValueError):
    """Two skeleton-bound objects do not belong to the same skeleton."""


class FormatError(ValueError):
    """A file does not conform to its declared format."""


class DataError(ValueError):
    """Data content is invalid (non-finite values, bad ranges)."""
