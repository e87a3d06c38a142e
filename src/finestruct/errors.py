"""Exception types shared across the package."""


class FineStructError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyFeature(FineStructError):
    """Operation requires at least one value."""


class TooFewPoints(FineStructError):
    """Sample is too small for the requested statistic."""


class ConstantFeature(FineStructError):
    """All values identical (or no spread where spread is required)."""


class DegenerateSpread(FineStructError):
    """Robust scale estimate is zero (interquartile range collapsed)."""


class BadRange(FineStructError):
    """Interval bounds are inverted or empty, or a value range is too wide
    (overflows) or too narrow (spans too few floats) for the computation."""


class BadSpec(FineStructError, ValueError):
    """A parameter value (config field, generator spec, CLI value) is invalid."""


class NoPlottableFeatures(FineStructError):
    """Every feature was skipped; nothing to draw."""
