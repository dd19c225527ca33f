"""Exception types shared across the package."""


class SrlbError(Exception):
    """Base class for all srlb errors."""


class RangeTooTight(SrlbError):
    """Requested richness is too large relative to n (A or B would drop below 1)."""


class ArithmeticOverflow(SrlbError):
    """A derived quantity left the 64-bit safe envelope."""


class DimensionMismatch(SrlbError):
    """Operands disagree on the ambient dimension."""


class PointEscapesGrid(SrlbError):
    """A parametrically generated point fell outside the grid ranges."""


class InstanceTooLarge(SrlbError):
    """A phase would take more bytes or operations than exact.charge allows."""


class EmptyInput(SrlbError):
    """An operation that needs at least one element received none."""


class InsufficientData(SrlbError):
    """Too few data points for a meaningful fit."""
