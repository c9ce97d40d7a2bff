"""Exception hierarchy shared across the package."""


class VnumError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(VnumError):
    """Malformed graph or permutation input."""


class ConfigError(VnumError):
    """A VNUM_* environment variable holds a value outside its domain."""


class PreconditionError(VnumError):
    """An operation was called outside its documented domain."""


class ResourceLimitError(VnumError):
    """A configured cap (basis size, degree, or time budget) was exceeded."""


class NoTransversalError(VnumError):
    """A set family contains an empty member, so no transversal exists."""
