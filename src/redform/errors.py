"""Exception types shared by the library and mapped to CLI reason tags."""


class RedformError(Exception):
    """Base class for library errors; ``reason`` is a machine-readable tag."""

    reason = "error"


class ParseError(RedformError):
    reason = "parse_error"


class DivisionByZero(RedformError, ZeroDivisionError):
    reason = "division_by_zero"


class PoleAtPoint(RedformError):
    reason = "pole_at_point"


class DimensionMismatch(RedformError):
    reason = "dimension_mismatch"


class SingularGauge(RedformError):
    reason = "singular_gauge"


class InvalidArity(RedformError):
    reason = "invalid_arity"


class NotStable(RedformError):
    reason = "not_stable"


class NotSemiInvariant(RedformError):
    reason = "not_semi_invariant"


class NotSplit(RedformError):
    reason = "not_split"


class DefectiveEigenstructure(RedformError):
    reason = "defective_eigenstructure"


class InternalError(RedformError):
    """A self-check of the library failed: a bug, never a verdict."""

    reason = "internal_error"
