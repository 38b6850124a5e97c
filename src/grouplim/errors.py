"""Exception hierarchy shared by all grouplim modules."""


class GrouplimError(Exception):
    """Base class for all errors raised by grouplim."""


class ValidationError(GrouplimError):
    """Bad user input: malformed group, out-of-range value, arity mismatch."""


class UnsupportedError(ValidationError):
    """Operation requires a finite group (or otherwise unsupported input)."""


class PrecisionError(ValidationError):
    """Requested tolerance is below the truncation threshold of the data."""


class BudgetError(GrouplimError):
    """A compute budget (tuple count, node cap, matrix size) was exceeded.

    Distinguishable from a definite negative answer: the search was cut
    short, nothing is known about the remainder.
    """


def check_seed(seed: int) -> None:
    """Reject a user seed that cannot key a Philox stream (keys are
    unsigned)."""
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
