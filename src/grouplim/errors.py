"""Exception hierarchy shared by all grouplim modules."""

import numbers
from contextlib import contextmanager

import numpy as np


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


def check_int(value, what: str) -> int:
    """value as an int if it is an integer, refusing a bool (JSON's true
    and false) and every float, so that nothing is truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be integers, got {value!r}")
    return int(value)


def check_seed(seed: int, bits: int = 128) -> None:
    """Reject a user seed that cannot key a Philox stream: keys are
    unsigned and below 2**128, and a caller that derives several keys from
    one seed passes the bits left for the seed."""
    if not 0 <= seed < 1 << bits:
        raise ValidationError(f"seed must be an integer in [0, 2**{bits}), got {seed}")


@contextmanager
def refuse_overflow(what: str):
    """Refuse finite input whose NumPy arithmetic overflows (or turns
    invalid) with a ValidationError, in place of a warning and inf or nan."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as e:
        raise ValidationError(f"{what} overflows: the input values are too large") from e
