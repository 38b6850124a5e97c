"""Exception hierarchy shared by all grouplim modules, with the input
checks and default limits that the CLI applies while parsing its
arguments.  Nothing here imports NumPy at module level, so a CLI call
with bad input ends before NumPy is loaded."""

import math
import numbers
from contextlib import contextmanager

# defaults of the relation search (metric) and of the extremal optimizer
DEFAULT_WEIGHT_CAP = 12
DEFAULT_NODE_BUDGET = 10**7
DEFAULT_RESTARTS = 16
DEFAULT_MAX_ITER = 3000


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


def check_positive(value: int, what: str) -> None:
    """Reject a count below 1."""
    if value < 1:
        raise ValidationError(f"{what} must be a positive integer")


def check_search_limits(weight_cap: int, node_budget: int) -> None:
    """Reject a relation weight cap or a node budget below 1."""
    check_positive(weight_cap, "weight_cap")
    check_positive(node_budget, "node_budget")


def check_tol(tol: float) -> None:
    """Reject a Cauchy tolerance that is negative or not finite."""
    if not math.isfinite(tol) or tol < 0:
        raise ValidationError(f"tol must be a finite number >= 0, got {tol}")


def check_samples(samples: int) -> None:
    """Reject a Monte Carlo sample count below 1."""
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")


def check_tries(tries: int) -> None:
    """Reject a rounding attempt count below 1, or past 2**16: attempt s
    draws from the Philox key seed * 2**16 + s."""
    if tries < 1:
        raise ValidationError("need at least one rounding attempt")
    if tries > 1 << 16:
        raise ValidationError(f"tries must be at most 2**16, got {tries}")


def check_restarts(restarts: int) -> None:
    """Reject more than 2**20 restarts: restart r draws from the Philox key
    seed * 2**20 + r - 1.  A negative count runs no restart."""
    if restarts > 1 << 20:
        raise ValidationError(f"restarts must be at most 2**20, got {restarts}")


@contextmanager
def refuse_overflow(what: str):
    """Refuse finite input whose NumPy arithmetic overflows (or turns
    invalid) with a ValidationError, in place of a warning and inf or nan."""
    import numpy as np

    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as e:
        raise ValidationError(f"{what} overflows: the input values are too large") from e
