"""Exception hierarchy shared by all grouplim modules, with the one
definition of each input rule (counts, means, seeds and the layout of the
random streams) and the default limits, which the library and the CLI's
argument parser both apply.  Nothing here imports NumPy at module level,
so a CLI call with bad input ends before NumPy is loaded."""

import math
import numbers
from contextlib import contextmanager

# defaults of the relation search (metric) and of the extremal optimizer
DEFAULT_WEIGHT_CAP = 12
DEFAULT_NODE_BUDGET = 10**7
DEFAULT_RESTARTS = 16
DEFAULT_MAX_ITER = 3000
# int64-sized entries a density, a minimization or a distance may hold at its peak
DENSITY_BUDGET = 10**8

# Random streams: a Philox key is below 2**KEY_BITS.  Restart r = 1 ..
# MAX_RESTARTS of seed s draws from the key s * 2**RESTART_BITS + r - 1,
# and rounding try t < MAX_TRIES from s * 2**TRY_BITS + t, so the keys of
# different seeds stay apart.  These draw from counter 0 on.  The density
# top-up of seed s draws from the key s with its counter jumped
# TOPUP_JUMPS times by 2**128, past every draw of a rounding try, whose
# key it may share.
KEY_BITS = 128
RESTART_BITS = 20
TRY_BITS = 16
TOPUP_JUMPS = 1
MAX_RESTARTS = 1 << RESTART_BITS
MAX_TRIES = 1 << TRY_BITS


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


def check_seed(seed: int, stream_bits: int = 0) -> None:
    """Reject a user seed that cannot key a Philox stream: keys are
    unsigned and below 2**KEY_BITS, and a caller that derives several keys
    from one seed keeps the low stream_bits of each key for its index."""
    bits = KEY_BITS - stream_bits
    if not 0 <= seed < 1 << bits:
        raise ValidationError(f"seed must be an integer in [0, 2**{bits}), got {seed}")


def check_count(value: int, what: str, lo: int = 1, cap: int | None = None) -> None:
    """Reject a count below lo, or above cap where one is given."""
    if value < lo or cap is not None and value > cap:
        bounds = f">= {lo}" if cap is None else f"in [{lo}, {cap}]"
        raise ValidationError(f"{what} must be an integer {bounds}, got {value}")


def check_delta(delta: float) -> None:
    """Reject a mean outside [0, 1], nan included."""
    if not 0.0 <= delta <= 1.0:
        raise ValidationError(f"delta must lie in [0, 1], got {delta}")


def check_search_limits(weight_cap: int, node_budget: int) -> None:
    """Reject a relation weight cap or a node budget below 1."""
    check_count(weight_cap, "weight_cap")
    check_count(node_budget, "node_budget")


def check_budget(count, limit: int, what: str, hint: str = "") -> None:
    """The one resource rule: refuse work whose count exceeds its limit,
    checked before the work allocates anything.  what names the work with
    its count; the refusal reads "<what>, over budget <limit>[; <hint>]"."""
    if count > limit:
        raise BudgetError(f"{what}, over budget {limit}" + (f"; {hint}" if hint else ""))


def check_tol(tol: float) -> None:
    """Reject a Cauchy tolerance that is negative or not finite."""
    if not math.isfinite(tol) or tol < 0:
        raise ValidationError(f"tol must be a finite number >= 0, got {tol}")


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
