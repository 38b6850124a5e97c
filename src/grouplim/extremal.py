"""Numerical minimization of configuration densities at fixed mean over
Z_p: projected gradient descent on {f : Z_p -> [0,1], E(f) = delta}.

Objective and gradient both come from the dual constraint lattice of
linconfig, computed once per minimize_density call; density_brute serves
only as the oracle the tests check them against.

The reported values are upper bounds on the minimal density for that p;
the limit over growing primes is what the extremal problem is about, and
no rate is available, so results are labeled per-p.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import (DEFAULT_MAX_ITER, DEFAULT_RESTARTS, DENSITY_BUDGET, MAX_RESTARTS,
                     RESTART_BITS, BudgetError, ValidationError, check_count, check_delta,
                     check_seed)
from .functions import DenseFn
from .groups import GroupSpec, make_group
from .linconfig import ConfigSystem, dual_constraint_solutions, dual_density_and_gradient
from .spectral import fft_rows

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
ARMIJO_INIT_STEP = 1.0
SPECTRAL_STEP_MIN = 1e-10
SPECTRAL_STEP_MAX = 1e8
NONMONOTONE_WINDOW = 10
DEFAULT_GRAD_TOL = 1e-8
# bound on the bytes (2 MiB) the rows of one _project_rows or _objective
# call allocate: the pool of runs takes at most _call_rows rows per call
CALL_BYTES = 1 << 21


@dataclass
class OptResult:
    f_star: DenseFn
    value: float
    grad_norm: float
    restarts_used: int
    trace: list[tuple[int, float]] = field(default_factory=list)
    # how the runs went: per run (constant start first) its iterations,
    # rejected Armijo trial steps and final projected-gradient norm; per
    # call the rows of the _pgd pool, _objective calls and rows those
    # evaluated, one per start and per trial step, and rows projected
    stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "grad_norm": self.grad_norm,
            "restarts_used": self.restarts_used,
            "f_star": self.f_star.to_json(),
            "trace": [[i, v] for i, v in self.trace],
            "bound_kind": "upper bound",
        }


# Miller-Rabin with these bases decides primality for every n < 3.3e24
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test with the fixed bases PRIME_BASES,
    exact for n < 3.3e24 (far beyond any group order that fits in memory)."""
    if n < 2:
        return False
    for p in PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def density_gradient(config: ConfigSystem, f: DenseFn, budget: int = DENSITY_BUDGET) -> np.ndarray:
    """Exact gradient of t(config, f) with respect to the value table of a
    real-valued f: the optimizer's objective at the one row f."""
    if not f.is_real(1e-9):
        raise ValidationError("density gradient is defined for real-valued functions")
    sols = dual_constraint_solutions(config, f.group, budget=budget)
    return _objective(f.values.real[None], sols, f.group)[1][0]


def project_box_mean(v: np.ndarray, delta: float) -> np.ndarray:
    """Euclidean projection onto {u in [0,1]^N : mean(u) = delta}; see
    _project_rows, which this runs on the one row v."""
    check_delta(delta)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValidationError("can only project a non-empty one-dimensional vector")
    if not np.all(np.isfinite(v)):
        raise ValidationError("cannot project a vector with non-finite entries")
    return _project_rows(v[None], np.array([delta]))[0]


def _project_rows(V: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Project each row of the finite (R, N) array V onto {u in [0,1]^N :
    mean(u) = delta} for its own delta.

    The projection is clip(v - tau, 0, 1) for the shift tau at which
    m(tau) = sum clip(v_i - tau, 0, 1) equals N*delta.  m is nonincreasing
    and piecewise linear with knots at v_i - 1, where coordinate i turns
    free, and at v_i, where it clips to 0.  Each row's values are sorted
    once, which sorts both knot families; one stable argsort merges the
    two sorted halves, and prefix sums of the slopes give m at every knot.
    The last knot t with m(t) >= N*delta splits the coordinates: v_i - 1 >
    t clip to 1, v_i <= t clip to 0, the rest are free, and tau solves the
    linear equation on the free ones.  O(N log N) per row, exact up to
    rounding."""
    R, n = V.shape
    target = n * deltas
    knots = np.empty((R, 2 * n))
    knots[:, n:] = V
    knots[:, n:].sort(axis=1)
    # v - 1 is monotone in v in floating point too, so this half is sorted
    np.subtract(knots[:, n:], 1.0, out=knots[:, :n])
    order = np.argsort(knots, axis=1, kind="stable")
    enters = order < n
    order += 2 * n * np.arange(R)[:, None]
    t = knots.ravel()[order]
    del order
    # free coordinates after each knot: entered minus left; tied knots may
    # come in any order, as the slope between them is never used
    free_after = enters.cumsum(axis=1, dtype=np.int32) * 2
    free_after -= np.arange(1, 2 * n + 1, dtype=np.int32)
    # m at the knots after the first, where it is n
    m = t[:, 1:] - t[:, :-1]
    m *= free_after[:, :-1]
    m.cumsum(axis=1, out=m)
    np.subtract(n, m, out=m)
    # m is monotone in floating point too (every drop is nonnegative), so
    # the last knot with m >= target ends a run of tied knots
    t_last = t[np.arange(R), (m >= target[:, None]).sum(axis=1)][:, None]
    one = V - 1.0 > t_last
    free = ~one & (V > t_last)
    n_free = np.maximum(free.sum(axis=1), 1)
    tau = (V.sum(axis=1, where=free) + one.sum(axis=1) - target) / n_free
    u = np.where(free, V - tau[:, None], one)
    # exact mean repair within the free coordinates; a row without free
    # coordinates is already feasible
    np.add(u, ((target - u.sum(axis=1)) / n_free)[:, None], out=u, where=free)
    return np.minimum(np.maximum(u, 0.0, out=u), 1.0, out=u)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (R, N) arrays, each one the same dot
    product np.dot takes of a single pair of vectors."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _objective(U: np.ndarray, sols: np.ndarray, group: GroupSpec):
    """Densities (R,) and their gradients (R, N) at the rows of U."""
    spec = fft_rows(U, group)
    spec /= U.shape[1]
    values, grads = dual_density_and_gradient(sols, spec, group)
    return values.real, grads


def _row_bytes(sols: np.ndarray, n: int) -> int:
    """Bytes that one row adds to a call, an upper bound on tracemalloc's
    peak over the workload's shapes.  An _objective row holds under 48
    bytes per spectrum value gathered at the dual solutions (its int64
    index, complex gathered value and leave-one-out product, and float64
    bincount weight) and 80 per coordinate (FFT inputs and outputs).  A
    _project_rows row holds under 104 per coordinate (the (R, 2N) knots,
    their merge order, the merged knots and the slopes between them), and
    a _pgd row projects at most two rows in one call: its gradient step
    and its trial point.  Each call also holds fixed temporaries of under
    8 KiB whatever its rows (tracemalloc: 6 072 B to project one row of
    7), so a call of R rows allocates under R * _row_bytes + 8 KiB; at the
    pool's width on the workload's shapes the row term alone covers them."""
    return max(48 * sols.size + 80 * n, 2 * 104 * n)


def _call_rows(sols: np.ndarray, n: int) -> int:
    """Rows of the _pgd pool under CALL_BYTES."""
    return max(1, CALL_BYTES // _row_bytes(sols, n))


def _pgd(
    sols: np.ndarray,
    group: GroupSpec,
    start: Callable[[int], np.ndarray],
    deltas: np.ndarray,
    slots: np.ndarray,
    max_iter: int,
    grad_tol: float,
) -> tuple[list[tuple[int, np.ndarray, float, float, list[tuple[int, float]]]], dict]:
    """Projected gradient descent for runs i = 0, 1, ... at the means
    deltas[i], from the starts start(i), in one pool of _call_rows rows
    advanced in lockstep.

    Every run goes exactly as it would alone: a spectral (Barzilai-Borwein)
    initial step with its own nonmonotone Armijo safeguard and backtracking
    (a fixed unit step crawls through the flat valleys of this multilinear
    objective), stopping when its projected gradient norm is at most
    grad_tol, its step falls to the 1e-16 floor, or after max_iter steps.
    A stopped run frees its row, and the next pending run enters it at the
    next pool iteration; start(i) is called only then.

    A run enters as an ordinary row at its raw start with a zero gradient,
    at iteration -1: its first trial point is its projected start, taken
    without an Armijo test, and its step stays ARMIJO_INIT_STEP.
    A pool iteration tries one step per row: one _project_rows call gives
    every row at a new point its projected gradient, for the stopping
    test, and every row its trial point; one _objective call evaluates the
    trials of the rows that go on.  A row whose trial fails Armijo halves
    its step and tries again from the same point, keeping its stopping
    test.  Rows are computed independently of each other, so each run
    matches its serial run bit for bit.

    Run i competes for slots[i].  Returns, per slot in order, its best run
    (least value, ties to the lower run) as (run, final point, value,
    projected-gradient norm, (iteration, value) trace), the only point and
    trace kept after a run stops, and the stats of OptResult."""
    runs, n = len(deltas), group.order
    width = _call_rows(sols, n)
    # counted before the first start is drawn: per pool row, a call's share
    # and under 8n for its point, gradient, projected pair and trial
    # gradient; per run its five counters; per slot its best point
    entries = (width * (_row_bytes(sols, n) // 8 + 8 * n + NONMONOTONE_WINDOW) + 5 * runs
               + (int(slots.max(initial=-1)) + 1) * n)
    if entries > DENSITY_BUDGET:
        raise BudgetError(f"the optimizer's pool holds {entries} int64-sized entries at its "
                          f"peak, over budget {DENSITY_BUDGET}")
    # per run: accepted steps (-1 before its start is evaluated), rejected
    # trial steps, value, step, and projected-gradient norm (nan until known)
    iters, backtracks = np.full(runs, -1), np.zeros(runs, dtype=np.int64)
    values, steps, pgs = np.zeros(runs), np.full(runs, ARMIJO_INIT_STEP), np.full(runs, np.inf)
    calls = evaluated = projected = pending = 0
    best: dict[int, tuple[int, np.ndarray, list[tuple[int, float]]]] = {}
    # the active rows: runs enter in order and are appended, stopped rows are dropped
    rows, F, grad = np.zeros(0, dtype=np.int64), np.zeros((0, n)), np.zeros((0, n))
    recent, traces = np.zeros((0, NONMONOTONE_WINDOW)), []
    while rows.size or pending < runs:
        new = np.arange(pending, min(runs, pending + width - rows.size))
        pending += new.size
        if new.size:
            rows = np.concatenate([rows, new])
            F = np.concatenate([F, np.stack([start(i) for i in new.tolist()])])
            grad = np.concatenate([grad, np.zeros((new.size, n))])
            recent = np.concatenate([recent, np.full((new.size, NONMONOTONE_WINDOW), -np.inf)])
            traces += [[] for _ in new]
        dl, step, pg = deltas[rows], steps[rows], pgs[rows]
        # the rows at a new point, whose projected gradient is not yet known
        fresh = np.flatnonzero(np.isnan(pg))
        proj = _project_rows(np.concatenate([F[fresh] - grad[fresh], F - step[:, None] * grad]),
                             np.concatenate([dl[fresh], dl]))
        projected += len(proj)
        d = F[fresh] - proj[:fresh.size]
        pgs[rows[fresh]] = pg[fresh] = np.sqrt(_rowdot(d, d))
        c = proj[fresh.size:]
        stop = (pg <= grad_tol) | (iters[rows] >= max_iter) | (step <= 1e-16)
        if stop.any():
            for j in np.flatnonzero(stop).tolist():
                run, slot = int(rows[j]), int(slots[rows[j]])
                if slot not in best or (values[run], run) < (values[best[slot][0]], best[slot][0]):
                    best[slot] = (run, F[j].copy(), list(enumerate(traces[j])))
            keep = ~stop
            rows, F, grad, recent, c = rows[keep], F[keep], grad[keep], recent[keep], c[keep]
            traces = [tr for tr, k in zip(traces, keep) if k]
        if not len(c):
            continue
        cv, cg = _objective(c, sols, group)
        calls, evaluated = calls + 1, evaluated + len(c)
        first = iters[rows] < 0
        ok = first | (cv <= recent.max(axis=1) + ARMIJO_C * _rowdot(grad, c - F))
        backtracks[rows[~ok]] += 1
        steps[rows[~ok]] *= ARMIJO_SHRINK
        acc = np.flatnonzero(ok)
        moved = rows[acc]
        s = c[acc] - F[acc]
        sy = _rowdot(s, cg[acc] - grad[acc])
        # negative curvature along s: take the longest allowed step
        bb = np.where(sy > 0.0, np.clip(_rowdot(s, s) / np.where(sy > 0.0, sy, 1.0),
                                        SPECTRAL_STEP_MIN, SPECTRAL_STEP_MAX), SPECTRAL_STEP_MAX)
        steps[moved] = np.where(first[acc], ARMIJO_INIT_STEP, bb)
        F[acc], grad[acc], values[moved], pgs[moved] = c[acc], cg[acc], cv[acc], np.nan
        iters[moved] += 1
        # column j of a run's window holds its values after j, j + 10,
        # ... steps; only their maximum is used
        recent[acc, iters[moved] % NONMONOTONE_WINDOW] = cv[acc]
        for j, v in zip(acc.tolist(), cv[acc].tolist()):
            traces[j].append(v)
    stats = {"iterations": iters.tolist(), "backtracks": backtracks.tolist(),
             "grad_norms": pgs.tolist(), "pool_rows": width, "objective_calls": calls,
             "rows_evaluated": evaluated, "rows_projected": projected}
    return [(run, f, float(values[run]), float(pgs[run]), trace)
            for run, f, trace in (best[slot] for slot in sorted(best))], stats


def _minimize_grid(
    config: ConfigSystem,
    group: GroupSpec,
    deltas: list[float],
    restarts: int,
    seed: int,
    max_iter: int,
    grad_tol: float,
) -> tuple[list[tuple[np.ndarray, float, float, list[tuple[int, float]]]], dict]:
    """Best of restarts + 1 PGD runs for each delta: the constant start f =
    delta, then restart r from an RNG stream keyed by (seed, r).  At delta
    0 or 1 the feasible set is one point, so only the constant start runs.
    All runs of all deltas share one _pgd pool, so that no call allocates
    more than about CALL_BYTES; the best final value wins, ties broken by
    restart index.  Runs go restart by restart, each over every delta, so
    restart r's start is drawn once per call and only the last draw is
    kept.  Also returns the stats of OptResult, with each per-run list in
    that order."""
    sols = dual_constraint_solutions(config, group)
    n = group.order
    runs = [(r, d) for r in range(restarts + 1) for d in range(len(deltas))
            if r == 0 or 0.0 < deltas[d] < 1.0]

    @functools.lru_cache(maxsize=1)
    def draw(r):
        return np.random.Generator(np.random.Philox(key=(seed << RESTART_BITS) + r - 1)).random(n)

    def start(i):
        r, d = runs[i]
        return draw(r) if r else np.full(n, deltas[d])

    slots = np.array([d for _, d in runs], dtype=np.int64)
    best, stats = _pgd(sols, group, start, np.asarray(deltas, dtype=np.float64)[slots], slots,
                       max_iter, grad_tol)
    return [b[1:] for b in best], stats


def _check_inputs(p: int, seed: int, restarts: int, max_iter: int, unsafe_group: bool,
                  deltas) -> None:
    check_seed(seed, RESTART_BITS)
    check_count(restarts, "restarts", 0, MAX_RESTARTS)
    check_count(max_iter, "max_iter", 0)
    if not unsafe_group and not is_prime(p):
        raise ValidationError(
            f"p={p} is not prime; the extremal family uses prime-order groups "
            "(pass unsafe_group to override)"
        )
    for d in deltas:
        check_delta(d)


def minimize_density(
    config: ConfigSystem,
    p: int,
    delta: float,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
    grad_tol: float = DEFAULT_GRAD_TOL,
    unsafe_group: bool = False,
    group: GroupSpec | None = None,
) -> OptResult:
    """Minimize t(config, f) over f: Z_p -> [0,1] with mean delta.

    p must be prime (the extremal family runs over prime-order groups);
    pass unsafe_group=True to allow composite orders, or supply an explicit
    group.  Deterministic given seed; restart r uses an RNG stream keyed by
    (seed, r), the constant function f = delta is always tried, and the
    best final value wins (ties broken by restart index).  All restarts run
    in lockstep.  At delta 0 or 1 the constant start is the only feasible
    point and the only run made, so restarts_used is 1 and stats hold that
    one run."""
    _check_inputs(p, seed, restarts, max_iter, unsafe_group or group is not None, [delta])
    if group is None:
        group = make_group([p])
    elif group.order != p:
        raise ValidationError(f"p={p} is not the order {group.order} of the given group")
    [(f, val, gnorm, trace)], stats = _minimize_grid(config, group, [delta], restarts, seed,
                                                     max_iter, grad_tol)
    return OptResult(
        f_star=DenseFn(group, f),
        value=val,
        grad_norm=gnorm,
        restarts_used=len(stats["iterations"]),
        trace=trace,
        stats=stats,
    )


def rho_curve(
    config: ConfigSystem,
    p: int,
    deltas,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
    grad_tol: float = DEFAULT_GRAD_TOL,
    unsafe_group: bool = False,
) -> list[dict]:
    """minimize_density across a delta grid, with the runs of every delta
    in lockstep; row i equals minimize_density at deltas[i].  Rows carry a
    monotone flag: the true curve is nondecreasing in delta, so a decrease
    marks a restart that missed the basin."""
    deltas = [float(d) for d in deltas]
    _check_inputs(p, seed, restarts, max_iter, unsafe_group, deltas)
    group = make_group([p])
    results, _ = _minimize_grid(config, group, deltas, restarts, seed, max_iter, grad_tol)
    rows = [{"delta": d, "value": val, "grad_norm": gnorm, "f_star": DenseFn(group, f)}
            for d, (f, val, gnorm, _) in zip(deltas, results)]
    best_so_far = -math.inf
    for row in rows:
        row["monotone_ok"] = row["value"] >= best_so_far - 1e-9
        best_so_far = max(best_so_far, row["value"])
    return rows
