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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_seed
from .functions import DenseFn
from .groups import GroupSpec, make_group
from .linconfig import (ConfigSystem, dual_constraint_solutions, dual_density_and_gradient,
                        dual_gradient)
from .spectral import spectrum_array

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
ARMIJO_INIT_STEP = 1.0
SPECTRAL_STEP_MIN = 1e-10
SPECTRAL_STEP_MAX = 1e8
NONMONOTONE_WINDOW = 10
DEFAULT_RESTARTS = 16
DEFAULT_MAX_ITER = 3000
DEFAULT_GRAD_TOL = 1e-8
# bound on the bytes one _project_rows or _objective call allocates: a
# batch of runs, and the backtracking ladders of its searching rows, take
# at most _call_rows rows per call
CALL_BYTES = 1 << 19


@dataclass
class OptResult:
    f_star: DenseFn
    value: float
    grad_norm: float
    restarts_used: int
    trace: list[tuple[int, float]] = field(default_factory=list)
    # how the runs went: per run (constant start first) its iterations,
    # rejected Armijo trial steps and final projected-gradient norm; per
    # call the _pgd batches, _objective calls and rows those evaluated
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


def density_gradient(config: ConfigSystem, f: DenseFn, budget: int = 10**8) -> np.ndarray:
    """Exact gradient of t(config, f) with respect to the value table of a
    real-valued f."""
    if not f.is_real(1e-9):
        raise ValidationError("density gradient is defined for real-valued functions")
    sols = dual_constraint_solutions(config, f.group, budget=budget)
    return dual_gradient(sols, spectrum_array(DenseFn(f.group, f.values.real)), f.group)


def project_box_mean(v: np.ndarray, delta: float) -> np.ndarray:
    """Euclidean projection onto {u in [0,1]^N : mean(u) = delta}; see
    _project_rows, which this runs on the one row v."""
    if not 0.0 <= delta <= 1.0:
        raise ValidationError("delta must lie in [0, 1]")
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
    free, and at v_i, where it clips to 0.  One sort of each row's 2N knots
    and prefix sums of the slopes give m at every knot.  The last knot t
    with m(t) >= N*delta splits the coordinates: v_i - 1 > t clip to 1,
    v_i <= t clip to 0, the rest are free, and tau solves the linear
    equation on the free ones.  O(N log N) per row, exact up to rounding."""
    R, n = V.shape
    target = n * deltas
    knots = np.empty((R, 2 * n))
    np.subtract(V, 1.0, out=knots[:, :n])
    knots[:, n:] = V
    order = np.argsort(knots, axis=1)
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
    one = knots[:, :n] > t_last
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


def _pg_norms(F: np.ndarray, grad: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Norms of the projected gradients F - P(F - grad), row by row."""
    pg = F - _project_rows(F - grad, deltas)
    return np.sqrt(_rowdot(pg, pg))


def _objective(U: np.ndarray, sols: np.ndarray, group: GroupSpec):
    """Densities (R,) and their gradients (R, N) at the rows of U."""
    R, n = U.shape
    axes = tuple(range(1, group.rank + 1))
    spec = np.fft.fftn(U.astype(np.complex128).reshape((R,) + group.moduli), axes=axes)
    spec /= n
    values, grads = dual_density_and_gradient(sols, spec.reshape(R, n), group)
    return values.real, grads


def _row_bytes(sols: np.ndarray, n: int) -> int:
    """Bytes that one row adds to a call, an upper bound on tracemalloc's
    peak over the workload's shapes.  An _objective row holds under 48
    bytes per spectrum value gathered at the dual solutions (its int64
    index, complex gathered value and leave-one-out product, and float64
    bincount weight) and 80 per coordinate (FFT inputs and outputs).  A
    _project_rows row holds under 104 per coordinate (the (R, 2N) knots,
    their sort order and the sorted knots), and a _pgd row projects two
    rows in one call: its gradient step and its first trial point."""
    return max(48 * sols.size + 80 * n, 2 * 104 * n)


def _call_rows(sols: np.ndarray, n: int) -> int:
    """Rows that one _pgd batch, or one ladder pass, may take under
    CALL_BYTES."""
    return max(1, CALL_BYTES // _row_bytes(sols, n))


@dataclass
class _History:
    """What one _pgd batch did: the rows still active after each iteration
    with their values, each row's accepted steps and rejected Armijo trial
    steps (the count its serial run would reject), and the _objective calls
    and rows they evaluated."""
    active: list[tuple[np.ndarray, np.ndarray]]
    iterations: np.ndarray
    backtracks: np.ndarray
    objective_calls: int
    rows_evaluated: int


def _pgd(
    sols: np.ndarray,
    group: GroupSpec,
    starts: np.ndarray,
    deltas: np.ndarray,
    max_iter: int,
    grad_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, _History]:
    """Projected gradient descent from each row of starts (R, N) at the
    mean given by the same row of deltas (R,), with the rows advanced in
    lockstep.

    Every row runs exactly as it would alone: a spectral (Barzilai-Borwein)
    initial step with its own nonmonotone Armijo safeguard and backtracking
    (a fixed unit step crawls through the flat valleys of this multilinear
    objective), stopping when its projected gradient norm is at most
    grad_tol, its line search fails, or after max_iter steps.  A stopped
    row leaves the active set.

    An iteration starts with one _project_rows call that gives every row
    its projected gradient, for the stopping test, and its first trial
    point.  Rows whose first step fails Armijo then try ladders of the next
    halvings s/2, s/4, ... down to the 1e-16 floor, as many steps per row
    as fit in _call_rows rows, one _project_rows and one _objective call
    per pass: a row that needs ~27 halvings after a SPECTRAL_STEP_MAX step
    no longer holds the batch for 27 calls.  Each row takes the first step
    of its ladder that passes Armijo, the step its serial backtracking
    takes, and rows are computed independently of each other, so each
    matches its serial run bit for bit.  Returns the final points, their
    values and projected gradient norms, and the _History (see
    _row_trace)."""
    R, n = starts.shape
    cap = _call_rows(sols, n)
    F = _project_rows(starts, deltas)
    vals, grad = _objective(F, sols, group)
    out_f, out_val, out_gnorm = np.empty_like(F), np.empty(R), np.empty(R)
    # state of the active rows, indexed like rows
    rows, dl = np.arange(R), deltas
    history = _History([(rows, vals)], np.zeros(R, dtype=np.int64),
                       np.zeros(R, dtype=np.int64), objective_calls=1, rows_evaluated=R)
    init_step = np.full(R, ARMIJO_INIT_STEP)
    recent = np.full((R, NONMONOTONE_WINDOW), -np.inf)
    recent[:, 0] = vals

    def finish(mask, gnorm):
        out_f[rows[mask]] = F[mask]
        out_val[rows[mask]] = vals[mask]
        out_gnorm[rows[mask]] = gnorm[mask]

    for it in range(1, max_iter + 1):
        m = len(rows)
        step = init_step.copy()
        # one projection gives the projected gradients and the first trial
        # points, the ladders of depth 1 of the first pass (init_step is at
        # least SPECTRAL_STEP_MIN, so every row tries its first step)
        proj = _project_rows(np.concatenate([F - grad, F - step[:, None] * grad]),
                             np.concatenate([dl, dl]))
        pg = F - proj[:m]
        pg = np.sqrt(_rowdot(pg, pg))
        searching = np.flatnonzero(pg > grad_tol)
        c, depth = proj[m + searching], 1
        reference = recent.max(axis=1)
        accepted = np.zeros(m, dtype=bool)
        cand, cvals, cgrad = np.empty_like(F), np.empty(m), np.empty_like(F)
        while searching.size:
            # ladder[i, j] = step * ARMIJO_SHRINK**j by repeated products,
            # as the serial halvings compute it; column depth starts the
            # next pass
            ladder = np.full((searching.size, depth + 1), ARMIJO_SHRINK)
            ladder[:, 0] = step[searching]
            ladder = np.multiply.accumulate(ladder, axis=1)
            tried = ladder[:, :depth] > 1e-16
            li, lj = np.nonzero(tried)
            r = searching[li]
            f, g = F[r], grad[r]
            if c is None:
                c = _project_rows(f - ladder[li, lj, None] * g, dl[r])
            cv, cg = _objective(c, sols, group)
            history.objective_calls += 1
            history.rows_evaluated += li.size
            ok = np.zeros_like(tried)
            ok[li, lj] = cv <= reference[r] + ARMIJO_C * _rowdot(g, c - f)
            first = ok.argmax(axis=1)
            found = ok[np.arange(searching.size), first]
            n_tried = tried.sum(axis=1)
            # the trials of row i start at position n_tried[:i].sum() of c
            at = (np.cumsum(n_tried) - n_tried + first)[found]
            hit = searching[found]
            accepted[hit] = True
            cand[hit], cvals[hit], cgrad[hit] = c[at], cv[at], cg[at]
            history.backtracks[rows[searching]] += np.where(found, first, n_tried)
            step[searching] = ladder[:, depth]
            searching = searching[~found]
            searching = searching[step[searching] > 1e-16]
            c, depth = None, max(1, cap // max(searching.size, 1))
        if not accepted.all():
            finish(~accepted, pg)
            rows, dl, F, grad = rows[accepted], dl[accepted], F[accepted], grad[accepted]
            init_step, recent = init_step[accepted], recent[accepted]
            cand, cvals, cgrad = cand[accepted], cvals[accepted], cgrad[accepted]
        if not rows.size:
            break
        s = cand - F
        sy = _rowdot(s, cgrad - grad)
        # negative curvature along s: take the longest allowed step
        init_step = np.where(
            sy > 0.0,
            np.clip(_rowdot(s, s) / np.where(sy > 0.0, sy, 1.0),
                    SPECTRAL_STEP_MIN, SPECTRAL_STEP_MAX),
            SPECTRAL_STEP_MAX,
        )
        F, vals, grad = cand, cvals, cgrad
        recent[:, it % NONMONOTONE_WINDOW] = vals
        history.iterations[rows] += 1
        history.active.append((rows, vals))
    else:
        finish(np.ones(len(rows), dtype=bool), _pg_norms(F, grad, dl))
    return out_f, out_val, out_gnorm, history


def _row_trace(history: _History, row: int) -> list[tuple[int, float]]:
    """The (iteration, value) trace of one row of a _pgd run."""
    trace = []
    for it, (rows, vals) in enumerate(history.active):
        j = int(np.searchsorted(rows, row))
        if j == len(rows) or rows[j] != row:
            break
        trace.append((it, float(vals[j])))
    return trace


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
    delta, then restart r from an RNG stream keyed by (seed, r).  All runs
    of all deltas go through _pgd together, in batches of at most
    _call_rows rows, so that no call of a batch allocates more than about
    CALL_BYTES; the best final value wins, ties broken by restart index.
    Also returns the stats of OptResult, with each per-run list holding
    the runs of every delta in turn."""
    sols = dual_constraint_solutions(config, group)
    n = group.order
    runs = max(restarts, 0) + 1
    chunk = _call_rows(sols, n)
    best: list = [None] * len(deltas)
    stats = {"iterations": [], "backtracks": [], "grad_norms": [], "batches": 0,
             "objective_calls": 0, "rows_evaluated": 0}
    for lo in range(0, len(deltas) * runs, chunk):
        cells = [divmod(i, runs) for i in range(lo, min(lo + chunk, len(deltas) * runs))]
        randoms = {r: np.random.Generator(np.random.Philox(key=(seed << 20) + r - 1)).random(n)
                   for r in {r for _, r in cells if r > 0}}
        starts = np.stack([randoms[r] if r else np.full(n, deltas[d]) for d, r in cells])
        chunk_deltas = np.array([deltas[d] for d, _ in cells])
        F, vals, gnorms, history = _pgd(sols, group, starts, chunk_deltas, max_iter, grad_tol)
        for i, (d, _) in enumerate(cells):
            if best[d] is None or vals[i] < best[d][1]:
                best[d] = (F[i].copy(), float(vals[i]), float(gnorms[i]), history, i)
        stats["iterations"] += history.iterations.tolist()
        stats["backtracks"] += history.backtracks.tolist()
        stats["grad_norms"] += gnorms.tolist()
        stats["batches"] += 1
        stats["objective_calls"] += history.objective_calls
        stats["rows_evaluated"] += history.rows_evaluated
    return [(f, val, gnorm, _row_trace(history, i)) for f, val, gnorm, history, i in best], stats


def _check_inputs(p: int, seed: int, max_iter: int, unsafe_group: bool, deltas) -> None:
    # restart r draws from the Philox key seed * 2**20 + r - 1
    check_seed(seed, bits=108)
    if max_iter < 0:
        raise ValidationError(f"max_iter must be a non-negative integer, got {max_iter}")
    if not unsafe_group and not is_prime(p):
        raise ValidationError(
            f"p={p} is not prime; the extremal family uses prime-order groups "
            "(pass unsafe_group to override)"
        )
    for d in deltas:
        if not 0.0 <= d <= 1.0:
            raise ValidationError(f"delta must lie in [0, 1], got {d}")


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
    in lockstep."""
    _check_inputs(p, seed, max_iter, unsafe_group or group is not None, [delta])
    if group is None:
        group = make_group([p])
    [(f, val, gnorm, trace)], stats = _minimize_grid(config, group, [delta], restarts, seed,
                                                     max_iter, grad_tol)
    return OptResult(
        f_star=DenseFn(group, f),
        value=val,
        grad_norm=gnorm,
        restarts_used=max(restarts, 0) + 1,
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
    strictly inside (0, 1) in lockstep; row i equals minimize_density at
    deltas[i], and delta 0 and 1 give the constant functions.  Rows carry a
    monotone flag: the true curve is nondecreasing in delta, so a decrease
    marks a restart that missed the basin."""
    deltas = [float(d) for d in deltas]
    _check_inputs(p, seed, max_iter, unsafe_group, deltas)
    group = make_group([p])
    interior = [d for d in deltas if 0.0 < d < 1.0]
    results = iter(_minimize_grid(config, group, interior, restarts, seed, max_iter,
                                  grad_tol)[0] if interior else [])
    rows = []
    for d in deltas:
        if d in (0.0, 1.0):
            f, val, gnorm = np.full(group.order, d), d, 0.0
        else:
            f, val, gnorm, _ = next(results)
        rows.append({"delta": d, "value": val, "grad_norm": gnorm,
                     "f_star": DenseFn(group, f)})
    best_so_far = -math.inf
    for row in rows:
        row["monotone_ok"] = row["value"] >= best_so_far - 1e-9
        best_so_far = max(best_so_far, row["value"])
    return rows
