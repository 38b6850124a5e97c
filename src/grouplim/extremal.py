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
# bound on R*S*k, the spectrum values one lockstep batch of R runs gathers
# at the S points of a k-form dual constraint lattice: the arrays of one
# batch then take a few hundred KB
ROW_CHUNK_ELEMENTS = 1 << 12


@dataclass
class OptResult:
    f_star: DenseFn
    value: float
    grad_norm: float
    restarts_used: int
    trace: list[tuple[int, float]] = field(default_factory=list)

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


def _pgd(
    sols: np.ndarray,
    group: GroupSpec,
    starts: np.ndarray,
    deltas: np.ndarray,
    max_iter: int,
    grad_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Projected gradient descent from each row of starts (R, N) at the
    mean given by the same row of deltas (R,), with the rows advanced in
    lockstep.

    Every row runs exactly as it would alone: a spectral (Barzilai-Borwein)
    initial step with its own nonmonotone Armijo safeguard and backtracking
    (a fixed unit step crawls through the flat valleys of this multilinear
    objective), stopping when its projected gradient norm is at most
    grad_tol, its line search fails, or after max_iter steps.  A stopped
    row leaves the active set.  Returns the final points, their values and
    projected gradient norms, and the history: for each iteration, the
    rows still active after it and their values (see _row_trace)."""
    R = starts.shape[0]
    F = _project_rows(starts, deltas)
    vals, grad = _objective(F, sols, group)
    out_f, out_val, out_gnorm = np.empty_like(F), np.empty(R), np.empty(R)
    # state of the active rows, indexed like rows
    rows, dl = np.arange(R), deltas
    history = [(rows, vals)]
    init_step = np.full(R, ARMIJO_INIT_STEP)
    recent = np.full((R, NONMONOTONE_WINDOW), -np.inf)
    recent[:, 0] = vals

    def finish(mask, gnorm):
        out_f[rows[mask]] = F[mask]
        out_val[rows[mask]] = vals[mask]
        out_gnorm[rows[mask]] = gnorm[mask]

    for it in range(1, max_iter + 1):
        pg = _pg_norms(F, grad, dl)
        searching = np.flatnonzero(pg > grad_tol)
        reference = recent.max(axis=1)
        step = init_step.copy()
        accepted = np.zeros(len(rows), dtype=bool)
        cand, cvals, cgrad = np.empty_like(F), np.empty(len(rows)), np.empty_like(F)
        while searching.size:
            f, g = F[searching], grad[searching]
            c = _project_rows(f - step[searching, None] * g, dl[searching])
            cv, cg = _objective(c, sols, group)
            ok = cv <= reference[searching] + ARMIJO_C * _rowdot(g, c - f)
            hit = searching[ok]
            accepted[hit] = True
            cand[hit], cvals[hit], cgrad[hit] = c[ok], cv[ok], cg[ok]
            searching = searching[~ok]
            step[searching] *= ARMIJO_SHRINK
            searching = searching[step[searching] > 1e-16]
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
        history.append((rows, vals))
    else:
        finish(np.ones(len(rows), dtype=bool), _pg_norms(F, grad, dl))
    return out_f, out_val, out_gnorm, history


def _row_trace(history: list, row: int) -> list[tuple[int, float]]:
    """The (iteration, value) trace of one row of a _pgd run."""
    trace = []
    for it, (rows, vals) in enumerate(history):
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
) -> list[tuple[np.ndarray, float, float, list[tuple[int, float]]]]:
    """Best of restarts + 1 PGD runs for each delta: the constant start f =
    delta, then restart r from an RNG stream keyed by (seed, r).  All runs
    of all deltas go through _pgd together, in chunks of at most
    ROW_CHUNK_ELEMENTS / (S*k) rows so that the gathered spectrum values
    stay bounded; the best final value wins, ties broken by restart index."""
    sols = dual_constraint_solutions(config, group)
    n = group.order
    runs = max(restarts, 0) + 1
    chunk = max(1, ROW_CHUNK_ELEMENTS // sols.size)
    best: list = [None] * len(deltas)
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
    return [(f, val, gnorm, _row_trace(history, i)) for f, val, gnorm, history, i in best]


def _check_inputs(p: int, seed: int, unsafe_group: bool, deltas) -> None:
    check_seed(seed)
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
    _check_inputs(p, seed, unsafe_group or group is not None, [delta])
    if group is None:
        group = make_group([p])
    [(f, val, gnorm, trace)] = _minimize_grid(config, group, [delta], restarts, seed,
                                              max_iter, grad_tol)
    return OptResult(
        f_star=DenseFn(group, f),
        value=val,
        grad_norm=gnorm,
        restarts_used=max(restarts, 0) + 1,
        trace=trace,
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
    _check_inputs(p, seed, unsafe_group, deltas)
    group = make_group([p])
    interior = [d for d in deltas if 0.0 < d < 1.0]
    results = iter(_minimize_grid(config, group, interior, restarts, seed, max_iter, grad_tol)
                   if interior else [])
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
