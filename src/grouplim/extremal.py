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

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_seed
from .functions import DenseFn
from .groups import GroupSpec, make_group
from .linconfig import ConfigSystem, dual_constraint_solutions, dual_gradient, form_products
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
    """Euclidean projection onto {u in [0,1]^N : mean(u) = delta}.

    The projection is clip(v - tau, 0, 1) for the shift tau at which
    m(tau) = sum clip(v_i - tau, 0, 1) equals N*delta.  m is nonincreasing
    and piecewise linear with knots at v_i and v_i - 1.  After one sort,
    prefix sums give m at any point in O(log N); a bisection over each
    family of knots then tells which sorted coordinates clip to 0, which to
    1 and which are free, and tau solves the linear equation on the free
    ones.  O(N log N), exact up to rounding."""
    if not 0.0 <= delta <= 1.0:
        raise ValidationError("delta must lie in [0, 1]")
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    if v.ndim != 1 or n == 0:
        raise ValidationError("can only project a non-empty one-dimensional vector")
    s = np.sort(v)
    # sorting puts NaN last and infinities at the ends
    if not (math.isfinite(s[0]) and math.isfinite(s[-1])):
        raise ValidationError("cannot project a vector with non-finite entries")
    csum = np.zeros(n + 1)
    np.cumsum(s, out=csum[1:])
    target = n * delta

    def m(t: float) -> float:
        # s[:a] clip to 0, s[b:] to 1, the rest contribute s_i - t
        a = int(s.searchsorted(t, side="right"))
        b = int(s.searchsorted(t + 1.0, side="left"))
        return (n - b) + float(csum[b] - csum[a]) - t * (b - a)

    # tau >= s_i holds just for i < lo, and tau >= s_i - 1 just for i < hi;
    # m(s_i - 1) >= m(s_i) + 1, so the second search can start at lo
    lo = bisect.bisect_left(range(n), True, key=lambda i: m(float(s[i])) < target)
    hi = bisect.bisect_left(range(n), True, lo, key=lambda i: m(float(s[i]) - 1.0) < target)
    # the sorted coordinates below lo clip to 0, those from hi on to 1
    s_lo, s_hi = (float(s[i]) if i < n else math.inf for i in (lo, hi))
    one = v >= s_hi
    if lo == hi:
        return one.astype(np.float64)
    free = (v >= s_lo) & ~one
    tau = (float(csum[hi] - csum[lo]) + (n - hi) - target) / (hi - lo)
    u = np.where(free, v - tau, one)
    # exact mean repair within the free coordinates
    u += free * ((target - float(u.sum())) / (hi - lo))
    return np.minimum(np.maximum(u, 0.0), 1.0)


def _pgd(
    sols: np.ndarray,
    group: GroupSpec,
    start: np.ndarray,
    delta: float,
    max_iter: int,
    grad_tol: float,
) -> tuple[np.ndarray, float, float, list[tuple[int, float]]]:
    def value(u):
        # the spectrum is returned too, for the gradient at an accepted step
        spec = spectrum_array(DenseFn(group, u))
        return float(np.sum(form_products(spec[None], sols)).real), spec

    f = project_box_mean(start, delta)
    val, spec = value(f)
    trace = [(0, val)]
    grad = dual_gradient(sols, spec, group)
    # spectral (Barzilai-Borwein) initial step with a nonmonotone Armijo
    # safeguard; a fixed unit step crawls through the flat valleys of this
    # multilinear objective
    init_step = ARMIJO_INIT_STEP
    recent = [val]
    for it in range(1, max_iter + 1):
        pg = f - project_box_mean(f - grad, delta)
        if float(np.linalg.norm(pg)) <= grad_tol:
            break
        reference = max(recent[-NONMONOTONE_WINDOW:])
        step = init_step
        accepted = False
        while step > 1e-16:
            cand = project_box_mean(f - step * grad, delta)
            cval, cspec = value(cand)
            if cval <= reference + ARMIJO_C * float(np.dot(grad, cand - f)):
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            break
        new_grad = dual_gradient(sols, cspec, group)
        s = cand - f
        sy = float(np.dot(s, new_grad - grad))
        if sy > 0.0:
            init_step = min(max(float(np.dot(s, s)) / sy, SPECTRAL_STEP_MIN),
                            SPECTRAL_STEP_MAX)
        else:
            # negative curvature along s: take the longest allowed step
            init_step = SPECTRAL_STEP_MAX
        f, val, grad = cand, cval, new_grad
        recent.append(val)
        trace.append((it, val))
    pg = f - project_box_mean(f - grad, delta)
    return f, val, float(np.linalg.norm(pg)), trace


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
    best final value wins (ties broken by restart index)."""
    check_seed(seed)
    if group is None:
        if not unsafe_group and not is_prime(p):
            raise ValidationError(
                f"p={p} is not prime; the extremal family uses prime-order groups "
                "(pass unsafe_group to override)"
            )
        group = make_group([p])
    if not 0.0 <= delta <= 1.0:
        raise ValidationError("delta must lie in [0, 1]")
    sols = dual_constraint_solutions(config, group)
    n = group.order

    restarts = max(restarts, 0)
    best = None
    for r in range(-1, restarts):
        start = (np.full(n, delta) if r < 0 else
                 np.random.Generator(np.random.Philox(key=(seed << 20) + r)).random(n))
        f, val, gnorm, trace = _pgd(sols, group, start, delta, max_iter, grad_tol)
        if best is None or val < best[1]:
            best = (f, val, gnorm, trace)
    f, val, gnorm, trace = best
    return OptResult(
        f_star=DenseFn(group, f.astype(np.complex128)),
        value=val,
        grad_norm=gnorm,
        restarts_used=restarts + 1,
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
    """Run minimize_density across a delta grid.  Rows carry a monotone
    flag: the true curve is nondecreasing in delta, so a decrease marks a
    restart that missed the basin."""
    rows = []
    for d in deltas:
        if d <= 0.0:
            group = make_group([p])
            f = DenseFn(group, np.zeros(group.order, dtype=np.complex128))
            rows.append({"delta": 0.0, "value": 0.0, "grad_norm": 0.0, "f_star": f})
            continue
        if d >= 1.0:
            group = make_group([p])
            f = DenseFn(group, np.ones(group.order, dtype=np.complex128))
            rows.append({"delta": 1.0, "value": 1.0, "grad_norm": 0.0, "f_star": f})
            continue
        res = minimize_density(
            config,
            p,
            d,
            restarts=restarts,
            seed=seed,
            max_iter=max_iter,
            grad_tol=grad_tol,
            unsafe_group=unsafe_group,
        )
        rows.append(
            {
                "delta": float(d),
                "value": res.value,
                "grad_norm": res.grad_norm,
                "f_star": res.f_star,
            }
        )
    best_so_far = -math.inf
    for row in rows:
        row["monotone_ok"] = row["value"] >= best_so_far - 1e-9
        best_so_far = max(best_so_far, row["value"])
    return rows
