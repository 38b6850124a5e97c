"""Shared helpers for the test suite."""
from typing import Optional

import numpy as np
import pytest

from grouplim import DenseFn, SparseFn, make_group
from grouplim.errors import BudgetError, ValidationError
from grouplim.extremal import (
    ARMIJO_C,
    ARMIJO_INIT_STEP,
    ARMIJO_SHRINK,
    NONMONOTONE_WINDOW,
    SPECTRAL_STEP_MAX,
    SPECTRAL_STEP_MIN,
    project_box_mean,
)
from grouplim.intlattice import integer_kernel, relations_match
from grouplim.linconfig import dual_gradient
from grouplim.metric import (
    DEFAULT_WEIGHT_CAP,
    EXACT_TOL,
    PartialIso,
    _Budget,
    _relations_consistent,
)
from grouplim.spectral import spectrum_array


def random_dense(group, seed, real=False, box=False):
    """Deterministic random function on a finite group."""
    rng = np.random.default_rng(seed)
    n = group.order
    if box:
        vals = rng.random(n).astype(np.complex128)
    elif real:
        vals = rng.standard_normal(n).astype(np.complex128)
    else:
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return DenseFn(group, vals)


def random_sparse(group, seed, size, lo=0.1, hi=1.0):
    """Random finitely supported function with values bounded away from 0."""
    rng = np.random.default_rng(seed)
    elems = list(group.elements())
    idx = rng.choice(len(elems), size=min(size, len(elems)), replace=False)
    entries = {elems[i]: complex(rng.uniform(lo, hi)) for i in idx}
    return SparseFn(group, entries)


def relations_consistent_enum(gs, hs, g1, g2, weight):
    """Oracle for the relation check: enumerate every signed coefficient
    vector c with sum|c| <= weight and test that sum c_i g_i = 0 holds
    exactly when sum c_i h_i = 0 does.  Each vector is visited once, as c
    or -c, under the prefix whose last index carries its last nonzero,
    positive coefficient."""

    def is_zero(sums, group):
        return all((s % m if m >= 1 else s) == 0 for s, m in zip(sums, group.moduli))

    def add(sums, c, g):
        return [s + c * x for s, x in zip(sums, g)]

    def rec(idx, pos, left, sum1, sum2):
        if pos == idx:
            return is_zero(sum1, g1) == is_zero(sum2, g2)
        for c in range(-left, left + 1):
            if not rec(idx, pos + 1, left - abs(c),
                       add(sum1, c, gs[pos]), add(sum2, c, hs[pos])):
                return False
        return True

    return all(
        rec(idx, 0, weight - cn, add([0] * g1.rank, cn, gs[idx]),
            add([0] * g2.rank, cn, hs[idx]))
        for idx in range(len(gs))
        for cn in range(1, weight + 1)
    )


def exact_iso_oracle(
    f1: SparseFn, f2: SparseFn, node_budget: int
) -> Optional[PartialIso]:
    """Oracle for metric's exact pass: look for a value-preserving bijection
    between the stored supports whose relation lattices coincide exactly;
    such a certificate collapses the bracket to [0, 0].  Candidates are
    tried in element order."""
    e1 = sorted(f1.entries)
    e2 = sorted(f2.entries)
    if len(e1) != len(e2):
        return None
    v1 = sorted((f1.entries[g].real, f1.entries[g].imag) for g in e1)
    v2 = sorted((f2.entries[h].real, f2.entries[h].imag) for h in e2)
    if any(
        abs(a[0] - b[0]) > EXACT_TOL or abs(a[1] - b[1]) > EXACT_TOL
        for a, b in zip(v1, v2)
    ):
        return None
    g1, g2 = f1.group, f2.group
    budget = _Budget(node_budget)
    gs: list = []
    hs: list = []
    used: set = set()

    def rec(i: int) -> Optional[PartialIso]:
        budget.spend()
        if i == len(e1):
            if relations_match(gs, g1, hs, g2):
                return PartialIso(tuple(zip(tuple(gs), tuple(hs))), DEFAULT_WEIGHT_CAP)
            return None
        g = e1[i]
        v = f1.entries[g]
        for h in e2:
            if h in used or abs(f2.entries[h] - v) > EXACT_TOL:
                continue
            gs.append(g)
            hs.append(h)
            # weight-capped pruning before the exact check
            if _relations_consistent(gs, hs, g1, g2, DEFAULT_WEIGHT_CAP, budget):
                used.add(h)
                res = rec(i + 1)
                if res is not None:
                    return res
                used.discard(h)
            gs.pop()
            hs.pop()
        return None

    try:
        return rec(0)
    except BudgetError:
        return None


def kernel_mod_m_closure(rows, k, m):
    """Oracle for intlattice.kernel_mod_m: all solutions r in (Z_m)^k of
    (rows) r = 0 mod m, as the sorted list of tuples of the subgroup
    generated by the projections of the integer kernel of [rows | m*I],
    closed by breadth-first span."""
    full_rows = [list(row) + [m if j == i else 0 for j in range(len(rows))]
                 for i, row in enumerate(rows)]
    lattice = [vec[:k] for vec in integer_kernel(full_rows, k + len(rows))]
    gens = {tuple(v % m for v in vec) for vec in lattice}
    # subgroup closure by breadth-first span
    seen = {(0,) * k}
    frontier = [(0,) * k]
    gen_list = [g for g in gens if any(g)]
    while frontier:
        cur = frontier.pop()
        for g in gen_list:
            nxt = tuple((a + b) % m for a, b in zip(cur, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)


def project_box_mean_bisect(v, delta, tol=1e-12):
    """Oracle for extremal.project_box_mean: Euclidean projection onto
    {u in [0,1]^N : mean(u) = delta} by monotone bisection on the shift
    parameter of clip(v - tau)."""
    if not 0.0 <= delta <= 1.0:
        raise ValidationError("delta must lie in [0, 1]")
    v = np.asarray(v, dtype=np.float64)
    lo = float(v.min()) - 1.0
    hi = float(v.max())

    def mean_at(tau: float) -> float:
        return float(np.mean(np.clip(v - tau, 0.0, 1.0)))

    # mean_at is nonincreasing in tau; bracket the root
    while mean_at(lo) < delta:
        lo -= 1.0
    while mean_at(hi) > delta:
        hi += 1.0
    # relative tolerance keeps the loop finite when v has huge magnitude,
    # where float spacing can exceed an absolute tol
    width = tol * max(1.0, abs(lo), abs(hi))
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mean_at(mid) > delta:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    u = np.clip(v - tau, 0.0, 1.0)
    # exact mean repair within the free (strictly interior) coordinates
    free = (u > 0.0) & (u < 1.0)
    gap = delta - float(np.mean(u))
    if np.any(free):
        u[free] += gap * u.size / int(free.sum())
        u = np.clip(u, 0.0, 1.0)
    return u


def pgd_serial(
    sols: np.ndarray,
    group,
    start: np.ndarray,
    delta: float,
    max_iter: int,
    grad_tol: float,
):
    """Oracle for extremal._pgd: one projected gradient descent run on its
    own, with the step rule and stopping rule of the lockstep version."""
    def value(u):
        # the spectrum is returned too, for the gradient at an accepted step;
        # the products are taken form by form with binary multiplies, as
        # the lockstep objective takes them (np.prod's reduction can round a
        # complex product differently in the last bit)
        spec = spectrum_array(DenseFn(group, u))
        prod = spec[sols[:, 0]]
        for j in range(1, sols.shape[1]):
            prod = prod * spec[sols[:, j]]
        return float(np.sum(prod).real), spec

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


@pytest.fixture
def z8():
    return make_group([8])


@pytest.fixture
def z12():
    return make_group([12])


@pytest.fixture
def z2z3():
    return make_group([2, 3])
