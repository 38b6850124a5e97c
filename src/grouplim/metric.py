"""The dhat metric on finitely supported functions over discrete f.g.
abelian groups, and the induced d / d' metrics on functions over finite
abelian groups.

dhat(f1, f2) is the infimum of eps such that an eps-isomorphism exists: a
weight-ceil(1/eps) partial isomorphism covering both eps-supports whose
value mismatch is at most eps everywhere.  Feasibility is monotone in eps
and can only flip at finitely many critical values, so the distance is
reported as a certified bracket between adjacent critical candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .errors import BudgetError, PrecisionError, ValidationError
from .functions import DenseFn, SparseFn
from .groups import Elem, GroupSpec
from .intlattice import relations_match
from .spectral import dft

DEFAULT_WEIGHT_CAP = 12
DEFAULT_NODE_BUDGET = 10**7
EXACT_TOL = 1e-12


@dataclass(frozen=True, init=False, slots=True)
class PartialIso:
    """A bijection between finite subsets of two groups, asserted to
    preserve all signed relations of total coefficient weight <= weight.

    Built from its pairs (g, h) and stored flat, so that a witness holds
    one tuple of integers rather than three tuples per pair: ``coords``
    concatenates g_1, h_1, g_2, h_2, ..., and every g_i has length rank_g,
    every h_i length rank_h."""

    coords: tuple[int, ...]
    rank_g: int
    rank_h: int
    weight: int

    def __init__(self, pairs: Sequence[tuple[Elem, Elem]], weight: int):
        if weight < 1:
            raise ValidationError("weight must be a positive integer")
        lhs, rhs = [tuple(g) for g, _ in pairs], [tuple(h) for _, h in pairs]
        if len(set(lhs)) != len(lhs) or len(set(rhs)) != len(rhs):
            raise ValidationError("partial isomorphism must be a bijection")
        r, s = (len(lhs[0]), len(rhs[0])) if lhs else (0, 0)
        if any(len(g) != r or len(h) != s for g, h in zip(lhs, rhs)):
            raise ValidationError("domain and image elements must each have one rank")
        object.__setattr__(self, "coords", tuple(c for g, h in zip(lhs, rhs) for c in g + h))
        object.__setattr__(self, "rank_g", r)
        object.__setattr__(self, "rank_h", s)
        object.__setattr__(self, "weight", weight)

    @property
    def pairs(self) -> tuple[tuple[Elem, Elem], ...]:
        r, step, c = self.rank_g, self.rank_g + self.rank_h or 1, self.coords
        return tuple((c[i:i + r], c[i + r:i + step]) for i in range(0, len(c), step))

    def domain(self) -> list[Elem]:
        return [g for g, _ in self.pairs]

    def image(self) -> list[Elem]:
        return [h for _, h in self.pairs]

    def to_json(self) -> dict:
        return {"weight": self.weight, "pairs": [[list(g), list(h)] for g, h in self.pairs]}


@dataclass(slots=True)
class DistBracket:
    """Certified interval [lo, hi] around a metric value.

    lo is always a verified lower bound.  hi is a verified upper bound
    unless weight_capped is set, in which case the witnessing map was only
    checked up to the capped weight.  budget_exceeded marks brackets that
    were widened because a feasibility probe ran out of search nodes.
    """

    lo: float
    hi: float
    witness: Optional[PartialIso] = None
    exact: bool = False
    weight_capped: bool = False
    budget_exceeded: bool = False

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo - EXACT_TOL:
            raise ValidationError(f"invalid bracket [{self.lo}, {self.hi}]")

    def shift(self, delta: float) -> "DistBracket":
        return replace(self, lo=self.lo + delta, hi=self.hi + delta)

    def to_json(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "exact": self.exact,
            "weight_capped": self.weight_capped,
            "budget_exceeded": self.budget_exceeded,
            "witness": self.witness.to_json() if self.witness else None,
        }


def supp_eps(f: SparseFn, eps: float) -> set[Elem]:
    """Elements with |f(g)| strictly above eps.  eps must exceed the
    truncation threshold of f, otherwise membership is undecidable."""
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if eps <= f.truncation:
        raise PrecisionError(
            f"eps={eps} is at or below the truncation threshold {f.truncation}"
        )
    supp = {g for g, v in f.entries.items() if abs(v) > eps}
    bound = f.l2_norm() ** 2 / eps**2
    if len(supp) > bound + 1e-9:
        raise PrecisionError(
            f"support bound violated: |supp|={len(supp)} > l2^2/eps^2={bound}"
        )
    return supp


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, n: int):
        self.remaining = n

    def spend(self, n: int = 1):
        self.remaining -= n
        if self.remaining < 0:
            raise BudgetError("search node budget exceeded")


def _relations_consistent(
    gs: list[Elem],
    hs: list[Elem],
    g1: GroupSpec,
    g2: GroupSpec,
    weight: int,
    budget: _Budget,
) -> bool:
    """True iff every signed relation c with sum|c| <= weight holds on the
    gs side exactly when it holds on the hs side.

    A word of length <= weight in the generators +-(g_i, h_i) of G1 x G2 is
    such a c, so the map is consistent iff the radius-weight ball around 0
    holds no (a, 0) with a != 0 and no (0, b) with b != 0.  Breadth-first
    search over the ball, one budget node per step tried: O(|ball| * k)."""
    rank1 = len(g1.moduli)
    mods = g1.moduli + g2.moduli
    steps = []
    for g, h in zip(gs, hs):
        s = tuple(g) + tuple(h)
        steps += [s, tuple(-x for x in s)]
    zero = (0,) * len(mods)
    seen = {zero}
    frontier = [zero]
    for _ in range(weight):
        nxt = []
        for x in frontier:
            for s in steps:
                budget.spend()
                y = tuple(
                    (a + b) % m if m >= 1 else a + b for a, b, m in zip(x, s, mods)
                )
                if y in seen:
                    continue
                if any(y[:rank1]) != any(y[rank1:]):
                    return False
                seen.add(y)
                nxt.append(y)
        if not nxt:
            break
        frontier = nxt
    return True


def check_partial_iso(phi: PartialIso, g1: GroupSpec, g2: GroupSpec) -> bool:
    """Full weight-n relation check for an explicit map."""
    gs = [g1.reduce(g) for g in phi.domain()]
    hs = [g2.reduce(h) for h in phi.image()]
    return _relations_consistent(
        gs, hs, g1, g2, phi.weight, _Budget(DEFAULT_NODE_BUDGET)
    )


def exists_eps_iso(
    f1: SparseFn,
    f2: SparseFn,
    eps: float,
    weight: Optional[int] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[PartialIso]:
    """Search for an eps-isomorphism between f1 and f2.

    Returns a witnessing PartialIso or None when the (exhaustive,
    budget-bounded) backtracking proves none exists.  Raises BudgetError if
    the node cap was hit, which is distinguishable from a definite None.

    The domain is supp_eps(f1) plus padding elements (drawn from the stored
    entries of f1) matched to any elements of supp_eps(f2) that the main
    assignment leaves uncovered; value-compatible candidate targets are
    tried in order of |f1(g) - f2(h)|, ties broken lexicographically.
    """
    if weight is None:
        weight = math.ceil(1.0 / eps - 1e-12)
    g1, g2 = f1.group, f2.group
    s1 = sorted(supp_eps(f1, eps))
    s2 = supp_eps(f2, eps)
    budget = _Budget(node_budget)

    def candidates_for_source(g: Elem) -> list[Elem]:
        v = f1.entries.get(g, 0.0)
        cands = [
            h
            for h, w in f2.entries.items()
            if abs(v - w) <= eps + 1e-15
        ]
        cands.sort(key=lambda h: (abs(v - f2.entries[h]), h))
        return cands

    def candidates_for_target(h: Elem) -> list[Elem]:
        w = f2.entries[h]
        cands = [
            g
            for g, v in f1.entries.items()
            if abs(v - w) <= eps + 1e-15
        ]
        cands.sort(key=lambda g: (abs(f1.entries[g] - w), g))
        return cands

    gs: list[Elem] = []
    hs: list[Elem] = []
    used_targets: set[Elem] = set()
    used_sources: set[Elem] = set()

    def extend(g: Elem, h: Elem) -> bool:
        gs.append(g1.reduce(g))
        hs.append(g2.reduce(h))
        ok = _relations_consistent(gs, hs, g1, g2, weight, budget)
        if not ok:
            gs.pop()
            hs.pop()
        return ok

    def retract():
        gs.pop()
        hs.pop()

    def assign_sources(i: int) -> Optional[PartialIso]:
        budget.spend()
        if i == len(s1):
            return cover_targets(sorted(s2 - set(hs)))
        g = s1[i]
        for h in candidates_for_source(g):
            if h in used_targets:
                continue
            if extend(g, h):
                used_targets.add(h)
                used_sources.add(g)
                res = assign_sources(i + 1)
                if res is not None:
                    return res
                used_targets.discard(h)
                used_sources.discard(g)
                retract()
        return None

    def cover_targets(missing: list[Elem]) -> Optional[PartialIso]:
        budget.spend()
        missing = sorted(set(missing) - set(hs))
        if not missing:
            return PartialIso(tuple(zip(tuple(gs), tuple(hs))), weight)
        h = missing[0]
        for g in candidates_for_target(h):
            if g in used_sources:
                continue
            if extend(g, h):
                used_sources.add(g)
                used_targets.add(h)
                res = cover_targets(missing[1:])
                if res is not None:
                    return res
                used_sources.discard(g)
                used_targets.discard(h)
                retract()
        return None

    return assign_sources(0)


def _try_exact_isomorphism(
    f1: SparseFn, f2: SparseFn, node_budget: int
) -> Optional[PartialIso]:
    """Look for a value-preserving bijection between the stored supports
    whose relation lattices coincide exactly; such a certificate collapses
    the bracket to [0, 0]."""
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
    gs: list[Elem] = []
    hs: list[Elem] = []
    used: set[Elem] = set()

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


def _critical_candidates(f1: SparseFn, f2: SparseFn, weight_cap: int) -> list[float]:
    """Sorted eps values at which feasibility can flip.  Values at or below
    either truncation threshold (float noise between matching spectra) are
    left out: supp_eps cannot decide membership there."""
    vals1 = [abs(v) for v in f1.entries.values()]
    vals2 = [abs(v) for v in f2.entries.values()]
    eps_max = max(vals1 + vals2, default=0.0)
    cands = set()
    for m in range(1, weight_cap + 1):
        cands.add(1.0 / m)
    cands.update(vals1)
    cands.update(vals2)
    for v in f1.entries.values():
        for w in f2.entries.values():
            cands.add(abs(v - w))
    floor = max(f1.truncation, f2.truncation)
    out = sorted(c for c in cands if floor < c <= eps_max + 1e-15)
    # merge near-duplicates
    merged: list[float] = []
    for c in out:
        if not merged or c - merged[-1] > EXACT_TOL:
            merged.append(c)
    if not merged or abs(merged[-1] - eps_max) > EXACT_TOL:
        merged = [c for c in merged if c < eps_max] + [eps_max]
    return merged


def dhat(
    f1: SparseFn,
    f2: SparseFn,
    weight_cap: int = DEFAULT_WEIGHT_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DistBracket:
    """Bracket the dhat distance between two finitely supported functions.

    Binary search over the sorted critical candidates locates the adjacent
    (infeasible, feasible) pair; feasibility at candidate eps is decided at
    weight min(ceil(1/eps), weight_cap), and any probe run under a binding
    cap or exhausted budget flags the bracket instead of being reported as
    exact."""
    if not f1.entries and not f2.entries:
        return DistBracket(0.0, 0.0, witness=PartialIso((), 1), exact=True)

    exact_iso = _try_exact_isomorphism(f1, f2, node_budget)
    if exact_iso is not None:
        return DistBracket(0.0, 0.0, witness=exact_iso, exact=True)

    cands = _critical_candidates(f1, f2, weight_cap)

    # status per candidate: (feasible?, capped?, witness) or BudgetError
    results: dict[int, tuple[Optional[bool], bool, Optional[PartialIso]]] = {}
    any_budget = False

    def probe(i: int):
        nonlocal any_budget
        if i in results:
            return results[i]
        eps = cands[i]
        req_weight = math.ceil(1.0 / eps - 1e-12)
        capped = req_weight > weight_cap
        weight = min(req_weight, weight_cap)
        try:
            wit = exists_eps_iso(f1, f2, eps, weight=weight, node_budget=node_budget)
            res = (wit is not None, capped, wit)
        except BudgetError:
            any_budget = True
            res = (None, capped, None)
        results[i] = res
        return res

    probe(len(cands) - 1)
    # binary search: find smallest feasible index, assuming monotonicity
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        f_mid, _, _ = probe(mid)
        if f_mid is True:
            hi = mid
        elif f_mid is False:
            lo = mid + 1
        else:
            # unknown probe: abandon bisection, scan everything
            for j in range(len(cands)):
                probe(j)
            break

    feas_idx = [i for i, (f, _, _) in results.items() if f is True]
    infeas_idx = [i for i, (f, _, _) in results.items() if f is False]
    if feas_idx:
        hi_i = min(feas_idx)
        hi_val = cands[hi_i]
        _, hi_capped, hi_wit = results[hi_i]
    else:
        hi_i, hi_val, hi_capped, hi_wit = None, float("inf"), False, None
    below = [i for i in infeas_idx if hi_i is None or i < hi_i]
    lo_val = cands[max(below)] if below else 0.0
    # only trust lo as the adjacent candidate if every candidate between lo
    # and hi was verified infeasible
    if hi_i is not None:
        start = max(below) + 1 if below else 0
        for j in range(start, hi_i):
            fj, _, _ = results.get(j, (None, False, None))
            if fj is not False:
                # unverified gap below hi: widen lo down to the largest
                # contiguous verified-infeasible prefix boundary
                verified_prefix = 0.0
                for jj in range(hi_i):
                    fj2, _, _ = results.get(jj, (None, False, None))
                    if fj2 is False:
                        verified_prefix = cands[jj]
                    else:
                        break
                lo_val = verified_prefix
                break

    if hi_val == float("inf"):
        raise BudgetError(
            "could not verify feasibility at any candidate eps within budget"
        )
    exact = (hi_val - lo_val) <= EXACT_TOL and not hi_capped and not any_budget
    return DistBracket(
        lo=lo_val,
        hi=hi_val,
        witness=hi_wit,
        exact=exact,
        weight_capped=hi_capped,
        budget_exceeded=any_budget,
    )


def d_metric(
    f1: DenseFn,
    f2: DenseFn,
    weight_cap: int = DEFAULT_WEIGHT_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DistBracket:
    """Distance between functions on (possibly different) finite abelian
    groups: dhat of their Fourier transforms."""
    return dhat(dft(f1), dft(f2), weight_cap=weight_cap, node_budget=node_budget)


def dprime(
    f1: DenseFn,
    f2: DenseFn,
    weight_cap: int = DEFAULT_WEIGHT_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DistBracket:
    """Tight-convergence metric: d plus the exact L2 norm gap."""
    return dprime_from_spectra(dft(f1), dft(f2), f1.l2_norm(), f2.l2_norm(),
                               weight_cap=weight_cap, node_budget=node_budget)


def dprime_from_spectra(
    s1: SparseFn,
    s2: SparseFn,
    norm1: float,
    norm2: float,
    weight_cap: int = DEFAULT_WEIGHT_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DistBracket:
    """dprime of two functions given their spectra and L2 norms, for callers
    that reuse one spectrum across many pairs."""
    gap = abs(norm1 - norm2)
    return dhat(s1, s2, weight_cap=weight_cap, node_budget=node_budget).shift(gap)
