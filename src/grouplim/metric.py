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
import operator
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

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
    # a float product saturates at inf where ** would raise OverflowError
    ratio = f.l2_norm() / eps
    bound = ratio * ratio
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


class _Ball:
    """The elements of G1 x G2 reached by words of length <= weight in the
    generators +-(g_i, h_i) of a map's pairs g_i -> h_i, each with the
    length of its shortest word.  A relation c with sum|c| <= weight holds
    on one side only iff such a word lands on an axis, G1 x 0 or 0 x G2,
    away from 0; so the map keeps every such relation iff no element of
    the ball but 0 lies on an axis.

    push adds a pair.  The group is abelian, so a word in the new
    generators is one in the old generators plus a multiple of (g, h): the
    ball grows by sweeping along +-(g, h).  Every element steps by +-(g, h),
    nearest first, and an element reached for the first time, or by a
    shorter word, steps on; stepping it by the older generators too would
    reach nothing new.
    Only new elements are tested against the axes.  pop restores the ball
    from an undo log.  One budget node is charged per step tried.

    A step is one map over all coordinates, each taken mod its factor's
    modulus.  A free factor Z gets the modulus 2 * weight * c + 1, c the
    largest |coordinate| in that factor of the elements the pairs are drawn
    from (elems1, elems2): coordinates in the ball lie in
    [-weight * c, weight * c], where that reduction is injective and keeps
    0 the only zero."""

    def __init__(self, g1: GroupSpec, g2: GroupSpec, weight: int, budget: _Budget,
                 elems1: Iterable[Elem], elems2: Iterable[Elem]):
        self.mods = tuple(
            m or 2 * weight * max((abs(x[j]) for x in elems), default=0) + 1
            for group, elems in ((g1, list(elems1)), (g2, list(elems2)))
            for j, m in enumerate(group.moduli))
        self.rank1, self.weight, self.budget = len(g1.moduli), weight, budget
        self.dist = {(0,) * len(self.mods): 0}
        # per pushed pair: (g, h, length of the log before its push); the
        # log holds (element, its distance before, or None if it was new)
        self.stack: list[tuple[Elem, Elem, int]] = []
        self.log: list[tuple[Elem, Optional[int]]] = []

    def push(self, g: Elem, h: Elem) -> bool:
        """Add the pair g -> h; False as soon as a new element lies on an
        axis, the ball then left part-grown until the next pop."""
        mods, dist, log, weight, rank1 = self.mods, self.dist, self.log, self.weight, self.rank1
        t = tuple(g) + tuple(h)
        steps = (tuple(map(operator.mod, t, mods)),
                 tuple(map(operator.mod, map(operator.neg, t), mods)))
        self.stack.append((g, h, len(log)))
        # levels[d]: the elements to sweep from at distance d, in order
        levels: list[list[Elem]] = [[] for _ in range(weight + 1)]
        for x, d in dist.items():
            levels[d].append(x)
        for d in range(weight):
            for x in levels[d]:
                if dist[x] < d:  # reached by a shorter word since
                    continue
                for s in steps:
                    self.budget.spend()
                    y = tuple(map(operator.mod, map(operator.add, x, s), mods))
                    old = dist.get(y)
                    if old is None:
                        if any(y[:rank1]) != any(y[rank1:]):
                            return False
                    elif old <= d + 1:
                        continue
                    log.append((y, old))
                    dist[y] = d + 1
                    levels[d + 1].append(y)
        return True

    def pop(self) -> None:
        mark, dist = self.stack.pop()[2], self.dist
        for y, old in reversed(self.log[mark:]):
            if old is None:
                del dist[y]
            else:
                dist[y] = old
        del self.log[mark:]

    def extend(self, gs: list[Elem], hs: list[Elem]) -> bool:
        """Whether the map gs -> hs keeps every relation of weight <=
        weight, given that the map without its last pair does.  The ball
        pops its pairs from the first that differs from the map's, and
        pushes those of the map's that it lacks."""
        k, n = len(gs) - 1, 0
        while n < min(k, len(self.stack)) and self.stack[n][:2] == (gs[n], hs[n]):
            n += 1
        while len(self.stack) > n:
            self.pop()
        for g, h in zip(gs[n:k], hs[n:k]):
            self.push(g, h)
        return self.push(gs[k], hs[k])


class _Verdicts:
    """The relation verdicts of one bracket, shared by its probes.  A
    prefix of a search map is keyed by its parent prefix's id and its last
    pair, and holds the highest weight at which it is known consistent and
    the lowest at which it is known inconsistent.  A map consistent at a
    weight is consistent at every lower one, so a verdict is reused only in
    that direction.  At most limit prefixes are kept; the others are
    checked each time they come up."""

    def __init__(self, limit: int):
        self.limit = limit
        self.ids: dict[tuple[int, Elem, Elem], int] = {}
        # per prefix id, 0 being the empty map
        self.ok, self.bad = [0], [math.inf]

    def checker(self, ball: _Ball) -> Callable[[list[Elem], list[Elem]], bool]:
        """The consistent(gs, hs) of _search at ball's weight: a known
        verdict costs nothing, another is computed by ball.extend."""
        ids, ok, bad, weight = self.ids, self.ok, self.bad, ball.weight
        # ids of the prefixes of the search's current map, -1 for one not kept
        path = [0]

        def consistent(gs: list[Elem], hs: list[Elem]) -> bool:
            del path[len(gs):]
            key = (path[-1], gs[-1], hs[-1])
            i = ids.get(key) if path[-1] >= 0 else None
            if i is not None and weight <= ok[i]:
                path.append(i)
                return True
            if i is not None and weight >= bad[i]:
                return False
            res = ball.extend(gs, hs)
            if i is None and path[-1] >= 0 and len(ids) < self.limit:
                i = ids[key] = len(ok)
                ok.append(0)
                bad.append(math.inf)
            if i is not None:
                (ok if res else bad)[i] = weight
            if res:
                path.append(-1 if i is None else i)
            return res

        return consistent


def check_partial_iso(phi: PartialIso, g1: GroupSpec, g2: GroupSpec) -> bool:
    """Full weight-n relation check for an explicit map."""
    gs = [g1.reduce(g) for g in phi.domain()]
    hs = [g2.reduce(h) for h in phi.image()]
    ball = _Ball(g1, g2, phi.weight, _Budget(DEFAULT_NODE_BUDGET), gs, hs)
    return all(ball.push(g, h) for g, h in zip(gs, hs))


def _search(
    f1: SparseFn,
    f2: SparseFn,
    sources: Sequence[Elem],
    targets: Optional[set[Elem]],
    tol: float,
    budget: _Budget,
    consistent: Callable[[list[Elem], list[Elem]], bool],
) -> Optional[list[tuple[Elem, Elem]]]:
    """Backtracking search for an injective map from stored entries of f1
    to stored entries of f2 that pairs values within tol and keeps
    consistent(gs, hs) true on every prefix, gs its domain and hs its image.

    Each of the sources is mapped in order; then, unless targets is None,
    the least target not yet in the image is covered from f1's entries,
    until none is left.  The partners of an element are the other
    function's entries within tol of its value, tried in the order
    (|f1(g) - f2(h)|, element).  Returns the pairs of the first complete
    map, or None when no map exists.

    Node charges: one per call of the recursion and one more on entering
    the cover phase, plus whatever consistent charges.  BudgetError is
    raised when they exceed the budget."""
    gs: list[Elem] = []
    hs: list[Elem] = []

    def partners(v: complex, entries: dict[Elem, complex]) -> list[Elem]:
        return [x for _, x in sorted((abs(v - w), x) for x, w in entries.items()
                                     if abs(v - w) <= tol)]

    def rec() -> Optional[list[tuple[Elem, Elem]]]:
        budget.spend()
        i = len(gs)
        if i < len(sources):
            g, used = sources[i], set(hs)
            pairs = [(g, h) for h in partners(f1.entries[g], f2.entries) if h not in used]
        else:
            if i == len(sources) and targets is not None:
                budget.spend()
            missing = targets - set(hs) if targets else ()
            if not missing:
                return list(zip(gs, hs))
            h, used = min(missing), set(gs)
            pairs = [(g, h) for g in partners(f2.entries[h], f1.entries) if g not in used]
        for g, h in pairs:
            gs.append(g)
            hs.append(h)
            if consistent(gs, hs):
                res = rec()
                if res is not None:
                    return res
            gs.pop()
            hs.pop()
        return None

    return rec()


def exists_eps_iso(
    f1: SparseFn,
    f2: SparseFn,
    eps: float,
    weight: Optional[int] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[PartialIso]:
    """Search for an eps-isomorphism between f1 and f2: a map of
    supp_eps(f1), padded with further stored entries of f1 so that its image
    covers supp_eps(f2), pairing values within eps and keeping every
    relation of weight ceil(1/eps) (or the given weight).

    Returns a witnessing PartialIso or None when the (exhaustive,
    budget-bounded) backtracking proves none exists.  Raises BudgetError if
    the node cap was hit, which is distinguishable from a definite None."""
    return _eps_iso(f1, f2, eps, weight, node_budget, _Verdicts(node_budget))


def _eps_iso(
    f1: SparseFn,
    f2: SparseFn,
    eps: float,
    weight: Optional[int],
    node_budget: int,
    verdicts: _Verdicts,
) -> Optional[PartialIso]:
    """exists_eps_iso, reusing and adding to the relation verdicts of a
    bracket."""
    sources, targets = sorted(supp_eps(f1, eps)), supp_eps(f2, eps)
    if weight is None:
        weight = max(1, math.ceil(1.0 / eps - 1e-12))
    elif weight < 1:
        raise ValidationError("weight must be a positive integer")
    budget = _Budget(node_budget)
    ball = _Ball(f1.group, f2.group, weight, budget, f1.entries, f2.entries)
    pairs = _search(f1, f2, sources, targets, eps + 1e-15, budget, verdicts.checker(ball))
    return None if pairs is None else PartialIso(pairs, weight)


def _exact_iso(f1: SparseFn, f2: SparseFn, node_budget: int) -> Optional[PartialIso]:
    """A value-preserving bijection between the stored supports whose
    relation lattices coincide exactly, or None (also when the budget runs
    out).  Such a certificate collapses the bracket to [0, 0].  The value
    multisets agree, so a map of every stored entry of f1 into those of f2
    covers them all and needs no cover phase.  A relation among a prefix is
    one of the whole map, so every prefix must match too."""
    v1, v2 = (sorted((v.real, v.imag) for v in f.entries.values()) for f in (f1, f2))
    if len(v1) != len(v2) or any(abs(a - c) > EXACT_TOL or abs(b - d) > EXACT_TOL
                                 for (a, b), (c, d) in zip(v1, v2)):
        return None
    try:
        pairs = _search(f1, f2, sorted(f1.entries), None, EXACT_TOL, _Budget(node_budget),
                        lambda gs, hs: relations_match(gs, f1.group, hs, f2.group))
    except BudgetError:
        return None
    return None if pairs is None else PartialIso(pairs, DEFAULT_WEIGHT_CAP)


def _critical_candidates(f1: SparseFn, f2: SparseFn, weight_cap: int) -> list[float]:
    """Sorted eps values at which feasibility can flip.  Values at or below
    either truncation threshold (float noise between matching spectra) are
    left out: supp_eps cannot decide membership there.  Magnitudes come
    from np.hypot, which rounds as Python's abs of a complex does."""
    v1, v2 = (np.fromiter(f.entries.values(), complex, len(f.entries)) for f in (f1, f2))
    v, diffs = np.concatenate([v1, v2]), (v1[:, None] - v2[None, :]).ravel()
    vals = np.hypot(v.real, v.imag)
    eps_max = float(vals.max(initial=0.0))
    cands = np.unique(np.concatenate([1.0 / np.arange(1, weight_cap + 1), vals,
                                      np.hypot(diffs.real, diffs.imag)]))
    floor = max(f1.truncation, f2.truncation)
    merged: list[float] = []
    for c in cands[(cands > floor) & (cands <= eps_max + 1e-15)].tolist():
        if not merged or c - merged[-1] > EXACT_TOL:
            merged.append(c)
    if not merged or abs(merged[-1] - eps_max) > EXACT_TOL:
        merged = [c for c in merged if c < eps_max] + [eps_max]
    return merged


def check_search_limits(weight_cap: int, node_budget: int) -> None:
    """Reject a relation weight cap or a node budget below 1."""
    if weight_cap < 1:
        raise ValidationError("weight_cap must be a positive integer")
    if node_budget < 1:
        raise ValidationError("node_budget must be a positive integer")


def dhat(
    f1: SparseFn,
    f2: SparseFn,
    weight_cap: int = DEFAULT_WEIGHT_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DistBracket:
    """Bracket the dhat distance between two finitely supported functions.

    Feasibility at a critical candidate eps is probed at weight
    min(ceil(1/eps), weight_cap), each probe with its own node_budget.  A
    bisection over the n sorted candidates tracks the largest index shown
    infeasible (lo) and the least shown feasible (hi).  A probe that runs
    out of budget decides nothing: the search goes on above it, and then
    bisects once below the lowest such probe, moving down past further
    ones, so a bracket takes at most 2 * ceil(log2 n) + 1 probes, and
    without such a probe exactly those of the plain bisection.  A binding
    cap sets weight_capped, an exhausted probe budget_exceeded, and either
    keeps the bracket from being reported exact."""
    check_search_limits(weight_cap, node_budget)
    if not f1.entries and not f2.entries:
        return DistBracket(0.0, 0.0, witness=PartialIso((), 1), exact=True)

    exact_iso = _exact_iso(f1, f2, node_budget)
    if exact_iso is not None:
        return DistBracket(0.0, 0.0, witness=exact_iso, exact=True)

    cands = _critical_candidates(f1, f2, weight_cap)
    verdicts = _Verdicts(node_budget)
    # bad: largest index verified infeasible; good: least verified feasible
    bad, good, witness, capped, unknown = -1, None, None, False, []

    def probe(i: int) -> Optional[bool]:
        nonlocal bad, good, witness, capped
        eps = cands[i]
        req_weight = max(1, math.ceil(1.0 / eps - 1e-12))
        try:
            wit = _eps_iso(f1, f2, eps, min(req_weight, weight_cap), node_budget, verdicts)
        except BudgetError:
            unknown.append(i)
            return None
        if wit is None:
            bad = i
        else:
            good, witness, capped = i, wit, req_weight > weight_cap
        return wit is not None

    probe(len(cands) - 1)
    # bisect for the least feasible index; an unknown probe sends the
    # search above it, where supports are smaller and probes cheaper
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if probe(mid):
            hi = mid
        else:
            lo = mid + 1
    # then bisect once below the lowest unknown probe left above bad for
    # the largest infeasible index, moving down past unknown probes
    top = len(cands) if good is None else good
    lo, hi = bad + 1, min((u for u in unknown if bad < u < top), default=bad + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if probe(mid) is False:
            lo = mid + 1
        else:
            hi = mid

    if good is None:
        raise BudgetError("could not verify feasibility at any candidate eps within budget")
    # feasibility is monotone in eps, so every candidate up to bad is infeasible
    lo_val = cands[bad] if bad >= 0 else 0.0
    hi_val = cands[good]
    exact = (hi_val - lo_val) <= EXACT_TOL and not capped and not unknown
    return DistBracket(lo=lo_val, hi=hi_val, witness=witness, exact=exact,
                       weight_capped=capped, budget_exceeded=bool(unknown))


def d_metric(
    f1: DenseFn,
    f2: DenseFn,
    weight_cap: int = DEFAULT_WEIGHT_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DistBracket:
    """Distance between functions on (possibly different) finite abelian
    groups: dhat of their Fourier transforms, each function transformed
    once."""
    return dhat(*_spectra(f1, f2), weight_cap=weight_cap, node_budget=node_budget)


def dprime(
    f1: DenseFn,
    f2: DenseFn,
    weight_cap: int = DEFAULT_WEIGHT_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DistBracket:
    """Tight-convergence metric: d plus the exact L2 norm gap, the norms
    read from the spectra (dft declares each as the function's l2_norm)."""
    s1, s2 = _spectra(f1, f2)
    return dprime_from_spectra(s1, s2, s1.declared_l2, s2.declared_l2,
                               weight_cap=weight_cap, node_budget=node_budget)


def _spectra(f1: DenseFn, f2: DenseFn) -> tuple[SparseFn, SparseFn]:
    """The transforms of f1 and f2, one dft when they are the same object."""
    s1 = dft(f1)
    return s1, s1 if f2 is f1 else dft(f2)


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
