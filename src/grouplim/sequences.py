"""Empirical convergence experiments: pairwise distance tables, Cauchy
detection, value histograms, and density-continuity scatter data.

Everything here reports rather than proves: the underlying compactness and
continuity statements have no effective rates, so this module produces the
tables one actually inspects."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetError, ValidationError
from .functions import DenseFn
from .linconfig import ConfigSystem, cs_complexity_at_most_1, density_brute
from .metric import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_WEIGHT_CAP,
    DistBracket,
    check_search_limits,
    d_metric,
    dhat,
    dprime_from_spectra,
)
from .spectral import dft


def pairwise_table(
    fs: Sequence[DenseFn],
    metric: str = "d",
    weight_cap: int = DEFAULT_WEIGHT_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[list[Optional[DistBracket]]]:
    """Symmetric table of distance brackets; the diagonal is exact zero.
    Cells whose metric call exceeds its budget hold None.  Each cell is the
    d_metric (or dprime) bracket of its pair, with every function's
    spectrum computed once for the whole table."""
    if metric not in ("d", "dprime"):
        raise ValidationError("metric must be 'd' or 'dprime'")
    check_search_limits(weight_cap, node_budget)
    n = len(fs)
    specs = [dft(f) for f in fs]
    norms = [f.l2_norm() for f in fs]
    budget = dict(weight_cap=weight_cap, node_budget=node_budget)
    table: list[list[Optional[DistBracket]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = DistBracket(0.0, 0.0, exact=True)
    for i in range(n):
        for j in range(i + 1, n):
            try:
                if metric == "d":
                    b = dhat(specs[i], specs[j], **budget)
                else:
                    b = dprime_from_spectra(specs[i], specs[j], norms[i], norms[j], **budget)
            except BudgetError:
                b = None
            table[i][j] = b
            table[j][i] = b
    return table


def check_tol(tol: float) -> None:
    """Reject a Cauchy tolerance that is negative or not finite."""
    if not math.isfinite(tol) or tol < 0:
        raise ValidationError(f"tol must be a finite number >= 0, got {tol}")


def cauchy_detect(table: Sequence[Sequence[Optional[DistBracket]]], tol: float) -> tuple[bool, Optional[int]]:
    """True iff some tail of the sequence has all pairwise upper bounds at
    most tol; returns the least such tail index."""
    check_tol(tol)
    n = len(table)
    # a tail needs at least two terms; a singleton passes vacuously
    for start in range(n - 1):
        if not any(table[i][j] is None or table[i][j].hi > tol
                   for i in range(start, n) for j in range(start, n) if i != j):
            return True, start
    return False, None


@dataclass
class Histogram:
    """Empirical value distribution over a fixed bin grid.  Real data uses
    an interval grid; genuinely complex data a rectangular grid over the
    bounding box (masses stored flattened, row-major in the real part)."""

    edges_re: np.ndarray
    edges_im: Optional[np.ndarray]
    masses: np.ndarray

    def __post_init__(self):
        total = float(np.sum(self.masses))
        if np.any(self.masses < -1e-15) or abs(total - 1.0) > 1e-12:
            raise ValidationError("histogram masses must be nonnegative and sum to 1")

    def same_grid(self, other: "Histogram") -> bool:
        if (self.edges_im is None) != (other.edges_im is None):
            return False
        if not np.array_equal(self.edges_re, other.edges_re):
            return False
        if self.edges_im is not None and not np.array_equal(self.edges_im, other.edges_im):
            return False
        return True


def value_histogram(
    f: DenseFn,
    bins: int = 20,
    range_re: Optional[tuple[float, float]] = None,
    range_im: Optional[tuple[float, float]] = None,
) -> Histogram:
    """Distribution of the value table under the uniform measure."""
    if bins < 1:
        raise ValidationError("need at least one bin")

    def span(x, given):
        lo, hi = given if given else (float(x.min()), float(x.max()))
        return (lo, lo + 1.0) if hi <= lo else (lo, hi)

    re, im = f.values.real, f.values.imag
    r_re = span(re, range_re)
    if f.is_real():
        counts, edges = np.histogram(np.clip(re, *r_re), bins=bins, range=r_re)
        return Histogram(edges, None, counts / counts.sum())
    r_im = span(im, range_im)
    counts, edges_re, edges_im = np.histogram2d(
        np.clip(re, *r_re), np.clip(im, *r_im), bins=bins, range=(r_re, r_im))
    return Histogram(edges_re, edges_im, counts.reshape(-1) / counts.sum())


def histogram_distance(h1: Histogram, h2: Histogram) -> float:
    """L1 distance between masses on a shared bin grid."""
    if not h1.same_grid(h2):
        raise ValidationError("histograms must share the same bin grid")
    return float(np.sum(np.abs(h1.masses - h2.masses)))


def norm_drift(fs: Sequence[DenseFn], tol: float = 1e-6) -> bool:
    """True when the L2 norms of the tail keep moving: a d-convergent
    sequence with drifting norms is not tightly convergent and its value
    distributions need not settle."""
    norms = [f.l2_norm() for f in fs]
    if len(norms) < 2:
        return False
    tail = norms[len(norms) // 2 :]
    return max(tail) - min(tail) > tol


def continuity_probe(
    config: ConfigSystem,
    pairs: Sequence[tuple[DenseFn, DenseFn]],
    weight_cap: int = DEFAULT_WEIGHT_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[list[tuple[float, float]], bool]:
    """Scatter of (distance upper bound, |density difference|) for
    empirical modulus-of-continuity inspection.  Returns the rows and a
    flag telling whether the configuration passed the complexity-1
    sufficient check (when it did not, continuity is not promised and the
    caller should treat the scatter accordingly)."""
    cs1, _ = cs_complexity_at_most_1(config)
    rows = []
    for f1, f2 in pairs:
        bracket = d_metric(f1, f2, weight_cap=weight_cap, node_budget=node_budget)
        t1 = density_brute(config, f1)
        t2 = density_brute(config, f2)
        rows.append((bracket.hi, abs(t1 - t2)))
    return rows, cs1
