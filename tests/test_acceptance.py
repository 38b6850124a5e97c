"""Acceptance gate: nine end-to-end criteria, each with a pinned tolerance
and runtime budget, reported as one pass/fail line apiece.

Run with -s to see the report lines; each criterion is its own test so the
verbose pytest output doubles as the scoreboard.
"""
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grouplim import DenseFn, SparseFn, constant_fn, make_group, metric
from grouplim.errors import BudgetError
from grouplim.extremal import minimize_density, rho_curve
from grouplim.graphon import Graph, verify_bridge
from grouplim.linconfig import (
    builtin_config,
    density_brute,
    density_fourier,
    graph_config,
)
from grouplim.metric import dhat, dprime_from_spectra
from grouplim.rounding import randomized_round
from grouplim.sequences import pairwise_table
from grouplim.spectral import dft, idft, spectrum_array, u2_direct, u2_fourier


def _report(num, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    line = (f"[acceptance] criterion {num} ({name}): {status} "
            f"[{elapsed:.1f}s / budget {budget:.0f}s] {detail}")
    print(line)
    assert ok, line
    assert elapsed <= budget, line


def _random_complex(group, rng):
    n = group.order
    return DenseFn(group, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _random_box(group, rng):
    return DenseFn(group, rng.random(group.order).astype(np.complex128))


def test_criterion_1_parseval_and_u2_identity():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst_parseval = 0.0
    worst_u2 = 0.0
    for moduli in ([16], [24], [5, 8]):
        G = make_group(moduli)
        for _ in range(100):
            f = _random_complex(G, rng)
            spec = spectrum_array(f)
            mass = float(np.mean(np.abs(f.values) ** 2))
            freq = float(np.sum(np.abs(spec) ** 2))
            worst_parseval = max(worst_parseval, abs(mass - freq) / max(1.0, mass))
            worst_u2 = max(worst_u2, abs(u2_direct(f) - u2_fourier(f)))
    elapsed = time.monotonic() - start
    ok = worst_parseval <= 1e-12 and worst_u2 <= 1e-10
    _report(1, "parseval + u2 identity", ok, elapsed, 10,
            f"max parseval gap {worst_parseval:.2e}, max u2 gap {worst_u2:.2e}")


def test_criterion_2_density_oracle_equivalence():
    start = time.monotonic()
    cases = [
        (builtin_config("ap3"), [[9], [2, 8], [64]]),
        (builtin_config("parallelogram"), [[8], [3, 3], [27]]),
        (graph_config([(0, 1), (1, 2), (2, 3), (0, 3)]), [[7], [12], [17]]),
    ]
    rng = np.random.default_rng(202)
    worst = 0.0
    for cfg, moduli_list in cases:
        groups = [make_group(m) for m in moduli_list]
        for i in range(50):
            G = groups[i % len(groups)]
            f = _random_box(G, rng)
            gap = abs(density_brute(cfg, f) - density_fourier(cfg, f))
            worst = max(worst, gap)
    elapsed = time.monotonic() - start
    _report(2, "density oracle equivalence", worst <= 1e-9, elapsed, 120,
            f"max |brute - fourier| = {worst:.2e}")


def test_criterion_3_parallelogram_extremal_value():
    start = time.monotonic()
    res = minimize_density(builtin_config("parallelogram"), 17, 0.5,
                           restarts=16, seed=11)
    spec = spectrum_array(res.f_star)
    certificate = float(np.sum(np.abs(spec) ** 4))
    elapsed = time.monotonic() - start
    ok = (abs(res.value - 1 / 16) <= 1e-3
          and abs(certificate - res.value) <= 1e-9
          and certificate >= 0.5**4 - 1e-12)
    _report(3, "parallelogram extremal value", ok, elapsed, 60,
            f"value {res.value:.6f} vs 1/16, certificate {certificate:.6f}")


def test_criterion_4_ap3_curve_sanity():
    start = time.monotonic()
    deltas = [0.0] + [round(0.1 * k, 1) for k in range(1, 10)] + [1.0]
    rows = rho_curve(builtin_config("ap3"), 31, deltas, restarts=16, seed=7)
    ok = rows[0]["value"] == 0.0 and rows[-1]["value"] == 1.0
    worst_excess = -math.inf
    worst_kkt = 0.0
    for row in rows[1:-1]:
        worst_excess = max(worst_excess, row["value"] - row["delta"] ** 3)
        worst_kkt = max(worst_kkt, row["grad_norm"])
    ok = ok and worst_excess <= 1e-6 and worst_kkt <= 1e-6
    elapsed = time.monotonic() - start
    _report(4, "3-AP curve sanity", ok, elapsed, 300,
            f"max value - delta^3 = {worst_excess:.2e}, max KKT {worst_kkt:.2e}")


# -- criterion 5: independent exhaustive oracle ------------------------------

_BALLS: dict = {}


def _l1_ball(d, w):
    """All integer vectors of dimension d with coordinate L1 norm <= w."""
    key = (d, w)
    if key not in _BALLS:
        vecs = []

        def rec(i, left, cur):
            if i == d:
                vecs.append(tuple(cur))
                return
            for c in range(-left, left + 1):
                cur.append(c)
                rec(i + 1, left - abs(c), cur)
                cur.pop()

        rec(0, w, [])
        _BALLS[key] = np.array(vecs, dtype=np.int64)
    return _BALLS[key]


_EXTENSIONS: dict = {}


def _ball_extension(d, w):
    """For each vector of _l1_ball(d + 1, w): the row of its first d
    coordinates in _l1_ball(d, w), and its last coordinate."""
    key = (d, w)
    if key not in _EXTENSIONS:
        rows = {v: i for i, v in enumerate(map(tuple, _l1_ball(d, w).tolist()))}
        ball = _l1_ball(d + 1, w)
        _EXTENSIONS[key] = (np.array([rows[tuple(v[:-1])] for v in ball.tolist()]), ball[:, -1])
    return _EXTENSIONS[key]


def _grow_sums(sums, d, elem, group, w):
    """The signed combinations of weight <= w of a d-tuple grown by elem,
    from those of the d-tuple (one row per ball vector), each coordinate
    reduced mod its modulus, so a combination vanishes iff its row is 0."""
    parent, last = _ball_extension(d, w)
    out = sums[parent] + last[:, None] * np.array(elem, dtype=np.int64)
    for j, m in enumerate(group.moduli):
        if m > 0:
            out[:, j] %= m
    return out


def _oracle_feasible(f1, f2, eps, weight_cap):
    """Plain enumeration: every injective, value-compatible map whose
    image covers the eps-support of f2, checked against the full ball of
    signed relations at the capped weight.  The relations are checked as
    the map grows: a relation among the first pairs is a relation of the
    whole tuple (zero coefficients on the rest), so a branch whose domain
    and image already differ in which combinations vanish is cut."""
    w = min(math.ceil(1.0 / eps - 1e-12), weight_cap)
    g1, g2 = f1.group, f2.group
    stored = sorted(f1.entries)
    supp1 = [g for g in stored if abs(f1.entries[g]) > eps]
    optional = [g for g in stored if abs(f1.entries[g]) <= eps]
    supp2 = {h for h, v in f2.entries.items() if abs(v) > eps}
    targets = list(g2.elements())
    items = [(g, True) for g in supp1] + [(g, False) for g in optional]
    found = [False]

    def rec(i, img, sums1, sums2):
        if found[0]:
            return
        if i == len(items):
            found[0] = supp2 <= set(img)
            return
        g, mandatory = items[i]
        v = f1.entries[g]
        for h in targets:
            if h in img or abs(v - f2.entries.get(h, 0.0)) > eps + 1e-15:
                continue
            grown1 = _grow_sums(sums1, len(img), g, g1, w)
            grown2 = _grow_sums(sums2, len(img), h, g2, w)
            if np.array_equal(grown1.any(axis=1), grown2.any(axis=1)):
                rec(i + 1, img + [h], grown1, grown2)
                if found[0]:
                    return
        if not mandatory:
            rec(i + 1, img, sums1, sums2)

    rec(0, [], np.zeros((1, g1.rank), dtype=np.int64), np.zeros((1, g2.rank), dtype=np.int64))
    return found[0]


def _oracle_infimum(f1, f2, weight_cap=12):
    vals = ([abs(v) for v in f1.entries.values()]
            + [abs(v) for v in f2.entries.values()])
    diffs = [abs(a - b) for a in f1.entries.values() for b in f2.entries.values()]
    cands = sorted({c for c in
                    [1.0 / m for m in range(1, weight_cap + 1)] + vals + diffs
                    if c > 0})
    for eps in cands:
        if _oracle_feasible(f1, f2, eps, weight_cap):
            return eps
    raise AssertionError("the top candidate empties both supports")


def _random_sparse(group, rng, size):
    elems = list(group.elements())
    idx = rng.choice(len(elems), size=min(size, len(elems)), replace=False)
    return SparseFn(group, {elems[i]: complex(rng.uniform(0.05, 1.0)) for i in idx})


def test_criterion_5_metric_vs_exhaustive_oracle():
    start = time.monotonic()
    groups = [make_group(m)
              for m in ([6], [8], [12], [2, 4], [10], [9], [7], [2, 6])]
    rng = np.random.default_rng(505)
    mismatches = 0
    for _ in range(200):
        f1 = _random_sparse(groups[rng.integers(len(groups))], rng,
                            int(rng.integers(1, 7)))
        f2 = _random_sparse(groups[rng.integers(len(groups))], rng,
                            int(rng.integers(1, 7)))
        inf = _oracle_infimum(f1, f2)
        b = dhat(f1, f2)
        if not (b.lo - 1e-12 <= inf <= b.hi + 1e-12):
            mismatches += 1
    triangle_bad = 0
    for trial in range(200):
        fs = [_random_sparse(groups[rng.integers(len(groups))], rng,
                             int(rng.integers(1, 7))) for _ in range(3)]
        b01 = dhat(fs[0], fs[1])
        b12 = dhat(fs[1], fs[2])
        b02 = dhat(fs[0], fs[2])
        if b02.lo > b01.hi + b12.hi + 1e-12:
            triangle_bad += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and triangle_bad == 0
    _report(5, "metric vs exhaustive oracle", ok, elapsed, 120,
            f"{mismatches} bracket mismatches, {triangle_bad} triangle violations")


@pytest.mark.parametrize("node_budget", [20, 200])
def test_starved_brackets_contain_the_oracle_infimum(node_budget):
    # budgets this small leave some probes undecided, so lo is the largest
    # candidate verified infeasible, which need not sit just below hi
    groups = [make_group(m)
              for m in ([6], [8], [12], [2, 4], [10], [9], [7], [2, 6])]
    rng = np.random.default_rng(606)
    starved = 0
    for _ in range(40):
        f1 = _random_sparse(groups[rng.integers(len(groups))], rng,
                            int(rng.integers(1, 6)))
        f2 = _random_sparse(groups[rng.integers(len(groups))], rng,
                            int(rng.integers(1, 6)))
        b = dhat(f1, f2, node_budget=node_budget)
        inf = _oracle_infimum(f1, f2)
        assert b.lo - 1e-12 <= inf <= b.hi + 1e-12, (f1, f2, b)
        starved += b.budget_exceeded
    assert starved > 0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dist=st.sampled_from(["d", "dprime"]))
def test_a_shared_probe_engine_changes_no_decided_bracket(seed, dist):
    # three functions on Z_6 and three on Z_2 x Z_4, each with a sparse
    # spectrum, so that the nine cells between the groups share one probe
    # engine.  A cell decided in the table and alone is the same bracket,
    # witness included; every cell holds the oracle's infimum (plus the
    # norm gap for d'); no engine keeps more than node_budget prefixes
    rng = np.random.default_rng(seed)
    fs = [idft(_random_sparse(G, rng, int(rng.integers(1, 6))))
          for G in [make_group([6])] * 3 + [make_group([2, 4])] * 3]
    specs = [dft(f) for f in fs]
    alone = dhat if dist == "d" else dprime_from_spectra
    init = metric._Probes.__init__
    for node_budget in (20, 200, 10**5):
        engines = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric._Probes, "__init__",
                       lambda probes, *a: init(probes, *a) or engines.append(probes))
            table = pairwise_table(fs, dist, node_budget=node_budget)
        assert len(engines) == 3 and all(len(e.memo) <= node_budget for e in engines)
        for i, j in itertools.combinations(range(len(fs)), 2):
            cell = table[i][j]
            try:
                fresh = alone(specs[i], specs[j], node_budget=node_budget)
            except BudgetError:
                fresh = None
            assert node_budget < 10**5 or not (cell is None or cell.budget_exceeded)
            if cell is None:
                continue
            if fresh is not None and not (cell.budget_exceeded or fresh.budget_exceeded):
                assert cell == fresh
            gap = 0.0 if dist == "d" or cell.exact and cell.hi == 0 else abs(
                specs[i].l2_norm() - specs[j].l2_norm())
            inf = _oracle_infimum(specs[i], specs[j]) + gap
            assert cell.lo - 1e-12 <= inf <= cell.hi + 1e-12, (i, j, cell)


@pytest.mark.parametrize("dist", ["d", "dprime"])
def test_a_full_shared_memo_starves_no_cell_that_a_fresh_engine_decides(dist):
    # 40 tables of three sparse spectra on Z_6 and three on Z_2 x Z_4 at
    # node budget 20, where the memo fills: a cell's bracket evicts the
    # prefixes earlier cells kept, never its own, so every cell decided
    # alone is decided in the table with the same [lo, hi]
    alone = dhat if dist == "d" else dprime_from_spectra
    decided = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        fs = [idft(_random_sparse(G, rng, int(rng.integers(1, 6))))
              for G in [make_group([6])] * 3 + [make_group([2, 4])] * 3]
        specs = [dft(f) for f in fs]
        table = pairwise_table(fs, dist, node_budget=20)
        for i, j in itertools.combinations(range(len(fs)), 2):
            try:
                fresh = alone(specs[i], specs[j], node_budget=20)
            except BudgetError:
                continue
            if fresh.budget_exceeded:
                continue
            decided += 1
            cell = table[i][j]
            assert cell is not None and not cell.budget_exceeded, (seed, i, j, fresh)
            assert (cell.lo, cell.hi) == (fresh.lo, fresh.hi), (seed, i, j, cell, fresh)
    assert decided > 0


def test_criterion_6_circle_to_torus_spectra():
    start = time.monotonic()
    line = make_group([0])
    plane = make_group([0, 0])
    ok = True
    detail = []
    for n in (3, 5, 9):
        f1 = SparseFn(line, {(1,): 1.0, (n,): 1.0})
        f2 = SparseFn(plane, {(1, 0): 1.0, (0, 1): 1.0})
        b = dhat(f1, f2)
        tight = (abs(b.lo - 1 / (n + 1)) <= 1e-12
                 and abs(b.hi - 1 / n) <= 1e-12)
        exact = b.exact and abs(b.hi - 1 / n) <= 1e-12
        ok = ok and (tight or exact)
        detail.append(f"n={n}: [{b.lo:.4f}, {b.hi:.4f}]")
    elapsed = time.monotonic() - start
    _report(6, "circle-to-torus spectra", ok, elapsed, 10, "; ".join(detail))


def test_criterion_7_rounding_deviation():
    start = time.monotonic()
    G = make_group([4096])
    f = constant_fn(G, 0.5)
    devs = []
    for seed in range(40):
        h = randomized_round(f, seed)
        devs.append(u2_fourier(DenseFn(G, h.values - f.values)))
    devs = np.sort(devs)
    median = float(np.median(devs))
    p95 = float(np.quantile(devs, 0.95))
    elapsed = time.monotonic() - start
    ok = median <= 0.12 and p95 <= 0.2
    _report(7, "rounding u2 deviation", ok, elapsed, 60,
            f"median {median:.4f} (<= 0.12), p95 {p95:.4f} (<= 0.2)")


def test_criterion_8_bridge_identity():
    start = time.monotonic()
    graphs = {
        "edge": Graph(2, ((0, 1),)),
        "triangle": Graph(3, ((0, 1), (1, 2), (0, 2))),
        "c4": Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3))),
        "p4": Graph(4, ((0, 1), (1, 2), (2, 3))),
    }
    rng = np.random.default_rng(808)
    worst = 0.0
    for G in (make_group([8]), make_group([13]), make_group([2, 5])):
        for _ in range(20):
            f = _random_box(G, rng)
            for H in graphs.values():
                report = verify_bridge(H, f)
                worst = max(worst, report["abs_diff"])
                assert report["ok"]
    elapsed = time.monotonic() - start
    _report(8, "kernel bridge identity", worst <= 1e-9, elapsed, 60,
            f"max |hom - config| = {worst:.2e}")


def test_criterion_9_gradient_check():
    start = time.monotonic()
    G = make_group([11])
    rng = np.random.default_rng(909)
    worst = 0.0
    h = 1e-5
    for cfg in (builtin_config("ap3"), builtin_config("parallelogram")):
        for _ in range(20):
            f = _random_box(G, rng)
            from grouplim.extremal import density_gradient
            grad = density_gradient(cfg, f)
            for i in range(11):
                up = f.values.copy()
                dn = f.values.copy()
                up[i] += h
                dn[i] -= h
                fd = (density_brute(cfg, DenseFn(G, up)).real
                      - density_brute(cfg, DenseFn(G, dn)).real) / (2 * h)
                rel = abs(grad[i] - fd) / max(abs(fd), 1e-8)
                worst = max(worst, rel)
    elapsed = time.monotonic() - start
    _report(9, "analytic gradient check", worst <= 1e-5, elapsed, 30,
            f"max relative error {worst:.2e}")
