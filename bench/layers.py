"""Per-layer metrics computed from the spans a traced run recorded.

Every metric is returned as ``{"value", "unit", "n"}`` where ``n`` is the
number of spans it was computed from.  A metric whose source span was
marked absent (the wrapped name no longer exists) carries ``absent: true``
and value 0.  Times are summed over the outermost span of a group, so a
layer that calls itself (or a sibling in the same group) is not counted
twice.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

CLI_SUBCOMMANDS = ("dft", "u2", "dist", "density", "cs1", "round", "minimize",
                   "rho-curve", "hom", "converge")


class SpanIndex:
    def __init__(self, spans: list[tuple]):
        self.spans = spans
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.children: dict[int, list[int]] = defaultdict(list)
        self.absent: set[str] = set()
        for i, (name, _, _, parent, _, outcome, _) in enumerate(spans):
            if outcome == "absent":
                self.absent.add(name)
                continue
            self.by_name[name].append(i)
            if parent >= 0:
                self.children[parent].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def count(self, name: str, outcome=None, info=None) -> int:
        return sum(1 for i in self.by_name[name]
                   if (outcome is None or self.spans[i][5] == outcome)
                   and (info is None or self.spans[i][6] == info))

    def outer_time(self, names) -> tuple[float, int]:
        """Summed duration of spans in ``names`` not nested in another one."""
        names = set(names)
        total, n = 0.0, 0
        for name in names:
            for i in self.by_name[name]:
                p = self.spans[i][3]
                while p >= 0 and self.spans[p][0] not in names:
                    p = self.spans[p][3]
                if p < 0:
                    total += self.dur(i)
                    n += 1
        return total, n

    def child_count(self, i: int, name: str) -> int:
        return sum(1 for c in self.children[i] if self.spans[c][0] == name)

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total time, and self time (duration minus
        the part covered by direct child spans)."""
        out: dict[str, dict] = {}
        for name, idxs in sorted(self.by_name.items()):
            total = sum(self.dur(i) for i in idxs)
            covered = sum(self.dur(c) for i in idxs for c in self.children[i])
            out[name] = {"calls": len(idxs), "total_s": total, "self_s": total - covered}
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list[tuple]) -> dict[str, dict]:
    """Span-derived per-layer metrics.  The cli and trace metrics that come
    from subprocess timings are added by the worker and the runner."""
    ix = SpanIndex(spans)
    metrics: dict[str, dict] = {}

    def put(name, unit, value, n, sources, **extra):
        entry = {"value": value, "unit": unit, "n": n, **extra}
        if any(s in ix.absent for s in sources):
            entry = {"value": 0, "unit": unit, "n": 0, "absent": True}
        metrics[name] = entry

    def timed(name, sources):
        value, n = ix.outer_time(sources)
        put(name, "s", value, n, sources)

    def calls(name, source):
        n = ix.count(source)
        put(name, "count", n, n, [source])

    DFT, DHAT, PROBE = "spectral.dft", "metric.dhat", "metric.exists_eps_iso"
    calls("spectral.dft_calls", DFT)
    timed("spectral.dft_s", [DFT])
    timed("spectral.u2_s", ["spectral.u2_direct", "spectral.u2_fourier"])

    calls("metric.dhat_calls", DHAT)
    timed("metric.dhat_s", [DHAT])
    dhat_self = sum(ix.dur(i) - sum(ix.dur(c) for c in ix.children[i] if ix.spans[c][0] == PROBE)
                    for i in ix.by_name[DHAT]) + 0.0
    put("metric.dhat_self_s", "s", dhat_self, len(ix.by_name[DHAT]), [DHAT, PROBE])
    probes = ix.count(PROBE)
    calls("metric.probe_calls", PROBE)
    timed("metric.probe_s", [PROBE])
    feasible = ix.count(PROBE, "ok", True)
    infeasible = ix.count(PROBE, "ok", False)
    put("metric.probe_feasible", "count", feasible, probes, [PROBE])
    put("metric.probe_infeasible", "count", infeasible, probes, [PROBE])
    put("metric.probe_budget", "count", ix.count(PROBE, "budget"), probes, [PROBE])
    put("metric.probe_decided_ratio", "ratio", _ratio(feasible + infeasible, probes), probes,
        [PROBE])

    TABLE = "sequences.pairwise_table"
    timed("sequences.table_s", [TABLE])
    tables = [ix.spans[i][6] for i in ix.by_name[TABLE] if ix.spans[i][6] is not None]
    put("sequences.cells", "count", sum(t[0] for t in tables), len(tables), [TABLE])
    put("sequences.cells_none", "count", sum(t[1] for t in tables), len(tables), [TABLE])

    INIT = "linconfig.DensityEvaluator.__init__"
    VALUE = "linconfig.DensityEvaluator.value"
    GRAD = "linconfig.DensityEvaluator.gradient_single"
    timed("linconfig.evaluator_setup_s", [INIT])
    tables = [ix.spans[i][6] for i in ix.by_name[INIT] if ix.spans[i][6] is not None]
    put("linconfig.index_table_bytes", "B", max(tables, default=0), len(tables), [INIT],
        computed="largest evaluator's index table, from its array shape")
    calls("linconfig.value_calls", VALUE)
    timed("linconfig.value_s", [VALUE])
    calls("linconfig.grad_calls", GRAD)
    timed("linconfig.grad_s", [GRAD])
    timed("linconfig.density_s", ["linconfig.density_brute", "linconfig.density_fourier",
                                  "linconfig.density_monte_carlo"])
    DUAL = "linconfig.dual_constraint_solutions"
    points = [ix.spans[i][6] for i in ix.by_name[DUAL] if ix.spans[i][6] is not None]
    put("linconfig.dual_points", "count", sum(points), len(points), [DUAL])
    timed("linconfig.cs1_s", ["linconfig.cs_complexity_at_most_1"])

    PROJECT, PGD = "extremal.project_box_mean", "extremal._pgd"
    timed("extremal.minimize_s", ["extremal.minimize_density"])
    calls("extremal.project_calls", PROJECT)
    timed("extremal.project_s", [PROJECT])
    # each PGD run evaluates the objective and gradient once before its loop;
    # afterwards every line-search trial is one value call and every
    # accepted step one gradient call
    pgd_runs = ix.by_name[PGD]
    accepted = sum(max(ix.child_count(i, GRAD) - 1, 0) for i in pgd_runs)
    trials = sum(max(ix.child_count(i, VALUE) - 1, 0) for i in pgd_runs)
    put("extremal.iterations", "count", accepted, len(pgd_runs), [PGD, GRAD])
    put("extremal.armijo_accept_ratio", "ratio", _ratio(accepted, trials), len(pgd_runs),
        [PGD, GRAD, VALUE])

    timed("rounding.round_s", ["rounding.round_best_of", "rounding.randomized_round",
                               "rounding.adjust_density"])
    timed("graphon.kernel_s", ["graphon.cayley_kernel"])
    timed("graphon.hom_s", ["graphon.hom_density"])

    imports = [ix.dur(i) for i in ix.by_name["cli.import"]]
    put("cli.import_s", "s", statistics.median(imports) if imports else 0.0, len(imports), [])
    return metrics
