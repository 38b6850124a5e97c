"""Smoke test of the benchmark harness at toy sizes.

    python3 bench/smoke.py

Runs every workload twice with ``--size tiny --trace 1`` and one round, then
checks that:

* the last stdout line has the format run.py describes (keys, counts, and every
  per-layer metric BENCHMARK.json names, with its unit);
* the full report carries every end-to-end metric that applies to the
  workload and every per-layer metric, each with its unit and sample count;
* the deterministic metrics (outcome fractions, bracket widths, objectives,
  index-table bytes, dual points, probe counts) repeat exactly;
* a wrapped name that no longer exists is reported as absent, not as an
  error;
* in a directory holding only BENCHMARK.json and the benchmark, the harness
  exits non-zero without printing a result.

Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEED = 5

ALWAYS = ["setup_s", "wall_s", "wall_kernels", "cpu_s", "task_p50_s", "task_tail_s", "peak_rss_mb",
          "failed_fraction", "budget_fraction"]
DISTANCE = ["exact_fraction", "capped_fraction", "bracket_width_mean"]
E2E = {"cauchy": ALWAYS + DISTANCE,
       "extremal": ALWAYS + ["objective_mean"],
       "cli": ALWAYS + DISTANCE + ["objective_mean"]}
DETERMINISTIC_E2E = ["failed_fraction", "budget_fraction", "exact_fraction", "capped_fraction",
                     "bracket_width_mean", "objective_mean"]
DETERMINISTIC_LAYER = ["linconfig.index_table_bytes", "linconfig.dual_points",
                       "metric.probe_calls", "metric.probe_feasible",
                       "metric.probe_infeasible", "metric.probe_budget"]


def run(workload: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", "1", "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_line(line: dict, spec: dict) -> list[str]:
    probs = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        probs.append(f"result keys {sorted(line)}")
    if not (isinstance(line.get("attempted"), int) and line["attempted"] >= 1):
        probs.append(f"attempted = {line.get('attempted')}")
    if not isinstance(line.get("failed"), int):
        probs.append(f"failed = {line.get('failed')}")
    if line.get("correct") is not True:
        probs.append("correct is not true: a task failed in an undocumented way")
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = line.get("metrics", {})
    if set(got) != set(want):
        probs.append(f"last-line metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
    probs += [f"{n}: unit {got[n].get('unit')} != {u}" for n, u in want.items()
              if n in got and got[n].get("unit") != u]
    return probs


def check_report(workload: str, res: dict, spec: dict) -> list[str]:
    probs = []
    for name in E2E[workload]:
        entry = res["e2e"].get(name)
        if entry is None:
            probs.append(f"{workload}: end-to-end metric {name} missing")
        elif "omitted" not in entry and not {"value", "unit", "n"} <= set(entry):
            probs.append(f"{workload}: {name} lacks value, unit or n: {entry}")
    for m in spec["per_layer"]:
        entry = res["layers"].get(m["name"])
        if entry is None or not {"value", "unit", "n"} <= set(entry):
            probs.append(f"{workload}: per-layer metric {m['name']} missing or incomplete")
    return probs


def check_absent() -> list[str]:
    """Point the evaluator targets at a class that does not exist and check
    that the tracer marks them absent while the rest still records."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import grouplim as gl
    import layers
    import tracer

    saved = list(tracer.TARGETS)
    tracer.TARGETS[:] = [(n, m, a.replace("DensityEvaluator.", "RemovedEvaluator."), d)
                         for n, m, a, d in saved]
    try:
        t = tracer.Tracer()
        t.install()
    finally:
        tracer.TARGETS[:] = saved
    gl.minimize_density(gl.builtin_config("ap3"), 7, 0.5, restarts=1)
    m = layers.per_layer(t.spans)
    probs = [f"{n} not reported absent" for n in ("linconfig.value_calls",
                                                   "linconfig.index_table_bytes")
             if not m[n].get("absent")]
    if m["extremal.project_calls"]["value"] == 0:
        probs.append("projection calls not recorded next to an absent target")
    return probs


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in ("cauchy", "extremal", "cli"):
        reports = []
        for _ in range(2):
            proc = run(workload)
            if proc.returncode != 0:
                problems.append(f"{workload}: exit {proc.returncode}: {proc.stderr[-1000:]}")
                break
            problems += check_line(json.loads(proc.stdout.strip().splitlines()[-1]), spec)
            path = os.path.join(ROOT, ".bench_build", "grouplim",
                                f"result-{workload}-seed{SEED}-trace1-tiny.json")
            with open(path) as fh:
                reports.append(json.load(fh))
            problems += check_report(workload, reports[-1], spec)
        if len(reports) == 2:
            a, b = reports
            for name in DETERMINISTIC_E2E:
                if a["e2e"].get(name, {}).get("value") != b["e2e"].get(name, {}).get("value"):
                    problems.append(f"{workload}: {name} differs between runs")
            for name in DETERMINISTIC_LAYER:
                if a["layers"][name]["value"] != b["layers"][name]["value"]:
                    problems.append(f"{workload}: {name} differs between runs")
        print(f"{workload}: checked", flush=True)

    problems += check_absent()

    # without the program's sources the harness must refuse to produce a result
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("cauchy", cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
