"""One benchmark worker: a fresh interpreter that imports grouplim, builds a
workload's inputs from its seed, runs the task list in whole rounds (one
task at a time) and writes a JSON result.  ``run.py`` starts it; it is not
meant to be called by hand.

The timed region covers only the calls into grouplim (or, for ``cli``, the
subprocesses).  Correctness checks run afterwards.  With ``--trace`` the
layers are wrapped before the first round and the spans are written next
to ``--out`` as ``<name>.spans.csv``; without it nothing is wrapped.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import layers
import workloads
from hostspeed import KERNELS, HostSpeed
from tracer import Tracer, dump_spans, load_spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CLI_TIMEOUT_S = 30


def _rusage(who):
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def run_inprocess_round(gl, tasks, tracer):
    cpu0, _ = _rusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    records = []
    for task in tasks:
        if tracer is not None:
            tracer.task = task.id
        start = time.perf_counter()
        try:
            out, status, detail = task.run(gl), "ok", ""
        except gl.BudgetError as e:
            out, status, detail = None, "budget", str(e)
        except Exception as e:  # every other exception is a failed task
            out, status, detail = None, "error", f"raised {type(e).__name__}: {e}"
        records.append({"task": task, "latency_s": time.perf_counter() - start,
                        "status": status, "detail": detail, "output": out})
    wall = time.perf_counter() - t0
    return wall, _rusage(resource.RUSAGE_SELF)[0] - cpu0, records


def run_cli_round(tasks, trace_dir):
    cpu0, _ = _rusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    records = []
    for i, task in enumerate(tasks):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "grouplim.cli", *task.argv]
        else:
            spans = os.path.join(trace_dir, f"call{i:02d}.csv")
            if os.path.exists(spans):
                os.remove(spans)
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_traced.py"), spans, *task.argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # subprocess.run has killed and reaped the call; count it as failed
            records.append({"task": task, "latency_s": time.perf_counter() - start,
                            "status": "error", "detail": f"timeout after {CLI_TIMEOUT_S} s",
                            "output": None, "exit": None})
            continue
        latency = time.perf_counter() - start
        out, status, detail = None, "ok", ""
        stderr = proc.stderr.strip().splitlines()[-1:]
        if proc.returncode not in task.expect_exit:
            status = "error"
            detail = f"exit {proc.returncode} (expected {'/'.join(map(str, task.expect_exit))})"
            detail += "".join(f": {line}" for line in stderr)
        elif proc.returncode == 2:
            status, detail = "budget", "".join(stderr)
        if proc.returncode == 0:
            try:
                out = _strict_json(proc.stdout)
            except ValueError as e:
                status = "error"
                detail = (detail + "; " if detail else "") + f"stdout is not strict JSON: {e}"
        records.append({"task": task, "latency_s": latency, "status": status,
                        "detail": detail, "output": out, "exit": proc.returncode})
    wall = time.perf_counter() - t0
    return wall, _rusage(resource.RUSAGE_CHILDREN)[0] - cpu0, records


def check_records(records):
    """Run each returned output's check; a check problem fails the task."""
    for rec in records:
        if rec["status"] == "ok" and rec["output"] is not None:
            try:
                problems = rec["task"].check(rec["output"])
            except Exception as e:  # a check that cannot read the output is a failure
                problems = [f"check raised {type(e).__name__}: {e}"]
            if problems:
                rec["status"] = "error"
                rec["detail"] = "check: " + "; ".join(problems)


def _known_failure(rec) -> bool:
    known = rec["task"].known
    return bool(known) and rec["status"] == "error" and rec["detail"].startswith(known)


def _is_budget(rec) -> bool:
    out = rec["output"]
    if rec["status"] == "budget":
        return True
    if rec["status"] != "ok" or out is None or rec["task"].kind not in ("distance", "cli"):
        return False
    flag = out.get("budget_exceeded") if isinstance(out, dict) else out.budget_exceeded
    return bool(flag)


def _bracket(rec):
    """(lo, hi, exact, capped) of a distance result that returned, else None."""
    out = rec["output"]
    if out is None:
        return None
    if rec["task"].kind == "distance":
        return out.lo, out.hi, out.exact, out.weight_capped
    return out["lo"], out["hi"], out["exact"], out["weight_capped"]


def _objectives(rec) -> list[float]:
    out, task = rec["output"], rec["task"]
    if out is None:
        return []
    if task.kind == "extremal":  # a rho_curve row list or one OptResult
        return [r["value"] for r in out] if isinstance(out, list) else [out.value]
    if task.kind == "cli" and task.argv[0] == "minimize":
        return [out["value"]]
    return []


def summarize(rounds, records, peak_rss_mb, workload, speed):
    """End-to-end metrics (all but setup_s) over the measured rounds."""
    walls = [w for w, _, _, _ in rounds]
    cpus = [c for _, c, _, _ in rounds]
    in_kernels = [speed.in_kernels(w, start, stop) for w, _, start, stop in rounds]
    lat = sorted(r["latency_s"] for r in records)
    n = len(records)
    m = {
        "wall_s": {"value": statistics.median(walls), "unit": "s", "n": len(walls)},
        "wall_kernels": {"value": statistics.median(in_kernels), "unit": "kernels",
                         "n": len(in_kernels)},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s", "n": len(cpus),
                  "of": "worker's children" if workload == "cli" else "worker"},
        "task_p50_s": {"value": statistics.median(lat), "unit": "s", "n": n},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "n": 1,
                        "of": "largest child" if workload == "cli" else "worker"},
    }
    # highest percentile with at least ten tasks beyond it, reported only
    # when that is at or above the median
    if n >= 20:
        m["task_tail_s"] = {"value": lat[n - 11], "unit": "s", "n": n,
                            "percentile": math.floor(100 * (n - 10) / n)}
    else:
        m["task_tail_s"] = {"omitted": f"too few tasks ({n}) for ten beyond a percentile >= 50"}
    failed = sum(r["status"] == "error" for r in records)
    m["failed_fraction"] = {"value": failed / n, "unit": "ratio", "n": n}
    m["budget_fraction"] = {"value": sum(map(_is_budget, records)) / n, "unit": "ratio", "n": n}
    dist_tasks = [r for r in records if r["task"].kind == "distance"
                  or (r["task"].kind == "cli" and r["task"].argv[0] == "dist")]
    if dist_tasks:
        brackets = [b for b in map(_bracket, dist_tasks) if b is not None]
        nd = len(dist_tasks)
        m["exact_fraction"] = {"value": sum(b[2] for b in brackets) / nd, "unit": "ratio",
                               "n": nd}
        m["capped_fraction"] = {"value": sum(b[3] for b in brackets) / nd, "unit": "ratio",
                                "n": nd}
        if brackets:
            m["bracket_width_mean"] = {"value": statistics.fmean(b[1] - b[0] for b in brackets),
                                       "unit": "1", "n": len(brackets)}
    objectives = [v for r in records for v in _objectives(r)]
    if objectives:
        m["objective_mean"] = {"value": statistics.fmean(objectives), "unit": "1",
                               "n": len(objectives)}
    return m


def cli_layers(records) -> dict:
    """Median cold latency per subcommand and the count of calls whose exit
    code was not one the task accepts."""
    out = {}
    for sub in layers.CLI_SUBCOMMANDS:
        lat = [r["latency_s"] for r in records if r["task"].argv[0] == sub]
        out[f"cli.{sub}_s"] = {"value": statistics.median(lat) if lat else 0.0, "unit": "s",
                               "n": len(lat)}
    bad = sum(r["exit"] not in r["task"].expect_exit for r in records)
    out["cli.exit_unexpected"] = {"value": bad, "unit": "count", "n": len(records)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("cauchy", "extremal", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    import grouplim as gl

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(gl.__file__), src]) != src:
        print(f"grouplim was imported from {gl.__file__}, not from {src}", file=sys.stderr)
        return 2
    tasks = workloads.build(gl, args.workload, args.seed, args.size, args.workdir)
    if args.setup_only:
        return 0

    tracer, trace_dir = None, None
    if args.trace and args.workload == "cli":
        trace_dir = os.path.join(args.workdir, f"cli-spans-{args.seed}")
        os.makedirs(trace_dir, exist_ok=True)
    elif args.trace:
        tracer = Tracer()
        tracer.install()

    rounds, records = [], []
    started = time.perf_counter()
    with HostSpeed(KERNELS[args.workload]) as speed:
        while True:
            first = len(speed.samples)
            if args.workload == "cli":
                wall, cpu, recs = run_cli_round(tasks, trace_dir)
            else:
                wall, cpu, recs = run_inprocess_round(gl, tasks, tracer)
            rounds.append((wall, cpu, first, len(speed.samples)))
            records += recs
            if time.perf_counter() - started + statistics.median(r[0] for r in rounds) \
                    > args.seconds:
                break
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = _rusage(who)[1]
    n_timed = len(tracer.spans) if tracer else 0

    check_records(records)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "metrics": summarize(rounds, records, peak_rss_mb, args.workload, speed),
        "host_speed": speed.summary(),
        "tasks": [{"id": r["task"].id, "latency_s": r["latency_s"], "status": r["status"],
                   "detail": r["detail"], "known": _known_failure(r)} for r in records],
        "numpy": np.__version__,
    }
    if args.workload == "cli":
        result["cli_layers"] = cli_layers(records)
    if args.trace:
        if tracer is not None:
            spans = tracer.spans[:n_timed]
        else:
            spans = []
            for i, task in enumerate(tasks):
                path = os.path.join(trace_dir, f"call{i:02d}.csv")
                if not os.path.exists(path):  # the call timed out before writing spans
                    continue
                part = load_spans(path)
                off = len(spans)
                spans += [(s[0], s[1], s[2], s[3] + off if s[3] >= 0 else -1, task.id,
                           s[5], s[6]) for s in part]
        dump_spans(spans, os.path.splitext(args.out)[0] + ".spans.csv")
        result["layers"] = layers.per_layer(spans)
        result["self_times"] = layers.SpanIndex(spans).self_times()
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
