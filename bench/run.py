"""grouplim benchmark: three seeded workloads timed end to end, and a traced
run that times each layer from outside the package.

    python3 bench/run.py                      # all workloads, full report
    python3 bench/run.py --workload cauchy --seed 3 --seconds 30 --trace 0

Run from anywhere inside a checkout; the checkout's own ``src/`` is put on
the path.  Each workload runs in fresh worker interpreters, one task at a
time (closed loop), with BLAS/OpenMP threads pinned to 1:

* ``setup_s`` is the median wall time of several fresh workers that only
  import grouplim and build the inputs (after one unmeasured warm-up);
* the measured worker runs whole rounds of the workload's fixed task list
  until the next round would end after ``--seconds`` (at least one round)
  and reports medians over rounds.  It samples the host's speed during the
  rounds (hostspeed.py): ``wall_kernels`` is the wall time in units of a
  reference kernel's time sampled during it, and the machine record shows
  the samples;
* with ``--trace 1`` a second worker runs one round with the layers
  wrapped; the per-layer metrics come from its spans, and
  ``trace.overhead_s`` is its ``wall_kernels`` minus the untraced one,
  converted to seconds at the untraced round's rate.

The report lists every metric with its unit and sample count, the machine,
and each failed task; the full result and the spans are written under
``.bench_build/grouplim/``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics BENCHMARK.json names
(end-to-end ones, or per-layer ones with ``--trace 1``).  ``correct`` is
false when a task fails in a way that is not one of the seed's documented
failures (README.md); documented failures still count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from layers import CLI_SUBCOMMANDS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cauchy", "extremal", "cli")
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "mem_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "threads_env": {k: v for k, v in PINNED_ENV.items() if k != "PYTHONHASHSEED"},
    }


def run_worker(args: list[str], env: dict) -> float:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s: {' '.join(args)}")
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return elapsed


def run_workload(workload: str, seed: int, seconds: int, trace: bool, size: str,
                 workdir: str, env: dict) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--size", size, "--workdir", workdir]
    # the first set-up run warms the file cache and is not counted
    setup = [run_worker(base + ["--setup-only"], env) for _ in range(SETUP_REPEATS + 1)][1:]
    out = os.path.join(workdir, f"{workload}-{seed}-{size}")
    run_worker(base + ["--seconds", str(seconds), "--out", out + ".json"], env)
    with open(out + ".json") as fh:
        plain = json.load(fh)
    result = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "rounds": plain["rounds"],
        "machine": {**machine_info(), "numpy": plain["numpy"],
                    "host_speed": plain["host_speed"]},
        "e2e": {"setup_s": {"value": statistics.median(setup), "unit": "s", "n": len(setup)},
                **plain["metrics"]},
        "tasks": plain["tasks"],
    }
    if trace:
        run_worker(base + ["--seconds", "0", "--trace", "--out", out + "-traced.json"], env)
        with open(out + "-traced.json") as fh:
            traced = json.load(fh)
        layer = traced["layers"]
        if workload == "cli":
            # cold latency per subcommand from the untraced rounds; the
            # unexpected-exit count from the single traced round
            layer.update({k: v for k, v in plain["cli_layers"].items()
                          if k != "cli.exit_unexpected"})
            layer["cli.exit_unexpected"] = traced["cli_layers"]["cli.exit_unexpected"]
        else:
            layer.update({f"cli.{sub}_s": {"value": 0.0, "unit": "s", "n": 0}
                          for sub in CLI_SUBCOMMANDS})
            layer["cli.exit_unexpected"] = {"value": 0, "unit": "count", "n": 0}
        # compared in kernel units, so that host drift between the two
        # workers cancels, and given in seconds of the untraced round
        plain_s, plain_k = (plain["metrics"][k]["value"] for k in ("wall_s", "wall_kernels"))
        overhead = (traced["metrics"]["wall_kernels"]["value"] - plain_k) / plain_k * plain_s
        layer["trace.overhead_s"] = {"value": overhead, "unit": "s", "n": 1}
        result["layers"] = layer
        result["self_times"] = traced["self_times"]
        result["tasks"] += traced["tasks"]
    tasks = result["tasks"]
    result["attempted"] = len(tasks)
    result["failed"] = sum(t["status"] == "error" for t in tasks)
    result["correct"] = all(t["known"] for t in tasks if t["status"] == "error")
    return result


def _fmt(entry: dict) -> str:
    if "omitted" in entry:
        return f"omitted: {entry['omitted']}"
    if entry.get("absent"):
        return f"absent (wrapped name not found) [{entry['unit']}]"
    extra = "".join(f", {k}={entry[k]}" for k in ("percentile", "of", "computed") if k in entry)
    return f"{entry['value']!r} {entry['unit']}  (n={entry['n']}{extra})"


def print_report(res: dict):
    m = res["machine"]
    print(f"== {res['workload']}: seed {res['seed']}, size {res['size']}, "
          f"{res['rounds']} measured round(s) ==")
    hs = " ".join(f"{k}={v:.4g}" for k, v in m["host_speed"].items())
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} mem={m['mem_mb']} MB "
          f"python={m['python']} numpy={m['numpy']} host speed: {hs} "
          + " ".join(f"{k}={v}" for k, v in m["threads_env"].items()))
    for name, entry in res["e2e"].items():
        print(f"  {name:<30} {_fmt(entry)}")
    for name, entry in res.get("layers", {}).items():
        print(f"  {name:<30} {_fmt(entry)}")
    for name, st in res.get("self_times", {}).items():
        print(f"  span {name:<42} calls={st['calls']} total={st['total_s']:.4f} s "
              f"self={st['self_s']:.4f} s")
    failures = {}
    for t in res["tasks"]:
        if t["status"] == "error":
            failures.setdefault((t["id"], t["detail"], t["known"]), 0)
            failures[(t["id"], t["detail"], t["known"])] += 1
    for (tid, detail, known), count in failures.items():
        tag = "known seed failure" if known else "UNEXPECTED"
        print(f"  failed x{count}: {tid}: {detail} [{tag}]")
    print(f"  attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")


def main(argv=None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all, one after another")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every task at toy sizes (used by smoke.py)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "grouplim", "__init__.py")):
        print(f"error: no grouplim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_build", "grouplim")
    os.makedirs(workdir, exist_ok=True)
    env = child_env()
    # compile bytecode first so set-up time measures import, not compilation
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=ROOT,
                   env=env, check=True, capture_output=True)
    wanted = [e["name"] for e in spec["per_layer" if args.trace else "end_to_end"]]
    results = {}
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            res = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.size,
                               workdir, env)
            path = os.path.join(workdir, f"result-{workload}-seed{args.seed}-"
                                         f"trace{args.trace}-{args.size}.json")
            with open(path, "w") as fh:
                json.dump(res, fh, indent=1)
            print_report(res)
            results[workload] = res
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    def selected(res):
        table = {**res["e2e"], **res.get("layers", {})}
        missing = [n for n in wanted if "value" not in table.get(n, {})]
        if missing:
            raise KeyError(f"{res['workload']} did not report {missing}")
        return {n: {"value": table[n]["value"], "unit": table[n]["unit"]} for n in wanted}

    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if args.workload:
        line["metrics"] = selected(results[args.workload])
    else:
        line["metrics"] = {f"{w}.{n}": v for w, r in results.items()
                           for n, v in selected(r).items()}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
