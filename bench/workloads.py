"""Seeded task lists for the three workloads and the checks on their outputs.

Every input is generated here from the workload seed; grouplim only ever
sees the generated functions, configurations and command lines.  Each task
carries a ``check`` that runs after the timed region and returns a list of
problems (empty when the output is right), and optionally ``known``: the
failure signature the seed code is known to produce for it, documented in
README.md.  A known failure still counts as failed; it only keeps the run's
``correct`` flag true.

Why these workloads:

* cauchy -- distance brackets between nearby or identical functions, the
  regime the limit theory is about.  ``metric``'s relation search does
  nearly all the work; ``extremal`` and ``linconfig`` do none.
* extremal -- minimal densities over Z_p.  ``linconfig``'s evaluator and
  ``extremal``'s projected gradient descent do all the work, ``metric``
  none.  Small p is bound by the projection and Python overhead, large p
  by the gradient kernel.
* cli -- cold ``python -m grouplim.cli`` calls over every subcommand, so
  import and set-up dominate and each layer runs once per call.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

NODE_BUDGET = 10**5
WEIGHT_CAP = 12  # grouplim's default cap, stated so the regime is explicit
DELTAS = [round(0.1 * i, 1) for i in range(1, 10)]


@dataclass
class Task:
    id: str
    kind: str  # distance, extremal or cli
    run: Callable  # run(gl) -> output, in process; unused for cli tasks
    check: Callable  # check(output) -> list of problems
    known: Optional[str] = None  # prefix of the seed's known failure signature
    argv: Optional[list] = None  # cli tasks: arguments after ``grouplim``
    expect_exit: tuple = (0, 2)  # cli tasks: exit codes that are not a failure


# -- shared helpers ------------------------------------------------------------


def _label(moduli) -> str:
    return "x".join(f"Z{m}" for m in moduli)


def _random_fn(gl, rng, moduli, real=False):
    group = gl.make_group(list(moduli))
    n = group.order
    values = rng.random(n) if real else rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return gl.DenseFn(group, values)


def _crt_pullback(gl, f, a: int, b: int):
    """f o psi on Z_a x Z_b, psi the CRT isomorphism onto Z_ab."""
    e1, e2 = b * pow(b, -1, a), a * pow(a, -1, b)
    idx = [(x * e1 + y * e2) % (a * b) for x in range(a) for y in range(b)]
    return gl.DenseFn(gl.make_group([a, b]), f.values[idx])


def bracket_problems(b, lo_zero=False, lo_min=0.0) -> list[str]:
    out = []
    if not (0.0 <= b.lo <= b.hi < math.inf):
        out.append(f"bracket [{b.lo}, {b.hi}] is not 0 <= lo <= hi < inf")
    if lo_zero and b.lo != 0.0:
        out.append(f"lo = {b.lo}, expected 0 for isomorphic functions")
    if b.lo < lo_min:
        out.append(f"lo = {b.lo} is below the L2 norm gap {lo_min}")
    return out


def _close(a, b, tol=1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- cauchy --------------------------------------------------------------------


def cauchy_tasks(gl, seed: int, size: str) -> list[Task]:
    """Every task of the list, once per draw of random inputs.  How long a
    bracket takes depends strongly on its input, so two draws per run keep
    the run's total from depending as much on the seed."""
    rng = np.random.default_rng([seed, 1])
    full = size == "full"
    draws = 2 if full else 1
    self_groups = [[4], [5], [6], [7], [8], [2, 4]] if full else [[4], [5]]
    near_groups = [[5], [6], [7]] if full else [[5]]
    crt_pairs = [(2, 3), (2, 5)] if full else [(2, 3)]
    kw = dict(weight_cap=WEIGHT_CAP, node_budget=NODE_BUDGET)
    tasks = []
    for draw in range(1, draws + 1):
        for m in self_groups:
            f = _random_fn(gl, rng, m)
            tasks.append(Task(
                f"d_self:{_label(m)}#{draw}", "distance",
                lambda gl, f=f: gl.metric.d_metric(f, f, **kw),
                lambda b: bracket_problems(b, lo_zero=True)))
        for m in near_groups:
            f = _random_fn(gl, rng, m)
            eta = rng.standard_normal(f.group.order) + 1j * rng.standard_normal(f.group.order)
            g = gl.DenseFn(f.group, f.values + 0.02 * eta)
            gap = abs(f.l2_norm() - g.l2_norm())
            tasks.append(Task(
                f"dprime_near:{_label(m)}#{draw}", "distance",
                lambda gl, f=f, g=g: gl.metric.dprime(f, g, **kw),
                lambda b, gap=gap: bracket_problems(b, lo_min=gap)))
        for a, b in crt_pairs:
            f = _random_fn(gl, rng, [a * b])
            g = _crt_pullback(gl, f, a, b)
            tasks.append(Task(
                f"d_crt:Z{a * b}~Z{a}xZ{b}#{draw}", "distance",
                lambda gl, f=f, g=g: gl.metric.d_metric(f, g, **kw),
                lambda b: bracket_problems(b, lo_zero=True),
                known="raised PrecisionError"))
    return tasks


# -- extremal ------------------------------------------------------------------


def _row_problems(gl, config, delta, value, grad_norm, f_star, upper, lower=-math.inf):
    out = []
    if grad_norm > 1e-6:
        out.append(f"delta={delta}: grad_norm {grad_norm} > 1e-6")
    if not lower <= value <= upper:
        out.append(f"delta={delta}: value {value} outside [{lower}, {upper}]")
    fourier = gl.density_fourier(config, f_star)
    if abs(value - fourier) > 1e-9:
        out.append(f"delta={delta}: value {value} != density_fourier(f_star) {fourier}")
    return out


def extremal_tasks(gl, seed: int, size: str) -> list[Task]:
    ap3 = gl.builtin_config("ap3")
    par = gl.builtin_config("parallelogram")
    full = size == "full"
    p_curve, p_ap3, p_par = (31, 401, 61) if full else (7, 11, 7)
    deltas = DELTAS if full else [0.3, 0.6]
    restarts = gl.extremal.DEFAULT_RESTARTS if full else 2

    def check_curve(rows):
        out = []
        for r in rows:
            if not r["monotone_ok"]:
                out.append(f"delta={r['delta']}: row not monotone_ok")
            out += _row_problems(gl, ap3, r["delta"], r["value"], r["grad_norm"], r["f_star"],
                                 upper=r["delta"] ** 3 + 1e-9)
        return out

    def check_min(config, delta, lower, upper):
        return lambda res: _row_problems(gl, config, delta, res.value, res.grad_norm,
                                         res.f_star, upper=upper, lower=lower)

    return [
        Task(f"rho_curve:ap3:p{p_curve}", "extremal",
             lambda gl: gl.extremal.rho_curve(ap3, p_curve, deltas, restarts=restarts,
                                              seed=seed),
             check_curve),
        Task(f"minimize:ap3:p{p_ap3}", "extremal",
             lambda gl: gl.extremal.minimize_density(ap3, p_ap3, 0.5, restarts=restarts,
                                                     seed=seed),
             check_min(ap3, 0.5, -math.inf, 0.5**3 + 1e-9)),
        Task(f"minimize:parallelogram:p{p_par}", "extremal",
             lambda gl: gl.extremal.minimize_density(par, p_par, 0.5, restarts=restarts,
                                                     seed=seed),
             check_min(par, 0.5, 0.5**4 - 1e-12, 1 / 16 + 1e-3)),
    ]


# -- cli -----------------------------------------------------------------------


def _write(workdir: str, name: str, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _complex(obj) -> complex:
    return complex(obj["re"], obj["im"])


def cli_tasks(gl, seed: int, size: str, workdir: str) -> list[Task]:
    """Command lines over every subcommand, with input files written to
    ``workdir``.  Checks compare each payload with the same computation
    made in process on the same files."""
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, 3])
    full = size == "full"
    n_dft, n_u2, n_round = (64, 1024, 64) if full else (16, 32, 16)
    p_min, p_curve = (17, 13) if full else (5, 5)
    seq_orders = range(3, 13) if full else range(3, 6)

    def fn_file(name, moduli, real=False):
        f = _random_fn(gl, rng, moduli, real=real)
        return _write(workdir, name, f.to_json()), f

    dft_path, f_dft = fn_file("dft.json", [n_dft])
    u2_path, f_u2 = fn_file("u2.json", [n_u2])
    far_a, fa = fn_file("far_a.json", [5])
    far_b, fb = fn_file("far_b.json", [7])
    near_a, fn = fn_file("near_a.json", [5])
    eta = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    gn = gl.DenseFn(fn.group, fn.values + 0.02 * eta)
    near_b = _write(workdir, "near_b.json", gn.to_json())
    dens_path, f_dens = fn_file("density.json", [31 if full else 7], real=True)
    round_path, f_round = fn_file("round.json", [n_round], real=True)
    hom_path, f_hom = fn_file("hom.json", [12 if full else 4], real=True)
    c4_path = _write(workdir, "c4.json", {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]})
    seq = [fn_file(f"seq{i:02d}.json", [m]) for i, m in enumerate(seq_orders)]
    curve_csv = os.path.join(workdir, "curve.csv")
    k5 = "graph:" + ",".join(f"{i}-{j}" for i in range(5) for j in range(i + 1, 5))
    ap3 = gl.builtin_config("ap3")
    par = gl.builtin_config("parallelogram")
    budget = ["--budget", str(NODE_BUDGET)]
    mc_samples = 20000

    def check_dft(out):
        ref = gl.dft(f_dft)
        got = gl.SparseFn.from_json(out["spectrum"])
        if set(got.entries) != set(ref.entries):
            return ["spectrum support differs from in-process dft"]
        bad = [g for g in ref.entries if abs(got.entries[g] - ref.entries[g]) > 1e-12]
        return [f"{len(bad)} spectrum entries differ from in-process dft"] if bad else []

    def check_u2(out):
        ref = gl.u2_direct(f_u2)
        return [] if _close(out["u2"], ref) else [f"u2 {out['u2']} != in-process {ref}"]

    def check_dist(ref_fn, f, g, lo_min=0.0):
        def check(out):
            ref = ref_fn(f, g, weight_cap=WEIGHT_CAP, node_budget=NODE_BUDGET)
            b = gl.DistBracket(out["lo"], out["hi"], exact=out["exact"],
                               weight_capped=out["weight_capped"],
                               budget_exceeded=out["budget_exceeded"])
            probs = bracket_problems(b, lo_min=lo_min)
            if (b.lo, b.hi, b.exact, b.weight_capped) != (ref.lo, ref.hi, ref.exact,
                                                          ref.weight_capped):
                probs.append(f"bracket [{b.lo}, {b.hi}] != in-process [{ref.lo}, {ref.hi}]")
            return probs
        return check

    @functools.cache  # shared by the three density checks
    def brute():
        return gl.density_brute(ap3, f_dens)

    def check_density(tol):
        def check(out):
            t = _complex(out["density"])
            return [] if abs(t - brute()) <= tol else [f"density {t} != brute {brute()}"]
        return check

    def check_mc(out):
        ref, se = gl.density_monte_carlo(ap3, f_dens, samples=mc_samples, seed=seed)
        t = _complex(out["density"])
        return [] if abs(t - ref) <= 1e-12 and _close(out["standard_error"], se) else [
            f"mc estimate {t} != in-process {ref}"]

    def check_cs1(out):
        overall, per_form = gl.cs_complexity_at_most_1(gl.builtin_config(k5))
        ref = "yes" if overall else "no"
        return [] if (out["cs1"], out["per_form"]) == (ref, per_form) else [
            f"cs1 {out['cs1']} != in-process {ref}"]

    def check_round(out):
        h, _, _ = gl.round_best_of(f_round, seed, tries=8)
        h = gl.adjust_density(h, 0.5, seed)
        dev = gl.u2_fourier(gl.DenseFn(f_round.group, h.values - f_round.values))
        got = gl.DenseFn.from_json(out["rounded"])
        if not np.array_equal(got.values, h.values) or not _close(out["u2_deviation"], dev):
            return ["rounded set or u2_deviation differs from in-process round_best_of"]
        return [] if out["mean"] >= 0.5 else [f"mean {out['mean']} below target 0.5"]

    def check_minimize(out):
        ref = gl.minimize_density(par, p_min, 0.5, seed=seed)
        probs = _row_problems(gl, par, 0.5, out["value"], out["grad_norm"],
                              gl.DenseFn.from_json(out["f_star"]),
                              lower=0.5**4 - 1e-12, upper=1 / 16 + 1e-3)
        if not _close(out["value"], ref.value):
            probs.append(f"value {out['value']} != in-process {ref.value}")
        return probs

    def check_curve(out):
        # the grid the CLI builds from its default --deltas 0.1:0.9:0.1
        grid = list(np.arange(0.1, 0.9 + 0.05, 0.1))
        rows = gl.rho_curve(ap3, p_curve, grid, restarts=4, seed=seed)
        with open(curve_csv, newline="") as fh:
            got = list(csv.DictReader(fh))
        if out["rows"] != len(rows) or len(got) != len(rows):
            return [f"{len(got)} CSV rows, expected {len(rows)}"]
        probs = []
        for g, r in zip(got, rows):
            if not _close(float(g["value"]), r["value"]) or g["monotone_ok"] != "True":
                probs.append(f"delta={r['delta']}: CSV row {g} != in-process {r['value']}")
            if float(g["grad_norm"]) > 1e-6:
                probs.append(f"delta={r['delta']}: grad_norm {g['grad_norm']} > 1e-6")
        return probs

    def check_hom(out):
        report = gl.verify_bridge(gl.Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0))), f_hom)
        probs = [] if out["ok"] else [f"bridge not ok: abs_diff {out['abs_diff']}"]
        if abs(_complex(out["hom_density"]) - report["hom_density"]) > 1e-12:
            probs.append("hom_density differs from in-process verify_bridge")
        return probs

    def check_converge(out):
        fs = [f for _, f in seq]
        table = gl.pairwise_table(fs, weight_cap=WEIGHT_CAP, node_budget=NODE_BUDGET)
        is_cauchy, tail = gl.cauchy_detect(table, 0.1)
        probs = [] if (out["cauchy"], out["tail_index"]) == (is_cauchy, tail) else [
            "cauchy verdict differs from in-process cauchy_detect"]
        for row in csv.DictReader(out["table_csv"].splitlines()):
            cell = table[int(row["i"])][int(row["j"])]
            got = None if row["lo"] == "" else (float(row["lo"]), float(row["hi"]))
            if got != (None if cell is None else (cell.lo, cell.hi)):
                probs.append(f"cell ({row['i']}, {row['j']}) differs from in-process table")
        return probs

    def no_output(out):
        return []

    def cli(task_id, argv, check, **kw):
        return Task(task_id, "cli", None, check, argv=argv, **kw)

    return [
        cli("dft", ["dft", "--fn", dft_path], check_dft),
        cli("u2:direct", ["u2", "--fn", u2_path, "--method", "direct"], check_u2),
        cli("dist:far", ["dist", "--lhs", far_a, "--rhs", far_b, *budget],
            check_dist(gl.d_metric, fa, fb)),
        cli("dist:near_tight", ["dist", "--lhs", near_a, "--rhs", near_b, "--tight", *budget],
            check_dist(gl.dprime, fn, gn, lo_min=abs(fn.l2_norm() - gn.l2_norm()))),
        cli("density:brute", ["density", "--config", "ap3", "--fn", dens_path,
                              "--method", "brute"], check_density(0.0)),
        cli("density:fourier", ["density", "--config", "ap3", "--fn", dens_path,
                                "--method", "fourier"], check_density(1e-9)),
        cli("density:mc", ["density", "--config", "ap3", "--fn", dens_path, "--method", "mc",
                           "--monte-carlo", str(mc_samples), "--seed", str(seed)], check_mc),
        cli("cs1:K5", ["cs1", "--config", k5], check_cs1),
        cli("round", ["round", "--fn", round_path, "--seed", str(seed), "--best-of", "8",
                      "--target-density", "0.5"], check_round),
        cli(f"minimize:parallelogram:p{p_min}",
            ["minimize", "--config", "parallelogram", "--p", str(p_min), "--delta", "0.5",
             "--seed", str(seed)], check_minimize),
        cli(f"rho-curve:ap3:p{p_curve}",
            ["rho-curve", "--config", "ap3", "--p", str(p_curve), "--restarts", "4",
             "--seed", str(seed), "--out", curve_csv], check_curve),
        cli("hom:C4", ["hom", "--graph", c4_path, "--fn", hom_path, "--verify-bridge"],
            check_hom),
        cli("converge", ["converge", "--fns", ",".join(p for p, _ in seq), *budget],
            check_converge),
        # bad input: both must be rejected with exit code 1
        cli("bad:round_seed", ["round", "--fn", round_path, "--seed", "-1"], no_output,
            expect_exit=(1,), known="exit 3"),
        cli("bad:mc_zero", ["density", "--config", "ap3", "--fn", dens_path, "--method", "mc",
                            "--monte-carlo", "0"], no_output,
            expect_exit=(1,), known="exit 0"),
    ]


def build(gl, workload: str, seed: int, size: str, workdir: str) -> list[Task]:
    if workload == "cauchy":
        return cauchy_tasks(gl, seed, size)
    if workload == "extremal":
        return extremal_tasks(gl, seed, size)
    return cli_tasks(gl, seed, size, os.path.join(workdir, f"cli-inputs-{seed}-{size}"))
