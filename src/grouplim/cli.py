"""Command line interface: one binary, JSON/CSV in and out, full
reproducibility metadata on every run.

Exit codes: 0 success, 1 validation error (including usage), 2 budget
exceeded, 3 internal error.
"""

from __future__ import annotations

import csv
import glob as globmod
import io
import json
import math
import os
import sys
import time

import click
import numpy as np

from . import __version__
from .errors import BudgetError, GrouplimError, ValidationError
from .extremal import (
    ARMIJO_C,
    ARMIJO_SHRINK,
    DEFAULT_MAX_ITER,
    DEFAULT_RESTARTS,
    minimize_density,
    rho_curve,
)
from .functions import DenseFn, SparseFn
from .graphon import Graph, cayley_kernel, hom_density, verify_bridge
from .linconfig import (
    ConfigSystem,
    builtin_config,
    cs_complexity_at_most_1,
    density_brute,
    density_fourier,
    density_monte_carlo,
)
from .metric import DEFAULT_NODE_BUDGET, DEFAULT_WEIGHT_CAP, d_metric, dhat, dprime
from .rounding import adjust_density, round_best_of
from .sequences import cauchy_detect, check_tol, pairwise_table
from .spectral import dft, u2_direct, u2_fourier


def _reject_constant(name: str):
    raise ValidationError(f"non-finite number {name} is not valid JSON")


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read {path}: {e}")


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e}")


def _check_out(ctx, param, path):
    """--out callback: refuse a path that cannot be written before any
    work, without creating or truncating the file."""
    folder = os.path.dirname(path or "") or "."
    if path is not None and (os.path.isdir(path) or not os.path.isdir(folder)
                             or not os.access(path if os.path.exists(path) else folder, os.W_OK)):
        raise ValidationError(f"cannot write {path}: not a writable file in an existing directory")
    return path


def _csv_text(header: list, rows) -> str:
    rows = [header, *rows]
    if any(isinstance(x, float) and not math.isfinite(x) for row in rows for x in row):
        raise ValidationError("the table holds a non-finite number; an input may be too large")
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _load_json(path: str) -> dict:
    try:
        return json.loads(_read_text(path), parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise ValidationError(f"invalid JSON in {path}: {e}")


def _load_dense(path: str) -> DenseFn:
    return DenseFn.from_json(_load_json(path))


def _load_config(spec: str) -> ConfigSystem:
    if spec in ("ap3", "parallelogram") or spec.startswith("graph:"):
        return builtin_config(spec)
    if os.path.exists(spec):
        return ConfigSystem.from_json(_load_json(spec))
    raise ValidationError(f"unknown config '{spec}' (not a builtin name or file)")


def _complex_json(z: complex):
    return {"re": z.real, "im": z.imag}


def _read_config_file(path: str) -> dict:
    """TOML-style key=value lines used as argument defaults for batch runs,
    keyed by parameter name (best-of and best_of are both best_of)."""
    defaults = {}
    for line in _read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"bad line in config file: '{line}'")
        key, val = line.split("=", 1)
        defaults[key.strip().replace("-", "_")] = val.strip().strip("\"'")
    return defaults


@click.group(name="grouplim")
@click.option("--config-file", type=click.Path(exists=True), default=None,
              help="key=value file supplying option defaults for batch runs")
@click.pass_context
def cli(ctx, config_file):
    """Limit-theory toolkit for functions on finite abelian groups."""
    ctx.obj = time.monotonic()  # the start of every command's meta.timing_s
    if config_file:
        defaults = _read_config_file(config_file)
        ctx.default_map = {cmd: defaults for cmd in cli.commands}


@cli.result_callback()
@click.pass_context
def _emit(ctx, result, **_group_params):
    """Print a command's (payload, meta) as one strict JSON line, meta
    carrying the version and the time since the group callback; a command
    that returns None has written its output itself."""
    if result is None:
        return
    payload, meta = result
    payload["meta"] = {"version": __version__, "timing_s": time.monotonic() - ctx.obj, **meta}
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValidationError("the result holds a non-finite number; an input may be too large")
    click.echo(text)


@cli.command("dft")
@click.option("--fn", "fn_path", required=True, type=click.Path())
def cmd_dft(fn_path):
    """Fourier transform of a dense function, as sparse-spectrum JSON."""
    return {"spectrum": dft(_load_dense(fn_path)).to_json()}, {}


@cli.command("u2")
@click.option("--fn", "fn_path", required=True, type=click.Path())
@click.option("--method", type=click.Choice(["fourier", "direct"]), default="fourier")
def cmd_u2(fn_path, method):
    """Gowers U2 norm."""
    f = _load_dense(fn_path)
    value = u2_fourier(f) if method == "fourier" else u2_direct(f)
    return {"u2": value, "method": method}, {}


@cli.command("dist")
@click.option("--lhs", required=True, type=click.Path())
@click.option("--rhs", required=True, type=click.Path())
@click.option("--raw-spectra", is_flag=True,
              help="inputs are sparse spectra; compare with dhat directly")
@click.option("--tight", is_flag=True, help="use the tight metric (adds the L2 norm gap)")
@click.option("--weight-cap", type=int, default=DEFAULT_WEIGHT_CAP, show_default=True)
@click.option("--budget", type=int, default=DEFAULT_NODE_BUDGET, show_default=True,
              help="search nodes per feasibility probe (not per bracket)")
def cmd_dist(lhs, rhs, raw_spectra, tight, weight_cap, budget):
    """Distance bracket between two functions (or two raw spectra)."""
    if raw_spectra:
        if tight:
            raise ValidationError("--tight applies to dense functions, not raw spectra")
        load, dist = SparseFn.from_json, dhat
    else:
        load, dist = DenseFn.from_json, dprime if tight else d_metric
    bracket = dist(load(_load_json(lhs)), load(_load_json(rhs)),
                   weight_cap=weight_cap, node_budget=budget)
    return bracket.to_json(), {"weight_cap": weight_cap, "budget": budget}


@cli.command("density")
@click.option("--config", "config_spec", required=True)
@click.option("--fn", "fn_path", required=True, type=click.Path())
@click.option("--method", type=click.Choice(["brute", "fourier", "mc"]), default="brute")
@click.option("--monte-carlo", "mc_samples", type=int, default=100000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def cmd_density(config_spec, fn_path, method, mc_samples, seed):
    """Configuration density of a function."""
    config = _load_config(config_spec)
    f = _load_dense(fn_path)
    payload = {"method": method}
    if method == "mc":
        t, se = density_monte_carlo(config, f, samples=mc_samples, seed=seed)
        payload.update(estimate=True, standard_error=se, samples=mc_samples)
    else:
        t = (density_brute if method == "brute" else density_fourier)(config, f)
    payload["density"] = _complex_json(t)
    return payload, {"seed": seed}


@cli.command("cs1")
@click.option("--config", "config_spec", required=True)
def cmd_cs1(config_spec):
    """Cauchy-Schwarz complexity-1 sufficient check (reported as cs1, it is
    not the true analytic complexity)."""
    overall, per_form = cs_complexity_at_most_1(_load_config(config_spec))
    return {"cs1": "yes" if overall else "no", "per_form": per_form}, {}


@cli.command("round")
@click.option("--fn", "fn_path", required=True, type=click.Path())
@click.option("--seed", type=int, required=True)
@click.option("--best-of", type=int, default=8, show_default=True)
@click.option("--target-density", type=float, default=None)
def cmd_round(fn_path, seed, best_of, target_density):
    """Randomized rounding to a set indicator, reporting the achieved U2
    deviation."""
    f = _load_dense(fn_path)
    h, dev, win_seed = round_best_of(f, seed, tries=best_of)
    if target_density is not None:
        h = adjust_density(h, target_density, seed)
        dev = u2_fourier(DenseFn(f.group, h.values - f.values))
    payload = {"rounded": h.to_json(), "u2_deviation": dev, "winning_seed": win_seed,
               "mean": h.mean().real}
    return payload, {"seed": seed, "best_of": best_of}


@cli.command("minimize")
@click.option("--config", "config_spec", required=True)
@click.option("--p", type=int, required=True)
@click.option("--delta", type=float, required=True)
@click.option("--restarts", type=click.IntRange(min=0), default=DEFAULT_RESTARTS,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-iter", type=int, default=DEFAULT_MAX_ITER, show_default=True)
@click.option("--unsafe-group", is_flag=True,
              help="allow composite group orders (outside the extremal family)")
def cmd_minimize(config_spec, p, delta, restarts, seed, max_iter, unsafe_group):
    """Minimize the configuration density at fixed mean over Z_p (reported
    value is an upper bound for that p)."""
    res = minimize_density(
        _load_config(config_spec), p, delta, restarts=restarts, seed=seed,
        max_iter=max_iter, unsafe_group=unsafe_group,
    )
    step_rule = {"armijo_c": ARMIJO_C, "shrink": ARMIJO_SHRINK, "init": "spectral"}
    return res.to_json(), {"seed": seed, "restarts": restarts, "step_rule": step_rule,
                           "stats": res.stats}


# a --deltas grid with more steps than this is refused before it is built
MAX_GRID_STEPS = 10_000


def _delta_grid(spec: str) -> list[float]:
    """The grid start:stop:step, inclusive: the points start + i*step
    below stop + step/2, with a last point past stop moved onto stop."""
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ValidationError("--deltas must look like 0.1:0.9:0.1")
    if not (0.0 <= start <= stop <= 1.0 and 0.0 < step < math.inf):
        raise ValidationError("--deltas needs 0 <= start <= stop <= 1 and a finite step > 0")
    if not (stop - start) / step <= MAX_GRID_STEPS:
        raise ValidationError(f"--deltas grid has more than {MAX_GRID_STEPS} steps")
    # at least start itself, also where stop + step/2 rounds to stop
    steps = np.arange(max(1, math.ceil((stop + step / 2 - start) / step)))
    return np.minimum(start + step * steps, stop).tolist()


@cli.command("rho-curve")
@click.option("--config", "config_spec", required=True)
@click.option("--p", type=int, required=True)
@click.option("--deltas", default="0.1:0.9:0.1", show_default=True,
              help="grid as start:stop:step in [0, 1] (inclusive)")
@click.option("--restarts", type=click.IntRange(min=0), default=DEFAULT_RESTARTS,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None, callback=_check_out,
              help="write CSV here instead of stdout")
def cmd_rho_curve(config_spec, p, deltas, restarts, seed, out_path):
    """Minimal-density curve over a delta grid, as CSV."""
    config = _load_config(config_spec)
    rows = rho_curve(config, p, _delta_grid(deltas), restarts=restarts, seed=seed)
    header = ["delta", "value", "grad_norm", "monotone_ok"]
    text = _csv_text(header, ([row[key] for key in header] for row in rows))
    if not out_path:
        click.echo(text, nl=False)
        return None
    _write_out(out_path, text)
    return {"rows": len(rows), "out": out_path}, {"seed": seed}


@cli.command("hom")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--fn", "fn_path", required=True, type=click.Path())
@click.option("--verify-bridge", "do_verify", is_flag=True)
def cmd_hom(graph_path, fn_path, do_verify):
    """Homomorphism density of a graph in the Cayley kernel of a function."""
    H = Graph.from_json(_load_json(graph_path))
    f = _load_dense(fn_path)
    if not do_verify:
        return {"hom_density": _complex_json(hom_density(H, cayley_kernel(f)))}, {}
    report = verify_bridge(H, f)
    payload = {key: _complex_json(report[key]) for key in ("hom_density", "config_density")}
    payload.update(abs_diff=report["abs_diff"], ok=report["ok"])
    return payload, {}


@cli.command("converge")
@click.option("--fns", "fn_glob", required=True,
              help="glob (or comma list) of dense-function JSON files, in sequence order")
@click.option("--metric", type=click.Choice(["d", "dprime"]), default="d", show_default=True)
@click.option("--tol", type=float, default=0.1, show_default=True)
@click.option("--weight-cap", type=int, default=DEFAULT_WEIGHT_CAP, show_default=True)
@click.option("--budget", type=int, default=DEFAULT_NODE_BUDGET, show_default=True,
              help="search nodes per feasibility probe (not per bracket)")
@click.option("--out", "out_path", type=click.Path(), default=None, callback=_check_out)
def cmd_converge(fn_glob, metric, tol, weight_cap, budget, out_path):
    """Pairwise distance table for a function sequence plus Cauchy check."""
    check_tol(tol)
    if "," in fn_glob:
        paths = [p for p in fn_glob.split(",") if p]
    else:
        paths = sorted(globmod.glob(fn_glob))
    if not paths:
        raise ValidationError(f"no files match '{fn_glob}'")
    fs = [_load_dense(p) for p in paths]
    table = pairwise_table(fs, metric=metric, weight_cap=weight_cap, node_budget=budget)
    is_cauchy, tail = cauchy_detect(table, tol)
    text = _csv_text(["i", "j", "lo", "hi", "exact", "weight_capped"], (
        [i, j] + (["", "", "", ""] if c is None else [c.lo, c.hi, c.exact, c.weight_capped])
        for i, row in enumerate(table) for j, c in enumerate(row)))
    payload = {"cauchy": is_cauchy, "tail_index": tail, "files": paths}
    if out_path:
        _write_out(out_path, text)
        payload["out"] = out_path
    else:
        payload["table_csv"] = text
    return payload, {"tol": tol, "weight_cap": weight_cap, "budget": budget}


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Abort:
        return 1
    except click.exceptions.ClickException as e:
        e.show(file=sys.stderr)
        return 1
    except ValidationError as e:
        click.echo(f"error: {e}", err=True)
        return 1
    except BudgetError as e:
        click.echo(f"budget exceeded: {e}", err=True)
        return 2
    except GrouplimError as e:
        click.echo(f"internal error: {e}", err=True)
        return 3
    except Exception as e:  # anything unexpected is an internal error
        click.echo(f"internal error: {type(e).__name__}: {e}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
