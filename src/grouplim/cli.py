"""Command line interface: one binary, JSON/CSV in and out, full
reproducibility metadata on every run.

Exit codes: 0 success, 1 validation error (including usage), 2 budget
exceeded, 3 internal error, 141 (128 + SIGPIPE) when the reader of stdout
closed it before the output was written.

A call imports only what its subcommand runs: each command imports its
numerical modules in its own body, and options with a fixed range are
checked by the library's validators while the arguments are parsed, so
bad input is refused before any file or NumPy is loaded.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time

from . import __version__
from .errors import (
    DEFAULT_MAX_ITER,
    DEFAULT_NODE_BUDGET,
    DEFAULT_RESTARTS,
    DEFAULT_WEIGHT_CAP,
    MAX_RESTARTS,
    MAX_TRIES,
    RESTART_BITS,
    TRY_BITS,
    BudgetError,
    GrouplimError,
    ValidationError,
    check_count,
    check_delta,
    check_seed,
    check_tol,
)


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


def _out_path(path: str) -> str:
    """--out type: refuse a path that cannot be written before any work,
    without creating or truncating the file."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(
            path if os.path.exists(path) else folder, os.W_OK):
        raise ValidationError(f"cannot write {path}: not a writable file in an existing directory")
    return path


def _csv_text(header: list, rows) -> str:
    import csv

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


def _load_dense(path: str):
    from .functions import DenseFn

    return DenseFn.from_json(_load_json(path))


def _load_config(spec: str):
    from .linconfig import ConfigSystem, builtin_config

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


# -- parsing -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Options are spelled out in full, and a usage error is bad input like
    any other: it exits 1, since exit 2 means that a budget ran out."""

    def __init__(self, **kw):
        super().__init__(allow_abbrev=False, **kw)

    def error(self, message):
        raise ValidationError(message)


def _checked(convert, check, *args):
    """An argparse type: convert(text), then the library's own validator
    check(value, *args), whose message becomes a usage error."""

    def parse(text: str):
        value = convert(text)
        try:
            check(value, *args)
        except ValidationError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_FLAG_VALUES = {**dict.fromkeys(("1", "true", "t", "yes", "y", "on"), True),
                **dict.fromkeys(("0", "false", "f", "no", "n", "off"), False)}


def _set_default(action: argparse.Action, text: str) -> None:
    """Make a --config-file value the default of an option, so that it can
    fill a required one.  argparse converts a string default with the
    option's type, range check included, when it is used; flag values and
    choices are checked here."""
    name = action.option_strings[0]
    if action.nargs == 0:
        if text.lower() not in _FLAG_VALUES:
            raise ValidationError(f"argument {name}: {text!r} is not a boolean")
        text = _FLAG_VALUES[text.lower()]
    elif action.choices is not None and text not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ValidationError(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    action.default, action.required = text, False


COMMANDS: dict = {}


def _command(name: str, *options):
    """Register a subcommand run(**options) -> (payload, meta) or None; its
    options are (flags, add_argument keywords) pairs, its docstring is its
    help."""

    def register(run):
        COMMANDS[name] = (run, options)
        return run

    return register


def _opt(*flags, **kw):
    return flags, kw


def _seed(stream_bits: int = 0, **kw):
    return _opt("--seed", type=_checked(int, check_seed, stream_bits), **kw)


_FN = _opt("--fn", dest="fn_path", required=True, metavar="PATH")
_CONFIG = _opt("--config", dest="config_spec", required=True, metavar="SPEC",
               help="ap3, parallelogram, graph:EDGES or a JSON file")
_SEARCH_LIMITS = (
    _opt("--weight-cap", type=_checked(int, check_count, "weight_cap"),
         default=DEFAULT_WEIGHT_CAP, help="relation weight cap (default: %(default)s)"),
    _opt("--budget", type=_checked(int, check_count, "node_budget"),
         default=DEFAULT_NODE_BUDGET,
         help="search nodes per feasibility probe, not per bracket (default: %(default)s)"),
)
_RESTARTS = _opt("--restarts", type=_checked(int, check_count, "restarts", 0, MAX_RESTARTS),
                 default=DEFAULT_RESTARTS, help="random restarts (default: %(default)s)")
_OUT = _opt("--out", dest="out_path", type=_out_path, default=None, metavar="PATH",
            help="write CSV here instead of stdout")


def _parse(argv: list[str]):
    """The command function and its keyword arguments.  --config-file
    lines become defaults of the chosen subcommand's options."""
    summaries = "".join(f"  {name:<10} {' '.join(run.__doc__.split())}\n"
                        for name, (run, _) in COMMANDS.items())
    top = _Parser(prog="grouplim", formatter_class=argparse.RawDescriptionHelpFormatter,
                  description="Limit-theory toolkit for functions on finite abelian groups.",
                  epilog=f"commands:\n{summaries}\n"
                         "Run 'grouplim COMMAND --help' for the options of a command.")
    top.add_argument("--config-file", metavar="PATH",
                     help="key=value file supplying option defaults for batch runs")
    top.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                     help="one of the commands below")
    # the command's own arguments, parsed once its defaults are known
    top.add_argument("args", nargs=argparse.REMAINDER, help=argparse.SUPPRESS).required = False
    ns = top.parse_args(argv)
    defaults = _read_config_file(ns.config_file) if ns.config_file else {}
    run, options = COMMANDS[ns.command]
    sub = _Parser(prog=f"grouplim {ns.command}", description=run.__doc__)
    for flags, kw in options:
        action = sub.add_argument(*flags, **kw)
        if action.dest in defaults:
            _set_default(action, defaults[action.dest])
    return run, vars(sub.parse_args(ns.args))


# -- commands ------------------------------------------------------------------


@_command("dft", _FN)
def cmd_dft(fn_path):
    """Fourier transform of a dense function, as sparse-spectrum JSON."""
    from .spectral import dft

    return {"spectrum": dft(_load_dense(fn_path)).to_json()}, {}


@_command("u2", _FN, _opt("--method", choices=("fourier", "direct"), default="fourier"))
def cmd_u2(fn_path, method):
    """Gowers U2 norm."""
    from .spectral import u2_direct, u2_fourier

    f = _load_dense(fn_path)
    value = u2_fourier(f) if method == "fourier" else u2_direct(f)
    return {"u2": value, "method": method}, {}


@_command("dist",
          _opt("--lhs", required=True, metavar="PATH"),
          _opt("--rhs", required=True, metavar="PATH"),
          _opt("--raw-spectra", action="store_true",
               help="inputs are sparse spectra; compare with dhat directly"),
          _opt("--tight", action="store_true", help="use the tight metric (adds the L2 norm gap)"),
          *_SEARCH_LIMITS)
def cmd_dist(lhs, rhs, raw_spectra, tight, weight_cap, budget):
    """Distance bracket between two functions (or two raw spectra)."""
    from .functions import DenseFn, SparseFn
    from .metric import d_metric, dhat, dprime

    if raw_spectra:
        if tight:
            raise ValidationError("--tight applies to dense functions, not raw spectra")
        load, dist = SparseFn.from_json, dhat
    else:
        load, dist = DenseFn.from_json, dprime if tight else d_metric
    bracket = dist(load(_load_json(lhs)), load(_load_json(rhs)),
                   weight_cap=weight_cap, node_budget=budget)
    return bracket.to_json(), {"weight_cap": weight_cap, "budget": budget}


@_command("density", _CONFIG, _FN,
          _opt("--method", choices=("brute", "fourier", "mc"), default="brute"),
          _opt("--monte-carlo", dest="mc_samples", type=_checked(int, check_count, "samples"),
               default=100000, help="samples of the mc method (default: %(default)s)"),
          _seed(default=0, help="seed of the mc method (default: %(default)s)"))
def cmd_density(config_spec, fn_path, method, mc_samples, seed):
    """Configuration density of a function."""
    from .linconfig import density_brute, density_fourier, density_monte_carlo

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


@_command("cs1", _CONFIG)
def cmd_cs1(config_spec):
    """Cauchy-Schwarz complexity-1 sufficient check (reported as cs1, it is
    not the true analytic complexity)."""
    from .linconfig import cs_complexity_at_most_1

    overall, per_form = cs_complexity_at_most_1(_load_config(config_spec))
    return {"cs1": "yes" if overall else "no", "per_form": per_form}, {}


@_command("round", _FN, _seed(TRY_BITS, required=True),
          _opt("--best-of", type=_checked(int, check_count, "tries", 1, MAX_TRIES), default=8,
               help="rounding attempts (default: %(default)s)"),
          _opt("--target-density", type=_checked(float, check_delta), default=None))
def cmd_round(fn_path, seed, best_of, target_density):
    """Randomized rounding to a set indicator, reporting the achieved U2
    deviation."""
    from .functions import DenseFn
    from .rounding import adjust_density, round_best_of
    from .spectral import u2_fourier

    f = _load_dense(fn_path)
    h, dev, win_seed = round_best_of(f, seed, tries=best_of)
    if target_density is not None:
        h = adjust_density(h, target_density, seed)
        dev = u2_fourier(DenseFn(f.group, h.values - f.values))
    payload = {"rounded": h.to_json(), "u2_deviation": dev, "winning_seed": win_seed,
               "mean": h.mean().real}
    return payload, {"seed": seed, "best_of": best_of}


@_command("minimize", _CONFIG,
          _opt("--p", type=int, required=True),
          _opt("--delta", type=_checked(float, check_delta), required=True),
          _RESTARTS,
          _seed(RESTART_BITS, default=0, help="random seed (default: %(default)s)"),
          _opt("--max-iter", type=_checked(int, check_count, "max_iter", 0),
               default=DEFAULT_MAX_ITER, help="iterations per run (default: %(default)s)"),
          _opt("--unsafe-group", action="store_true",
               help="allow composite group orders (outside the extremal family)"))
def cmd_minimize(config_spec, p, delta, restarts, seed, max_iter, unsafe_group):
    """Minimize the configuration density at fixed mean over Z_p (reported
    value is an upper bound for that p)."""
    from .extremal import ARMIJO_C, ARMIJO_SHRINK, minimize_density

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
    import numpy as np

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


@_command("rho-curve", _CONFIG,
          _opt("--p", type=int, required=True),
          _opt("--deltas", default="0.1:0.9:0.1",
               help="grid as start:stop:step in [0, 1], inclusive (default: %(default)s)"),
          _RESTARTS,
          _seed(RESTART_BITS, default=0, help="random seed (default: %(default)s)"),
          _OUT)
def cmd_rho_curve(config_spec, p, deltas, restarts, seed, out_path):
    """Minimal-density curve over a delta grid, as CSV."""
    from .extremal import rho_curve

    config = _load_config(config_spec)
    rows = rho_curve(config, p, _delta_grid(deltas), restarts=restarts, seed=seed)
    header = ["delta", "value", "grad_norm", "monotone_ok"]
    text = _csv_text(header, ([row[key] for key in header] for row in rows))
    if not out_path:
        return text
    _write_out(out_path, text)
    return {"rows": len(rows), "out": out_path}, {"seed": seed}


@_command("hom",
          _opt("--graph", dest="graph_path", required=True, metavar="PATH"),
          _FN,
          _opt("--verify-bridge", dest="do_verify", action="store_true"))
def cmd_hom(graph_path, fn_path, do_verify):
    """Homomorphism density of a graph in the Cayley kernel of a function."""
    from .graphon import Graph, cayley_kernel, hom_density, verify_bridge

    H = Graph.from_json(_load_json(graph_path))
    f = _load_dense(fn_path)
    if not do_verify:
        return {"hom_density": _complex_json(hom_density(H, cayley_kernel(f)))}, {}
    report = verify_bridge(H, f)
    payload = {key: _complex_json(report[key]) for key in ("hom_density", "config_density")}
    payload.update(abs_diff=report["abs_diff"], ok=report["ok"])
    return payload, {}


@_command("converge",
          _opt("--fns", dest="fn_glob", required=True, metavar="GLOB",
               help="glob (or comma list) of dense-function JSON files, in sequence order"),
          _opt("--metric", choices=("d", "dprime"), default="d",
               help="d or its tight variant dprime (default: %(default)s)"),
          _opt("--tol", type=_checked(float, check_tol), default=0.1,
               help="Cauchy tolerance (default: %(default)s)"),
          *_SEARCH_LIMITS,
          _OUT)
def cmd_converge(fn_glob, metric, tol, weight_cap, budget, out_path):
    """Pairwise distance table for a function sequence plus Cauchy check."""
    import glob

    from .sequences import cauchy_detect, pairwise_table

    if "," in fn_glob:
        paths = [p for p in fn_glob.split(",") if p]
    else:
        paths = sorted(glob.glob(fn_glob))
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


def _json_line(result, start: float) -> str:
    """A command's (payload, meta) as one strict JSON line, meta carrying
    the version and the time since the call started."""
    payload, meta = result
    payload["meta"] = {"version": __version__, "timing_s": time.monotonic() - start, **meta}
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ValidationError("the result holds a non-finite number; an input may be too large")


def _write_stdout(text: str) -> int:
    """Write and flush text on stdout: exit code 0, or 141 if the reader
    has closed the pipe.  stdout then points at os.devnull, so that the
    interpreter's flush at exit does not fail again (the recipe in the
    documentation of Python's signal module)."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0


def main(argv=None) -> int:
    start = time.monotonic()
    try:
        run, kwargs = _parse(sys.argv[1:] if argv is None else list(argv))
        result = run(**kwargs)
        # a command returns (payload, meta) for one JSON line, or its own text
        return _write_stdout(result if isinstance(result, str) else _json_line(result, start))
    except SystemExit:  # argparse exits only after printing --help
        return 0
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        return 1
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 2
    except GrouplimError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # anything unexpected is an internal error
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
