"""End-to-end CLI behavior: exit codes, JSON shape, determinism."""
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grouplim
from grouplim import (DenseFn, adjust_density, builtin_config, cli as cli_module, constant_fn,
                      d_metric, density_monte_carlo, extremal, make_group, metric,
                      minimize_density,
                      rho_curve, round_best_of, rounding, sequences, spectral)
from grouplim.cli import main
from grouplim.errors import BudgetError, ValidationError
from grouplim.graphon import Graph
from grouplim.metric import DistBracket


@pytest.fixture
def dense_file(tmp_path):
    G = make_group([8])
    rng = np.random.default_rng(12)
    f = DenseFn(G, rng.random(8).astype(np.complex128))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json()))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse(out):
    payload = json.loads(out)
    meta = payload.pop("meta")
    return payload, meta


def test_dft_roundtrips_json(capsys, dense_file):
    code, out = run(capsys, ["dft", "--fn", dense_file])
    assert code == 0
    payload, meta = parse(out)
    assert "entries" in payload["spectrum"]
    assert meta["version"]


def test_u2_methods_agree(capsys, dense_file):
    code_f, out_f = run(capsys, ["u2", "--fn", dense_file])
    code_d, out_d = run(capsys, ["u2", "--fn", dense_file, "--method", "direct"])
    assert code_f == code_d == 0
    uf, _ = parse(out_f)
    ud, _ = parse(out_d)
    assert abs(uf["u2"] - ud["u2"]) <= 1e-10


def test_dist_self_is_exact_zero(capsys, dense_file):
    code, out = run(capsys, ["dist", "--lhs", dense_file, "--rhs", dense_file])
    assert code == 0
    payload, _ = parse(out)
    assert payload["lo"] == 0 and payload["hi"] == 0 and payload["exact"]


def test_density_of_constant(capsys, tmp_path):
    G = make_group([10])
    f = DenseFn(G, np.full(10, 0.3, dtype=np.complex128))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(f.to_json()))
    code, out = run(capsys, ["density", "--config", "ap3", "--fn", str(path)])
    assert code == 0
    payload, _ = parse(out)
    assert payload["density"]["re"] == pytest.approx(0.027, abs=1e-12)


def test_density_methods_agree(capsys, dense_file):
    outs = {}
    for method in ("brute", "fourier"):
        code, out = run(capsys, ["density", "--config", "ap3", "--fn", dense_file,
                                 "--method", method])
        assert code == 0
        outs[method], _ = parse(out)
    assert outs["brute"]["density"]["re"] == pytest.approx(
        outs["fourier"]["density"]["re"], abs=1e-9)


def test_cs1_verdicts(capsys):
    code, out = run(capsys, ["cs1", "--config", "ap3"])
    assert code == 0
    payload, _ = parse(out)
    assert payload["cs1"] == "yes"


def test_round_is_seed_reproducible(capsys, dense_file):
    argv = ["round", "--fn", dense_file, "--seed", "3"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    p1, m1 = parse(out1)
    p2, m2 = parse(out2)
    assert p1 == p2
    assert m1["seed"] == 3


def test_minimize_reports_upper_bound(capsys):
    code, out = run(capsys, ["minimize", "--config", "parallelogram", "--p", "5",
                             "--delta", "0.5", "--restarts", "2"])
    assert code == 0
    payload, meta = parse(out)
    assert payload["bound_kind"] == "upper bound"
    assert payload["value"] == pytest.approx(1 / 16, abs=1e-4)
    assert meta["step_rule"]["armijo_c"] == 1e-4


def test_minimize_reports_run_stats_in_meta(capsys):
    code, out = run(capsys, ["minimize", "--config", "ap3", "--p", "7", "--delta", "0.4",
                             "--restarts", "2"])
    assert code == 0
    payload, meta = parse(out)
    stats = meta["stats"]
    assert len(stats["iterations"]) == len(stats["backtracks"]) == len(stats["grad_norms"]) == 3
    assert payload["grad_norm"] in stats["grad_norms"]
    assert stats["pool_rows"] >= 1 and stats["objective_calls"] >= 1
    assert stats["rows_evaluated"] >= 3
    assert "stats" not in payload


@pytest.mark.parametrize("argv", [["minimize", "--delta", "0.5"], ["rho-curve"]])
def test_huge_p_exits_2_before_enumerating_the_dual_lattice(capsys, argv):
    code = main(argv + ["--config", "ap3", "--p", "2305843009213693951"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "2305843009213693951 points, over budget" in captured.err


@pytest.mark.parametrize("argv", [["minimize", "--delta", "0.5"], ["rho-curve"]])
def test_pool_over_budget_exits_2_before_the_first_start(capsys, monkeypatch, argv):
    # as graph:0-1 does on Z_100000000003 at the default budget
    monkeypatch.setattr(extremal, "DENSITY_BUDGET", 10**4)
    code = main(argv + ["--config", "graph:0-1", "--p", "101", "--restarts", "0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "pool holds" in captured.err and "internal error" not in captured.err


def test_dist_over_the_candidate_budget_exits_2(capsys, monkeypatch, tmp_path):
    # as two random functions on Z_40000 do at the default budget
    paths = []
    for n in (20, 30):
        paths.append(str(tmp_path / f"z{n}.json"))
        f = DenseFn(make_group([n]), np.random.default_rng(n).random(n).astype(np.complex128))
        with open(paths[-1], "w") as fh:
            json.dump(f.to_json(), fh)
    monkeypatch.setattr(metric, "DENSITY_BUDGET", 10**3, raising=False)
    code = main(["dist", "--lhs", paths[0], "--rhs", paths[1], "--budget", "1000"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "600 critical differences" in captured.err


@pytest.mark.parametrize("argv", [["minimize", "--delta", "0.5", "--restarts", "-3"],
                                  ["rho-curve", "--restarts", "-2"]])
def test_negative_restarts_exit_1(capsys, argv):
    code = main(argv + ["--config", "ap3", "--p", "7"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "--restarts" in captured.err


@pytest.mark.parametrize("argv", [["--seed", str(2**120)], ["--seed", str(2**112)],
                                  ["--seed", "0", "--best-of", str(2**16 + 1)]])
def test_round_rejects_a_seed_or_tries_past_the_key_space(capsys, dense_file, argv):
    code = main(["round", "--fn", dense_file] + argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    # the message names the value passed, not a derived key
    assert argv[-1] in captured.err and "internal error" not in captured.err


MINIMIZE = ["minimize", "--config", "ap3", "--p", "7"]
ROUND = ["round", "--fn", "FN", "--seed", "0"]
# each option with a range: its command line, an out-of-range value, and
# the library call that takes that value from it
BOUNDED = [
    ("--weight-cap", ["dist", "--lhs", "FN", "--rhs", "FN"], "-7",
     lambda f, v: d_metric(f, f, weight_cap=v)),
    ("--budget", ["dist", "--lhs", "FN", "--rhs", "FN"], "0",
     lambda f, v: d_metric(f, f, node_budget=v)),
    ("--monte-carlo", ["density", "--config", "ap3", "--fn", "FN", "--method", "mc"], "-3",
     lambda f, v: density_monte_carlo(builtin_config("ap3"), f, v)),
    ("--best-of", ROUND, str(2**16 + 1), lambda f, v: round_best_of(f, 0, tries=v)),
    ("--restarts", MINIMIZE + ["--delta", "0.5"], "-1",
     lambda f, v: minimize_density(builtin_config("ap3"), 7, 0.5, restarts=v)),
    ("--restarts", ["rho-curve", "--config", "ap3", "--p", "7"], str(2**20 + 1),
     lambda f, v: rho_curve(builtin_config("ap3"), 7, [0.5], restarts=v)),
    ("--max-iter", MINIMIZE + ["--delta", "0.5"], "-4",
     lambda f, v: minimize_density(builtin_config("ap3"), 7, 0.5, max_iter=v)),
    ("--delta", MINIMIZE, "1.5", lambda f, v: minimize_density(builtin_config("ap3"), 7, v)),
    ("--target-density", ROUND, "2.5",
     lambda f, v: adjust_density(constant_fn(f.group, 1.0), v, 0)),
]


@pytest.mark.parametrize("option, argv, value, call", BOUNDED,
                         ids=[f"{row[0]}={row[2]}" for row in BOUNDED])
def test_an_out_of_range_option_is_refused_by_the_flag_and_the_library(
        capsys, dense_file, option, argv, value, call):
    code = main([dense_file if arg == "FN" else arg for arg in argv] + [option, value])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(f"error: argument {option}: ") and f"got {value}" in captured.err
    with pytest.raises(ValidationError, match=f"got {re.escape(value)}"):
        call(constant_fn(make_group([8]), 0.5), json.loads(value))


def test_an_out_of_range_target_density_is_refused_before_rounding(capsys, dense_file,
                                                                   monkeypatch):
    calls = []
    monkeypatch.setattr(rounding, "round_best_of", lambda *args, **kw: calls.append(args))
    code = main(["round", "--fn", dense_file, "--seed", "0", "--target-density", "2"])
    assert (code, capsys.readouterr().out, calls) == (1, "", [])


OUT_COMMANDS = [
    ["rho-curve", "--config", "ap3", "--p", "5", "--deltas", "0.5:0.5:0.1", "--restarts", "1"],
    ["converge", "--fns", "FN"],
]
# the module and function each --out command does its work in
OUT_WORK = {"rho-curve": (extremal, "rho_curve"), "converge": (sequences, "pairwise_table")}


def _fail_if_called(*args, **kwargs):
    raise AssertionError("the work ran before --out was checked")


@pytest.mark.parametrize("command", OUT_COMMANDS)
@pytest.mark.parametrize("missing_dir", [False, True])
def test_out_write_errors_exit_1(capsys, monkeypatch, tmp_path, dense_file, command,
                                 missing_dir):
    # a directory, or a file in a directory that does not exist, is refused
    # before the curve or the table is computed
    monkeypatch.setattr(*OUT_WORK[command[0]], _fail_if_called)
    out = tmp_path / "missing" / "out.csv" if missing_dir else tmp_path
    argv = [dense_file if arg == "FN" else arg for arg in command] + ["--out", str(out)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: cannot write") and "internal error" not in captured.err
    assert not (tmp_path / "missing").exists()


def test_out_in_a_read_only_directory_exits_1(capsys, monkeypatch, tmp_path):
    # the permission check is faked, since root may write anywhere
    monkeypatch.setattr(cli_module.os, "access", lambda path, mode: False)
    monkeypatch.setattr(extremal, "rho_curve", _fail_if_called)
    assert main(OUT_COMMANDS[0] + ["--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write")


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_is_left_alone_when_the_work_fails(capsys, monkeypatch, tmp_path, dense_file,
                                               command):
    def over_budget(*args, **kwargs):
        raise BudgetError("over budget")

    monkeypatch.setattr(*OUT_WORK[command[0]], over_budget)
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("kept\n")
    argv = [dense_file if arg == "FN" else arg for arg in command]
    for out in (old, new):
        assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert old.read_text() == "kept\n" and not new.exists()


def test_minimize_rejects_negative_max_iter(capsys):
    code, out = run(capsys, ["minimize", "--config", "ap3", "--p", "5", "--delta", "0.5",
                             "--max-iter", "-1"])
    assert (code, out) == (1, "")


def test_rho_curve_writes_csv(capsys, tmp_path):
    out_csv = tmp_path / "curve.csv"
    code, out = run(capsys, ["rho-curve", "--config", "ap3", "--p", "5",
                             "--deltas", "0.2:0.8:0.3", "--restarts", "2",
                             "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "delta,value,grad_norm,monotone_ok"
    assert len(lines) == 4


@pytest.mark.parametrize("deltas", ["0.1:0.9:0", "0.1:0.9:-0.1", "nan:0.5:0.1", "0:inf:0.1",
                                    "0:1:-inf", "0.9:0.1:0.1", "-0.5:0.5:0.5", "0:1.5:0.5",
                                    "0:1:1e-300", "0.1:0.9", "a:b:c"])
def test_rho_curve_rejects_bad_grids(capsys, deltas):
    code, out = run(capsys, ["rho-curve", "--config", "ap3", "--p", "5", "--restarts", "1",
                             "--deltas", deltas])
    assert code == 1 and out == ""


def test_rho_curve_rejects_bad_group_or_seed_for_endpoint_grids(capsys):
    for extra in (["--p", "9"], ["--p", "5", "--seed", "-1"]):
        code, _ = run(capsys, ["rho-curve", "--config", "ap3", "--deltas", "0:1:1"] + extra)
        assert code == 1


def test_rho_curve_grid_ends_on_stop(capsys):
    # 0.1 + 18 * 0.05 rounds to 1.0000000000000004; 0:1:0.15 reaches 1.05;
    # 1 + 1e-300 / 2 rounds to 1
    for deltas, last, size in (("0.1:1.0:0.05", 1.0, 19), ("0:1:0.15", 1.0, 8),
                               ("1:1:1e-300", 1.0, 1)):
        code, out = run(capsys, ["rho-curve", "--config", "ap3", "--p", "5", "--restarts", "1",
                                 "--deltas", deltas])
        rows = out.strip().splitlines()[1:]
        assert code == 0 and len(rows) == size
        assert float(rows[-1].split(",")[0]) == last


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


GRID_PARTS = st.one_of(
    st.sampled_from(["0", "1", "0.5", "-0.5", "1.5", "nan", "inf", "-inf", "-0", "1e-300",
                     "-0.1", "0.0", "x", ""]),
    st.floats(-0.5, 1.5).map(repr),
)


@settings(max_examples=60, deadline=None)
@given(st.tuples(GRID_PARTS, GRID_PARTS, GRID_PARTS))
def test_rho_curve_grid_fuzz_exits_0_or_1_with_strict_json(parts):
    with tempfile.TemporaryDirectory() as tmp:
        out_csv = os.path.join(tmp, "curve.csv")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(["rho-curve", "--config", "ap3", "--p", "5", "--restarts", "1",
                         "--deltas", ":".join(parts), "--out", out_csv])
        assert code in (0, 1)
        if code == 0:
            assert _strict_json(stdout.getvalue())["rows"] >= 1
        else:
            assert stdout.getvalue() == ""


@pytest.mark.parametrize("argv, code, err", [
    (["cs1", "--config", "ap3"], 0, ""),
    (["cs1", "--config", "mystery"], 1, "error: unknown config 'mystery'"),
    (["minimize", "--config", "ap3", "--p", "2305843009213693951", "--delta", "0.5"], 2,
     "budget exceeded: dual constraint lattice has 2305843009213693951 points"),
])
def test_module_run_exits_with_the_code_main_returns(argv, code, err):
    src = os.path.dirname(os.path.dirname(grouplim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "grouplim.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == code and proc.stderr.startswith(err)
    if code == 0:
        assert _strict_json(proc.stdout)["cs1"] == "yes"
    else:
        assert proc.stdout == ""


def test_hom_verify_bridge(capsys, dense_file, tmp_path):
    gpath = tmp_path / "triangle.json"
    gpath.write_text(json.dumps(Graph(3, ((0, 1), (1, 2), (0, 2))).to_json()))
    code, out = run(capsys, ["hom", "--graph", str(gpath), "--fn", dense_file,
                             "--verify-bridge"])
    assert code == 0
    payload, _ = parse(out)
    assert payload["ok"]


def test_converge_detects_cauchy_pullbacks(capsys, tmp_path):
    base = np.array([0.2, 0.9])
    paths = []
    for k in (2, 4, 8):
        G = make_group([k])
        f = DenseFn(G, base[np.arange(k) % 2].astype(np.complex128))
        p = tmp_path / f"seq{k}.json"
        p.write_text(json.dumps(f.to_json()))
        paths.append(str(p))
    code, out = run(capsys, ["converge", "--fns", ",".join(paths), "--tol", "0.01"])
    assert code == 0
    payload, _ = parse(out)
    assert payload["cauchy"] and payload["tail_index"] == 0


def test_config_file_supplies_defaults(capsys, tmp_path, dense_file):
    cfg = tmp_path / "batch.cfg"
    cfg.write_text("method = direct\n")
    code, out = run(capsys, ["--config-file", str(cfg), "u2", "--fn", dense_file])
    assert code == 0
    payload, _ = parse(out)
    assert payload["method"] == "direct"


def test_config_file_supplies_a_required_option(capsys, tmp_path, dense_file):
    cfg = tmp_path / "batch.cfg"
    cfg.write_text("seed = 3\n")
    code, out = run(capsys, ["--config-file", str(cfg), "round", "--fn", dense_file])
    assert code == 0
    assert parse(out)[1]["seed"] == 3


def test_config_file_values_are_checked_by_type_and_choices(capsys, tmp_path, dense_file):
    cfg = tmp_path / "batch.cfg"
    cfg.write_text("method = bogus\n")
    assert run(capsys, ["--config-file", str(cfg), "u2", "--fn", dense_file]) == (1, "")


def test_config_file_false_flag_stays_off(capsys, tmp_path, dense_file):
    doubled = tmp_path / "doubled.json"
    with open(dense_file) as fh:
        f = DenseFn.from_json(json.load(fh))
    doubled.write_text(json.dumps(DenseFn(f.group, 2 * f.values).to_json()))
    cfg = tmp_path / "batch.cfg"
    cfg.write_text("tight = false\n")
    argv = ["dist", "--lhs", dense_file, "--rhs", str(doubled)]
    brackets = [parse(run(capsys, pre + argv + post)[1])[0]
                for pre, post in (([], []), ([], ["--tight"]), (["--config-file", str(cfg)], []))]
    assert brackets[2] == brackets[0] != brackets[1]


def test_u2_of_a_value_whose_fourth_power_overflows_exits_0(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"group": {"moduli": [5]}, "values": [[1e100, 0.0]] * 5}))
    for method in ("fourier", "direct"):
        code, out = run(capsys, ["u2", "--fn", str(path), "--method", method])
        assert code == 0
        assert parse(out)[0]["u2"] == 1e100


def test_exit_code_validation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["dft", "--fn", str(bad)]) == 1
    capsys.readouterr()
    assert main(["density", "--config", "mystery", "--fn", str(bad)]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    # raw spectra: an elem coordinate of 1.9 and a declared l2 norm "x"
    one = {"group": {"moduli": [5]}, "entries": [{"elem": [1], "re": 1.0, "im": 0.0}]}
    (tmp_path / "one.json").write_text(json.dumps(one))
    for name, doc in (("elem", {**one, "entries": [{"elem": [1.9], "re": 1.0, "im": 0.0}]}),
                      ("l2", {**one, "l2": "x"})):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        code = main(["dist", "--raw-spectra", "--lhs", str(tmp_path / f"{name}.json"),
                     "--rhs", str(tmp_path / "one.json")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "") and captured.err.startswith("error:")


def test_exit_code_budget(capsys, tmp_path):
    rng = np.random.default_rng(0)
    paths = []
    for i in range(2):
        G = make_group([12])
        f = DenseFn(G, (rng.random(12) + 1j * rng.random(12)))
        p = tmp_path / f"b{i}.json"
        p.write_text(json.dumps(f.to_json()))
        paths.append(str(p))
    code = main(["dist", "--lhs", paths[0], "--rhs", paths[1], "--budget", "1"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("limit", [["--weight-cap", "0"], ["--weight-cap", "-3"],
                                   ["--budget", "0"], ["--budget", "-5"]])
def test_dist_rejects_bad_search_limits(capsys, tmp_path, dense_file, limit):
    G = make_group([6])
    other = tmp_path / "g.json"
    other.write_text(json.dumps(DenseFn(G, np.arange(1.0, 7.0) + 0j).to_json()))
    for rhs in (dense_file, str(other)):
        code, out = run(capsys, ["dist", "--lhs", dense_file, "--rhs", rhs] + limit)
        assert (code, out) == (1, "")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_converge_rejects_bad_tol(capsys, dense_file, tol):
    code, out = run(capsys, ["converge", "--fns", f"{dense_file},{dense_file}",
                             "--tol", tol])
    assert (code, out) == (1, "")


@pytest.mark.parametrize("limit", [["--weight-cap", "0"], ["--budget", "-5"],
                                   ["--weight-cap", "0", "--budget", "-5"]])
def test_converge_rejects_bad_search_limits_for_a_single_function(capsys, dense_file, limit):
    code, out = run(capsys, ["converge", "--fns", dense_file] + limit)
    assert (code, out) == (1, "")


def test_converge_checks_tol_before_the_table(capsys, monkeypatch, dense_file):
    def fail(*args, **kwargs):
        raise AssertionError("table built before --tol was checked")

    monkeypatch.setattr(sequences, "pairwise_table", fail)
    code, out = run(capsys, ["converge", "--fns", f"{dense_file},{dense_file}", "--tol", "-1"])
    assert (code, out) == (1, "")


def test_dist_on_huge_raw_spectra_exits_0_or_1_never_3(capsys, tmp_path):
    # |v|^2 overflows a float for both spikes
    paths = []
    for name, v in (("a", 1e200), ("b", 2e200)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"group": {"moduli": [5]},
                                    "entries": [{"elem": [1], "re": v, "im": 0.0}]}))
        paths.append(str(path))
    code = main(["dist", "--lhs", paths[0], "--rhs", paths[1], "--raw-spectra"])
    captured = capsys.readouterr()
    assert code in (0, 1)
    if code == 0:
        payload = _strict_json(captured.out)
        assert 0.0 <= payload["lo"] <= payload["hi"]
    else:
        assert captured.out == "" and captured.err.startswith("error:")


def test_dist_on_a_value_whose_square_overflows_exits_0(capsys, tmp_path, dense_file):
    values = [[0.1 * i, 0.0] for i in range(8)]
    values[3] = [1e307, 0.0]
    path = tmp_path / "spike.json"
    path.write_text(json.dumps({"group": {"moduli": [8]}, "values": values}))
    for tight in ([], ["--tight"]):
        code, out = run(capsys, ["dist", "--lhs", str(path), "--rhs", dense_file] + tight)
        assert code == 0
        payload = _strict_json(out)
        assert 0.0 < payload["lo"] <= payload["hi"] < math.inf


def test_density_with_a_coefficient_past_int64_exits_0(capsys, tmp_path, dense_file):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"forms": [[1, 0], [1, 10**400 - 1], [1, 2]]}))
    payloads = {}
    for method in ("brute", "mc", "fourier"):
        code, out = run(capsys, ["density", "--config", str(path), "--fn", dense_file,
                                 "--method", method])
        assert code == 0
        payloads[method] = _strict_json(out)
    exact = payloads["fourier"]["density"]["re"]
    assert payloads["brute"]["density"]["re"] == pytest.approx(exact, abs=1e-12)
    assert abs(payloads["mc"]["density"]["re"] - exact) <= 6 * payloads["mc"]["standard_error"]


def test_bad_seed_and_sample_count_exit_1(capsys, dense_file):
    mc = ["density", "--config", "ap3", "--fn", dense_file, "--method", "mc"]
    for argv in (["round", "--fn", dense_file, "--seed", "-1"],
                 ["minimize", "--config", "ap3", "--p", "5", "--delta", "0.5", "--seed", "-1"],
                 mc + ["--monte-carlo", "0"],
                 mc + ["--seed", "-1"]):
        assert main(argv) == 1
        assert capsys.readouterr().out == ""


def test_huge_sample_count_exits_2_before_drawing(capsys, monkeypatch, dense_file):
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: pytest.fail("drew samples"))
    argv = ["density", "--config", "ap3", "--fn", dense_file, "--method", "mc",
            "--monte-carlo", "1000000000000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "over budget" in captured.err


def test_non_finite_json_is_rejected(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"group": {"moduli": [2]}, "values": [[NaN, 0], [1, 0]]}')
    assert main(["u2", "--fn", str(path)]) == 1
    assert capsys.readouterr().out == ""


def test_non_finite_results_exit_1(capsys, monkeypatch, dense_file):
    # a result that overflowed is refused where its JSON or CSV is written
    far = DistBracket(1e307, math.inf)
    monkeypatch.setattr(spectral, "u2_fourier", lambda f: math.inf)
    monkeypatch.setattr(sequences, "pairwise_table",
                        lambda fs, **kw: [[DistBracket(0.0, 0.0), far], [far, DistBracket(0.0, 0.0)]])
    for argv in (["u2", "--fn", dense_file], ["converge", "--fns", f"{dense_file},{dense_file}"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "") and captured.err.startswith("error:")


# each file-reading option, as an argv around one path to a bad file
FILE_OPTIONS = {
    "--fn": lambda bad, good: ["dft", "--fn", bad],
    "--lhs": lambda bad, good: ["dist", "--lhs", bad, "--rhs", good],
    "--rhs": lambda bad, good: ["dist", "--lhs", good, "--rhs", bad],
    "--fns": lambda bad, good: ["converge", "--fns", f"{good},{bad}"],
    "--graph": lambda bad, good: ["hom", "--graph", bad, "--fn", good],
    "--config": lambda bad, good: ["cs1", "--config", bad],
    "--config-file": lambda bad, good: ["--config-file", bad, "u2", "--fn", good],
}


def _moduli_doc(moduli):
    return json.dumps({"group": {"moduli": moduli}, "values": [[1.0, 0.0]]}).encode()


BAD_FILES = {
    "directory": None,
    "byte_ff": b"\xff{}",
    "json_list": b"[1, 2]",
    "modulus_str": _moduli_doc(["x"]),
    "modulus_null": _moduli_doc([None]),
    "modulus_fraction": _moduli_doc([1.5]),
    "modulus_bool": _moduli_doc([True]),
    "config_fraction": b'{"forms": [[1, 0], [1, 1.5], [1, 2]]}',
    "graph_fraction": b'{"n": 2.7, "edges": [[0.5, 1]]}',
    # 1e309 parses to inf; 1e308 is finite, and its spectrum overflows
    "value_1e309": b'{"group": {"moduli": [2]}, "values": [[1e309, 0], [1, 0]]}',
    "value_1e308": b'{"group": {"moduli": [2]}, "values": [[1e308, 0], [1e308, 0]]}',
}


@pytest.mark.parametrize("bad_file", sorted(BAD_FILES))
@pytest.mark.parametrize("option", sorted(FILE_OPTIONS))
def test_unreadable_or_malformed_input_files_exit_1(capsys, tmp_path, dense_file,
                                                    option, bad_file):
    content = BAD_FILES[bad_file]
    path = tmp_path / "bad"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code = main(FILE_OPTIONS[option](str(path), dense_file))
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error:")


def _ints(lo, hi, *extra):
    """Integer arguments in [lo, hi] or among extra, as command-line text."""
    return st.one_of(st.integers(lo, hi), *map(st.just, extra)).map(str)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["minimize", "rho-curve"]),
    st.sampled_from(["ap3", "parallelogram"]),
    st.one_of(st.sampled_from(["2", "3", "5", "7", "11", "13", "x", "", "7.0"]), _ints(-3, 13)),
    st.one_of(st.floats(-0.5, 1.5).map(repr),
              st.sampled_from(["0", "1", "nan", "inf", "-0", "x"])),
    st.sampled_from(["0.1:0.9:0.4", "0:1:0.5", "0.5:0.5:0.1", "0.9:0.1:0.1", "nan:1:0.5", "x"]),
    _ints(-2, 3),
    _ints(-3, 40, 3000, -(2**70)),
    _ints(-2, 5, 2**64, 2**108 - 1, 2**108, 2**128, -(2**70)),
)
def test_minimize_and_rho_curve_fuzz_exit_0_1_or_2_with_strict_json(
        command, config, p, delta, deltas, restarts, max_iter, seed):
    argv = [command, "--config", config, "--p", p, "--restarts", restarts, "--seed", seed]
    with tempfile.TemporaryDirectory() as tmp:
        if command == "minimize":
            argv += ["--delta", delta, "--max-iter", max_iter]
        else:
            argv += ["--deltas", deltas, "--out", os.path.join(tmp, "curve.csv")]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        _strict_json(stdout.getvalue())
    else:
        assert stdout.getvalue() == ""


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Small input files for the all-subcommand fuzz, by name."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(21)
    docs = {
        "spectrum": {"group": {"moduli": [5]},
                     "entries": [{"elem": [1], "re": 0.5, "im": 0.0},
                                 {"elem": [2], "re": 0.25, "im": 0.1}]},
        "triangle": Graph(3, ((0, 1), (1, 2), (0, 2))).to_json(),
        "edge": Graph(2, ((0, 1),)).to_json(),
        "config": {"forms": [[1, 0], [1, 1], [1, 2]]},
        "bad": "{not json",
        "nan": '{"group": {"moduli": [2]}, "values": [[NaN, 0], [1, 0]]}',
        "huge": {"group": {"moduli": [5]}, "values": [[1e308, 0.0]] * 5},
        # |1e307|^2 overflows, so its L2 norm is taken scaled
        "spike": {"group": {"moduli": [8]},
                  "values": [[1e307 if i == 3 else 0.1 * i, 0.0] for i in range(8)]},
        "batch": "seed = 3\nrestarts = 1\n",
    }
    for moduli in ([5], [8], [2, 3]):
        G = make_group(moduli)
        docs["z" + "x".join(map(str, moduli))] = DenseFn(G, rng.random(G.order) + 0j).to_json()
    paths = {}
    for name, doc in docs.items():
        path = root / f"{name}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        paths[name] = str(path)
    return paths


def _pick(good, bad=()):
    """One of the good values three times as often as one of the bad."""
    return st.sampled_from(list(good) * 3 + list(bad))


def _opt(flag, values):
    """[] or [flag, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _req(flag, values):
    return values.map(lambda v: [flag, v])


def _flag(flag):
    return st.sampled_from([[], [flag]])


@st.composite
def _command_argv(draw, files, command):
    dense = [files[n] for n in ("z5", "z8", "z2x3")]
    fn = _pick(dense, [files["bad"], files["nan"], files["huge"], files["spike"], "absent"])
    config = _pick(["ap3", "parallelogram", "graph:0-1,1-2,2-0", files["config"]],
                   ["graph:0-1", "mystery", files["bad"]])
    seed = st.one_of(_ints(0, 4), _pick([], ["-1", str(2**64), str(2**112)]))
    p = _pick(["2", "5", "7", "31"], ["4", "1", "0", "-3", "x"])
    fraction = st.one_of(st.floats(0, 1).map(repr), st.floats(-0.5, 1.5).map(repr),
                         st.sampled_from(["nan", "inf", "x"]))
    restarts = _pick(["0", "1", "2"], ["-1"])
    cap, budget = _pick(["1", "3", "12"], ["0", "-1"]), _pick(["1", "3", "200"], ["0", "-1"])
    out = st.sampled_from(["OUT_FILE", "OUT_FILE", "OUT_DIR", "OUT_MISSING"])
    raw = draw(st.booleans())
    pair = _pick([files["spectrum"]], dense) if raw else fn
    options = {
        "dft": [_req("--fn", fn)],
        "u2": [_req("--fn", fn), _opt("--method", _pick(["fourier", "direct"], ["x"]))],
        "dist": [_req("--lhs", pair), _req("--rhs", pair),
                 st.just(["--raw-spectra"] if raw else []), _flag("--tight"),
                 _opt("--weight-cap", cap), _req("--budget", budget)],
        "density": [_req("--config", config), _req("--fn", fn),
                    _opt("--method", _pick(["brute", "fourier", "mc"], ["x"])),
                    _req("--monte-carlo", _pick(["1", "50"], ["0", "-1", "1000000000000"])),
                    _opt("--seed", seed)],
        "cs1": [_req("--config", config)],
        "round": [_req("--fn", fn), _req("--seed", seed),
                  _opt("--best-of", _pick(["1", "4"], ["0", "-1", str(2**16 + 1)])),
                  _opt("--target-density", fraction)],
        "minimize": [_req("--config", config), _req("--p", p), _req("--delta", fraction),
                     _req("--restarts", restarts), _opt("--seed", seed),
                     _req("--max-iter", _pick(["0", "5", "30"], ["-1"])), _flag("--unsafe-group")],
        "rho-curve": [_req("--config", config), _req("--p", p),
                      _opt("--deltas", _pick(["0.1:0.9:0.4", "0:1:0.5", "0.5:0.5:0.1"],
                                             ["0.9:0.1:0.1", "x"])),
                      _req("--restarts", restarts), _opt("--seed", seed), _opt("--out", out)],
        "hom": [_req("--graph", _pick([files["triangle"], files["edge"]], [files["bad"]])),
                _req("--fn", fn), _flag("--verify-bridge")],
        "converge": [_req("--fns", _pick([",".join(dense[:2]), ",".join(dense + dense[1:2]),
                                          dense[0].replace("z5", "z*")],
                                         [f"{dense[0]},{files['bad']}", "nomatch*"])),
                     _opt("--metric", _pick(["d", "dprime"], ["x"])),
                     _opt("--tol", _pick(["0.1", "0"], ["-1", "nan", "inf"])),
                     _opt("--weight-cap", cap), _req("--budget", budget), _opt("--out", out)],
    }
    argv = draw(_pick([[]], [["--config-file", files["batch"]]])) + [command]
    for part in options[command]:
        argv += draw(part)
    return argv


@pytest.mark.parametrize("command", sorted(cli_module.COMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_subcommand_fuzz_exits_0_1_or_2_with_strict_json(fuzz_inputs, command, data):
    argv = data.draw(_command_argv(fuzz_inputs, command))
    with tempfile.TemporaryDirectory() as tmp:
        outs = {"OUT_FILE": os.path.join(tmp, "out.csv"), "OUT_DIR": tmp,
                "OUT_MISSING": os.path.join(tmp, "missing", "out.csv")}
        argv = [outs.get(arg, arg) for arg in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
    lines = stdout.getvalue().splitlines()
    if code != 0:
        assert lines == []
    elif command == "rho-curve" and "--out" not in argv:
        assert lines[0] == "delta,value,grad_norm,monotone_ok" and len(lines) >= 2
        for line in lines[1:]:
            delta, value, grad_norm, monotone_ok = line.split(",")
            assert all(math.isfinite(float(x)) for x in (delta, value, grad_norm))
            assert monotone_ok in ("True", "False")
    else:
        assert len(lines) == 1
        meta = _strict_json(lines[0])["meta"]
        assert meta["version"] and meta["timing_s"] >= 0
