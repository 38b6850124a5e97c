"""The lazy package: each public name and submodule is imported on first
use, and a cold CLI call loads NumPy only for work that needs it."""
import importlib
import json
import os
import subprocess
import sys

import pytest

import grouplim


def _python(code: str) -> str:
    """stdout of code run in a fresh interpreter that finds this grouplim."""
    src = os.path.dirname(os.path.dirname(grouplim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_star_import_binds_the_defining_modules_objects():
    namespace = {}
    exec("from grouplim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(grouplim.__all__)
    for name, value in namespace.items():
        module = importlib.import_module(f"grouplim.{grouplim._EXPORTS[name]}")
        assert value is getattr(module, name)


def test_dir_lists_every_public_name():
    assert set(grouplim.__all__) <= set(dir(grouplim))


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        grouplim.no_such_name
    assert not hasattr(grouplim, "no_such_name")


def test_submodules_resolve_before_any_explicit_import():
    out = _python("import grouplim\n"
                  "print(grouplim.metric.dprime.__module__,"
                  " grouplim.extremal.rho_curve.__module__)")
    assert out.split() == ["grouplim.metric", "grouplim.extremal"]


def test_importing_the_cli_leaves_numpy_unloaded():
    assert _python("import sys, grouplim.cli\nprint('numpy' in sys.modules)").strip() == "False"


@pytest.mark.parametrize("argv", [
    ["round", "--fn", "FN", "--seed", "-1"],
    ["density", "--config", "ap3", "--fn", "FN", "--method", "mc", "--monte-carlo", "0"],
    ["round", "--fn", "FN", "--seed", "0", "--target-density", "2"],
    ["minimize", "--config", "ap3", "--p", "7", "--delta", "1.5"],
])
def test_an_out_of_range_option_exits_1_before_numpy_loads(tmp_path, argv):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"group": {"moduli": [4]}, "values": [[0.5, 0.0]] * 4}))
    argv = [str(fn) if arg == "FN" else arg for arg in argv]
    out = _python("import contextlib, io, sys\n"
                  "from grouplim.cli import main\n"
                  "with contextlib.redirect_stderr(io.StringIO()):\n"
                  f"    code = main({argv!r})\n"
                  "print(code, 'numpy' in sys.modules)")
    assert out.split() == ["1", "False"]
