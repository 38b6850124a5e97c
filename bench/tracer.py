"""In-memory span recorder that times grouplim's layers from outside.

Tracing works by replacing public callables with timing wrappers: each
target is looked up on its defining module, and every attribute of every
loaded ``grouplim`` module that refers to the same object (the names other
modules imported) is swapped for the wrapper.  Methods are wrapped on their
class.  No file of the package is modified.  A target that no longer exists
is recorded as absent instead of raising, so a refactor that deletes a name
shows up in the report rather than breaking the benchmark.
"""

from __future__ import annotations

import csv
import functools
import importlib
import json
import sys
import time
from typing import Callable, Optional


def _index_table_bytes(result, args) -> int:
    # computed from the array shape, not measured: total tuples x forms x itemsize
    idx = args[0].form_idx
    return int(idx.size) * int(idx.itemsize)


def _table_cells(result, args) -> list[int]:
    # [cells computed, cells left None by BudgetError]; the diagonal is free
    n = len(result)
    return [n * (n - 1) // 2, sum(result[i][j] is None for i in range(n) for j in range(i + 1, n))]


# (span name, module, attribute or Class.method, describe(result, args) -> info)
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("spectral.dft", "grouplim.spectral", "dft", None),
    ("spectral.u2_direct", "grouplim.spectral", "u2_direct", None),
    ("spectral.u2_fourier", "grouplim.spectral", "u2_fourier", None),
    ("metric.dhat", "grouplim.metric", "dhat", None),
    ("metric.exists_eps_iso", "grouplim.metric", "exists_eps_iso",
     lambda res, args: res is not None),
    ("sequences.pairwise_table", "grouplim.sequences", "pairwise_table", _table_cells),
    ("linconfig.DensityEvaluator.__init__", "grouplim.linconfig", "DensityEvaluator.__init__",
     _index_table_bytes),
    ("linconfig.DensityEvaluator.value", "grouplim.linconfig", "DensityEvaluator.value", None),
    ("linconfig.DensityEvaluator.gradient_single", "grouplim.linconfig",
     "DensityEvaluator.gradient_single", None),
    ("linconfig.density_brute", "grouplim.linconfig", "density_brute", None),
    ("linconfig.density_fourier", "grouplim.linconfig", "density_fourier", None),
    ("linconfig.density_monte_carlo", "grouplim.linconfig", "density_monte_carlo", None),
    ("linconfig.dual_constraint_solutions", "grouplim.linconfig", "dual_constraint_solutions",
     lambda res, args: len(res)),
    ("linconfig.cs_complexity_at_most_1", "grouplim.linconfig", "cs_complexity_at_most_1", None),
    ("extremal.minimize_density", "grouplim.extremal", "minimize_density", None),
    ("extremal.project_box_mean", "grouplim.extremal", "project_box_mean", None),
    ("extremal._pgd", "grouplim.extremal", "_pgd", None),
    ("rounding.round_best_of", "grouplim.rounding", "round_best_of", None),
    ("rounding.randomized_round", "grouplim.rounding", "randomized_round", None),
    ("rounding.adjust_density", "grouplim.rounding", "adjust_density", None),
    ("graphon.cayley_kernel", "grouplim.graphon", "cayley_kernel", None),
    ("graphon.hom_density", "grouplim.graphon", "hom_density", None),
]

SPAN_FIELDS = ("name", "start", "end", "parent", "task", "outcome", "info")


class Tracer:
    """Spans are tuples (name, start, end, parent index, task id, outcome,
    info) kept in a list; ``parent`` is the index of the enclosing span or
    -1.  ``outcome`` is ok, budget (BudgetError), error, or absent for a
    target that could not be found (a zero-length marker span)."""

    def __init__(self):
        self.spans: list[Optional[tuple]] = []
        self.stack: list[int] = []
        self.task: object = None

    def record(self, name: str, start: float, end: float, info=None):
        """Add a span measured elsewhere (e.g. an import timed by hand)."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, start, end, parent, self.task, "ok", info))

    def mark_absent(self, name: str):
        self.spans.append((name, 0.0, 0.0, -1, None, "absent", None))

    def wrap(self, name: str, fn: Callable, describe: Optional[Callable] = None) -> Callable:
        # imported here, not at module level, so that importing the tracer
        # does not import grouplim ahead of the timed ``cli.import`` span
        from grouplim.errors import BudgetError

        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outcome, info = "error", None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BudgetError:
                outcome = "budget"
                raise
            else:
                outcome = "ok"
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                # described after the clock stops, so the span times only fn
                if outcome == "ok" and describe is not None:
                    info = describe(result, args)
                spans[idx] = (name, start, end, parent, self.task, outcome, info)

        return traced

    def install(self):
        """Wrap every target in all loaded grouplim modules."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "grouplim" or k.startswith("grouplim."))]
        for name, modname, attr, describe in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.mark_absent(name)
                continue
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            orig = getattr(owner, member, None) if owner is not None else None
            if orig is None:
                self.mark_absent(name)
                continue
            wrapped = self.wrap(name, orig, describe)
            if owner_name:
                setattr(owner, member, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)


def dump_spans(spans: list[tuple], path: str):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SPAN_FIELDS)
        for span in spans:
            writer.writerow(span[:6] + (json.dumps(span[6]),))


def load_spans(path: str) -> list[tuple]:
    """Read spans written by ``Tracer.dump`` back as tuples."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append((row["name"], float(row["start"]), float(row["end"]), int(row["parent"]),
                        row["task"], row["outcome"], json.loads(row["info"])))
    return out
