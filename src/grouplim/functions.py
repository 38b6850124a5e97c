"""Function containers: dense value tables on finite groups and finitely
supported (sparse) functions on discrete f.g. abelian groups."""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import UnsupportedError, ValidationError, check_int
from .groups import Elem, GroupSpec


@dataclass
class DenseFn:
    """Complex function on a finite abelian group, stored as a full value
    table indexed in the group's enumeration order."""

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self):
        if not self.group.is_finite:
            raise UnsupportedError("DenseFn requires a finite group")
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.group.order,):
            raise ValidationError(
                f"value table has length {vals.shape}, group order is {self.group.order}"
            )
        if not np.isfinite(vals).all():
            raise ValidationError("function values must be finite")
        self.values = vals

    def __call__(self, g: Elem) -> complex:
        return complex(self.values[self.group.index_of(g)])

    def l2_norm(self) -> float:
        """L2 norm under normalized Haar measure: sqrt(E_x |f(x)|^2)."""
        return float(np.sqrt(np.mean(np.abs(self.values) ** 2)))

    def mean(self) -> complex:
        return complex(np.mean(self.values))

    def is_real(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.values.imag), initial=0.0) <= tol)

    def real_values(self) -> np.ndarray:
        return self.values.real.copy()

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "values": [[float(v.real), float(v.imag)] for v in self.values],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DenseFn":
        if not isinstance(obj, dict):
            raise ValidationError("dense function JSON must be an object")
        group = GroupSpec.from_json(obj.get("group", {}))
        try:
            vals = np.array(
                [complex(re, im) for re, im in obj["values"]], dtype=np.complex128
            )
        except (KeyError, TypeError, ValueError):
            raise ValidationError("dense function JSON needs 'values': [[re, im], ...]")
        return cls(group, vals)


def constant_fn(group: GroupSpec, c: complex) -> DenseFn:
    return DenseFn(group, np.full(group.order, c, dtype=np.complex128))


def indicator_fn(group: GroupSpec, subset) -> DenseFn:
    vals = np.zeros(group.order, dtype=np.complex128)
    for g in subset:
        vals[group.index_of(tuple(g))] = 1.0
    return DenseFn(group, vals)


@dataclass
class SparseFn:
    """Finitely supported complex function on a discrete f.g. abelian group.

    Entries with value 0 are never stored.  When the entries are a
    truncation of a longer spectrum, declared_l2 carries the full l2 norm
    and truncation the magnitude threshold below which entries were
    dropped.
    """

    group: GroupSpec
    entries: dict[Elem, complex] = field(default_factory=dict)
    declared_l2: Optional[float] = None
    truncation: float = 0.0

    def __post_init__(self):
        clean: dict[Elem, complex] = {}
        for g, v in self.entries.items():
            g = self.group.reduce(g)
            v = complex(v)
            if not cmath.isfinite(v):
                raise ValidationError(f"function values must be finite, got {v} at {g}")
            if v != 0:
                clean[g] = v
        self.entries = clean
        l2 = self.declared_l2
        if l2 is None:
            return
        if isinstance(l2, bool) or not isinstance(l2, numbers.Real) or not 0 <= l2 < math.inf:
            raise ValidationError(f"declared l2 norm must be a finite number >= 0, got {l2!r}")
        stored = self.stored_l2()
        if stored > l2 + 1e-9:
            raise ValidationError(f"stored l2 mass {stored} exceeds declared_l2 {l2}")

    def __call__(self, g: Elem) -> complex:
        return self.entries.get(self.group.reduce(g), 0.0 + 0.0j)

    def stored_l2(self) -> float:
        # hypot scales internally, so huge or tiny entries neither overflow
        # nor underflow when squared
        return math.hypot(*(abs(v) for v in self.entries.values()))

    def l2_norm(self) -> float:
        return self.declared_l2 if self.declared_l2 is not None else self.stored_l2()

    def to_json(self) -> dict:
        out = {
            "group": self.group.to_json(),
            "entries": [
                {"elem": list(g), "re": float(v.real), "im": float(v.imag)}
                for g, v in sorted(self.entries.items())
            ],
        }
        if self.declared_l2 is not None:
            out["l2"] = float(self.declared_l2)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SparseFn":
        if not isinstance(obj, dict):
            raise ValidationError("sparse function JSON must be an object")
        group = GroupSpec.from_json(obj.get("group", {}))
        entries: dict[Elem, complex] = {}
        try:
            for e in obj["entries"]:
                elem = tuple(check_int(c, "elem coordinates") for c in e["elem"])
                entries[elem] = complex(e["re"], e["im"])
        except (KeyError, TypeError, ValueError):
            raise ValidationError(
                "sparse function JSON needs 'entries': [{'elem', 're', 'im'}, ...]"
            )
        return cls(group, entries, declared_l2=obj.get("l2"))
