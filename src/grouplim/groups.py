"""Exact arithmetic and enumeration for finitely generated abelian groups.

A group is Z^r x prod Z_{m_j}, encoded by its list of moduli: an entry 0
stands for an infinite cyclic factor Z, an entry m >= 1 for Z_m.  Elements
are integer coordinate vectors stored in reduced form (coordinate j taken
mod m_j whenever m_j >= 1), so equality and hashing are structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import UnsupportedError, ValidationError, check_int

Elem = tuple[int, ...]


@dataclass(frozen=True)
class GroupSpec:
    """A finitely generated abelian group given by its moduli vector."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if not self.moduli:
            raise ValidationError("moduli list must be non-empty")
        if any(not isinstance(m, int) or m < 0 for m in self.moduli):
            raise ValidationError(f"moduli must be integers >= 0, got {self.moduli}")

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def is_finite(self) -> bool:
        return all(m >= 1 for m in self.moduli)

    @property
    def order(self) -> int:
        if not self.is_finite:
            raise UnsupportedError(f"group {self} is infinite")
        return math.prod(self.moduli)

    def dual(self) -> "GroupSpec":
        """Dual group.  Finite abelian groups are self-dual; the compact
        duals of Z^k are never materialized, so infinite moduli pass
        through unchanged (the spectrum simply lives on the same discrete
        labels)."""
        return self

    # -- element arithmetic -------------------------------------------------

    def reduce(self, coords: Sequence[int]) -> Elem:
        if len(coords) != len(self.moduli):
            raise ValidationError(
                f"coordinate length {len(coords)} != group rank {len(self.moduli)}"
            )
        return tuple(
            int(c) % m if m >= 1 else int(c) for c, m in zip(coords, self.moduli)
        )

    def zero(self) -> Elem:
        return (0,) * len(self.moduli)

    def add(self, g: Elem, h: Elem) -> Elem:
        self._check(g)
        self._check(h)
        return tuple(
            (a + b) % m if m >= 1 else a + b
            for a, b, m in zip(g, h, self.moduli)
        )

    def neg(self, g: Elem) -> Elem:
        self._check(g)
        return tuple(-a % m if m >= 1 else -a for a, m in zip(g, self.moduli))

    def scale(self, k: int, g: Elem) -> Elem:
        self._check(g)
        return tuple(k * a % m if m >= 1 else k * a for a, m in zip(g, self.moduli))

    def signed_combination(self, coeffs: Sequence[int], elems: Sequence[Elem]) -> Elem:
        """Sum of c_i * g_i, the abelian reduction of a signed word."""
        if len(coeffs) != len(elems):
            raise ValidationError("coeffs and elems must have equal length")
        acc = [0] * len(self.moduli)
        for c, g in zip(coeffs, elems):
            self._check(g)
            for j in range(len(acc)):
                acc[j] += c * g[j]
        return self.reduce(acc)

    def is_zero(self, g: Elem) -> bool:
        return all(a == 0 for a in g)

    def _check(self, g: Elem):
        if len(g) != len(self.moduli):
            raise ValidationError(
                f"element length {len(g)} != group rank {len(self.moduli)}"
            )

    # -- enumeration (finite groups only) ------------------------------------

    def elements(self) -> Iterator[Elem]:
        """All elements in mixed-radix order (first coordinate most
        significant); index_of/elem_at and their vectorized forms
        flat_index/coord_array expose the same bijection."""
        if not self.is_finite:
            raise UnsupportedError("cannot enumerate an infinite group")

        def rec(j: int, prefix: tuple[int, ...]) -> Iterator[Elem]:
            if j == len(self.moduli):
                yield prefix
                return
            for c in range(self.moduli[j]):
                yield from rec(j + 1, prefix + (c,))

        return rec(0, ())

    def index_of(self, g: Elem) -> int:
        self._check(g)
        idx = 0
        for c, m in zip(g, self.moduli):
            if m < 1:
                raise UnsupportedError("cannot index elements of an infinite group")
            idx = idx * m + (c % m)
        return idx

    def elem_at(self, idx: int) -> Elem:
        if not self.is_finite:
            raise UnsupportedError("cannot index elements of an infinite group")
        coords = []
        for m in reversed(self.moduli):
            idx, c = divmod(idx, m)
            coords.append(c)
        return tuple(reversed(coords))

    def coord_array(self) -> np.ndarray:
        """Coordinates of every element, shape (order, rank), row i being
        elem_at(i)."""
        if not self.is_finite:
            raise UnsupportedError("cannot index elements of an infinite group")
        return np.stack(np.unravel_index(np.arange(self.order), self.moduli), axis=-1)

    def flat_index(self, coords) -> np.ndarray:
        """Vectorized index_of: the trailing axis of coords holds element
        coordinates, each reduced mod its modulus (negative ones too)."""
        if not self.is_finite:
            raise UnsupportedError("cannot index elements of an infinite group")
        coords = np.asarray(coords, dtype=np.int64)
        return np.ravel_multi_index(tuple(np.moveaxis(coords, -1, 0)), self.moduli,
                                    mode="wrap")

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"moduli": list(self.moduli)}

    @classmethod
    def from_json(cls, obj: dict) -> "GroupSpec":
        try:
            moduli = obj["moduli"]
        except (KeyError, TypeError):
            raise ValidationError("group JSON must be an object with a 'moduli' key")
        return make_group(moduli)

    def __str__(self):
        parts = ["Z" if m == 0 else f"Z_{m}" for m in self.moduli]
        return " x ".join(parts)


def make_group(moduli: Sequence[int]) -> GroupSpec:
    """Validate and build a GroupSpec from a list of moduli."""
    if not isinstance(moduli, (list, tuple)):
        raise ValidationError("moduli must be a list of integers")
    return GroupSpec(tuple(check_int(m, "moduli") for m in moduli))
