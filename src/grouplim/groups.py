"""Exact arithmetic and enumeration for finitely generated abelian groups.

A group is Z^r x prod Z_{m_j}, encoded by its list of moduli: an entry 0
stands for an infinite cyclic factor Z, an entry m >= 1 for Z_m.  Elements
are integer coordinate vectors stored in reduced form (coordinate j taken
mod m_j whenever m_j >= 1), so equality and hashing are structural.
"""

from __future__ import annotations

import itertools
import math
import operator
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
        return self.signed_combination((1, 1), (g, h))

    def neg(self, g: Elem) -> Elem:
        return self.signed_combination((-1,), (g,))

    def scale(self, k: int, g: Elem) -> Elem:
        return self.signed_combination((k,), (g,))

    def signed_combination(self, coeffs: Sequence[int], elems: Sequence[Elem]) -> Elem:
        """Sum of c_i * g_i, the abelian reduction of a signed word."""
        if len(coeffs) != len(elems):
            raise ValidationError(
                f"need as many coeffs as elems, got {len(coeffs)} and {len(elems)}")
        return self.reduce(list(_column_sums(coeffs, self.columns(elems))))

    def columns(self, elems: Sequence[Elem]) -> list[tuple[int, ...]]:
        """The coordinates of elems, one tuple per factor; every element
        must have the group's rank."""
        rank = len(self.moduli)
        if any(len(g) != rank for g in elems):
            raise ValidationError(f"every element must have length {rank}")
        return list(zip(*elems)) if elems else [()] * rank

    def combination_is_zero(self, coeffs: Sequence[int], cols: Sequence[Sequence[int]]) -> bool:
        """True iff sum_i c_i * g_i is zero, the g_i given by their columns
        (see columns): each coordinate's sum is 0 mod its modulus, or
        exactly 0 for a free factor.  Nothing is reduced."""
        if cols and len(cols[0]) != len(coeffs):
            raise ValidationError(f"need as many coeffs as elems, got {len(coeffs)} "
                                  f"and {len(cols[0])}")
        for col, m in zip(cols, self.moduli):
            s = sum(map(operator.mul, coeffs, col))
            if s % m if m else s:
                return False
        return True

    def is_zero(self, g: Elem) -> bool:
        return all(a == 0 for a in g)

    # -- enumeration (finite groups only) ------------------------------------

    def elements(self) -> Iterator[Elem]:
        """All elements in mixed-radix order (first coordinate most
        significant); index_of/elem_at and their vectorized forms
        flat_index/coord_array expose the same bijection."""
        if not self.is_finite:
            raise UnsupportedError("cannot enumerate an infinite group")
        return itertools.product(*map(range, self.moduli))

    def index_of(self, g: Elem) -> int:
        return int(self.flat_index(self.reduce(g)))

    def elem_at(self, idx: int) -> Elem:
        """Inverse of index_of, decoded as coord_array does; an index
        outside [0, order) is refused, not wrapped."""
        if not 0 <= idx < self.order:
            raise ValidationError(f"element index must lie in [0, {self.order}), got {idx}")
        return tuple(map(int, np.unravel_index(idx, self.moduli)))

    def coord_array(self) -> np.ndarray:
        """Coordinates of every element, shape (order, rank), row i being
        elem_at(i)."""
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


def _column_sums(coeffs: Sequence[int], cols: Sequence[Sequence[int]]) -> Iterator[int]:
    """The unreduced coordinates sum_i c_i * col_i of a combination."""
    return (sum(map(operator.mul, coeffs, col)) for col in cols)


def make_group(moduli: Sequence[int]) -> GroupSpec:
    """Validate and build a GroupSpec from a list of moduli."""
    if not isinstance(moduli, (list, tuple)):
        raise ValidationError("moduli must be a list of integers")
    return GroupSpec(tuple(check_int(m, "moduli") for m in moduli))
