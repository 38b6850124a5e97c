"""Graph homomorphism densities for kernels on finite abelian groups and
the Cayley-kernel identity t(H, W_f) = t(L_H, f)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetError, ValidationError, check_int
from .functions import DenseFn
from .groups import GroupSpec
from .linconfig import DENSITY_BUDGET, density_brute, graph_config, mean_over_assignments

KERNEL_MAX_ORDER = 256


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("graph needs at least one vertex")
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValidationError(f"loop at vertex {i} not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValidationError(f"edge ({i},{j}) out of range")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValidationError(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, obj: dict) -> "Graph":
        try:
            return cls(check_int(obj["n"], "n"),
                       tuple((check_int(i, "vertices"), check_int(j, "vertices"))
                             for i, j in obj["edges"]))
        except (KeyError, TypeError, ValueError):
            raise ValidationError("graph JSON needs 'n' and 'edges': [[i, j], ...]")


@dataclass
class Kernel:
    """Symmetric kernel on a finite abelian group, stored densely."""

    group: GroupSpec
    matrix: np.ndarray

    def __post_init__(self):
        n = self.group.order
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.shape != (n, n):
            raise ValidationError(f"kernel matrix must be {n}x{n}")
        if np.max(np.abs(mat - mat.T), initial=0.0) > 1e-12:
            raise ValidationError("kernel matrix must be symmetric")
        self.matrix = mat


def cayley_kernel(f: DenseFn) -> Kernel:
    """W(x, y) = f(x + y); symmetric because the group is abelian."""
    G = f.group
    n = G.order
    if n > KERNEL_MAX_ORDER:
        raise BudgetError(
            f"group order {n} exceeds kernel guard {KERNEL_MAX_ORDER}; "
            "use the configuration-density route instead"
        )
    coords = G.coord_array()
    add_idx = G.flat_index(coords[:, None, :] + coords[None, :, :])
    return Kernel(G, f.values[add_idx])


def hom_density(H: Graph, W: Kernel, budget: int = DENSITY_BUDGET) -> complex:
    """Average over all vertex maps into the group of the product of
    kernel values along the edges.  A map holds at most 2n + 5 int64-sized
    entries: its flat and vertex indices, and either the vertex indices'
    unstacked copy or the complex product and one edge's gathered values."""
    def products(var_idx):
        prod = np.ones(len(var_idx), dtype=np.complex128)
        for i, j in H.edges:
            prod *= W.matrix[var_idx[:, i], var_idx[:, j]]
        return prod

    return mean_over_assignments(W.group.order, H.n, 2 * H.n + 5, products, budget)


def verify_bridge(H: Graph, f: DenseFn, tol: float = 1e-9) -> dict:
    """Compute t(H, W_f) and t(L_H, f) and check they agree.

    L_H is the configuration {x_i + x_j : (i,j) an edge of H}."""
    if not H.edges:
        raise ValidationError("bridge check needs a graph with at least one edge")
    lhs = hom_density(H, cayley_kernel(f))
    rhs = density_brute(graph_config(list(H.edges), nvars=H.n), f)
    diff = abs(lhs - rhs)
    return {"hom_density": lhs, "config_density": rhs, "abs_diff": diff, "ok": diff <= tol,
            "tol": tol}
