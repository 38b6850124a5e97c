"""Graph homomorphism densities for kernels on finite abelian groups and
the Cayley-kernel identity t(H, W_f) = t(L_H, f)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetError, ValidationError, check_int
from .functions import DenseFn
from .groups import GroupSpec
from .linconfig import density_brute, graph_config

KERNEL_MAX_ORDER = 256
HOM_BUDGET = 10**8
CHUNK = 1 << 16


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("graph needs at least one vertex")
        seen = set()
        norm = []
        for e in self.edges:
            i, j = e
            if i == j:
                raise ValidationError(f"loop at vertex {i} not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValidationError(f"edge ({i},{j}) out of range")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValidationError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

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


def hom_density(H: Graph, W: Kernel, budget: int = HOM_BUDGET) -> complex:
    """Average over all vertex maps into the group of the product of
    kernel values along the edges."""
    N = W.group.order
    # past budget's bit length, n is over budget, and N**n would hold n*log2(N) bits
    if N > 1 and H.n > budget.bit_length() or N**H.n > budget:
        raise BudgetError(f"|A|^n = {N}^{H.n} exceeds budget {budget}")
    total = N**H.n
    mat = W.matrix
    acc = 0.0 + 0.0j
    for start in range(0, total, CHUNK):
        flat = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        var_idx = np.unravel_index(flat, (N,) * H.n)
        prod = np.ones(len(flat), dtype=np.complex128)
        for i, j in H.edges:
            prod *= mat[var_idx[i], var_idx[j]]
        acc += np.sum(prod)
    return complex(acc / total)


def verify_bridge(H: Graph, f: DenseFn, tol: float = 1e-9) -> dict:
    """Compute t(H, W_f) and t(L_H, f) and check they agree.

    L_H is the configuration {x_i + x_j : (i,j) an edge of H}."""
    if not H.edges:
        raise ValidationError("bridge check needs a graph with at least one edge")
    lhs = hom_density(H, cayley_kernel(f))
    config = graph_config(list(H.edges), nvars=H.n)
    rhs = density_brute(config, f)
    diff = abs(lhs - rhs)
    report = {
        "hom_density": lhs,
        "config_density": rhs,
        "abs_diff": diff,
        "ok": diff <= tol,
        "tol": tol,
    }
    return report
