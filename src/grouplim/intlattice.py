"""Exact integer linear algebra helpers: kernel lattices of integer
matrices and relation lattices of element tuples in f.g. abelian groups.

The reductions run on plain Python ints (no overflow) and on the tiny
dimensions that show up in partial-isomorphism checks and dual constraint
solving, so a straightforward column-reduction is all that is needed.
One echelon basis both counts and enumerates a solution group mod m.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .groups import Elem, GroupSpec


def _column_reduce(rows: Sequence[Sequence[int]], ncols: int,
                   keep: int | None = None) -> tuple[list, list, int]:
    """Column echelon form E = A U of the integer matrix A with the given
    rows, the first keep rows (default all) of the unimodular U, and the
    rank lead: every entry right of a row's pivot is zero and pivots move
    right row by row, so E's zero columns are those from lead on, and a
    square A of full rank gives a lower-triangular E."""
    a = [list(map(int, r)) for r in rows]
    nrows = len(a)
    u = [[int(i == j) for j in range(ncols)] for i in range(ncols if keep is None else keep)]

    def addmul_col(j, k, q):
        # column j += q * column k, in both a and u
        for i in range(nrows):
            a[i][j] += q * a[i][k]
        for row in u:
            row[j] += q * row[k]

    def swap_col(j, k):
        for i in range(nrows):
            a[i][j], a[i][k] = a[i][k], a[i][j]
        for row in u:
            row[j], row[k] = row[k], row[j]

    lead = 0
    for r in range(nrows):
        if lead >= ncols:
            break
        # euclidean elimination across columns lead..ncols-1 on row r
        while True:
            nz = [j for j in range(lead, ncols) if a[r][j] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda j: abs(a[r][j]))
            if piv != lead:
                swap_col(lead, piv)
            done = True
            for j in range(lead + 1, ncols):
                if a[r][j] != 0:
                    q = a[r][j] // a[r][lead]
                    addmul_col(j, lead, -q)
                    if a[r][j] != 0:
                        done = False
            if done:
                break
        if a[r][lead] != 0:
            lead += 1
    return a, u, lead


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of {x in Z^ncols : M x = 0} for the integer matrix with the
    given rows: the columns of the transform under the zeroed-out columns
    of the column echelon form span the kernel lattice exactly."""
    _, u, lead = _column_reduce(rows, ncols)
    return list(map(list, zip(*u)))[lead:]


def _lattice_mod(rows: Sequence[Sequence[int]], k: int, moduli: Sequence[int]) -> list[list[int]]:
    """Generators of {r in Z^k : row_i . r = 0 mod moduli[i] for every i},
    where modulus 0 means equality in Z: the projections onto the first k
    coordinates of the integer kernel of [rows | diag(moduli)], the zero
    columns of modulus 0 left out."""
    aux = [i for i, m in enumerate(moduli) if m]
    full_rows = [list(row) + [moduli[i] if i == j else 0 for j in aux]
                 for i, row in enumerate(rows)]
    _, u, lead = _column_reduce(full_rows, k + len(aux), keep=k)
    return list(map(list, zip(*u)))[lead:]


def relation_lattice_basis(elems: Sequence[Elem], group: GroupSpec) -> list[list[int]]:
    """Generators of {c in Z^k : sum_i c_i * g_i = 0 in the group}.

    Built as the lattice of the congruence system with one row per
    coordinate of the group."""
    rows = [[g[j] for g in elems] for j in range(group.rank)]
    return [v for v in _lattice_mod(rows, len(elems), group.moduli) if any(v)]


def relations_match(
    elems1: Sequence[Elem],
    g1: GroupSpec,
    elems2: Sequence[Elem],
    g2: GroupSpec,
) -> bool:
    """True iff the relation lattices of the two element tuples coincide,
    i.e. the pairing g_i -> h_i extends to an isomorphism of the generated
    subgroups.

    Each basis relation of one side is checked on the other with
    GroupSpec.combination_is_zero, one integer sum per coordinate."""
    if len(elems1) != len(elems2):
        return False
    cols1, cols2 = g1.columns(elems1), g2.columns(elems2)
    return all(gb.combination_is_zero(c, cols)
               for ea, ga, gb, cols in ((elems1, g1, g2, cols2), (elems2, g2, g1, cols1))
               for c in relation_lattice_basis(ea, ga))


def _echelon_mod(rows: Sequence[Sequence[int]], k: int, m: int) -> list[list[int]]:
    """Lower-triangular basis, as the columns of a k x k matrix, of the
    solution lattice L of (rows) r = 0 mod m.  L contains mZ^k, so each
    diagonal entry d_j divides m."""
    basis = _lattice_mod(rows, k, [m] * len(rows))
    return _column_reduce([[v[i] for v in basis] for i in range(k)], k, keep=0)[0]


def kernel_mod_m_size(rows: Sequence[Sequence[int]], k: int, m: int) -> int:
    """len(kernel_mod_m(rows, k, m)) without the enumeration: the solutions
    are L / mZ^k, which has prod_j m / |d_j| elements."""
    ech = _echelon_mod(rows, k, m)
    return math.prod(m // abs(ech[j][j]) for j in range(k))


def kernel_mod_m(rows: Sequence[Sequence[int]], k: int, m: int) -> np.ndarray:
    """All solutions r in (Z_m)^k of (rows) r = 0 mod m, in lexicographic
    order, as a (count, k) int64 array.

    The solutions are the sums sum_j c_j col_j mod m over the columns of the
    lower-triangular basis, scaled to d_j > 0, each c_j running over any m / d_j
    consecutive integers: one broadcast per column.  Column j leaves the
    coordinates before j alone, and each row's run starts where its
    coordinate j lies in [0, d_j), so the rows come out sorted.  Products
    stay below m^2: int64 for m < 2^31, Python ints above."""
    ech = _echelon_mod(rows, k, m)
    dtype = np.int64 if m < 2**31 else object
    sols = np.zeros((1, k), dtype=dtype)
    for j in range(k):
        d = abs(ech[j][j])
        if d == m:
            continue  # c_j = 0: the coordinates before fix coordinate j
        col = np.array([ech[i][j] * d // ech[j][j] % m for i in range(k)], dtype=dtype)
        sols -= (sols[:, j] // d)[:, None] * col
        sols = sols[:, None, :] + np.arange(m // d, dtype=dtype)[:, None] * col
        sols %= m
        sols = sols.reshape(-1, k)
    return sols.astype(np.int64, copy=False)
