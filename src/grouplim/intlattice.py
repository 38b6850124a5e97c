"""Exact integer linear algebra.  One routine, relation_lattice_basis,
answers every lattice question of the package: the relations among spectrum
supports (the metric) and among a configuration's forms in (Z_m)^n (its
dual lattice mod m) or in Z^n (over Z).  The column reductions run on plain
Python ints (no overflow) and on tiny dimensions.
"""

from __future__ import annotations

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


def relation_lattice_basis(elems: Sequence[Elem], group: GroupSpec) -> list[list[int]]:
    """Generators of {c in Z^k : sum_i c_i * g_i = 0 in the group}: the
    projections onto the first k coordinates of the integer kernel of
    [rows | diag(moduli)], one row per coordinate and no column for a free
    factor, zero projections left out.  The transform's columns under the
    echelon form's zero columns span that kernel exactly."""
    k, moduli = len(elems), group.moduli
    aux = [i for i, m in enumerate(moduli) if m]
    rows = [[g[i] for g in elems] + [m if i == j else 0 for j in aux]
            for i, m in enumerate(moduli)]
    _, u, lead = _column_reduce(rows, k + len(aux), keep=k)
    return [list(v) for v in list(zip(*u))[lead:] if any(v)]


def rank(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank of the integer matrix with the given rows: the number of pivots
    of its column echelon form."""
    return _column_reduce(rows, ncols, keep=0)[2]


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


def triangular_basis(basis: Sequence[Sequence[int]]) -> list[list[int]]:
    """Column echelon form of the basis vectors as columns, a basis of the
    same lattice.  A lattice of relations mod m holds mZ^k, so this is
    lower-triangular k x k with diagonal entries d_j dividing m."""
    return _column_reduce(list(zip(*basis)), len(basis), keep=0)[0]


def lattice_points_mod(tri: Sequence[Sequence[int]], m: int) -> np.ndarray:
    """The points of L / mZ^k, L the lattice with the triangular basis tri,
    in lexicographic order as a (prod_j m / |d_j|, k) int64 array.

    The points are the sums sum_j c_j col_j mod m over the columns of tri,
    scaled to d_j > 0, each c_j running over any m / d_j consecutive
    integers: one broadcast per column.  Column j leaves the coordinates
    before j alone, and each row's run starts where its coordinate j lies
    in [0, d_j), so the rows come out sorted.  Products stay below m^2:
    int64 for m < 2^31, Python ints above."""
    k = len(tri)
    dtype = np.int64 if m < 2**31 else object
    sols = np.zeros((1, k), dtype=dtype)
    for j in range(k):
        d = abs(tri[j][j])
        if d == m:
            continue  # c_j = 0: the coordinates before fix coordinate j
        col = np.array([tri[i][j] * d // tri[j][j] % m for i in range(k)], dtype=dtype)
        sols -= (sols[:, j] // d)[:, None] * col
        sols = sols[:, None, :] + np.arange(m // d, dtype=dtype)[:, None] * col
        sols %= m
        sols = sols.reshape(-1, k)
    return sols.astype(np.int64, copy=False)
