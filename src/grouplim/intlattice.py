"""Exact integer linear algebra helpers: kernel lattices of integer
matrices and relation lattices of element tuples in f.g. abelian groups.

Everything here runs on plain Python ints (no overflow) and on the tiny
dimensions that show up in partial-isomorphism checks and dual constraint
solving, so a straightforward column-reduction is all that is needed.
"""

from __future__ import annotations

from typing import Sequence

from .groups import Elem, GroupSpec


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of {x in Z^ncols : M x = 0} for the integer matrix with the
    given rows.  Column reduction with a unimodular transform: columns of
    the transform under zeroed-out columns of the reduced matrix span the
    kernel lattice exactly."""
    a = [list(map(int, r)) for r in rows]
    nrows = len(a)
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col(mat, j):
        return [mat[i][j] for i in range(len(mat))]

    def addmul_col(j, k, q):
        # column j += q * column k, in both a and u
        for i in range(nrows):
            a[i][j] += q * a[i][k]
        for i in range(ncols):
            u[i][j] += q * u[i][k]

    def swap_col(j, k):
        for i in range(nrows):
            a[i][j], a[i][k] = a[i][k], a[i][j]
        for i in range(ncols):
            u[i][j], u[i][k] = u[i][k], u[i][j]

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

    kernel = []
    for j in range(ncols):
        if all(a[i][j] == 0 for i in range(nrows)):
            kernel.append([u[i][j] for i in range(ncols)])
    return kernel


def relation_lattice_basis(elems: Sequence[Elem], group: GroupSpec) -> list[list[int]]:
    """Generators of {c in Z^k : sum_i c_i * g_i = 0 in the group}.

    Built as the projection (onto the c coordinates) of the integer kernel
    of the congruence system with one auxiliary unknown per finite
    coordinate."""
    k = len(elems)
    rows = []
    aux_cols = []
    for j, m in enumerate(group.moduli):
        row = [g[j] for g in elems]
        rows.append(row)
        if m >= 1:
            aux_cols.append((j, m))
    ncols = k + len(aux_cols)
    full_rows = []
    for j, row in enumerate(rows):
        aux = [0] * len(aux_cols)
        for a_idx, (jj, m) in enumerate(aux_cols):
            if jj == j:
                aux[a_idx] = m
        full_rows.append(row + aux)
    kernel = integer_kernel(full_rows, ncols)
    basis = [v[:k] for v in kernel]
    return [v for v in basis if any(v)]


def relations_match(
    elems1: Sequence[Elem],
    g1: GroupSpec,
    elems2: Sequence[Elem],
    g2: GroupSpec,
) -> bool:
    """True iff the relation lattices of the two element tuples coincide,
    i.e. the pairing g_i -> h_i extends to an isomorphism of the generated
    subgroups."""
    if len(elems1) != len(elems2):
        return False
    for c in relation_lattice_basis(elems1, g1):
        if not g2.is_zero(g2.signed_combination(c, elems2)):
            return False
    for c in relation_lattice_basis(elems2, g2):
        if not g1.is_zero(g1.signed_combination(c, elems1)):
            return False
    return True


def _lattice_mod_m(rows: Sequence[Sequence[int]], k: int, m: int) -> list[list[int]]:
    """Basis of the lattice {r in Z^k : (rows) r = 0 mod m}: the
    projections of the integer kernel of [rows | m*I], k vectors."""
    full_rows = [list(row) + [m if j == i else 0 for j in range(len(rows))]
                 for i, row in enumerate(rows)]
    return [vec[:k] for vec in integer_kernel(full_rows, k + len(rows))]


def _determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free
    Bareiss elimination)."""
    a = [list(row) for row in matrix]
    n, sign, prev = len(a), 1, 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot], sign = a[pivot], a[c], -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                a[r][j] = (a[r][j] * a[c][c] - a[r][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[-1][-1] if n else 1


def kernel_mod_m_size(rows: Sequence[Sequence[int]], k: int, m: int) -> int:
    """len(kernel_mod_m(rows, k, m)) without the enumeration: the solutions
    are L / mZ^k for the solution lattice L, so there are m^k / |det L|."""
    return m**k // abs(_determinant(_lattice_mod_m(rows, k, m)))


def kernel_mod_m(rows: Sequence[Sequence[int]], k: int, m: int) -> list[tuple[int, ...]]:
    """All solutions r in (Z_m)^k of (rows) r = 0 mod m, enumerated as the
    subgroup generated by the basis of the solution lattice mod m."""
    gens = {tuple(v % m for v in vec) for vec in _lattice_mod_m(rows, k, m)}
    # subgroup closure by breadth-first span
    seen = {(0,) * k}
    frontier = [(0,) * k]
    gen_list = [g for g in gens if any(g)]
    while frontier:
        cur = frontier.pop()
        for g in gen_list:
            nxt = tuple((a + b) % m for a, b in zip(cur, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)
