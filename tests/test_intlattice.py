"""Integer kernels, ranks and column reduction against Fraction
elimination, an oracle that shares no code with intlattice."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grouplim import builtin_config, make_group
from grouplim.intlattice import _column_reduce, rank, relation_lattice_basis
from grouplim.linconfig import _in_span


def _rank(rows):
    """Rank over Q by Gaussian elimination in Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                q = m[i][col] / m[rank][col]
                m[i] = [a - q * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _inverse(rows):
    """Inverse of a square invertible matrix, in Fractions."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [a / m[col][col] for a in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                q = m[i][col]
                m[i] = [a - q * b for a, b in zip(m[i], m[col])]
    return [row[n:] for row in m]


_matrices = st.integers(1, 7).flatmap(lambda ncols: st.tuples(
    st.lists(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
             min_size=1, max_size=5),
    st.just(ncols)))


@settings(max_examples=150, deadline=None)
@given(_matrices)
def test_integer_kernel_is_a_basis_of_the_kernel_lattice(case):
    rows, ncols = case
    # the kernel of M is the relation lattice of its columns in Z^nrows
    kernel = relation_lattice_basis(list(zip(*rows)), make_group([0] * len(rows)))
    # every returned vector solves M x = 0, and there are ncols - rank
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for v in kernel for row in rows)
    assert len(kernel) == ncols - _rank(rows)
    # every kernel vector in the box [-3, 3]^ncols is an integer
    # combination of them.  Coefficients come from a float solve on k
    # coordinates where the basis is invertible, rounded, and count only
    # if they rebuild the vector exactly in integers; a vector they miss
    # is solved in Fractions, and its coefficients must be integers
    axes = np.meshgrid(*[np.arange(-3, 4, dtype=np.int16)] * ncols, indexing="ij")
    box = np.stack(axes, axis=-1).reshape(-1, ncols)
    box = box[~(box @ np.array(rows, dtype=np.int16).T).any(axis=1)].astype(np.int64)
    if not kernel:
        assert not box.any()
        return
    coords = []
    for i in range(ncols):
        if _rank([[v[j] for v in kernel] for j in coords + [i]]) > len(coords):
            coords.append(i)
    basis = np.array(kernel, dtype=np.int64).T
    assert np.abs(basis).max() < 2**31
    c = np.rint(np.linalg.solve(basis[coords].astype(float), box[:, coords].T.astype(float))).T
    rebuilt = (np.abs(c) < 2**31).all(axis=1)
    c = np.where(rebuilt[:, None], c, 0).astype(np.int64)
    rebuilt &= (c @ basis.T == box).all(axis=1)
    inv = _inverse(basis[coords].tolist())
    for x in box[~rebuilt].tolist():
        c = [sum(a * x[j] for a, j in zip(row, coords)) for row in inv]
        assert all(ci.denominator == 1 for ci in c), (x, c)
        assert [sum(ci * v[j] for ci, v in zip(c, kernel)) for j in range(ncols)] == x


@settings(max_examples=150, deadline=None)
@given(_matrices, st.data())
def test_column_reduce_keeps_the_first_rows_of_the_transform(case, data):
    rows, ncols = case
    keep = data.draw(st.integers(0, ncols))
    echelon, u, lead = _column_reduce(rows, ncols)
    assert lead == _rank(rows)
    # the columns from lead on are zero, the ones before are not
    assert all(not any(row[j] for row in echelon) for j in range(lead, ncols))
    assert all(any(row[j] for row in echelon) for j in range(lead))
    assert _column_reduce(rows, ncols, keep) == (echelon, u[:keep], lead)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=4))))
def test_in_span_agrees_with_the_fraction_rank(case):
    vec, vecs = case
    assert _in_span(vec, vecs) == (_rank(vecs + [vec]) == _rank(vecs))


@pytest.mark.parametrize("name, expected", [("ap3", 1), ("parallelogram", 1),
                                            ("graph:0-1,1-2,2-3,3-0", 1),
                                            ("graph:0-1,1-2,2-0", 0),
                                            ("graph:0-1,0-2,0-3,1-2,1-3,2-3", 2)])
def test_dual_lattice_over_z_is_the_relation_lattice_of_the_forms(name, expected):
    # the forms' relations in Z^n: rank 1 for ap3, parallelogram and C4,
    # 0 for C3 and 2 for K4
    cfg = builtin_config(name)
    basis = relation_lattice_basis(cfg.matrix(), make_group([0] * cfg.arity))
    assert len(basis) == expected == cfg.size - rank(cfg.matrix(), cfg.arity)
    assert all(not any(sum(c * row[i] for c, row in zip(v, cfg.matrix()))
                       for i in range(cfg.arity)) for v in basis)
    if name == "ap3":
        # x - 2(x + y) + (x + 2y) = 0 spans them
        assert basis in ([[1, -2, 1]], [[-1, 2, -1]])
