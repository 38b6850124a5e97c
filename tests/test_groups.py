"""Group arithmetic, enumeration, and serialization."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from grouplim import GroupSpec, SparseFn, indicator_fn, make_group
from grouplim.errors import UnsupportedError, ValidationError
from grouplim.spectral import idft

small_moduli = st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=3)


def test_make_group_rejects_bad_moduli():
    with pytest.raises(ValidationError):
        make_group([])
    with pytest.raises(ValidationError):
        make_group([4, -2])


def test_order_and_rank():
    assert make_group([4, 6]).order == 24
    assert make_group([0, 5]).rank == 2
    assert not make_group([0]).is_finite
    assert make_group([7]).is_finite
    assert make_group([1, 5]).order == 5


def test_reduce_keeps_free_coordinates():
    G = make_group([0, 4])
    assert G.reduce((-17, 9)) == (-17, 1)


def _reduce_reference(G, coords):
    """GroupSpec.reduce one coordinate at a time."""
    return tuple(int(c) % m if m >= 1 else int(c) for c, m in zip(coords, G.moduli))


@pytest.mark.parametrize("moduli", [[1], [5], [2, 6], [3, 4, 5], [0], [0, 5], [7, 0]])
def test_reduce_matches_the_per_coordinate_rule(moduli):
    # negative, NumPy-integer and huge coordinates, and a result of plain
    # Python ints, whether or not every factor is finite
    G = make_group(moduli)
    pools = [[-7, 0, 13], [np.int64(-9), np.int32(11), np.uint8(200)],
             [-(10**30) - 1, 2**70, -(2**63)]]
    for pool in pools:
        for start in range(len(pool)):
            coords = [pool[(start + j) % len(pool)] for j in range(G.rank)]
            got = G.reduce(coords)
            assert got == _reduce_reference(G, coords)
            assert all(type(c) is int for c in got)
    for wrong in ([1] * (G.rank + 1), [1] * (G.rank - 1)):
        with pytest.raises(ValidationError):
            G.reduce(wrong)


def test_combination_is_zero_sums_each_coordinate_once():
    # a finite coordinate's sum is read mod its modulus, a free one's must
    # be exactly 0, however large its terms
    G = make_group([4, 0])
    cols = G.columns([(1, 2**70), (3, -(2**70))])
    assert cols == [(1, 3), (2**70, -(2**70))]
    assert G.combination_is_zero([1, 1], cols)
    assert G.combination_is_zero([-3, -3], cols)
    assert not G.combination_is_zero([5, 1], cols)
    assert not G.combination_is_zero([2, 1], cols)
    for coeffs in ([1, 1], [2, 1], [5, 1]):
        assert G.combination_is_zero(coeffs, cols) == G.is_zero(
            G.signed_combination(coeffs, [(1, 2**70), (3, -(2**70))]))
    assert G.columns([]) == [(), ()] and G.combination_is_zero([], G.columns([]))
    with pytest.raises(ValidationError):
        G.columns([(1, 2), (1,)])
    with pytest.raises(ValidationError):
        G.combination_is_zero([1], cols)


@given(small_moduli, st.data())
def test_abelian_laws(moduli, data):
    G = make_group(moduli)
    coords = st.tuples(*[st.integers(-20, 20) for _ in moduli])
    g = G.reduce(data.draw(coords))
    h = G.reduce(data.draw(coords))
    k = G.reduce(data.draw(coords))
    assert G.add(g, h) == G.add(h, g)
    assert G.add(G.add(g, h), k) == G.add(g, G.add(h, k))
    assert G.add(g, G.neg(g)) == G.zero()
    assert G.scale(3, g) == G.add(g, G.add(g, g))
    assert G.signed_combination([1, -1], [g, g]) == G.zero()


def test_enumeration_roundtrip(z12, z2z3):
    for G in (z12, z2z3):
        elems = list(G.elements())
        assert len(elems) == G.order
        assert len(set(elems)) == G.order
        for i, g in enumerate(elems):
            assert G.index_of(g) == i
            assert G.elem_at(i) == g


@given(small_moduli, st.data())
def test_vectorized_indexing_matches_scalar_bijection(moduli, data):
    G = make_group(moduli)
    coords = G.coord_array()
    assert [tuple(c) for c in coords.tolist()] == [G.elem_at(i) for i in range(G.order)]
    gs = data.draw(st.lists(st.tuples(*[st.integers(-50, 50) for _ in moduli]),
                            min_size=1, max_size=8))
    idx = G.flat_index(gs)
    assert idx.tolist() == [G.index_of(g) for g in gs]
    assert [tuple(c) for c in coords[idx].tolist()] == [G.reduce(g) for g in gs]


def test_enumeration_requires_finite():
    with pytest.raises(ValidationError):
        list(make_group([0, 3]).elements())


def test_enumeration_is_lazy():
    assert next(make_group([10**6, 10**6]).elements()) == (0, 0)


def _index_loop(G, g):
    """Mixed-radix index in Python integers, the reference for index_of."""
    idx = 0
    for c, m in zip(g, G.moduli):
        idx = idx * m + c % m
    return idx


CODEC_GROUPS = [make_group([m]) for m in range(1, 13)] + [
    make_group(m) for m in ([2, 6], [3, 5], [2, 2, 2])]


@pytest.mark.parametrize("G", CODEC_GROUPS, ids=str)
def test_index_of_idft_and_indicator_match_per_element_loops(G):
    rng = np.random.default_rng(G.order)
    gs = [tuple(int(c) for c in rng.integers(-30, 30, G.rank)) for _ in range(12)]
    gs += [(2**64 + 5,) * G.rank, (-(2**70) - 1,) * G.rank]
    assert [G.index_of(g) for g in gs] == [_index_loop(G, g) for g in gs]
    for subset in ([], gs[:1], gs):
        vals = np.zeros(G.order, dtype=np.complex128)
        for g in subset:
            vals[_index_loop(G, g)] = 1.0
        assert np.array_equal(indicator_fn(G, subset).values, vals)
    for entries in ({}, {g: complex(*rng.normal(size=2)) for g in gs}):
        fhat = SparseFn(G, entries)
        spec = np.zeros(G.order, dtype=np.complex128)
        for r, v in fhat.entries.items():
            spec[_index_loop(G, r)] = v
        grid = np.fft.ifftn(spec.reshape(G.moduli)) * G.order
        assert np.array_equal(idft(fhat).values, grid.reshape(-1))


@pytest.mark.parametrize("moduli", [[0], [0, 3], [4, 0]])
def test_free_factors_are_refused_by_enumeration_and_indexing(moduli):
    G = make_group(moduli)
    calls = [G.elements, G.coord_array, lambda: G.index_of((1,) * G.rank),
             lambda: G.flat_index([(1,) * G.rank]), lambda: G.elem_at(0),
             lambda: idft(SparseFn(G, {(1,) * G.rank: 1.0}))]
    for call in calls:
        with pytest.raises(UnsupportedError):
            call()


def test_dual_of_finite_group_is_itself(z12):
    assert z12.dual() == z12


def test_json_roundtrip():
    G = make_group([0, 2, 9])
    assert GroupSpec.from_json(G.to_json()) == G
