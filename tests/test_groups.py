"""Group arithmetic, enumeration, and serialization."""
import pytest
from hypothesis import given, strategies as st

from grouplim import GroupSpec, make_group
from grouplim.errors import ValidationError

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


def test_dual_of_finite_group_is_itself(z12):
    assert z12.dual() == z12


def test_json_roundtrip():
    G = make_group([0, 2, 9])
    assert GroupSpec.from_json(G.to_json()) == G
