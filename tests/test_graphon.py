"""Cayley kernels and homomorphism densities."""
import tracemalloc

import numpy as np
import pytest

from grouplim import constant_fn, linconfig, make_group
from grouplim.errors import BudgetError, ValidationError
from grouplim.graphon import Graph, Kernel, cayley_kernel, hom_density, verify_bridge
from conftest import random_dense

EDGE = Graph(2, ((0, 1),))
TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
P4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
# under this CHUNK_BYTES a chunk of K4's maps holds about 1 000 of them
K4_SMALL_CHUNKS = 32 * linconfig.BLOCK + 8 * (2 * 4 + 5) * 1000


def test_graph_validation_and_json():
    with pytest.raises(ValidationError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValidationError):
        Graph(2, ((0, 1), (1, 0)))
    g = Graph.from_json(TRIANGLE.to_json())
    assert g.edges == TRIANGLE.edges


def test_kernel_must_be_symmetric():
    G = make_group([3])
    with pytest.raises(ValidationError):
        Kernel(G, np.arange(9.0).reshape(3, 3))


def test_cayley_kernel_values():
    G = make_group([5])
    f = random_dense(G, seed=2, box=True)
    W = cayley_kernel(f)
    for x in range(5):
        for y in range(5):
            assert W.matrix[x, y] == f.values[(x + y) % 5]


def test_cayley_kernel_order_guard():
    G = make_group([300])
    with pytest.raises(BudgetError):
        cayley_kernel(constant_fn(G, 0.5))


def test_hom_budget_refuses_a_huge_vertex_count_before_counting_maps():
    # 8**(10**6) has 3 million bits; a vertex count read from a graph file
    # can be far larger, and the count of maps is never computed
    W = cayley_kernel(constant_fn(make_group([8]), 0.5))
    with pytest.raises(BudgetError, match=r"8\^1000000 exceeds"):
        hom_density(Graph(10**6, ((0, 1),)), W)


def test_edge_density_is_kernel_mean():
    G = make_group([2, 3])
    f = random_dense(G, seed=3, box=True)
    W = cayley_kernel(f)
    assert hom_density(EDGE, W) == pytest.approx(np.mean(W.matrix), abs=1e-12)


def test_triangle_density_matches_direct_sum():
    G = make_group([6])
    f = random_dense(G, seed=4, box=True)
    W = cayley_kernel(f).matrix
    direct = np.einsum("xy,yz,xz->", W, W, W) / 6**3
    assert hom_density(TRIANGLE, cayley_kernel(f)) == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("H", [EDGE, TRIANGLE, C4, P4],
                         ids=["edge", "triangle", "c4", "p4"])
@pytest.mark.parametrize("moduli", [[7], [2, 5]])
def test_bridge_identity(H, moduli):
    G = make_group(moduli)
    f = random_dense(G, seed=10 * len(H.edges), box=True)
    report = verify_bridge(H, f)
    assert report["ok"]
    assert report["abs_diff"] <= 1e-9


def test_hom_peak_is_within_its_byte_bound(monkeypatch):
    # K4 on Z_20: 160 000 maps in three blocks
    W = cayley_kernel(random_dense(make_group([20]), seed=5, real=True))
    value = hom_density(K4, W)
    monkeypatch.setattr(linconfig, "CHUNK_BYTES", K4_SMALL_CHUNKS)
    tracemalloc.start()
    try:
        assert hom_density(K4, W) == value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= K4_SMALL_CHUNKS


def test_bridge_values_do_not_depend_on_the_chunks(monkeypatch):
    # both sides sum the same blocks of 2**16 assignments whatever the chunks
    f = random_dense(make_group([20]), seed=6, real=True)
    reports = []
    for bound in (linconfig.CHUNK_BYTES, K4_SMALL_CHUNKS):
        monkeypatch.setattr(linconfig, "CHUNK_BYTES", bound)
        reports.append(verify_bridge(K4, f))
    assert reports[0]["ok"] and reports[0] == reports[1]
