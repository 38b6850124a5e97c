"""Cayley kernels and homomorphism densities."""
import numpy as np
import pytest

from grouplim import constant_fn, make_group
from grouplim.errors import BudgetError, ValidationError
from grouplim.graphon import Graph, Kernel, cayley_kernel, hom_density, verify_bridge
from conftest import random_dense

EDGE = Graph(2, ((0, 1),))
TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
P4 = Graph(4, ((0, 1), (1, 2), (2, 3)))


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
