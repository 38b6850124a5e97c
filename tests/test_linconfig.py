"""Linear configurations and their density routes."""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from grouplim import DenseFn, constant_fn, indicator_fn, linconfig, make_group
from grouplim.errors import BudgetError, ValidationError
from grouplim.intlattice import kernel_mod_m, kernel_mod_m_size
from grouplim.linconfig import (
    ConfigSystem,
    builtin_config,
    config_from_forms,
    cs_complexity_at_most_1,
    density_brute,
    density_fourier,
    density_monte_carlo,
    dual_constraint_solutions,
    dual_density_and_gradient,
    dual_gradient,
    graph_config,
)
from grouplim.spectral import spectrum_array, u2_fourier
from conftest import kernel_mod_m_closure, random_dense


def test_builtin_shapes():
    ap3 = builtin_config("ap3")
    assert (ap3.arity, ap3.size) == (2, 3)
    par = builtin_config("parallelogram")
    assert (par.arity, par.size) == (3, 4)
    c4 = builtin_config("graph:0-1,1-2,2-3,3-0")
    assert (c4.arity, c4.size) == (4, 4)
    with pytest.raises(ValidationError):
        builtin_config("nope")
    with pytest.raises(ValidationError):
        graph_config([(0, 0)])


def test_config_json_roundtrip():
    cfg = builtin_config("parallelogram")
    assert ConfigSystem.from_json(cfg.to_json()).matrix() == cfg.matrix()


def test_constant_density_is_power_of_mean():
    G = make_group([10])
    f = constant_fn(G, 0.3)
    assert density_brute(builtin_config("ap3"), f) == pytest.approx(0.027, abs=1e-12)


def test_ap3_density_of_singleton():
    # x = x + y = x + 2y = 0 forces (x, y) = (0, 0): exactly one of the
    # 25 assignments contributes
    G = make_group([5])
    f = indicator_fn(G, [(0,)])
    assert density_brute(builtin_config("ap3"), f) == pytest.approx(1 / 25, abs=1e-12)


def test_ap3_density_counts_progressions():
    # {0,1,2} in Z_7: three degenerate progressions (y = 0) plus the two
    # orientations of 0,1,2 itself
    G = make_group([7])
    f = indicator_fn(G, [(0,), (1,), (2,)])
    count = 0
    for x in range(7):
        for y in range(7):
            if all(((x + j * y) % 7) in (0, 1, 2) for j in range(3)):
                count += 1
    assert count == 5
    assert density_brute(builtin_config("ap3"), f) == pytest.approx(5 / 49, abs=1e-12)


@pytest.mark.parametrize("name,moduli", [
    ("ap3", [9]),
    ("ap3", [2, 5]),
    ("parallelogram", [8]),
    ("graph:0-1,1-2,2-3,3-0", [7]),
])
def test_fourier_route_matches_brute(name, moduli):
    G = make_group(moduli)
    cfg = builtin_config(name)
    for seed in range(3):
        f = random_dense(G, seed=300 + seed, box=True)
        tb = density_brute(cfg, f)
        tf = density_fourier(cfg, f)
        assert abs(tb - tf) <= 1e-10


def test_fourier_route_mixed_system():
    G = make_group([6])
    cfg = builtin_config("ap3")
    fs = [random_dense(G, seed=s, box=True) for s in (1, 2, 3)]
    assert abs(density_brute(cfg, fs) - density_fourier(cfg, fs)) <= 1e-10


def test_dual_constraint_count_for_ap3():
    # the 2x3 coefficient matrix of ap3 has full row rank mod 7, so the
    # dual solution set is a line: exactly N assignments
    G = make_group([7])
    sols = dual_constraint_solutions(builtin_config("ap3"), G)
    assert len(sols) == 7
    lam = np.array(builtin_config("ap3").matrix())
    for a in sols:
        r = np.array([G.elem_at(i)[0] for i in a])
        assert np.all((lam.T @ r) % 7 == 0)


@pytest.mark.parametrize("name,moduli", [
    ("ap3", [2, 4]),
    ("parallelogram", [2, 2, 3]),
    ("graph:0-1,1-2,2-3,3-0", [3, 3]),
    ("graph:0-1,0-2,0-3,1-2,1-3,2-3", [2, 3]),
])
def test_dual_constraint_solutions_match_brute_enumeration(name, moduli):
    G = make_group(moduli)
    cfg = builtin_config(name)
    k, N = cfg.size, G.order
    lam = np.array(cfg.matrix())
    coords = G.coord_array()

    def solves(r):
        # sum_j lambda_{j,m} r_j = 0 in every coordinate, for every variable m
        sums = np.einsum("jm,ljs->lms", lam, coords[r])
        return np.all(sums % np.array(moduli) == 0, axis=(1, 2))

    sols = dual_constraint_solutions(cfg, G)
    assert sols.shape[1] == k
    assert np.all(solves(sols))
    assert len({tuple(r) for r in sols.tolist()}) == len(sols)
    every = np.stack(np.unravel_index(np.arange(N**k), (N,) * k), axis=-1)
    assert len(sols) == np.count_nonzero(solves(every))


@pytest.mark.parametrize("name", ["ap3", "parallelogram", "graph:0-1,0-2,0-3,1-2,1-3,2-3"])
def test_batched_gradient_matches_rows_and_central_differences(name):
    G = make_group([2, 6])
    cfg = builtin_config(name)
    sols = dual_constraint_solutions(cfg, G)
    fs = [random_dense(G, seed=30 + r, box=True) for r in range(3)]
    spec = np.stack([spectrum_array(f) for f in fs])
    densities, grads = dual_density_and_gradient(sols, spec, G)
    assert np.array_equal(dual_gradient(sols, spec, G), grads)
    h = 1e-6
    for f, s, dens, grad in zip(fs, spec, densities, grads):
        assert np.allclose(dual_gradient(sols, s, G), grad, rtol=0, atol=1e-14)
        assert dens == pytest.approx(density_brute(cfg, f), abs=1e-12)
        for i in range(G.order):
            up, dn = f.values.copy(), f.values.copy()
            up[i] += h
            dn[i] -= h
            fd = (density_brute(cfg, DenseFn(G, up)).real
                  - density_brute(cfg, DenseFn(G, dn)).real) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_parallelogram_density_is_fourth_power_of_u2():
    G = make_group([9])
    for seed in range(4):
        f = random_dense(G, seed=400 + seed, real=True)
        t = density_brute(builtin_config("parallelogram"), f)
        assert t.real == pytest.approx(u2_fourier(f) ** 4, abs=1e-9)
        assert abs(t.imag) <= 1e-9


def test_monte_carlo_is_consistent_and_reproducible():
    G = make_group([11])
    cfg = builtin_config("ap3")
    f = random_dense(G, seed=5, box=True)
    exact = density_brute(cfg, f)
    est1, se = density_monte_carlo(cfg, f, samples=20000, seed=42)
    est2, _ = density_monte_carlo(cfg, f, samples=20000, seed=42)
    assert est1 == est2
    assert abs(est1 - exact) <= 5 * se + 1e-12


@pytest.mark.parametrize("moduli", [[31], [2, 6], [2, 3, 5]])
@pytest.mark.parametrize("name", ["ap3", "parallelogram", "graph:0-1,0-2,0-3,1-2,1-3,2-3",
                                  "graph:0-1,2-3,4-5"])
def test_monte_carlo_peak_is_within_its_counted_entries(moduli, name):
    G, cfg = make_group(moduli), builtin_config(name)
    f = random_dense(G, seed=6)
    with pytest.raises(BudgetError, match="10000000000 samples hold") as err:
        density_monte_carlo(cfg, f, samples=10**10)
    per_sample = int(str(err.value).split(" hold ")[1].split()[0]) // 10**10
    samples = 20000
    density_monte_carlo(cfg, f, samples=samples)
    tracemalloc.start()
    try:
        density_monte_carlo(cfg, f, samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * per_sample * samples


def test_brute_budget_guard():
    G = make_group([64])
    cfg = graph_config([(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(BudgetError):
        density_brute(cfg, constant_fn(G, 0.5), budget=1000)


def _complete_graph(n):
    return builtin_config("graph:" + ",".join(f"{i}-{j}" for i in range(n)
                                              for j in range(i + 1, n)))


@pytest.mark.parametrize("cfg, top", [(builtin_config("ap3"), 30),
                                      (builtin_config("parallelogram"), 30),
                                      (_complete_graph(4), 30),
                                      # K5 has 2m^5 solutions mod even m
                                      (_complete_graph(5), 12)])
def test_kernel_count_matches_the_enumeration(cfg, top):
    lam_t = [list(col) for col in zip(*cfg.matrix())]
    for m in range(1, top + 1):
        assert kernel_mod_m_size(lam_t, cfg.size, m) == len(kernel_mod_m(lam_t, cfg.size, m))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.lists(st.integers(-6, 6), min_size=k, max_size=k), max_size=3))),
    st.integers(1, 12))
def test_kernel_count_matches_brute_force_on_small_systems(system, m):
    k, rows = system
    brute = sum(all(sum(a * x for a, x in zip(row, r)) % m == 0 for row in rows)
                for r in itertools.product(range(m), repeat=k))
    assert kernel_mod_m_size(rows, k, m) == brute == len(kernel_mod_m(rows, k, m))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.lists(st.integers(-40, 40), min_size=k, max_size=k), max_size=3))),
    st.integers(1, 30))
@example((3, []), 1)
@example((4, []), 7)
@example((2, [[6, 4]]), 1)
def test_kernel_enumeration_matches_the_closure_oracle(system, m):
    k, rows = system
    # the oracle's breadth-first closure is slow past a few 10^4 points
    assume(kernel_mod_m_size(rows, k, m) <= 30**3)
    sols = kernel_mod_m(rows, k, m)
    assert sols.dtype == np.int64
    np.testing.assert_array_equal(
        sols, np.array(kernel_mod_m_closure(rows, k, m), dtype=np.int64).reshape(-1, k))


def test_kernel_enumeration_is_exact_for_a_huge_composite_modulus():
    # the echelon columns have entries near m, and c_j * col_j passes 2^63
    m = 3 * 2**61
    rows = [[512, 3, 0], [0, 12, 256], [5, 0, 1]]
    sols = kernel_mod_m(rows, 3, m)
    assert sols.dtype == np.int64
    assert 1 < len(sols) == kernel_mod_m_size(rows, 3, m) <= 10**5
    as_tuples = [tuple(r) for r in sols.tolist()]
    assert as_tuples == sorted(set(as_tuples))
    assert all(0 <= x < m for r in as_tuples for x in r)
    assert all(sum(a * x for a, x in zip(row, r)) % m == 0 for r in as_tuples for row in rows)


def test_dual_lattice_over_budget_raises_before_enumerating(monkeypatch):
    def fail(*args):
        raise AssertionError("enumerated a solution group")

    monkeypatch.setattr(linconfig, "kernel_mod_m", fail)
    for p in (2**61 - 1, 10**4 + 7):
        with pytest.raises(BudgetError, match=f"has {p} points"):
            dual_constraint_solutions(builtin_config("ap3"), make_group([p]), budget=10**4)


def test_dual_lattice_over_its_entry_budget_raises_before_enumerating(monkeypatch):
    # K5 on Z_30 has 2 * 30^5 = 48.6 M points, under the default budget, but
    # enumerating them is counted as (2k + 1) S = 1 020.6 M int64 entries
    def fail(*args):
        raise AssertionError("enumerated a solution group")

    monkeypatch.setattr(linconfig, "kernel_mod_m", fail)
    k5 = _complete_graph(5)
    points = 2 * 30**5
    assert points < linconfig.DENSITY_BUDGET
    with pytest.raises(BudgetError, match=f"has {points} points.* {points * 21} int64 entries"):
        dual_constraint_solutions(k5, make_group([30]))


@pytest.mark.parametrize("moduli", [[12], [2, 6], [3, 4]])
def test_dual_lattice_peak_is_within_its_counted_entries(moduli):
    k5, G = _complete_graph(5), make_group(moduli)
    sols = dual_constraint_solutions(k5, G)
    entries = len(sols) * (2 * k5.size + 1)
    with pytest.raises(BudgetError, match=f" {entries} int64 entries"):
        dual_constraint_solutions(k5, G, budget=entries - 1)
    tracemalloc.start()
    try:
        dual_constraint_solutions(k5, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * entries


def test_brute_peak_is_within_its_byte_bound(monkeypatch):
    # K12 on Z_3: 531 441 assignments of 66 forms, in chunks of 18 051
    k12, G = _complete_graph(12), make_group([3])
    f = random_dense(G, seed=8)
    tracemalloc.start()
    try:
        value = density_brute(k12, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= linconfig.CHUNK_BYTES
    # the sums run over the same blocks of assignments whatever the chunks:
    # one chunk a block, then chunks of 1 000
    for bound in (1 << 40, (16 << 16) + 8 * (2 * 12 + 3 * 66 + 3) * 1000):
        monkeypatch.setattr(linconfig, "CHUNK_BYTES", bound)
        assert density_brute(k12, f) == value


@pytest.mark.parametrize("moduli", [[8], [7], [2, 3], [3, 5]])
def test_huge_coefficients_are_reduced_mod_each_modulus(moduli):
    # 10**400 - 1 overflows int64; it is -1 mod 8 and 0 mod 3
    cfg = config_from_forms([[1, 0], [1, 10**400 - 1], [1, 2]])
    G = make_group(moduli)
    f = random_dense(G, seed=9)
    assert abs(density_brute(cfg, f) - density_fourier(cfg, f)) <= 1e-12
    est, se = density_monte_carlo(cfg, f, samples=20000)
    assert abs(est - density_fourier(cfg, f)) <= 6 * se + 1e-12


def test_overflowing_densities_are_refused():
    huge = constant_fn(make_group([5]), 1e200)
    ap3 = builtin_config("ap3")
    for route in (density_brute, density_fourier,
                  lambda cfg, f: density_monte_carlo(cfg, f, samples=100)):
        with pytest.raises(ValidationError, match="overflows"):
            route(ap3, huge)


def test_cs_complexity_classifications():
    ok, per_form = cs_complexity_at_most_1(builtin_config("ap3"))
    assert ok and all(per_form)
    ok, _ = cs_complexity_at_most_1(builtin_config("parallelogram"))
    assert ok
    # 4-term progressions need quadratic control: the complexity-1
    # sufficient condition must fail
    ap4 = config_from_forms([[1, 0], [1, 1], [1, 2], [1, 3]])
    ok, _ = cs_complexity_at_most_1(ap4)
    assert not ok
