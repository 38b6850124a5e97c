"""One property test for every up-front refusal that bounds memory: the
count a site hands to errors.check_budget bounds the peak of the work it
lets through, and a refused call holds almost nothing.

A spy on the rule records the count of one call and then sets the limit
the site is checked against: at the count itself the shape lies just
under the budget and runs, one less and it is refused."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grouplim import errors, extremal, linconfig, make_group, metric
from grouplim.errors import BudgetError
from grouplim.extremal import minimize_density
from grouplim.functions import DenseFn, SparseFn
from grouplim.graphon import Graph, cayley_kernel, hom_density
from grouplim.linconfig import (builtin_config, density_brute, density_monte_carlo,
                                dual_constraint_solutions)

# an admitted call's peak is at most SLACK times its counted bytes: the
# largest ratios seen on these shapes are 1.01 (critical candidates, whose
# merged list is counted at 40 B a value and holds up to 41 B) and 1.04
# (the dual lattice's smallest shapes, where fixed temporaries show).  A
# refused call's peak stays under REFUSED_PEAK, the set-up before the rule
SLACK = 1.25
REFUSED_PEAK = 128 << 10


def _spy(mp, module, limit=None):
    """Record every count module's check_budget is handed, and check it
    against limit (the site's own limit if None)."""
    counts = []

    def check_budget(count, site_limit, what, hint=""):
        counts.append(count)
        errors.check_budget(count, site_limit if limit is None else limit, what, hint)

    mp.setattr(module, "check_budget", check_budget)
    return counts


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _check_site(module, call, entries_per_count=1):
    """call runs the site once.  A first run, past NumPy's one-time
    allocations, gives the count; the budget is then set to the count,
    where the peak must stay within SLACK of the counted bytes, and to
    one less, where the call must be refused before it allocates."""
    with pytest.MonkeyPatch.context() as mp:
        counts = _spy(mp, module)
        call()
    [count] = counts
    with pytest.MonkeyPatch.context() as mp:
        counts = _spy(mp, module, limit=count)
        peak = _peak(call)
    assert counts == [count]
    assert peak <= SLACK * 8 * entries_per_count * count, (peak, 8 * entries_per_count * count)

    def refused():
        with pytest.raises(BudgetError, match=f", over budget {count - 1}$"):
            call()

    with pytest.MonkeyPatch.context() as mp:
        _spy(mp, module, limit=count - 1)
        assert _peak(refused) < REFUSED_PEAK


@settings(max_examples=8, deadline=None)
@given(n1=st.integers(150, 450), n2=st.integers(150, 450), weight_cap=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_critical_candidates_stay_within_their_count(n1, n2, weight_cap, seed):
    rng = np.random.default_rng(seed)
    f1, f2 = (SparseFn(make_group([n]), {(i,): complex(x) for i, x in enumerate(
        rng.standard_normal(n) + 1j * rng.standard_normal(n))}) for n in (n1, n2))
    _check_site(metric, lambda: metric._critical_candidates(f1, f2, weight_cap))


@settings(max_examples=8, deadline=None)
@given(p=st.sampled_from([101, 211, 401, 809]), restarts=st.integers(0, 40),
       seed=st.integers(0, 2**16))
def test_the_optimizer_pool_stays_within_its_count(p, restarts, seed):
    config = builtin_config("ap3")
    _check_site(extremal, lambda: minimize_density(config, p, 0.4, restarts, seed, max_iter=20))


K4 = builtin_config("graph:0-1,0-2,0-3,1-2,1-3,2-3")
K5 = builtin_config("graph:" + ",".join(f"{i}-{j}" for i in range(5) for j in range(i + 1, 5)))


# dense graphs have the large dual lattices: K4 on groups of order 64 to
# 264 and K5 on groups of order 6 to 9 count 5 * 10^4 to 4 * 10^6 entries
@settings(max_examples=8, deadline=None)
@given(config_moduli=st.one_of(
    st.tuples(st.just(K4), st.one_of(st.integers(64, 130).map(lambda m: [m]),
                                     st.integers(32, 66).map(lambda j: [2, 2 * j]))),
    st.tuples(st.just(K5), st.sampled_from([[6], [7], [2, 4], [3, 3]]))))
def test_the_dual_lattice_stays_within_its_count(config_moduli):
    config, G = config_moduli[0], make_group(config_moduli[1])
    _check_site(linconfig, lambda: dual_constraint_solutions(config, G))


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(["ap3", "parallelogram", "graph:0-1,0-2,0-3,1-2,1-3,2-3"]),
       moduli=st.sampled_from([[31], [2, 6], [2, 3, 5]]), samples=st.integers(10**4, 5 * 10**4),
       seed=st.integers(0, 2**32 - 1))
def test_monte_carlo_samples_stay_within_their_count(name, moduli, samples, seed):
    config, G = builtin_config(name), make_group(moduli)
    f = DenseFn(G, np.random.default_rng(seed).random(G.order) + 0j)
    _check_site(linconfig, lambda: density_monte_carlo(config, f, samples, seed))


# mean_over_assignments counts assignments, and an assignment of n
# variables holds at most 2n + 3k + 3 (density_brute) or 2n + 5
# (hom_density) int64-sized entries.  Orders are drawn per arity n so that
# there are 2 000 to 10^5 assignments
@settings(max_examples=8, deadline=None)
@given(name_order=st.one_of(st.tuples(st.just("ap3"), st.integers(45, 316)),
                            st.tuples(st.just("parallelogram"), st.integers(13, 46)),
                            st.tuples(st.just("graph:0-1,1-2,2-3,3-0"), st.integers(7, 17))),
       seed=st.integers(0, 2**32 - 1))
def test_brute_assignments_stay_within_their_count(name_order, seed):
    config, G = builtin_config(name_order[0]), make_group([name_order[1]])
    f = DenseFn(G, np.random.default_rng(seed).random(G.order) + 0j)
    n, k = config.arity, config.size
    _check_site(linconfig, lambda: density_brute(config, f), 2 * n + 3 * k + 3)


@settings(max_examples=8, deadline=None)
@given(edges=st.sampled_from([((0, 1), (1, 2), (2, 0)), ((0, 1), (1, 2), (2, 3), (3, 0)),
                              ((0, 1), (1, 2), (2, 3))]),
       order=st.integers(12, 30), seed=st.integers(0, 2**32 - 1))
def test_hom_assignments_stay_within_their_count(edges, order, seed):
    H = Graph(1 + max(max(e) for e in edges), edges)
    W = cayley_kernel(DenseFn(make_group([order]),
                              np.random.default_rng(seed).random(order) + 0j))
    _check_site(linconfig, lambda: hom_density(H, W), 2 * H.n + 5)
