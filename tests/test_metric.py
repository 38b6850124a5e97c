"""Distance brackets, partial isomorphisms, and epsilon-supports."""
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grouplim import DenseFn, SparseFn, constant_fn, make_group
from grouplim import metric
from grouplim.errors import BudgetError, PrecisionError, ValidationError
from grouplim.intlattice import relation_lattice_basis, relations_match
from grouplim.metric import (
    DEFAULT_NODE_BUDGET,
    EXACT_TOL,
    PartialIso,
    _exact_iso,
    check_partial_iso,
    d_metric,
    dhat,
    dprime,
    exists_eps_iso,
    supp_eps,
)
from grouplim.spectral import dft
from conftest import (
    critical_candidates_oracle,
    exact_iso_oracle,
    random_dense,
    random_sparse,
    relations_consistent_enum,
)


def test_supp_eps_strict_threshold():
    G = make_group([6])
    f = SparseFn(G, {(0,): 0.5, (1,): 0.2, (2,): 0.1})
    assert supp_eps(f, 0.2) == {(0,)}
    assert supp_eps(f, 0.19) == {(0,), (1,)}


def test_supp_eps_rejects_eps_below_truncation():
    G = make_group([6])
    f = SparseFn(G, {(0,): 0.5}, declared_l2=1.0, truncation=1e-6)
    with pytest.raises(PrecisionError):
        supp_eps(f, 1e-7)
    with pytest.raises(ValidationError):
        supp_eps(f, 0.0)


def test_partial_iso_rejects_non_bijection():
    with pytest.raises(ValidationError):
        PartialIso((((0,), (1,)), ((1,), (1,))), 2)


def test_partial_iso_round_trips_its_pairs():
    pairs = (((1,), (1, 0)), ((3,), (0, 1)), ((2,), (1, 1)))
    phi = PartialIso(pairs, 3)
    assert phi.pairs == pairs
    assert phi.domain() == [(1,), (3,), (2,)] and phi.image() == [(1, 0), (0, 1), (1, 1)]
    assert phi == PartialIso(list(pairs), 3) and hash(phi) == hash(PartialIso(pairs, 3))
    assert phi != PartialIso(pairs[:2], 3) and phi != PartialIso(pairs, 2)
    assert phi.to_json()["pairs"] == [[[1], [1, 0]], [[3], [0, 1]], [[2], [1, 1]]]
    assert PartialIso((), 1).pairs == ()


def test_partial_iso_rejects_mixed_ranks():
    with pytest.raises(ValidationError):
        PartialIso((((0,), (1,)), ((1, 0), (0,))), 2)


def test_check_partial_iso_detects_order_mismatch():
    # the generator of Z_4 has order 4; any generator of Z_2 x Z_2 has
    # order 2, so 2g = 0 holds on one side only once weight reaches 2
    z4, z22 = make_group([4]), make_group([2, 2])
    phi = PartialIso((((1,), (1, 0)),), 2)
    assert not check_partial_iso(phi, z4, z22)
    assert check_partial_iso(PartialIso((((1,), (1, 0)),), 1), z4, z22)


def test_check_partial_iso_accepts_group_automorphism():
    z5 = make_group([5])
    pairs = tuple(((x,), (2 * x % 5,)) for x in range(5))
    assert check_partial_iso(PartialIso(pairs, 12), z5, z5)


MAP_GROUPS = [[6], [8], [9], [2, 4], [0], [0, 3]]


def _elems(moduli):
    return st.tuples(*[st.integers(0, m - 1) if m else st.integers(-6, 6)
                       for m in moduli])


@st.composite
def _injective_maps(draw):
    """Random injective maps, a third of them perturbed identities so that
    maps consistent up to some weight show up too."""
    g1 = make_group(draw(st.sampled_from(MAP_GROUPS)))
    k = draw(st.integers(1, 4))
    gs = draw(st.lists(_elems(g1.moduli), min_size=k, max_size=k, unique=True))
    if draw(st.integers(0, 2)) == 0:
        g2, hs = g1, list(gs)
        h = draw(_elems(g1.moduli))
        if h not in hs:
            hs[-1] = h
    else:
        g2 = make_group(draw(st.sampled_from(MAP_GROUPS)))
        hs = draw(st.lists(_elems(g2.moduli), min_size=k, max_size=k, unique=True))
    return g1, g2, gs, hs


@settings(max_examples=300, deadline=None)
@given(_injective_maps(), st.integers(1, 8))
def test_check_partial_iso_matches_enumeration_oracle(m, weight):
    g1, g2, gs, hs = m
    phi = PartialIso(tuple(zip(gs, hs)), weight)
    assert check_partial_iso(phi, g1, g2) == relations_consistent_enum(
        gs, hs, g1, g2, weight)


def test_exists_eps_iso_returns_witness_for_identical_functions():
    G = make_group([8])
    f = random_sparse(G, seed=4, size=4)
    phi = exists_eps_iso(f, f, eps=0.05)
    assert phi is not None
    assert check_partial_iso(phi, G, G)


def test_exists_eps_iso_budget_error_is_raised_not_none():
    G = make_group([12])
    f1 = random_sparse(G, seed=8, size=6)
    f2 = random_sparse(G, seed=9, size=6)
    with pytest.raises(BudgetError):
        exists_eps_iso(f1, f2, eps=0.05, node_budget=1)


def test_dhat_self_distance_is_exact_zero():
    G = make_group([9])
    f = random_sparse(G, seed=2, size=5)
    b = dhat(f, f)
    assert (b.lo, b.hi, b.exact) == (0.0, 0.0, True)


def test_self_distance_is_exact_within_small_budget():
    f = random_dense(make_group([8]), seed=11)
    b = d_metric(f, f, node_budget=10**5)
    assert (b.lo, b.hi, b.exact, b.budget_exceeded) == (0.0, 0.0, True, False)


def _crt_pullback(f, a, b):
    """f composed with the CRT isomorphism Z_a x Z_b -> Z_ab."""
    e1, e2 = b * pow(b, -1, a), a * pow(a, -1, b)
    idx = [(x * e1 + y * e2) % (a * b) for x in range(a) for y in range(b)]
    return DenseFn(make_group([a, b]), f.values[idx])


def test_crt_pullback_is_exact_zero_within_small_budget():
    f = random_dense(make_group([6]), seed=12)
    b = d_metric(f, _crt_pullback(f, 2, 3), node_budget=10**5)
    assert (b.lo, b.hi, b.exact, b.budget_exceeded) == (0.0, 0.0, True, False)


def test_crt_pullback_is_exact_zero_within_ten_nodes():
    # the exact pass prunes each prefix by its relation lattice, so it
    # walks straight to the witness
    f = random_dense(make_group([6]), seed=12)
    b = d_metric(f, _crt_pullback(f, 2, 3), node_budget=10)
    assert (b.lo, b.hi, b.exact, b.budget_exceeded) == (0.0, 0.0, True, False)


@st.composite
def _exact_pass_inputs(draw):
    """A pair of spectra for the exact pass and whether an exact witness
    exists (None: unknown).  The pairs are (f, f), a CRT pull-back, an
    automorphism relabelling, or f's spectrum with its values shuffled over
    its support (same value multiset, relations usually broken); f is
    generic complex, or real with f(x) = f(-x), whose spectrum has tied
    values.  Or a unit spike at 1 on Z_m against one on Z_n (n = 0 is the
    free group Z): once m and n exceed 12, no relation of weight <= 12
    tells them apart, only the exact relation check does."""
    kind = draw(st.sampled_from(["self", "crt", "auto", "shuffled", "spike"]))
    if kind == "spike":
        m, n = draw(st.integers(0, 30)), draw(st.integers(0, 30))
        spikes = [SparseFn(make_group([k]), {(1,): 1.0}) for k in (m, n)]
        return m == n, *spikes
    if kind == "crt":
        a, b = draw(st.sampled_from([(2, 3), (2, 5), (3, 4), (4, 3)]))
        G = make_group([a * b])
    elif kind == "auto":
        G = make_group([draw(st.integers(3, 12))])
    else:
        G = make_group(draw(st.sampled_from(
            [[5], [6], [8], [9], [12], [2, 4], [2, 6], [3, 3]])))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    elems = list(G.elements())
    if draw(st.booleans()):
        index = {e: i for i, e in enumerate(elems)}
        base = rng.standard_normal(len(elems))
        vals = [base[i] + base[index[G.reduce(tuple(-x for x in e))]]
                for i, e in enumerate(elems)]
        f = DenseFn(G, np.array(vals, dtype=np.complex128))
    else:
        f = random_dense(G, seed=int(rng.integers(2**16)))
    s1 = dft(f)
    if kind == "self":
        return True, s1, dft(f)
    if kind == "crt":
        return True, s1, dft(_crt_pullback(f, a, b))
    if kind == "auto":
        n = G.order
        u = draw(st.sampled_from([u for u in range(1, n) if math.gcd(u, n) == 1]))
        return True, s1, dft(DenseFn(G, f.values[(u * np.arange(n)) % n]))
    keys = list(s1.entries)
    perm = rng.permutation(len(keys))
    return None, s1, SparseFn(G, {keys[j]: v for j, v in zip(perm, s1.entries.values())})


@settings(max_examples=100, deadline=None)
@given(_exact_pass_inputs())
def test_exact_pass_finds_a_witness_exactly_when_the_oracle_does(case):
    expected, s1, s2 = case
    wit = _exact_iso(s1, s2, DEFAULT_NODE_BUDGET)
    assert (wit is None) == (exact_iso_oracle(s1, s2, DEFAULT_NODE_BUDGET) is None)
    if expected is not None:
        assert (wit is not None) == expected
    if wit is not None:
        assert sorted(wit.domain()) == sorted(s1.entries)
        assert sorted(wit.image()) == sorted(s2.entries)
        assert all(abs(s1.entries[g] - s2.entries[h]) <= EXACT_TOL for g, h in wit.pairs)
        assert relations_match(wit.domain(), s1.group, wit.image(), s2.group)


def _compose(f, alpha):
    """f o alpha, alpha an integer matrix acting on the coordinates of f's
    group (each row's image reduced mod its modulus)."""
    G = f.group
    return DenseFn(G, f.values[G.flat_index(G.coord_array() @ np.array(alpha).T)])


@st.composite
def _automorphisms(draw):
    """f and f o alpha, alpha an automorphism of Z_p (p <= 31 prime) or of
    Z_m x Z_n: units on each factor, composed with the shears x += b y and
    y += c x, each a homomorphism when b maps Z_n into Z_m and c Z_m into
    Z_n, and with the swap when m = n; f real or complex."""
    def units(m):
        return [u for u in range(1, m) if math.gcd(u, m) == 1]

    if draw(st.booleans()):
        p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
        G, alpha = make_group([p]), [[draw(st.sampled_from(units(p)))]]
    else:
        m, n = draw(st.integers(2, 8)), draw(st.integers(2, 8))
        G, g = make_group([m, n]), math.gcd(m, n)
        b = m // g * draw(st.integers(0, g - 1))
        c = n // g * draw(st.integers(0, g - 1))
        u, v = draw(st.sampled_from(units(m))), draw(st.sampled_from(units(n)))
        alpha = np.array([[u, 0], [0, v]]) @ [[1, b], [0, 1]] @ [[1, 0], [c, 1]]
        if m == n and draw(st.booleans()):
            alpha = alpha[::-1]
    f = random_dense(G, seed=draw(st.integers(0, 2**16)), real=draw(st.booleans()))
    return f, _compose(f, alpha)


@settings(max_examples=60, deadline=None)
@given(_automorphisms())
def test_automorphic_functions_are_at_exact_distance_zero(pair):
    f, g = pair
    # alpha is a bijection: g's values are f's, permuted
    assert np.array_equal(np.sort(f.values), np.sort(g.values))
    b = d_metric(f, g)
    assert (b.lo, b.hi, b.exact, b.weight_capped) == (0.0, 0.0, True, False)


def test_dilated_function_on_z101_is_at_exact_distance_zero():
    # a real f's spectrum pairs each value with its conjugate, and their
    # real parts may differ by float noise; the exact pass still matches
    f = random_dense(make_group([101]), seed=101, real=True)
    for dist in (d_metric, dprime):
        b = dist(f, _compose(f, [[2]]))
        assert (b.lo, b.hi, b.exact, b.weight_capped) == (0.0, 0.0, True, False)


@pytest.mark.parametrize("order, pullback, draws", [
    (15, lambda f: _crt_pullback(f, 3, 5), 40), (101, lambda f: _compose(f, [[2]]), 15)],
    ids=["crt_z15", "dilation_z101"])
def test_dprime_of_isomorphic_functions_is_exact_zero(order, pullback, draws):
    # isomorphic functions have the same l2 norm, though their norms are
    # summed in different orders (13 of the 40 CRT draws and 3 of the 15
    # dilations differ in the last bit): that float gap must not shift the
    # exact bracket off 0
    for seed in range(draws):
        f = random_dense(make_group([order]), seed)
        b = dprime(f, pullback(f), node_budget=10**5)
        assert (b.lo, b.hi, b.exact) == (0.0, 0.0, True), (seed, b.lo, b.hi)


@pytest.mark.parametrize("limits", [dict(weight_cap=0), dict(weight_cap=-3),
                                    dict(node_budget=0), dict(node_budget=-5)])
def test_dhat_rejects_bad_search_limits_before_searching(monkeypatch, limits):
    monkeypatch.setattr(metric, "_search", lambda *a, **k: pytest.fail("searched"))
    G = make_group([6])
    f, g = random_sparse(G, seed=3, size=4), random_sparse(G, seed=4, size=4)
    for pair in ((f, f), (f, g), (SparseFn(G, {}), SparseFn(G, {}))):
        with pytest.raises(ValidationError):
            dhat(*pair, **limits)


@pytest.mark.parametrize("weight", [0, -1])
def test_exists_eps_iso_rejects_nonpositive_weight(monkeypatch, weight):
    monkeypatch.setattr(metric, "_search", lambda *a, **k: pytest.fail("searched"))
    f = random_sparse(make_group([8]), seed=4, size=4)
    with pytest.raises(ValidationError):
        exists_eps_iso(f, f, eps=0.05, weight=weight)


def test_exhausted_budget_is_reported_not_a_precision_error():
    # the two spectra agree up to float noise, far below the truncation
    # threshold; such differences are not candidate eps values.  The exact
    # pass needs 7 nodes, so it cannot finish within 5
    f = random_dense(make_group([6]), seed=12)
    try:
        b = d_metric(f, _crt_pullback(f, 2, 3), node_budget=5)
    except BudgetError:
        return
    assert b.budget_exceeded


def test_supp_eps_support_bound_violation_is_a_precision_error():
    # stored l2 mass exceeds declared_l2 by less than the accepted slack
    f = SparseFn(make_group([200]), {(i,): 0.1 for i in range(100)},
                 declared_l2=1 - 5e-10)
    with pytest.raises(PrecisionError, match="support bound violated"):
        supp_eps(f, 0.1 * (1 - 1e-12))


def _spectrum_pairs():
    """Pairs of functions whose candidate lists the oracle checks: DFTs of
    complex, real and [0, 1]-valued functions (conjugate symmetry repeats
    their magnitudes), identical and CRT-isomorphic spectra (differences
    of float noise below the truncation), sparse functions and one empty
    function."""
    z12, z2z6, z31 = make_group([12]), make_group([2, 6]), make_group([31])
    f = random_dense(z12, seed=1)
    yield dft(f), dft(_crt_pullback(f, 3, 4))
    yield dft(f), dft(f)
    for G, seed in ((z12, 2), (z2z6, 3), (z31, 4)):
        for kind in ({}, {"real": True}, {"box": True}):
            yield dft(random_dense(G, seed, **kind)), dft(random_dense(G, seed + 50, **kind))
    yield random_sparse(z12, seed=5, size=6), random_sparse(make_group([2, 4]), seed=6, size=4)
    yield SparseFn(z12, {}), random_sparse(z12, seed=7, size=3)


@pytest.mark.parametrize("weight_cap", [1, 12, 40])
def test_critical_candidates_match_the_set_oracle(weight_cap):
    for f1, f2 in _spectrum_pairs():
        assert (metric._critical_candidates(f1, f2, weight_cap)
                == critical_candidates_oracle(f1, f2, weight_cap))


@pytest.mark.parametrize("moduli, seed, node_budget", [([8], 1, 30), ([2, 4], 2, 30),
                                                       ([9], 3, 300)])
def test_starved_bracket_makes_logarithmically_many_probes(monkeypatch, moduli, seed,
                                                           node_budget):
    # each of these brackets runs out of budget on some probe; it must
    # still take O(log n) probes over its n candidates, not all n
    G = make_group(moduli)
    s1, s2 = dft(random_dense(G, seed)), dft(random_dense(G, seed + 100))
    n = len(metric._critical_candidates(s1, s2, metric.DEFAULT_WEIGHT_CAP))
    probes = []
    search = metric._Probes.__call__
    monkeypatch.setattr(metric._Probes, "__call__",
                        lambda self, *a, **k: probes.append(a[2]) or search(self, *a, **k))
    b = dhat(s1, s2, node_budget=node_budget)
    assert b.budget_exceeded and b.lo <= b.hi
    assert 0 < len(probes) <= 2 * math.ceil(math.log2(n)) + 1 < n
    assert len(set(probes)) == len(probes)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 200), data=st.data())
def test_bisection_past_unknown_probes_stays_certified(n, data):
    # candidates 1..n, feasible from index first on, and any set of
    # indices whose probe runs out of budget
    first = data.draw(st.integers(0, n - 1))
    unknown = data.draw(st.sets(st.integers(0, n - 1)))
    probes = []

    def probe(engine, f1, f2, eps, weight):
        probes.append(int(eps) - 1)
        if probes[-1] in unknown:
            raise BudgetError("out of nodes")
        return PartialIso((), weight) if probes[-1] >= first else None

    f = SparseFn(make_group([2]), {(1,): 1.0})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "_critical_candidates", lambda *a: [float(i + 1) for i in range(n)])
        mp.setattr(metric, "_exact_iso", lambda *a: None)
        mp.setattr(metric._Probes, "__call__", probe)
        try:
            b = dhat(f, f)
        except BudgetError:
            b = None
    assert len(probes) <= 2 * math.ceil(math.log2(n)) + 1
    assert len(set(probes)) == len(probes)
    if b is None:
        assert all(i in unknown for i in probes if i >= first)
        return
    assert b.lo <= first < b.hi  # lo = cands[bad] <= cands[first - 1], hi >= cands[first]
    assert b.budget_exceeded == any(i in unknown for i in probes)
    if not b.budget_exceeded:
        assert (b.lo, b.hi) == (float(first), float(first + 1))


def test_dhat_is_symmetric():
    G1, G2 = make_group([8]), make_group([2, 4])
    f1 = random_sparse(G1, seed=5, size=4)
    f2 = random_sparse(G2, seed=6, size=4)
    b12 = dhat(f1, f2)
    b21 = dhat(f2, f1)
    assert abs(b12.lo - b21.lo) <= 1e-12
    assert abs(b12.hi - b21.hi) <= 1e-12


@pytest.mark.parametrize("n", [3, 5, 9])
def test_free_group_spectra_bracket(n):
    # two unit spikes at independent positions vs. at positions with one
    # bounded relation (n copies of the first equal the second): the pair
    # is indistinguishable below weight n, so the distance lands in
    # [1/(n+1), 1/n]
    line = make_group([0])
    plane = make_group([0, 0])
    f1 = SparseFn(line, {(1,): 1.0, (n,): 1.0})
    f2 = SparseFn(plane, {(1, 0): 1.0, (0, 1): 1.0})
    b = dhat(f1, f2)
    assert b.lo == pytest.approx(1.0 / (n + 1), abs=1e-12)
    assert b.hi == pytest.approx(1.0 / n, abs=1e-12)
    assert not b.weight_capped and not b.budget_exceeded


def test_quotient_pullback_has_distance_zero():
    # pulling back along Z_8 -> Z_4 reindexes the spectrum without
    # changing its relation structure, so d vanishes exactly
    z4, z8 = make_group([4]), make_group([8])
    f = random_dense(z4, seed=3)
    pulled = DenseFn(z8, f.values[np.arange(8) % 4])
    b = d_metric(f, pulled)
    assert (b.lo, b.hi, b.exact) == (0.0, 0.0, True)


def test_d_metric_distinguishes_uniform_from_point_mass():
    z2, z3 = make_group([2]), make_group([3])
    f1 = DenseFn(z2, np.array([1.0, 0.0], dtype=np.complex128))
    f2 = DenseFn(z3, np.array([1.0, 0.0, 0.0], dtype=np.complex128))
    b = d_metric(f1, f2)
    # spectra are {1/2, 1/2} on Z_2 and {1/3, 1/3, 1/3} on Z_3: supports
    # match set-for-set above eps=1/2, values disagree by 1/6 below, and
    # relation orders clash in between
    assert b.lo == pytest.approx(1.0 / 3, abs=1e-12)
    assert b.hi == pytest.approx(1.0 / 2, abs=1e-12)


def test_dprime_adds_norm_gap():
    G = make_group([6])
    f1 = constant_fn(G, 0.25)
    f2 = constant_fn(G, 0.75)
    d = d_metric(f1, f2)
    dp = dprime(f1, f2)
    assert dp.lo == pytest.approx(d.lo + 0.5, abs=1e-12)
    assert dp.hi == pytest.approx(d.hi + 0.5, abs=1e-12)


def test_each_function_is_transformed_once(monkeypatch):
    # d and d' transform one object once, and two objects once each even
    # when their values are equal; the brackets are dhat's on separate
    # transforms, d' shifted by the norm gap
    G = make_group([6])
    f = random_dense(G, seed=21)
    twin = DenseFn(G, f.values.copy())
    near = DenseFn(G, f.values + 0.02 * random_dense(G, seed=22).values)
    calls = []
    monkeypatch.setattr(metric, "dft", lambda h: calls.append(h) or dft(h))
    for dist in (d_metric, dprime):
        for g, transforms in ((f, 1), (twin, 2), (near, 2)):
            calls.clear()
            b = dist(f, g, node_budget=10**5)
            assert len(calls) == transforms
            expected = dhat(dft(f), dft(g), node_budget=10**5)
            if dist is dprime:
                expected = expected.shift(abs(f.l2_norm() - g.l2_norm()))
            assert b == expected


def test_dhat_triangle_inequality_on_random_triples():
    rng = np.random.default_rng(77)
    groups = [make_group([6]), make_group([8]), make_group([2, 4]), make_group([10])]
    for trial in range(25):
        gs = rng.choice(len(groups), size=3)
        fs = [random_sparse(groups[g], seed=1000 + 3 * trial + i, size=4)
              for i, g in enumerate(gs)]
        b01 = dhat(fs[0], fs[1])
        b12 = dhat(fs[1], fs[2])
        b02 = dhat(fs[0], fs[2])
        assert b02.lo <= b01.hi + b12.hi + 1e-12


def test_empty_spectra_are_at_distance_zero():
    G = make_group([4])
    b = dhat(SparseFn(G, {}), SparseFn(make_group([7]), {}))
    assert (b.lo, b.hi, b.exact) == (0.0, 0.0, True)


def test_dhat_probes_eps_above_one_at_weight_one():
    # at eps >= 1e12, ceil(1/eps - slack) is 0; a probe there needs weight 1
    G = make_group([5])
    b = dhat(SparseFn(G, {(1,): 2e12}), SparseFn(G, {(2,): 3e12}))
    assert (b.lo, b.hi, b.witness.weight) == (1.0, 1e12, 1)


@st.composite
def _free_pools(draw):
    """Z x Z_5 or Z^2 on each side, and pairs whose two sides are small
    combinations a*u + b*v of two random elements u, v with coordinates up
    to 10^12.  The image often takes the domain's coefficients, so
    relations hold on both sides, on one only, or (same group and same
    u, v) on both at every weight."""
    g1, g2 = (make_group(draw(st.sampled_from([[0, 5], [0, 0]]))) for _ in range(2))
    big = st.integers(-10**12, 10**12)

    def vec(G):
        return tuple(draw(big) if m == 0 else draw(st.integers(0, m - 1)) for m in G.moduli)

    uv1 = (vec(g1), vec(g1))
    uv2 = (uv1 if g1 == g2 and draw(st.booleans()) else (vec(g2), vec(g2)))
    coef = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        c1 = draw(coef)
        c2 = c1 if draw(st.booleans()) else draw(coef)
        pool.append((g1.signed_combination(c1, uv1), g2.signed_combination(c2, uv2)))
    return g1, g2, pool


def _with_combinations(case):
    """The pool grown by the double and the negative of each pair and the
    sum of each two neighbours, so that pushes often reach an element by a
    shorter word than before."""
    g1, g2, pool = case
    more = [(g1.scale(c, g), g2.scale(c, h)) for g, h in pool for c in (2, -1)]
    more += [(g1.add(a, b), g2.add(c, d)) for (a, c), (b, d) in zip(pool, pool[1:])]
    return g1, g2, pool + more


_ball_pools = st.one_of(_injective_maps().map(lambda m: (m[0], m[1], list(zip(m[2], m[3])))),
                        _free_pools()).map(_with_combinations)


def _fresh_ball(g1, g2, weight, pool, gs, hs):
    ball = metric._Ball(g1, g2, weight, metric._Budget(DEFAULT_NODE_BUDGET),
                        [g for g, _ in pool], [h for _, h in pool])
    assert all(ball.push(g, h) for g, h in zip(gs, hs))
    return ball


@settings(max_examples=200, deadline=None)
@given(_ball_pools, st.integers(1, 12), st.data())
def test_ball_push_pop_matches_enumeration_oracle(case, weight, data):
    # a random walk of pushes and pops: every pushed prefix gets the
    # oracle's verdict, and after each step the ball, distances included,
    # is the one built from scratch by pushing the current prefix
    g1, g2, pool = case
    ball = _fresh_ball(g1, g2, weight, pool, [], [])
    gs, hs = [], []
    for _ in range(data.draw(st.integers(1, 8))):
        if gs and (len(gs) == 3 or data.draw(st.booleans())):
            ball.pop()
            gs.pop()
            hs.pop()
        else:
            g, h = data.draw(st.sampled_from(pool))
            gs.append(g)
            hs.append(h)
            ok = ball.push(g, h)
            assert ok == relations_consistent_enum(gs, hs, g1, g2, weight)
            if not ok:  # a failed push leaves the ball part-grown until popped
                ball.pop()
                gs.pop()
                hs.pop()
        assert ball.dist == _fresh_ball(g1, g2, weight, pool, gs, hs).dist


@settings(max_examples=150, deadline=None)
@given(_free_pools(), st.integers(1, 12))
def test_check_partial_iso_matches_oracle_on_huge_free_coordinates(case, weight):
    # the free factor is reduced mod 2 * weight * max|coord| + 1, which
    # must keep every relation among coordinates near 10^12
    g1, g2, pool = case
    gs, hs = [g for g, _ in pool], [h for _, h in pool]
    if len(set(gs)) < len(gs) or len(set(hs)) < len(hs):
        return
    phi = PartialIso(tuple(pool), weight)
    assert check_partial_iso(phi, g1, g2) == relations_consistent_enum(gs, hs, g1, g2, weight)


def _near_spectra(moduli, seed):
    G = make_group(moduli)
    f = random_dense(G, seed)
    return dft(f), dft(DenseFn(G, f.values + 0.02 * random_dense(G, seed + 100).values))


@pytest.mark.parametrize("pair, node_budget", [
    (lambda: _near_spectra([7], 3), 10**5), (lambda: _near_spectra([2, 4], 4), 10**5),
    (lambda: _near_spectra([9], 3), 300), (lambda: _near_spectra([12], 5), 1000),
    (lambda: (random_sparse(make_group([8]), 0, 5), random_sparse(make_group([10]), 50, 5)),
     10**5),
    (lambda: (random_sparse(make_group([12]), 1, 5), random_sparse(make_group([6]), 51, 5)),
     10**5)])
def test_bracket_computes_each_relation_verdict_once(monkeypatch, pair, node_budget):
    # near pairs, whose probes revisit the same prefixes of their maps, and
    # sparse pairs, whose searches leave consistent prefixes.  Within one
    # dhat no (prefix, weight) verdict is computed twice, and the memo
    # keeps at most node_budget prefixes, each with the verdicts of the map
    # its key chain spells; capped at 3 prefixes or at none, it recomputes
    # verdicts but gives the same bracket
    s1, s2 = pair()
    extended, memos = [], []
    extend, init = metric._Ball.extend, metric._Probes.__init__

    def spy_extend(ball, gs, hs):
        res = extend(ball, gs, hs)
        extended.append((tuple(zip(gs, hs)), ball.weight))
        return res

    monkeypatch.setattr(metric._Ball, "extend", spy_extend)
    runs = {}
    for cap in (None, 3, 0):
        monkeypatch.setattr(metric._Probes, "__init__", lambda memo, *a: init(memo, *a) or setattr(
            memo, "limit", memo.limit if cap is None else cap) or memos.append(memo))
        extended.clear()
        memos.clear()
        b = dhat(s1, s2, node_budget=node_budget)
        [memo] = memos
        assert len(memo.ids) <= (node_budget if cap is None else cap)
        runs[cap] = b.to_json(), list(extended)
        # every verdict kept is the ball's for the map its key chain spells
        prefix = {0: ()}
        for (parent, g, h), i in memo.ids.items():
            prefix[i] = prefix[parent] + ((g, h),)
            for w, verdict in ((memo.ok[i], True), (memo.bad[i], False)):
                if 0 < w < math.inf:
                    ball = metric._Ball(s1.group, s2.group, w,
                                        metric._Budget(DEFAULT_NODE_BUDGET), s1.entries,
                                        s2.entries)
                    assert all(ball.push(g, h) for g, h in prefix[i]) == verdict
    bracket, extended = runs[None]
    assert not bracket["budget_exceeded"]
    assert len(set(extended)) == len(extended)
    assert runs[3][0] == runs[0][0] == bracket
    assert set(extended) <= set(runs[0][1]) and len(extended) < len(runs[0][1])


def _relations_match_reference(elems1, g1, elems2, g2):
    """relations_match built from GroupSpec.signed_combination: every basis
    relation of one side, combined on the other, reduces to zero."""
    return len(elems1) == len(elems2) and all(
        gb.is_zero(gb.signed_combination(c, eb))
        for ea, ga, eb, gb in ((elems1, g1, elems2, g2), (elems2, g2, elems1, g1))
        for c in relation_lattice_basis(ea, ga))


_MATCH_GROUPS = [[m] for m in range(1, 13)] + [[2, 6], [0, 5], [0, 0]]


@st.composite
def _element_tuples(draw):
    """Two equally long tuples over the groups above, their coordinates
    small or past int64 (finite ones left unreduced).  A third of them map
    a tuple to itself or to its negative, so that its relations hold on
    both sides; a third change one element of such a map."""
    g1 = make_group(draw(st.sampled_from(_MATCH_GROUPS)))
    coord = st.one_of(st.integers(-6, 6), st.integers(-2**70, 2**70))

    def elems(G, k):
        return [tuple(draw(coord) for _ in G.moduli) for _ in range(k)]

    k = draw(st.integers(0, 4))
    gs = elems(g1, k)
    kind = draw(st.integers(0, 2))
    if kind == 2:
        g2 = make_group(draw(st.sampled_from(_MATCH_GROUPS)))
        return g1, gs, g2, elems(g2, k)
    sign = draw(st.sampled_from([1, -1]))
    hs = [tuple(sign * x for x in g) for g in gs]
    if kind == 1 and k:
        hs[draw(st.integers(0, k - 1))] = elems(g1, 1)[0]
    return g1, gs, g1, hs


@settings(max_examples=300, deadline=None)
@given(_element_tuples())
def test_relations_match_agrees_with_the_signed_combination_reference(case):
    g1, gs, g2, hs = case
    assert relations_match(gs, g1, hs, g2) == _relations_match_reference(gs, g1, hs, g2)


@pytest.mark.parametrize("elems1, elems2", [([(1, 2)], [(1,)]), ([(1,)], [(1, 2)]),
                                            ([(1,), (2,)], [(2,), ()])])
def test_relations_match_refuses_wrong_length_elements(elems1, elems2):
    z5 = make_group([5])
    for check in (relations_match, _relations_match_reference):
        with pytest.raises(ValidationError):
            check(elems1, z5, elems2, z5)



def test_brackets_leave_no_garbage_cycles():
    # the search state is freed by reference counting when a bracket
    # returns, not left for the cycle collector
    G = make_group([8])
    rng = np.random.default_rng(1)
    f = DenseFn(G, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    g = DenseFn(G, f.values + 0.02 * (rng.standard_normal(8) + 1j * rng.standard_normal(8)))
    gc.collect()
    gc.disable()
    try:
        brackets = [d_metric(f, f), dprime(f, g)]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert brackets[0].exact and brackets[0].hi == 0.0
    assert not brackets[1].budget_exceeded and 0.0 < brackets[1].lo <= brackets[1].hi


def test_search_maps_more_entries_than_the_recursion_limit():
    # one level per mapped entry, past Python's default limit of 1000 frames
    G = make_group([1200])
    f = SparseFn(G, {(i,): complex(i + 1) for i in range(1200)})
    pairs = metric._search(f, f, sorted(f.entries), None, EXACT_TOL,
                           metric._Budget(10**4), lambda gs, hs: True)
    assert pairs == [(g, g) for g in sorted(f.entries)]


def test_critical_candidates_over_budget_are_refused_before_they_are_built(monkeypatch):
    # two random functions on Z_40000 would take 23.8 GiB of differences;
    # a low budget refuses Z_200's 40 000 the same way
    f, g = (dft(random_dense(make_group([200]), seed)) for seed in (1, 2))
    monkeypatch.setattr(metric, "DENSITY_BUDGET", 10**4, raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="40000 critical differences hold 200824 "
                                              "int64-sized entries, over budget 10000"):
            metric._critical_candidates(f, g, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the differences alone would be 40 000 complex values
    assert peak < 40000 * 16 / 10


def test_overflowing_differences_are_dropped_without_a_warning():
    # RuntimeWarning is an error here: 1e308 - (-9e307) overflows, and a
    # difference past DBL_MAX lies above every value, so it is no candidate
    G = make_group([5])
    f = SparseFn(G, {(1,): 1e308, (2,): -1e308})
    g = SparseFn(G, {(1,): -9e307, (3,): 9e307})
    cands = metric._critical_candidates(f, g, 12)
    assert cands == critical_candidates_oracle(f, g, 12)
    assert cands[-1] == 1e308 and all(map(math.isfinite, cands))


@settings(max_examples=25, deadline=None)
@given(n1=st.integers(1, 400), n2=st.integers(1, 400), weight_cap=st.integers(1, 40),
       spread=st.sampled_from([0.5, None]), seed=st.integers(0, 2**32 - 1))
def test_critical_candidates_peak_stays_within_the_counted_entries(n1, n2, weight_cap, spread,
                                                                   seed):
    # Gaussian values, or values in [1, 1 + spread], whose differences are
    # all distinct candidates below the largest value.  The peak is that of
    # a second call, past NumPy's one-time allocations.  Slack: a merged
    # candidate ends as 41 B (8 in the sorted array, a 24 B Python float
    # and its pointer, over-allocated by up to 1/8) against 40 B counted for
    # a difference, so 2.5% on the count, and 25 B more for each candidate
    # that is no difference; one MERGE_CHUNK of Python floats (32 B each);
    # and 64 KiB for NumPy's broadcasting buffers and fixed temporaries
    rng = np.random.default_rng(seed)

    def fn(n):
        v = (rng.standard_normal(n) + 1j * rng.standard_normal(n) if spread is None
             else 1.0 + spread * rng.random(n))
        return SparseFn(make_group([n]), {(i,): complex(x) for i, x in enumerate(v)})

    f1, f2 = fn(n1), fn(n2)
    pairs, others = n1 * n2, n1 + n2 + weight_cap
    counted = 3 * pairs + 2 * (pairs + others)
    metric._critical_candidates(f1, f2, weight_cap)
    tracemalloc.start()
    try:
        cands = metric._critical_candidates(f1, f2, weight_cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cands == critical_candidates_oracle(f1, f2, weight_cap)
    slack = 0.025 * 8 * counted + 25 * others + 32 * metric.MERGE_CHUNK + 64 * 1024
    assert peak <= 8 * counted + slack, (peak, 8 * counted)
