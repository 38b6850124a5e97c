"""Constrained density minimization."""
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grouplim import DenseFn, extremal, make_group
from grouplim.errors import BudgetError, ValidationError
from grouplim.extremal import (
    _pgd,
    _project_rows,
    density_gradient,
    is_prime,
    minimize_density,
    project_box_mean,
    rho_curve,
)
from grouplim.linconfig import builtin_config, density_brute, dual_constraint_solutions
from grouplim.spectral import spectrum_array
import conftest
from conftest import pgd_serial, project_box_mean_bisect, random_dense


def test_projection_lands_in_feasible_set():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.standard_normal(17) * rng.uniform(0.1, 10)
        delta = rng.uniform(0.05, 0.95)
        u = project_box_mean(v, delta)
        assert np.all(u >= -1e-12) and np.all(u <= 1 + 1e-12)
        assert np.mean(u) == pytest.approx(delta, abs=1e-9)


def test_projection_is_idempotent_and_shift_structured():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(31)
    u = project_box_mean(v, 0.3)
    assert np.allclose(project_box_mean(u, 0.3), u, atol=1e-8)
    # interior coordinates of the projection differ from v by a common shift
    interior = (u > 1e-9) & (u < 1 - 1e-9)
    assert interior.sum() >= 2
    shifts = v[interior] - u[interior]
    assert np.ptp(shifts) <= 1e-8
    # KKT: coordinates clipped to 0 lie at or below the shift, those
    # clipped to 1 at or above the shift plus one
    tau = float(np.mean(shifts))
    assert np.all(v[u <= 1e-9] <= tau + 1e-8)
    assert np.all(v[u >= 1 - 1e-9] >= tau + 1 - 1e-8)


def test_projection_handles_huge_magnitudes():
    # regression: the shift search must terminate when float spacing of
    # the inputs exceeds the absolute bisection tolerance
    v = np.array([1e8, -1e8, 3e7, 0.5])
    u = project_box_mean(v, 0.5)
    assert np.mean(u) == pytest.approx(0.5, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=600),
    st.floats(-3.0, 8.0),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
def test_projection_matches_bisection_oracle(xs, log_scale, delta):
    # rounding to 0.1 makes ties among the inputs and among the knots
    v = np.round(np.array(xs) * 10.0**log_scale, 1)
    u = project_box_mean(v, delta)
    assert np.max(np.abs(u - project_box_mean_bisect(v, delta))) <= 1e-9
    assert np.all(u >= 0.0) and np.all(u <= 1.0)
    assert abs(float(np.mean(u)) - delta) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_project_rows_matches_bisection_oracle_row_by_row(data):
    n = data.draw(st.integers(1, 600))
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        xs = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        # rounding to 0.1 makes ties among the inputs and among the knots
        rows.append(np.round(np.array(xs) * 10.0 ** data.draw(st.floats(-3.0, 8.0)), 1))
    deltas = np.array([data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
                       for _ in rows])
    U = _project_rows(np.stack(rows), deltas)
    for u, v, delta in zip(U, rows, deltas):
        assert np.max(np.abs(u - project_box_mean_bisect(v, delta))) <= 1e-9
        assert np.all(u >= 0.0) and np.all(u <= 1.0)
        assert abs(float(np.mean(u)) - delta) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_project_rows_with_tied_knots_match_the_oracle_and_their_lone_rows(data):
    # values drawn from a few bases shifted by whole units: repeated values
    # tie their knots, and values exactly 1 apart put an enter knot (v - 1)
    # on a leave knot (v); quarters keep those ties exact in floating point
    n = data.draw(st.integers(1, 300))
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        bases = data.draw(st.lists(st.one_of(st.integers(-8, 12).map(lambda q: q / 4),
                                             st.floats(-3.0, 3.0)), min_size=1, max_size=4))
        picks = data.draw(st.lists(st.tuples(st.integers(0, len(bases) - 1), st.integers(-1, 1)),
                                   min_size=n, max_size=n))
        rows.append(np.array([bases[b] + shift for b, shift in picks]))
    # a mean of j/n makes the target n * delta an integer, as m is at knots
    # that leave every coordinate clipped
    deltas = np.array([data.draw(st.one_of(st.integers(0, n).map(lambda j: j / n),
                                           st.floats(0.0, 1.0))) for _ in rows])
    V = np.stack(rows)
    U = _project_rows(V, deltas)
    for i, (u, v, delta) in enumerate(zip(U, V, deltas)):
        assert np.max(np.abs(u - project_box_mean_bisect(v, delta))) <= 1e-9
        assert abs(float(np.mean(u)) - delta) <= 1e-9
        assert np.array_equal(_project_rows(V[i:i + 1], deltas[i:i + 1])[0], u)


@pytest.mark.parametrize("v", [[np.nan, 1.0], [np.inf, 0.0], [-np.inf, 0.0], [],
                               [[0.2, 0.9], [0.4, 0.1]], 0.5])
def test_projection_rejects_empty_non_finite_or_non_vector_input(v):
    with pytest.raises(ValidationError):
        project_box_mean(np.array(v), 0.5)


def test_gradient_matches_central_differences():
    c4 = "graph:0-1,1-2,2-3,3-0"
    k4 = "graph:0-1,0-2,0-3,1-2,1-3,2-3"
    cases = [([11], "ap3"), ([11], "parallelogram"), ([2, 6], "ap3"),
             ([2, 6], "parallelogram"), ([2, 6], c4), ([7], c4), ([5], k4), ([2, 6], k4)]
    for moduli, name in cases:
        G = make_group(moduli)
        cfg = builtin_config(name)
        f = random_dense(G, seed=21, box=True)
        grad = density_gradient(cfg, f)
        h = 1e-6
        for i in range(0, G.order, 3):
            up, dn = f.values.copy(), f.values.copy()
            up[i] += h
            dn[i] -= h
            fd = (density_brute(cfg, DenseFn(G, up)).real
                  - density_brute(cfg, DenseFn(G, dn)).real) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_gradient_rejects_complex_functions():
    G = make_group([5])
    with pytest.raises(ValidationError):
        density_gradient(builtin_config("ap3"), random_dense(G, seed=1))


def test_minimize_requires_prime_order():
    with pytest.raises(ValidationError):
        minimize_density(builtin_config("ap3"), 9, 0.3)
    res = minimize_density(builtin_config("ap3"), 9, 0.3, restarts=2,
                           unsafe_group=True)
    assert res.f_star.group.order == 9


def test_is_prime_matches_sieve():
    n = 10**4
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    assert [is_prime(k) for k in range(-3, n + 1)] == [False] * 3 + sieve.tolist()


@pytest.mark.parametrize("n", [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,  # strong pseudoprime to every prime base up to 23
    318665857834031151167461,  # strong pseudoprime to every prime base up to 37
])
def test_is_prime_rejects_carmichael_and_strong_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2**61 - 1, 2**64 - 59, 2**89 - 1])
def test_is_prime_accepts_large_primes(n):
    assert is_prime(n)
    assert not is_prime(n * 3)


def test_minimize_on_product_group_matches_brute_oracle():
    G = make_group([3, 5])
    for name in ("ap3", "parallelogram"):
        cfg = builtin_config(name)
        res = minimize_density(cfg, 15, 0.4, restarts=2, seed=5, unsafe_group=True, group=G)
        assert res.f_star.group == G
        assert np.mean(res.f_star.values.real) == pytest.approx(0.4, abs=1e-8)
        assert density_brute(cfg, res.f_star).real == pytest.approx(res.value, abs=1e-10)


@pytest.mark.parametrize("p", [4, 14, 16])
def test_minimize_refuses_p_other_than_the_group_order(p):
    with pytest.raises(ValidationError, match="order 15"):
        minimize_density(builtin_config("ap3"), p, 0.4, group=make_group([3, 5]))


def test_minimize_parallelogram_hits_quasirandom_minimum():
    res = minimize_density(builtin_config("parallelogram"), 17, 0.5,
                           restarts=4, seed=1)
    assert res.value == pytest.approx(1 / 16, abs=1e-6)
    assert res.grad_norm <= 1e-6


def test_minimize_is_deterministic_given_seed():
    a = minimize_density(builtin_config("ap3"), 13, 0.3, restarts=4, seed=9)
    b = minimize_density(builtin_config("ap3"), 13, 0.3, restarts=4, seed=9)
    assert a.value == b.value
    assert np.array_equal(a.f_star.values, b.f_star.values)


def test_minimize_without_restarts_runs_the_constant_start():
    res = minimize_density(builtin_config("ap3"), 13, 0.25, restarts=0)
    assert res.restarts_used == 1


def test_minimize_result_is_feasible_and_consistent():
    res = minimize_density(builtin_config("ap3"), 13, 0.25, restarts=4, seed=2)
    vals = res.f_star.values.real
    assert np.all(vals >= -1e-9) and np.all(vals <= 1 + 1e-9)
    assert np.mean(vals) == pytest.approx(0.25, abs=1e-8)
    assert density_brute(builtin_config("ap3"), res.f_star).real == pytest.approx(
        res.value, abs=1e-10)


def test_rho_curve_endpoints_and_monotone_flags():
    rows = rho_curve(builtin_config("ap3"), 13, [0.0, 0.5, 1.0], restarts=4, seed=3)
    assert rows[0]["value"] == 0.0 and rows[0]["grad_norm"] == 0.0
    assert rows[-1]["value"] == 1.0
    assert all(r["monotone_ok"] for r in rows)


def test_endpoint_deltas_run_only_the_constant_start():
    # at delta 0 or 1 the feasible set is one point; a random restart
    # projected onto it lands there only up to rounding (at p = 401 its
    # value fell below the exact 1 by 7e-16), so only the constant runs
    cfg = builtin_config("ap3")
    rows = rho_curve(cfg, 401, [0.0, 1.0], restarts=16, seed=0)
    for row in rows:
        assert (row["value"], row["grad_norm"]) == (row["delta"], 0.0)
        assert np.array_equal(row["f_star"].values, np.full(401, row["delta"]))
    for delta in (0.0, 1.0):
        res = minimize_density(cfg, 31, delta, restarts=16)
        assert res.restarts_used == 1 and len(res.stats["iterations"]) == 1
    assert minimize_density(cfg, 31, 0.5, restarts=16).restarts_used == 17


def _starts(n, deltas, restarts, seed):
    """The starts minimize_density runs for each delta, stacked."""
    rand = [np.random.Generator(np.random.Philox(key=(seed << 20) + r)).random(n)
            for r in range(restarts)]
    return (np.stack([row for d in deltas for row in [np.full(n, d)] + rand]),
            np.repeat(deltas, restarts + 1))


def _pool(sols, G, start, row_deltas, max_iter):
    """One _pgd pool over the runs from start(0), start(1), ..., each run
    in its own slot, so that each keeps its result: final points, values,
    grad norms and traces per run, and the stats."""
    best, stats = _pgd(sols, G, start, row_deltas, np.arange(len(row_deltas)), max_iter, 1e-8)
    assert [run for run, *_ in best] == list(range(len(row_deltas)))
    F, vals, gnorms, traces = zip(*(b[1:] for b in best))
    return np.stack(F), np.array(vals), np.array(gnorms), list(traces), stats


@pytest.mark.parametrize("moduli, name, deltas, restarts", [
    ([31], "ap3", [round(0.1 * i, 1) for i in range(1, 10)], 16),
    ([401], "ap3", [0.5], 4),
    ([61], "parallelogram", [0.5], 16),
    ([3, 5], "ap3", [0.4], 4),
    ([3, 5], "parallelogram", [0.3, 0.7], 4),
])
def test_lockstep_rows_match_serial_runs(moduli, name, deltas, restarts):
    G = make_group(moduli)
    sols = dual_constraint_solutions(builtin_config(name), G)
    starts, row_deltas = _starts(G.order, deltas, restarts, seed=7)
    F, vals, gnorms, traces, _ = _pool(sols, G, starts.__getitem__, row_deltas, 3000)
    for i, (start, delta) in enumerate(zip(starts, row_deltas)):
        f, val, gnorm, trace = pgd_serial(sols, G, start, delta, 3000, 1e-8)
        assert vals[i] == pytest.approx(val, abs=1e-12)
        assert np.max(np.abs(F[i] - f)) <= 1e-9
        assert gnorms[i] == pytest.approx(gnorm, abs=1e-12)
        # each row stopped at the same iteration as its serial run
        assert len(traces[i]) == len(trace)


def test_lockstep_row_stops_at_max_iter():
    G = make_group([31])
    sols = dual_constraint_solutions(builtin_config("ap3"), G)
    starts, row_deltas = _starts(G.order, [0.3, 0.6], 3, seed=2)
    for max_iter in (0, 1, 5):
        F, vals, gnorms, traces, _ = _pool(sols, G, starts.__getitem__, row_deltas, max_iter)
        for i, (start, delta) in enumerate(zip(starts, row_deltas)):
            f, val, gnorm, trace = pgd_serial(sols, G, start, delta, max_iter, 1e-8)
            assert vals[i] == pytest.approx(val, abs=1e-12)
            assert gnorms[i] == pytest.approx(gnorm, abs=1e-12)
            got = traces[i]
            assert [it for it, _ in got] == [it for it, _ in trace]
            assert np.allclose([v for _, v in got], [v for _, v in trace], rtol=0, atol=1e-12)


def test_rho_curve_rows_equal_single_minimizations():
    cfg = builtin_config("ap3")
    deltas = [0.0, 0.2, 0.45, 0.7, 1.0]
    rows = rho_curve(cfg, 13, deltas, restarts=3, seed=4)
    for row, delta in zip(rows, deltas):
        res = minimize_density(cfg, 13, delta, restarts=3, seed=4)
        assert row["delta"] == delta
        assert row["value"] == pytest.approx(res.value, abs=1e-12)
        assert np.allclose(row["f_star"].values, res.f_star.values, rtol=0, atol=1e-9)
    # the endpoints run through the same pool as every other delta: the
    # rows are minimize_density's bit for bit
    cfg = builtin_config("parallelogram")
    rows = rho_curve(cfg, 101, [0.0, 1.0], restarts=2, seed=4)
    for row in rows:
        res = minimize_density(cfg, 101, row["delta"], restarts=2, seed=4)
        assert (row["value"], row["grad_norm"]) == (res.value, res.grad_norm)
        assert row["f_star"].values.tobytes() == res.f_star.values.tobytes()


@pytest.mark.parametrize("seed", [0, 5, 2**108 - 1])
def test_restart_r_of_seed_s_starts_from_the_philox_key_s_2_20_plus_r_minus_1(monkeypatch,
                                                                              seed):
    starts = []

    def pgd(sols, group, start, deltas, *args):
        starts.extend(start(i) for i in range(len(deltas)))
        return _pgd(sols, group, start, deltas, *args)

    monkeypatch.setattr(extremal, "_pgd", pgd)
    minimize_density(builtin_config("ap3"), 13, 0.25, restarts=3, seed=seed, max_iter=2)
    assert np.array_equal(starts[0], np.full(13, 0.25))
    for r in (1, 2, 3):
        key = seed * 2**20 + r - 1
        assert np.array_equal(starts[r],
                              np.random.Generator(np.random.Philox(key=key)).random(13))


def test_rho_curve_draws_each_restart_start_once(monkeypatch):
    # restart r starts from the same vector at every delta, so a curve
    # draws it once, not once per delta
    keys = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda key: keys.append(key) or philox(key=key))
    rows = rho_curve(builtin_config("ap3"), 31, [0.1 * i for i in range(1, 10)], restarts=16,
                     seed=7)
    assert sorted(keys) == [(7 << 20) + r for r in range(16)]
    for row in rows[::4]:
        res = minimize_density(builtin_config("ap3"), 31, row["delta"], restarts=16, seed=7)
        assert row["value"] == res.value
        assert row["f_star"].values.tobytes() == res.f_star.values.tobytes()


def test_chunked_runs_match_one_batch(monkeypatch):
    cfg = builtin_config("ap3")
    deltas = [0.25, 0.5, 0.75]
    whole = rho_curve(cfg, 11, deltas, restarts=3, seed=6)
    single = minimize_density(cfg, 11, 0.5, restarts=3, seed=6)
    pools, widths = [], []
    objective = extremal._objective

    def spy(*args):
        out = _pgd(*args)
        pools.append(out[1])
        return out

    def objective_spy(U, *args):
        widths.append(len(U))
        return objective(U, *args)

    # a pool of 2 rows
    sols = dual_constraint_solutions(cfg, make_group([11]))
    monkeypatch.setattr(extremal, "CALL_BYTES", 2 * extremal._row_bytes(sols, 11))
    monkeypatch.setattr(extremal, "_pgd", spy)
    monkeypatch.setattr(extremal, "_objective", objective_spy)
    chunked = rho_curve(cfg, 11, deltas, restarts=3, seed=6)
    # the widest _objective call is the pool's width
    assert len(pools) == 1 and len(pools[0]["iterations"]) == 12 and max(widths) == 2
    for a, b in zip(whole, chunked):
        assert a["value"] == pytest.approx(b["value"], abs=1e-12)
        assert a["grad_norm"] == pytest.approx(b["grad_norm"], abs=1e-12)
    monkeypatch.setattr(extremal, "CALL_BYTES", 1)
    widths.clear()
    res = minimize_density(cfg, 11, 0.5, restarts=3, seed=6)
    assert len(pools) == 2 and len(pools[1]["iterations"]) == 4 and max(widths) == 1
    assert res.stats["pool_rows"] == 1
    assert res.value == pytest.approx(single.value, abs=1e-12)
    assert [it for it, _ in res.trace] == [it for it, _ in single.trace]
    assert np.allclose([v for _, v in res.trace], [v for _, v in single.trace],
                       rtol=0, atol=1e-12)


def _left(entered, stats):
    """The pool iteration each run of a _pgd pool left at, from the pool
    iterations the runs entered at: after its start, each trial step takes
    one pool iteration, and the stopping test one more."""
    return np.array(entered) + stats["iterations"] + stats["backtracks"] + 1


def _call_spies(mp, objective_inputs, projected_rows, calls):
    """Record what every _objective call evaluates, how many rows every
    _project_rows call projects, and the order of the calls ("P" for a
    projection, "O" for an objective)."""
    objective, project = extremal._objective, _project_rows

    def objective_spy(U, *args):
        objective_inputs.append(U.copy())
        calls.append("O")
        return objective(U, *args)

    def project_spy(V, *args):
        projected_rows.append(len(V))
        calls.append("P")
        return project(V, *args)

    mp.setattr(extremal, "_objective", objective_spy)
    mp.setattr(extremal, "_project_rows", project_spy)


def _assert_one_projection_per_pool_iteration(calls, entered, stats):
    """A pool iteration makes one _project_rows call, then at most one
    _objective call."""
    assert re.fullmatch("(PO?)*", "".join(calls))
    assert calls.count("P") == _left(entered, stats).max() + 1
    assert calls.count("O") == stats["objective_calls"]


def _serial_counting_trials(mp, sols, G, start, delta, max_iter):
    """pgd_serial's run, and the values it evaluates: its start, then each
    trial step."""
    count = [0]

    def spectrum_spy(f):
        count[0] += 1
        return spectrum_array(f)

    mp.setattr(conftest, "spectrum_array", spectrum_spy)
    return pgd_serial(sols, G, start, delta, max_iter, 1e-8), count[0]


_POOL_CASES = (
    st.sampled_from(["ap3", "parallelogram"]),
    st.sampled_from([[7], [11], [31], [3, 5]]),
    st.sampled_from([0, 1, 5, 3000]),
    st.integers(1, 16),
    st.integers(0, 3),
    st.integers(0, 2**20),
    st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.75, 0.9]), min_size=1, max_size=3, unique=True),
)


@settings(max_examples=30, deadline=None)
@given(*_POOL_CASES)
def test_pool_rows_match_serial_runs_within_the_call_bound(name, moduli, max_iter, call_rows,
                                                            restarts, seed, deltas):
    G = make_group(moduli)
    cfg = builtin_config(name)
    sols = dual_constraint_solutions(cfg, G)
    row_bytes = extremal._row_bytes(sols, G.order)
    pools, objective_inputs, projected_rows, calls, serial = [], [], [], [], []

    def pgd_spy(sols, group, start, row_deltas, *args):
        starts, entered = [], []

        def start_spy(i):
            # the pool iteration run i enters at
            entered.append(calls.count("P"))
            starts.append(start(i))
            return starts[-1]

        out = _pgd(sols, group, start_spy, row_deltas, *args)
        pools.append((starts, entered, row_deltas, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        # the pool has call_rows rows
        mp.setattr(extremal, "CALL_BYTES", call_rows * row_bytes)
        mp.setattr(extremal, "_pgd", pgd_spy)
        _call_spies(mp, objective_inputs, projected_rows, calls)
        results, stats = extremal._minimize_grid(cfg, G, deltas, restarts, seed, max_iter, 1e-8)
        [(starts, entered, row_deltas, (best, pool_stats))] = pools
        assert pool_stats == stats
        _assert_one_projection_per_pool_iteration(calls, entered, stats)
        # the serial runs below project too
        assert stats["rows_projected"] == sum(projected_rows)
        for i, (start, delta) in enumerate(zip(starts, row_deltas)):
            (f, val, gnorm, trace), n_values = _serial_counting_trials(mp, sols, G, start, delta,
                                                                       max_iter)
            serial.append((f, val, gnorm, trace, n_values))
            assert stats["grad_norms"][i] == gnorm
            assert stats["iterations"][i] == len(trace) - 1
            # the serial run evaluates its start, then each trial step
            assert stats["backtracks"][i] == n_values - len(trace)
    # each run in its own slot gives its value, point and trace
    F, vals, gnorms, traces, _ = _pool(sols, G, starts.__getitem__, row_deltas, max_iter)
    for i, (f, val, gnorm, trace, _) in enumerate(serial):
        assert vals[i] == val and gnorms[i] == gnorm and traces[i] == trace
        assert np.array_equal(F[i], f)
    # the best run of each delta, its point and its trace; runs go restart
    # by restart, each over every delta
    runs = restarts + 1
    assert len(best) == len(results) == len(deltas)
    for d, (f, val, gnorm, trace) in enumerate(results):
        run = min(range(d, len(deltas) * runs, len(deltas)), key=lambda i: (serial[i][1], i))
        assert best[d][0] == run and np.array_equal(best[d][1], f)
        assert np.array_equal(f, serial[run][0])
        assert (val, gnorm, trace) == serial[run][1:4]
    # within the bound: a row's footprint covers two projected rows
    objective_rows = [len(U) for U in objective_inputs]
    assert max(objective_rows) <= call_rows
    assert max(projected_rows) <= 2 * call_rows
    assert len(stats["iterations"]) == len(stats["backtracks"]) == len(stats["grad_norms"]) \
        == len(deltas) * runs
    assert stats["pool_rows"] == call_rows
    assert stats["objective_calls"] == len(objective_rows)
    assert stats["rows_evaluated"] == sum(objective_rows)
    # the pool evaluates the steps the serial runs evaluate, and no more
    assert stats["rows_evaluated"] == sum(n_values for *_, n_values in serial)


@settings(max_examples=30, deadline=None)
@given(*_POOL_CASES)
def test_pool_runs_match_serial_runs_and_enter_as_rows_free(name, moduli, max_iter, call_rows,
                                                            restarts, seed, deltas):
    G = make_group(moduli)
    sols = dual_constraint_solutions(builtin_config(name), G)
    starts, row_deltas = _starts(G.order, deltas, restarts, seed)
    runs = len(starts)
    objective_inputs, projected_rows, calls, drawn_before, entered, serial_values = (
        [], [], [], [], [], [])

    def start(i):
        # a start is drawn once, in run order, with the objective calls
        # made so far and the pool iteration it enters at noted
        assert i == len(drawn_before)
        drawn_before.append(len(objective_inputs))
        entered.append(calls.count("P"))
        return starts[i]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extremal, "CALL_BYTES", call_rows * extremal._row_bytes(sols, G.order))
        _call_spies(mp, objective_inputs, projected_rows, calls)
        F, vals, gnorms, traces, stats = _pool(sols, G, start, row_deltas, max_iter)
        _assert_one_projection_per_pool_iteration(calls, entered, stats)
        for i in range(runs):
            (f, val, gnorm, trace), n_values = _serial_counting_trials(
                mp, sols, G, starts[i], row_deltas[i], max_iter)
            assert vals[i] == val and gnorms[i] == gnorm == stats["grad_norms"][i]
            assert np.array_equal(F[i], f)
            assert traces[i] == trace
            assert stats["iterations"][i] == len(trace) - 1
            assert stats["backtracks"][i] == n_values - len(trace)
            serial_values.append(n_values)
    assert stats["rows_evaluated"] == sum(serial_values)
    assert max(len(U) for U in objective_inputs) <= call_rows
    assert max(projected_rows) <= 2 * call_rows
    # each start is drawn in the pool iteration its run enters: the next
    # _objective call evaluates it, and the pool is full before any stop
    for i, q in enumerate(drawn_before):
        projected = project_box_mean(starts[i], row_deltas[i])
        assert (objective_inputs[q] == projected).all(axis=1).any()
    assert drawn_before.count(0) == min(runs, call_rows)
    # the first call_rows runs enter at once, each later one at the pool
    # iteration after a row frees
    assert not any(entered[:call_rows])
    left = np.sort(_left(entered, stats))
    assert np.array_equal(entered[call_rows:], left[:max(runs - call_rows, 0)] + 1)


@pytest.mark.parametrize("moduli, name", [([31], "ap3"), ([401], "ap3"), ([61], "parallelogram"),
                                          ([3, 5], "ap3"), ([2003], "ap3"), ([7], "ap3")])
def test_calls_allocate_within_the_byte_bound(moduli, name):
    G = make_group(moduli)
    sols = dual_constraint_solutions(builtin_config(name), G)
    width = extremal._call_rows(sols, G.order)
    # runs share a call even at large p
    assert width >= 2
    assert width * extremal._row_bytes(sols, G.order) <= extremal.CALL_BYTES
    # at the pool's width the rows' own bytes cover the fixed temporaries;
    # a one-row call may need the 8 KiB they add on top
    for rows, fixed in ((width, 0), (1, 8 << 10)):
        bound = rows * extremal._row_bytes(sols, G.order) + fixed
        U = np.random.default_rng(3).random((rows, G.order))
        for call, args in ((_project_rows, (np.concatenate([U, U]), np.full(2 * rows, 0.4))),
                           (extremal._objective, (U, sols, G))):
            call(*args)
            tracemalloc.start()
            try:
                call(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound


def test_minimize_stats_record_every_run():
    res = minimize_density(builtin_config("ap3"), 13, 0.3, restarts=4, seed=2)
    stats = res.stats
    assert len(stats["iterations"]) == len(stats["backtracks"]) == len(stats["grad_norms"]) == 5
    assert res.grad_norm in stats["grad_norms"]
    assert len(res.trace) - 1 in stats["iterations"]
    sols = dual_constraint_solutions(builtin_config("ap3"), make_group([13]))
    assert stats["pool_rows"] == extremal._call_rows(sols, 13)
    assert stats["rows_evaluated"] == sum(1 + i + b for i, b in zip(stats["iterations"],
                                                                   stats["backtracks"]))
    # a run projects its start, its gradient step at each point it
    # reaches, and each trial step; a rejected trial projects no new
    # gradient step
    assert stats["rows_projected"] == sum(3 + 2 * i + b for i, b in zip(stats["iterations"],
                                                                       stats["backtracks"]))
    assert set(res.to_json()) == {"value", "grad_norm", "restarts_used", "f_star", "trace",
                                  "bound_kind"}


def test_negative_max_iter_or_huge_seed_is_rejected_before_any_work(monkeypatch):
    def fail(*args, **kw):
        raise AssertionError("work started on invalid input")

    monkeypatch.setattr(extremal, "dual_constraint_solutions", fail)
    cfg = builtin_config("ap3")
    for kwargs in ({"max_iter": -1}, {"seed": 2**108}, {"restarts": 2**20 + 1},
                   {"restarts": -1}):
        with pytest.raises(ValidationError):
            minimize_density(cfg, 7, 0.5, **kwargs)
        with pytest.raises(ValidationError):
            rho_curve(cfg, 7, [0.0, 0.5], **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"p": 9}, {"seed": -1}, {"deltas": [0.5, -0.5]}, {"deltas": [0.5, 1.5]},
    {"deltas": [0.5, np.nan]}, {"deltas": [np.inf]}, {"deltas": [-np.inf, 0.5]},
])
def test_rho_curve_validates_before_any_work(kwargs, monkeypatch):
    def fail(*args, **kw):
        raise AssertionError("work started on invalid input")

    monkeypatch.setattr(extremal, "dual_constraint_solutions", fail)
    args = {"p": 7, "deltas": [0.0, 0.5, 1.0], "seed": 0} | kwargs
    with pytest.raises(ValidationError):
        rho_curve(builtin_config("ap3"), args["p"], args["deltas"], restarts=1,
                  seed=args["seed"])


@pytest.mark.parametrize("run", [lambda: minimize_density(builtin_config("ap3"), 401, 0.5, 0),
                                 lambda: rho_curve(builtin_config("ap3"), 401, [0.3, 0.5], 0)])
def test_pool_over_budget_is_refused_before_the_first_start(monkeypatch, run):
    # graph:0-1 on Z_100000000003 has a one-point dual lattice and a pool
    # row of 745 GiB; a low budget refuses ap3's pool on Z_401 the same way
    monkeypatch.setattr(extremal, "DENSITY_BUDGET", 10**4)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="pool holds .* over budget 10000"):
            run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sols = dual_constraint_solutions(builtin_config("ap3"), make_group([401]))
    refused = extremal._call_rows(sols, 401) * extremal._row_bytes(sols, 401)
    assert peak < refused / 10
