"""Convergence diagnostics for function sequences."""
import numpy as np
import pytest

from grouplim import DenseFn, constant_fn, make_group, metric, sequences
from grouplim.errors import ValidationError
from grouplim.linconfig import builtin_config, density_brute
from grouplim.metric import d_metric, dprime
from grouplim.sequences import (
    cauchy_detect,
    continuity_probe,
    histogram_distance,
    pairwise_table,
    value_histogram,
)
from grouplim.spectral import dft
from conftest import random_dense


def pullback_sequence():
    """A function on Z_2 pulled back along Z_{2^k} -> Z_2: d-distance 0
    between any two terms, the discrete model of a convergent sequence."""
    base = np.array([0.2, 0.9])
    fs = []
    for k in range(1, 4):
        n = 2**k
        G = make_group([n])
        fs.append(DenseFn(G, base[np.arange(n) % 2].astype(np.complex128)))
    return fs


def test_pairwise_table_shape_and_diagonal():
    fs = pullback_sequence()
    table = pairwise_table(fs)
    assert len(table) == 3
    for i in range(3):
        assert (table[i][i].lo, table[i][i].hi, table[i][i].exact) == (0.0, 0.0, True)
        for j in range(3):
            assert table[i][j] is table[j][i] or (
                table[i][j].lo == table[j][i].lo and table[i][j].hi == table[j][i].hi)


@pytest.mark.parametrize("metric, oracle", [("d", d_metric), ("dprime", dprime)])
def test_pairwise_table_cells_match_per_pair_metric(monkeypatch, metric, oracle):
    groups = [make_group(m) for m in ([4], [2, 2], [6], [2, 3], [5])]
    fs = [random_dense(G, seed=30 + i) for i, G in enumerate(groups)]
    # a CRT pullback of fs[2] onto Z_2 x Z_3: an exact zero cell
    fs.append(DenseFn(groups[3], fs[2].values[[(3 * a + 4 * b) % 6 for a in range(2)
                                               for b in range(3)]]))
    dft_calls = []
    monkeypatch.setattr(sequences, "dft", lambda f: dft_calls.append(f) or dft(f))
    table = pairwise_table(fs, metric=metric, node_budget=10**4)
    assert len(dft_calls) == len(fs)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            assert table[i][j] == oracle(fs[i], fs[j], node_budget=10**4)
    assert table[2][5].hi == 0.0


def test_pairwise_table_rejects_unknown_metric():
    with pytest.raises(ValidationError):
        pairwise_table(pullback_sequence(), metric="L1")


@pytest.mark.parametrize("limits", [{"weight_cap": 0}, {"node_budget": -5},
                                    {"weight_cap": 0, "node_budget": -5}])
def test_pairwise_table_rejects_bad_search_limits_even_without_pairs(limits):
    # a single function has no pair to run a search on
    for fs in (pullback_sequence()[:1], pullback_sequence()):
        with pytest.raises(ValidationError):
            pairwise_table(fs, **limits)


def test_pullback_sequence_is_cauchy():
    fs = pullback_sequence()
    table = pairwise_table(fs)
    ok, tail = cauchy_detect(table, tol=1e-9)
    assert ok
    assert tail == 0


def test_divergent_sequence_is_not_cauchy():
    G = make_group([8])
    fs = [constant_fn(G, 0.1), constant_fn(G, 0.9), constant_fn(G, 0.1)]
    ok, _ = cauchy_detect(pairwise_table(fs, metric="dprime"), tol=0.05)
    assert not ok


def test_value_histogram_masses():
    G = make_group([16])
    f = random_dense(G, seed=6, box=True)
    h = value_histogram(f, bins=8)
    assert h.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert histogram_distance(h, h) == 0.0


def test_value_histogram_complex_uses_joint_bins():
    G = make_group([9])
    f = random_dense(G, seed=7)
    h = value_histogram(f, bins=4)
    assert h.masses.size == 16
    assert h.masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_histogram_distance_requires_shared_grid():
    G = make_group([16])
    f = random_dense(G, seed=8, box=True)
    h1 = value_histogram(f, bins=8, range_re=(0, 1))
    h2 = value_histogram(f, bins=8, range_re=(0, 2))
    with pytest.raises(ValidationError):
        histogram_distance(h1, h2)
    g = random_dense(G, seed=9, box=True)
    h3 = value_histogram(g, bins=8, range_re=(0, 1))
    assert 0.0 <= histogram_distance(h1, h3) <= 2.0 + 1e-12


def test_continuity_probe_reports_complexity_flag():
    G = make_group([7])
    pairs = [(random_dense(G, seed=2 * k, box=True),
              random_dense(G, seed=2 * k + 1, box=True)) for k in range(3)]
    cfg = builtin_config("ap3")
    rows, cs1 = continuity_probe(cfg, pairs)
    assert cs1
    assert len(rows) == 3
    for (d_hi, dt), (f1, f2) in zip(rows, pairs):
        assert d_hi >= 0 and dt >= 0
        assert dt == pytest.approx(abs(density_brute(cfg, f1) - density_brute(cfg, f2)),
                                   rel=0, abs=1e-12)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-300])
def test_cauchy_detect_rejects_tol_that_is_not_finite_and_nonnegative(tol):
    table = pairwise_table(pullback_sequence())
    with pytest.raises(ValidationError):
        cauchy_detect(table, tol)
    assert cauchy_detect(table, 0.0) == (True, 0)


def test_pairwise_table_cell_over_the_candidate_budget_is_none(monkeypatch):
    fs = [random_dense(make_group([n]), seed) for n, seed in ((30, 1), (40, 2))]
    monkeypatch.setattr(metric, "DENSITY_BUDGET", 10**3, raising=False)
    table = pairwise_table(fs)
    # 30 x 40 differences are over budget; the diagonal needs no metric call
    assert table[0][1] is None and table[1][0] is None
    assert table[0][0].hi == table[1][1].hi == 0.0
