"""Randomized set rounding."""
import numpy as np
import pytest

from grouplim import DenseFn, constant_fn, make_group, rounding
from grouplim.errors import ValidationError
from grouplim.rounding import adjust_density, randomized_round, round_best_of
from grouplim.spectral import u2_fourier


def test_round_outputs_are_zero_one_and_deterministic():
    G = make_group([64])
    rng = np.random.default_rng(1)
    f = DenseFn(G, rng.random(64).astype(np.complex128))
    h1 = randomized_round(f, seed=7)
    h2 = randomized_round(f, seed=7)
    assert np.array_equal(h1.values, h2.values)
    assert set(np.unique(h1.values.real)) <= {0.0, 1.0}
    h3 = randomized_round(f, seed=8)
    assert not np.array_equal(h1.values, h3.values)


def test_round_respects_deterministic_endpoints():
    G = make_group([16])
    vals = np.zeros(16, dtype=np.complex128)
    vals[:8] = 1.0
    f = DenseFn(G, vals)
    h = randomized_round(f, seed=3)
    assert np.array_equal(h.values, vals)


def test_round_validates_input_range():
    G = make_group([4])
    with pytest.raises(ValidationError):
        randomized_round(constant_fn(G, 1.5), seed=0)
    with pytest.raises(ValidationError):
        randomized_round(constant_fn(G, 0.5 + 0.5j), seed=0)


def test_round_mean_concentrates():
    G = make_group([4096])
    f = constant_fn(G, 0.5)
    means = [randomized_round(f, seed=s).mean().real for s in range(10)]
    assert all(abs(m - 0.5) < 0.05 for m in means)


def test_round_best_of_picks_smallest_deviation():
    G = make_group([256])
    rng = np.random.default_rng(9)
    f = DenseFn(G, rng.random(256).astype(np.complex128))
    h, dev, sub_seed = round_best_of(f, seed=5, tries=6)
    devs = []
    for s in range(6):
        hs = randomized_round(f, (5 << 16) + s)
        devs.append(u2_fourier(DenseFn(G, hs.values - f.values)))
    assert dev == pytest.approx(min(devs), abs=1e-15)
    assert sub_seed == (5 << 16) + int(np.argmin(devs))
    assert u2_fourier(DenseFn(G, h.values - f.values)) == pytest.approx(dev)


def test_adjust_density_raises_count_to_target():
    G = make_group([100])
    vals = np.zeros(100, dtype=np.complex128)
    vals[:20] = 1.0
    h = DenseFn(G, vals)
    out = adjust_density(h, delta=0.37, seed=11)
    assert int(out.values.real.sum()) == 37
    # never lowers a value
    assert np.all(out.values.real >= vals.real - 1e-12)
    # already dense enough: unchanged
    same = adjust_density(h, delta=0.1, seed=11)
    assert np.array_equal(same.values, vals)


def test_adjust_density_requires_indicator_input():
    G = make_group([10])
    with pytest.raises(ValidationError):
        adjust_density(constant_fn(G, 0.5), delta=0.6, seed=0)


def test_rounding_rejects_negative_seeds():
    G = make_group([8])
    f = constant_fn(G, 0.5)
    with pytest.raises(ValidationError):
        randomized_round(f, seed=-1)
    with pytest.raises(ValidationError):
        round_best_of(f, seed=-1)
    with pytest.raises(ValidationError):
        adjust_density(constant_fn(G, 0.0), 0.5, seed=-1)


@pytest.mark.parametrize("seed", [0, 5, 2**112 - 1])
def test_try_t_of_seed_s_rounds_with_the_philox_key_s_2_16_plus_t(seed):
    G = make_group([64])
    f = DenseFn(G, np.random.default_rng(2).random(64).astype(np.complex128))
    rounded = {}
    for t in range(5):
        key = seed * 2**16 + t
        u = np.random.Generator(np.random.Philox(key=key)).random(64)
        rounded[key] = (u < f.values.real).astype(np.complex128)
    h, dev, win = round_best_of(f, seed, tries=5)
    assert np.array_equal(h.values, rounded[win])
    assert win == min(rounded, key=lambda k: u2_fourier(DenseFn(G, rounded[k] - f.values)))


def test_round_best_of_checks_seed_and_tries_before_any_work(monkeypatch):
    def fail(*args, **kw):
        raise AssertionError("work started on invalid input")

    monkeypatch.setattr(rounding, "randomized_round", fail)
    f = constant_fn(make_group([8]), 0.5)
    # try s of seed 0 and try 0 of seed 1 would share the key 2**16
    for kwargs in ({"seed": 2**112}, {"seed": 2**120}, {"seed": 0, "tries": 2**16 + 1}):
        with pytest.raises(ValidationError):
            round_best_of(f, **kwargs)


def _philox_state(bits):
    """(key, counter) of a Philox bit generator, each as one integer."""
    state = bits.state["state"]
    return tuple(sum(int(x) << (64 * i) for i, x in enumerate(state[part]))
                 for part in ("key", "counter"))


def test_density_top_up_draws_from_no_rounding_try_stream(monkeypatch):
    # the top-up of seed s shares its key with try 0 of seed s and with try s
    # of seed 0; a stream is its key and the counter blocks from its first
    # to its last draw, and no top-up stream may overlap a rounding stream
    made = []
    generator = np.random.Generator
    monkeypatch.setattr(np.random, "Generator",
                        lambda bits: made.append((bits, _philox_state(bits)[1])) or generator(bits))
    G = make_group([64])
    f = DenseFn(G, 0.5 * np.random.default_rng(3).random(64).astype(np.complex128))

    def streams(draw):
        made.clear()
        draw()
        return [(_philox_state(bits)[0], first, _philox_state(bits)[1]) for bits, first in made]

    rounds = streams(lambda: [round_best_of(f, seed, tries=6) for seed in (0, 1, 5)])
    h = randomized_round(f, 0)
    topups = streams(lambda: [adjust_density(h, 0.9, seed) for seed in range(6)])
    assert len(rounds) == 18 and len(topups) == 6
    for key, first, last in topups:
        assert first < last
        assert all(k != key or last < a or b < first for k, a, b in rounds), key
