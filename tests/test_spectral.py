"""Fourier transform, Parseval, and the two U2 routes."""
import math

import numpy as np
import pytest

from grouplim import DenseFn, constant_fn, indicator_fn, make_group
from grouplim.errors import BudgetError, ValidationError
from grouplim.spectral import (
    dft,
    dft_naive,
    idft,
    spectrum_array,
    u2_direct,
    u2_fourier,
)
from conftest import random_dense

GROUPS = [make_group(m) for m in ([16], [5, 8], [2, 3, 4])]


@pytest.mark.parametrize("G", GROUPS, ids=str)
def test_fft_matches_naive_character_sum(G):
    f = random_dense(G, seed=11)
    assert np.allclose(spectrum_array(f), dft_naive(f), atol=1e-12)


@pytest.mark.parametrize("G", GROUPS, ids=str)
def test_parseval(G):
    f = random_dense(G, seed=23)
    mass_side = np.mean(np.abs(f.values) ** 2)
    freq_side = np.sum(np.abs(spectrum_array(f)) ** 2)
    assert abs(mass_side - freq_side) <= 1e-12 * max(1.0, mass_side)


@pytest.mark.parametrize("G", GROUPS, ids=str)
def test_idft_inverts_dft(G):
    f = random_dense(G, seed=31)
    g = idft(dft(f))
    assert np.allclose(g.values, f.values, atol=1e-10)


def test_dft_of_point_mass_is_flat():
    G = make_group([12])
    f = indicator_fn(G, [(0,)])
    spec = spectrum_array(f)
    assert np.allclose(spec, 1.0 / 12, atol=1e-14)


def test_dft_of_character_is_point_mass():
    G = make_group([10])
    x = np.arange(10)
    f = DenseFn(G, np.exp(2j * np.pi * 3 * x / 10))
    fhat = dft(f)
    assert set(fhat.entries) == {(3,)}
    assert abs(fhat.entries[(3,)] - 1.0) <= 1e-12


def test_dft_declares_full_l2_mass():
    G = make_group([9])
    f = random_dense(G, seed=7)
    fhat = dft(f)
    assert abs(fhat.l2_norm() - f.l2_norm()) <= 1e-12


def test_l2_norm_is_scaled_only_where_the_plain_formula_overflows():
    G = make_group([8])
    f = random_dense(G, seed=8)
    assert f.l2_norm() == float(np.sqrt(np.mean(np.abs(f.values) ** 2)))
    # |1e307|^2 overflows; a spike's norm is its size over sqrt(|A|)
    spike = DenseFn(G, np.where(np.arange(8) == 3, 1e307, 0.0))
    assert spike.l2_norm() == pytest.approx(1e307 / np.sqrt(8), rel=1e-15)
    both = DenseFn(G, np.full(8, 1.5e308 - 1.5e308j))
    assert both.l2_norm() == math.inf


def test_overflowing_transforms_are_refused():
    huge = constant_fn(make_group([5]), 1e308)
    for route in (spectrum_array, dft, u2_fourier, u2_direct):
        with pytest.raises(ValidationError, match="overflows"):
            route(huge)


@pytest.mark.parametrize("route", [u2_fourier, u2_direct])
def test_u2_is_scaled_only_where_its_fourth_powers_overflow(route):
    # (1e100)^4 overflows, the norm itself does not
    assert route(constant_fn(make_group([5]), 1e100)) == 1e100
    for G in GROUPS:
        f = random_dense(G, seed=41)
        big = DenseFn(G, 2.0**300 * f.values)
        assert route(big) == pytest.approx(2.0**300 * route(f), rel=1e-15)


def test_u2_fourier_keeps_the_plain_bits_and_reaches_the_top_of_the_range():
    f = random_dense(GROUPS[1], seed=42)
    assert u2_fourier(f) == float(np.sum(np.abs(spectrum_array(f)) ** 4) ** 0.25)
    # the autocorrelation of this constant overflows, its spectrum does not
    assert u2_fourier(constant_fn(make_group([1]), 1.5e308)) == 1.5e308


@pytest.mark.parametrize("G", GROUPS, ids=str)
def test_u2_direct_equals_u2_fourier(G):
    for seed in range(5):
        f = random_dense(G, seed=100 + seed)
        assert abs(u2_direct(f) - u2_fourier(f)) <= 1e-10


def test_u2_of_constant():
    G = make_group([8])
    assert abs(u2_fourier(constant_fn(G, 0.3)) - 0.3) <= 1e-12


def test_u2_sandwich_between_sup_norm_bounds():
    G = make_group([24])
    for seed in range(5):
        f = random_dense(G, seed=200 + seed)
        sup = float(np.max(np.abs(spectrum_array(f))))
        u2 = u2_fourier(f)
        l2 = f.l2_norm()
        assert sup <= u2 + 1e-12
        assert u2 <= np.sqrt(l2 * sup) + 1e-12


def test_u2_direct_guards_large_orders():
    G = make_group([8192])
    f = constant_fn(G, 0.5)
    with pytest.raises(BudgetError):
        u2_direct(f)
