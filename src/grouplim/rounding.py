"""Randomized rounding of [0,1]-valued functions to set indicators with
small U2 deviation, plus the density top-up used when a target mean must
be met exactly."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import (MAX_TRIES, TOPUP_JUMPS, TRY_BITS, ValidationError, check_count, check_delta,
                     check_seed)
from .functions import DenseFn
from .spectral import u2_fourier


def _uniforms(seed: int, n: int) -> np.ndarray:
    # Philox is counter-based: key = seed, counters 0..n-1, so the draw for
    # element index i depends only on (seed, i) and a parallel fill would
    # produce the same table.
    return np.random.Generator(np.random.Philox(key=seed)).random(n)


def randomized_round(f: DenseFn, seed: int) -> DenseFn:
    """Independent Bernoulli rounding: each output value is 1 with
    probability f(a), deterministically given the seed."""
    check_seed(seed)
    if not f.is_real():
        raise ValidationError("randomized_round expects a real-valued function")
    p = f.values.real
    if p.min(initial=0.0) < -1e-12 or p.max(initial=0.0) > 1 + 1e-12:
        raise ValidationError("values must lie in [0, 1]")
    p = np.clip(p, 0.0, 1.0)
    u = _uniforms(seed, f.group.order)
    h = (u < p).astype(np.complex128)
    return DenseFn(f.group, h)


def round_best_of(f: DenseFn, seed: int, tries: int = 8) -> tuple[DenseFn, float, int]:
    """Round with several derived seeds and keep the output whose U2
    deviation from f is smallest.  Returns (h, deviation, winning seed)."""
    check_count(tries, "tries", 1, MAX_TRIES)
    check_seed(seed, TRY_BITS)
    best = None
    for s in range(tries):
        sub_seed = (seed << TRY_BITS) + s
        h = randomized_round(f, sub_seed)
        dev = u2_fourier(DenseFn(f.group, h.values - f.values))
        if best is None or dev < best[1]:
            best = (h, dev, sub_seed)
    return best


def adjust_density(h: DenseFn, delta: float, seed: int) -> DenseFn:
    """If mean(h) is below delta, flip uniformly random zero positions to 1
    until the count of ones is ceil(delta * |A|); otherwise return h
    unchanged.  Values are never lowered.  The positions come from the
    top-up stream of seed (errors.TOPUP_JUMPS), which no rounding try
    draws from."""
    check_seed(seed)
    check_delta(delta)
    vals = h.values.real
    if not np.all((np.abs(vals) < 1e-12) | (np.abs(vals - 1) < 1e-12)):
        raise ValidationError("adjust_density expects a {0,1}-valued function")
    n = h.group.order
    ones = int(round(vals.sum()))
    if ones / n >= delta:
        return h
    target = math.ceil(delta * n)
    zeros = np.nonzero(vals < 0.5)[0]
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(TOPUP_JUMPS))
    flip = rng.permutation(zeros)[: target - ones]
    out = vals.copy()
    out[flip] = 1.0
    return DenseFn(h.group, out.astype(np.complex128))
