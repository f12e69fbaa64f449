"""The seeded stream of the check families, ``reports.SplitMix64``.

A pure-Python SplitMix64 over ints masked to 64 bits is the oracle: the
vectorized stream must match it bit for bit, however its draws are split.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from chaoscalc.reports import SplitMix64, uniform_draws

MASK = (1 << 64) - 1


def oracle(seed: int, count: int) -> list:
    """The first ``count`` draws of ``seed``, one Python int at a time."""
    out = []
    for i in range(count):
        z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        z ^= z >> 31
        out.append((z >> 11) / 2**53)
    return out


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5])
def test_stream_matches_the_scalar_oracle(seed):
    assert SplitMix64(seed).random(1000).tolist() == oracle(seed, 1000)


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_split_draws_read_as_one(seed):
    # sizes, a bare scalar and an out array continue one another
    rng = SplitMix64(seed)
    out = np.empty((4, 5))
    parts = [rng.random(3), rng.random((2, 7)).ravel(), [rng.random()], rng.random(out=out).ravel()]
    assert np.concatenate(parts).tolist() == SplitMix64(seed).random(38).tolist()


def test_out_is_filled_in_place():
    out = np.full((3, 4), -1.0)
    assert SplitMix64(7).random(out=out) is out
    assert out.tolist() == SplitMix64(7).random((3, 4)).tolist()
    with pytest.raises(ValueError):
        SplitMix64(7).random(out=np.empty((4, 4))[:, ::2])
    with pytest.raises(ValueError):
        SplitMix64(7).random(out=np.empty(4, dtype=np.float32))


def test_a_bare_draw_is_a_float():
    value = SplitMix64(3).random()
    assert type(value) is float and value == oracle(3, 1)[0]


def test_values_lie_in_the_unit_interval():
    values = SplitMix64(5).random(1 << 16)
    assert values.min() >= 0.0 and values.max() < 1.0


def test_nearby_seeds_share_no_draw():
    # a seed added to the counter instead of the state would make seed s + 1
    # the stream of seed s one draw on
    draws = np.concatenate([SplitMix64(seed).random(4096) for seed in range(64)])
    assert len(np.unique(draws)) == draws.size


def test_no_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 2**63 + 5, 2**64 - 1):
            rng = SplitMix64(seed)
            rng.random(1000)
            rng.random()
            uniform_draws(rng, (3, 3), complex)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_rejected(seed):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        SplitMix64(seed)


def test_uniform_draws_map_consecutive_pairs():
    # real part first, then imaginary, each 2u - 1 of its draw
    z = uniform_draws(SplitMix64(11), (2, 3), complex)
    u = np.array(oracle(11, 12))
    assert z.shape == (2, 3) and z.dtype == complex
    assert z.ravel().view(float).tolist() == (2.0 * u - 1.0).tolist()
    x = uniform_draws(SplitMix64(11), 12)
    assert x.tolist() == (2.0 * u - 1.0).tolist()
    assert -1.0 <= x.min() and x.max() < 1.0
