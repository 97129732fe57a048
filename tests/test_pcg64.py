"""The in-repo PCG64 stream draws what ``numpy.random.default_rng`` draws."""

import math

import numpy as np
import pytest

from blochobs import ensemble
from blochobs._pcg64 import PCG64Stream

SEEDS = [*range(200), 2**32 - 1, 2**32, 2**64 + 3, 10**30]


def _draws(rng, rounds):
    """Interleaved calls: the ranges random_schedule and
    addition_theorem_residual use, a one-value range (numpy draws nothing), a
    range that Lemire's method rejects about a quarter of the time, and the
    full 32-bit range."""
    out = []
    for _ in range(rounds):
        out += [
            int(rng.integers(1, 5)),
            float(rng.uniform(0.1, 1.0)),
            int(rng.integers(0, 7)),
            float(rng.uniform(-2, 2)),
            int(rng.integers(5, 6)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
            int(rng.integers(0, 3 * 2**30 + 1)),
            int(rng.integers(-5, 2**32 - 5)),
            float(rng.uniform(-1.0, 1.0)),
        ]
    return out


def test_stream_matches_default_rng():
    for seed in SEEDS:
        assert _draws(PCG64Stream(seed), 7) == _draws(np.random.default_rng(seed), 7), seed


@pytest.mark.parametrize("seed", [0, 3, 5, 2**40])
def test_random_schedule_matches_under_both_generators(seed):
    ours, numpys = PCG64Stream(seed), np.random.default_rng(seed)
    for _ in range(50):
        assert ensemble.random_schedule(ours) == ensemble.random_schedule(numpys)


def test_integers_rejects_biased_draws():
    """For 3 values, a 32-bit draw x gives (3x) >> 32 and is drawn again while
    (3x) mod 2**32 < 2**32 mod 3 = 1."""
    rng = PCG64Stream(0)
    draws = iter([0, 0x55555556, 7])
    rng._next32 = lambda: next(draws)
    assert rng.integers(10, 13) == 11  # 0 rejected; 3 * 0x55555556 = 2**32 + 2
    assert rng.integers(10, 13) == 10  # 21 < 2**32
    with pytest.raises(StopIteration):
        rng.integers(10, 13)


@pytest.mark.parametrize("low, high", [(3, 3), (4, 2), (0, 2**32 + 1)])
def test_integers_rejects_ranges_outside_32_bits(low, high):
    with pytest.raises(ValueError):
        PCG64Stream(0).integers(low, high)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        PCG64Stream(-1)
