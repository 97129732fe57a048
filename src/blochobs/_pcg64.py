"""The stream of ``numpy.random.default_rng(seed)``, in plain Python ints.

``PCG64Stream(seed)`` draws the same numbers as ``default_rng(seed)`` for the
two methods the package calls, without importing ``numpy.random``:

* seeding follows ``SeedSequence`` for an int entropy (pool size 4,
  ``hashmix``/``mix``, then ``generate_state(4, uint64)``) and
  ``pcg64_set_seed``;
* each 64-bit output is the XSL-RR of the advanced 128-bit state (O'Neill,
  "PCG: A family of simple fast space-efficient statistically good
  algorithms for random number generation", HMC-CS-2014-0905);
* ``integers`` is Lemire's bounded method on 32-bit draws, each 64-bit output
  giving its low half and then, at the next 32-bit draw, its high half;
* ``uniform`` scales the top 53 bits of a fresh 64-bit output.

Imported only inside the functions that draw, so a process that never draws
neither compiles nor loads it.
"""

from __future__ import annotations

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as ints."""
    words = [seed & _MASK32]  # the entropy as 32-bit words, least significant first
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(2 * 4):  # four uint64 words, drawn as eight uint32 words
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ (value >> 16))
    return [out[i] | out[i + 1] << 32 for i in range(0, len(out), 2)]


class PCG64Stream:
    """``default_rng(seed)``'s ``integers(low, high)`` and ``uniform(low, high)``."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("expected non-negative integer")
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        # pcg64_set_seed: one step from state 0 gives inc, add the seed, step again.
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _MASK128
        self._high_half: int | None = None  # the unread high half of the last 32-bit draw

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        value = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((value >> rot) | (value << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        if self._high_half is not None:
            value, self._high_half = self._high_half, None
            return value
        value = self._next64()
        self._high_half = value >> 32
        return value & _MASK32

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high), for a range of at most 2**32 values."""
        span = high - low
        if not 1 <= span <= 1 << 32:
            raise ValueError("integers needs 1 <= high - low <= 2**32")
        if span == 1:  # numpy draws nothing for a one-value range
            return low
        m = self._next32() * span
        if m & _MASK32 < span:
            threshold = (1 << 32) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def uniform(self, low: float, high: float) -> float:
        """A float in [low, high)."""
        low, high = float(low), float(high)
        return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)
