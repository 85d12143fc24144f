"""Deterministic pseudo-randomness for the whole package: SplitMix64.

Every random choice anywhere in this project flows from a single 64-bit
seed through this generator, so identical seeds reproduce identical runs
on every platform.  The algorithm is SplitMix64 (the output mixer of
Java's SplittableRandom; Steele, Lea & Flood 2014) and is fixed forever:

    state   <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z       <- state
    z       <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z       <- (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output  <- z XOR (z >> 31)

Uniform doubles in [0, 1) take the top 53 bits: (output >> 11) * 2^-53.
Scalar and block outputs draw from one and the same stream.  The scalar
methods are pure Python; the block methods load numpy on first use, so a
caller that draws only scalars never imports it.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_DOUBLE_UNIT = 2.0 ** -53


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit deterministic generator with scalar and vectorized output."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def random(self) -> float:
        """One uniform double in [0, 1)."""
        return (self.next_uint64() >> 11) * _DOUBLE_UNIT

    def advance(self, count: int) -> "SplitMix64":
        """Skip the next `count` outputs in O(1) and return the generator.

        The state after i draws is seed + i * gamma (mod 2^64), so skipping
        is one multiply-add; `count` is taken mod 2^64.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        self._state = (self._state + count * _GAMMA) & _MASK64
        return self

    def uint64_block(self, count: int) -> np.ndarray:
        """The next `count` raw outputs, as one vectorized batch.

        The state of the i-th draw is seed + (drawn so far + i + 1) * gamma,
        an arithmetic sequence, which is what makes batching possible without
        changing the stream.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        import numpy as np

        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)  # wraps mod 2^64 by unsigned arithmetic
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX_A)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX_B)
        z ^= z >> np.uint64(31)
        self.advance(count)
        return z

    def random_block(self, count: int) -> np.ndarray:
        """The next `count` uniform doubles in [0, 1)."""
        import numpy as np

        return (self.uint64_block(count) >> np.uint64(11)).astype(np.float64) * _DOUBLE_UNIT
