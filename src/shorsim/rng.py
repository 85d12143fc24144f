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

The states of a block are the current state plus (i + 1) * gamma, so a
block adds its state to a table of those offsets, built by the first block
call (never at import), read-only and shared, and tiled for blocks longer
than its 2^14 words (128 KB).  Each call then mixes its block in place with
one scratch array of its own: nothing writable is shared, so generators
may draw blocks from several threads at once.
"""

from __future__ import annotations

from .errors import guard, integer

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_DOUBLE_UNIT = 2.0 ** -53
_OFFSET_WORDS = 1 << 14
#: Cap on the words of one block: 16 bytes a word with its scratch, so
#: 256 MB and about 0.5 s at the cap (2-CPU host).
MAX_BLOCK_WORDS = 1 << 24
_offsets = None  # (i + 1) * gamma mod 2^64 for i < _OFFSET_WORDS, read-only


def _offset_table():
    """The read-only table of state offsets, built on first use."""
    global _offsets
    if _offsets is None:
        import numpy as np

        table = np.arange(1, _OFFSET_WORDS + 1, dtype=np.uint64)
        table *= np.uint64(_GAMMA)
        table.flags.writeable = False
        _offsets = table
    return _offsets


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit deterministic generator with scalar and vectorized output."""

    def __init__(self, seed: int):
        integer("seed", seed)
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
        integer("count", count, 0)
        self._state = (self._state + count * _GAMMA) & _MASK64
        return self

    def uint64_block(self, count: int) -> np.ndarray:
        """The next `count` raw outputs, as one vectorized batch.

        The state of the i-th draw is seed + (drawn so far + i + 1) * gamma,
        an arithmetic sequence, which is what makes batching possible without
        changing the stream.
        """
        integer("count", count, 0)
        guard("count", count, MAX_BLOCK_WORDS, "a block of random words")
        import numpy as np

        offsets = _offset_table()
        z = np.empty(count, dtype=np.uint64)
        state = self._state
        for start in range(0, count, _OFFSET_WORDS):
            stop = min(start + _OFFSET_WORDS, count)
            # wraps mod 2^64 by unsigned arithmetic
            np.add(offsets[:stop - start], np.uint64(state), out=z[start:stop])
            state = (state + (stop - start) * _GAMMA) & _MASK64
        scratch = np.empty_like(z)
        z ^= np.right_shift(z, np.uint64(30), out=scratch)
        z *= np.uint64(_MIX_A)
        z ^= np.right_shift(z, np.uint64(27), out=scratch)
        z *= np.uint64(_MIX_B)
        z ^= np.right_shift(z, np.uint64(31), out=scratch)
        self._state = state
        return z

    def random_block(self, count: int) -> np.ndarray:
        """The next `count` uniform doubles in [0, 1)."""
        import numpy as np

        z = self.uint64_block(count)
        z >>= np.uint64(11)
        return np.multiply(z, _DOUBLE_UNIT)  # exact: z < 2^53 converts as is
