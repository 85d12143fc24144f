"""SplitMix64 determinism and stream-consistency checks."""

import sys
import threading

import numpy as np
import pytest

from shorsim import rng
from shorsim.rng import SplitMix64


def test_scalar_and_block_share_one_stream():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    scalar = [a.next_uint64() for _ in range(100)]
    block = b.uint64_block(100)
    assert scalar == [int(v) for v in block]


def test_mixed_scalar_block_interleaving():
    a = SplitMix64(99)
    b = SplitMix64(99)
    left = [a.next_uint64() for _ in range(3)] + [int(v) for v in a.uint64_block(5)] + [a.next_uint64()]
    right = [int(v) for v in b.uint64_block(9)]
    assert left == right


def test_same_seed_reproduces_different_seed_differs():
    assert SplitMix64(7).uint64_block(50).tolist() == SplitMix64(7).uint64_block(50).tolist()
    assert SplitMix64(7).uint64_block(50).tolist() != SplitMix64(8).uint64_block(50).tolist()


def test_doubles_live_in_unit_interval():
    u = SplitMix64(0).random_block(10_000)
    assert np.all(u >= 0.0)
    assert np.all(u < 1.0)
    # crude uniformity: mean of 10k uniforms is within 5 sigma of 1/2
    assert abs(u.mean() - 0.5) < 5 * (1 / 12) ** 0.5 / 100


def test_scalar_double_matches_block_double():
    a = SplitMix64(4242)
    b = SplitMix64(4242)
    assert [a.random() for _ in range(20)] == b.random_block(20).tolist()


def test_reference_algorithm_values():
    # recompute the first outputs with an independent inline transcription
    mask = (1 << 64) - 1
    state = 0
    expected = []
    for _ in range(5):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        expected.append(z ^ (z >> 31))
    rng = SplitMix64(0)
    assert [rng.next_uint64() for _ in range(5)] == expected


@pytest.mark.parametrize("k", [0, 1, 5_000_000])
def test_advance_equals_drawing(k):
    drawn = SplitMix64(31)
    drawn.uint64_block(k)
    skipped = SplitMix64(31).advance(k)
    assert skipped.uint64_block(4).tolist() == drawn.uint64_block(4).tolist()


@pytest.mark.parametrize("k", [2**63, 3 * 2**62 + 7, 2**64 - 1])
def test_advance_moves_the_state_by_k_gammas(k):
    # after k skipped draws the next output mixes seed + (k + 1) * gamma
    mask = (1 << 64) - 1
    z = (12 + (k + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    assert SplitMix64(12).advance(k).next_uint64() == z ^ (z >> 31)


def test_advance_wraps_mod_two_to_the_64():
    a = SplitMix64(8).advance(2**64 + 3)
    b = SplitMix64(8).advance(3)
    assert a.next_uint64() == b.next_uint64()


def test_advance_rejects_negative_counts():
    with pytest.raises(ValueError):
        SplitMix64(0).advance(-1)


@pytest.mark.parametrize("block", ["uint64_block", "random_block"])
def test_blocks_reject_negative_counts_before_drawing(block):
    drawn, fresh = SplitMix64(5), SplitMix64(5)
    with pytest.raises(ValueError):
        getattr(drawn, block)(-1)
    assert drawn.next_uint64() == fresh.next_uint64()  # no word was drawn


# every state seed + i * gamma of a block from this seed wraps 2^64
WRAPPING_SEED = 2**64 - 1
# around the 2^14-word table of state offsets, and several tables long
BLOCK_COUNTS = [1, 2**14 - 1, 2**14, 2**14 + 1, 50_000]


@pytest.mark.parametrize("count", BLOCK_COUNTS)
def test_word_block_equals_scalar_draws(count):
    block, scalar = SplitMix64(WRAPPING_SEED), SplitMix64(WRAPPING_SEED)
    words = block.uint64_block(count)
    assert words.dtype == np.uint64 and words.shape == (count,)
    assert words.tolist() == [scalar.next_uint64() for _ in range(count)]
    assert block.next_uint64() == scalar.next_uint64()  # the same state after


@pytest.mark.parametrize("count", BLOCK_COUNTS)
def test_double_block_equals_scalar_draws(count):
    block, scalar = SplitMix64(WRAPPING_SEED), SplitMix64(WRAPPING_SEED)
    doubles = block.random_block(count)
    assert doubles.dtype == np.float64
    assert doubles.tobytes() == np.array([scalar.random() for _ in range(count)]).tobytes()
    assert block.random() == scalar.random()


def test_offset_table_is_read_only():
    SplitMix64(1).uint64_block(1)
    table = rng._offset_table()
    assert not table.flags.writeable
    assert table[:3].tolist() == [(i * rng._GAMMA) % 2**64 for i in (1, 2, 3)]


def test_threads_draw_blocks_without_sharing_state(monkeypatch):
    # numpy releases the GIL inside its loops, so a writable array shared
    # by all generators would mix the words of concurrent blocks; the
    # threads also race to build the offset table
    seeds, count, blocks = (3, 2**64 - 5, 17, 2**63), 2**14 + 1, 100
    expected = {seed: [SplitMix64(seed).advance(j * count).uint64_block(count).tobytes()
                       for j in range(blocks)] for seed in seeds}
    monkeypatch.setattr(rng, "_offsets", None)
    start = threading.Barrier(len(seeds))
    drawn = {}

    def draw(seed):
        gen = SplitMix64(seed)
        start.wait(timeout=60)
        drawn[seed] = [gen.uint64_block(count).tobytes() for _ in range(blocks)]

    threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert drawn == expected
    for seed in seeds:  # block j of a thread holds words j*count... of its own stream
        scalar = SplitMix64(seed).advance(5 * count)
        words = np.frombuffer(drawn[seed][5], dtype=np.uint64)
        assert [int(words[0]), int(words[1])] == [scalar.next_uint64(), scalar.next_uint64()]
