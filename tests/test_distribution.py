"""Distribution engines against the phasor-sum oracle and against each
other, plus peak models, the envelope, the within-peak approximation,
and deterministic sampling.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import oracle_at, peaks, per_k_at, sample_from
from shorsim import distribution
from shorsim.distribution import (
    OrderInfo,
    ProblemInstance,
    capture_probability_d01,
    envelope,
    peak_deviation_prob,
    two_term_at,
    two_term_prefix_sums,
)
from shorsim.errors import DomainError, ResourceError
from shorsim.number_theory import multiplicative_order
from shorsim.pipeline import recover_order
from shorsim.rng import SplitMix64


def coprime_bases(n):
    return [x for x in range(2, n) if math.gcd(x, n) == 1]


def build(n, x, q_A):
    inst = ProblemInstance.create(n, x, q_A)
    info = OrderInfo.from_instance(inst)
    return inst, info


def whole(at, inst, info):
    """P over the whole register by the evaluator `at`."""
    return at(inst, info, np.arange(inst.N))


class TestProblemInstance:
    def test_default_register_sizes(self):
        inst = ProblemInstance.create(21, 10)
        assert (inst.q_A, inst.N) == (9, 512)  # 2^9 = 512 >= 441

    def test_explicit_override(self):
        inst = ProblemInstance.create(21, 10, q_A=8)
        assert inst.N == 256

    def test_default_register_always_covers_square(self):
        for n in (15, 21, 33, 57, 91, 9997):
            inst = ProblemInstance.create(n, [x for x in range(2, n) if math.gcd(x, n) == 1][0])
            assert n * n <= inst.N < 4 * n * n

    def test_invalid_base_rejected(self):
        with pytest.raises(DomainError):
            ProblemInstance.create(21, 1)
        with pytest.raises(DomainError):
            ProblemInstance.create(21, 21)
        with pytest.raises(DomainError):
            ProblemInstance.create(21, 7)  # shared factor

    @pytest.mark.parametrize("n, x", [(2, 1), (2, 5), (0, 1), (-5, 3)])
    def test_small_modulus_rejected(self, n, x):
        # q_A defaults from n first; the instance's own check decides
        with pytest.raises(DomainError, match=f"^n must be an integer >= 3, got {n}$"):
            ProblemInstance.create(n, x)


class TestOrderInfo:
    def test_fig_instance_split(self):
        # floor((255-k)/6) over k = 0..5 is 42,42,42,42,41,41
        _inst, info = build(21, 10, 8)
        assert (info.r, info.M0, info.k0) == (6, 41, 4)

    def test_delta_min(self):
        _inst, info = build(21, 10, 8)
        assert info.delta_min == pytest.approx(1 / (20 * 21), abs=0)

    @pytest.mark.parametrize("n,x,q_A", [(15, 2, 8), (21, 10, 8), (21, 10, 9), (33, 2, 11), (35, 11, 11)])
    def test_class_size_split_by_direct_loop(self, n, x, q_A):
        inst, info = build(n, x, q_A)
        for k in range(info.r):
            m_k = (inst.N - k - 1) // info.r
            assert m_k == (info.M0 + 1 if k < info.k0 else info.M0)
        assert 0 <= info.k0 <= info.r

    def test_divisible_order_means_k0_zero(self):
        _inst, info = build(15, 2, 8)  # r = 4 divides 256
        assert (info.r, info.k0) == (4, 0)


ORACLE_INSTANCES = [(15, x, 8) for x in coprime_bases(15)] + [(21, 10, 8)]


class TestOracleAgreement:
    @pytest.mark.parametrize("n,x,q_A", ORACLE_INSTANCES)
    def test_per_k_matches_oracle(self, n, x, q_A):
        inst, info = build(n, x, q_A)
        reference = whole(oracle_at, inst, info)
        closed = whole(per_k_at, inst, info)
        assert np.max(np.abs(closed - reference)) < 1e-10

    @pytest.mark.parametrize("n,x,q_A", ORACLE_INSTANCES)
    def test_two_term_matches_per_k(self, n, x, q_A):
        inst, info = build(n, x, q_A)
        a = whole(per_k_at, inst, info)
        b = whole(two_term_at, inst, info)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_larger_register_spot_check(self):
        inst, info = build(33, 2, 11)  # r = 10, N = 2048
        reference = whole(oracle_at, inst, info)
        assert np.max(np.abs(whole(per_k_at, inst, info) - reference)) < 1e-10

    def test_wide_register_spot_check(self):
        inst, info = build(35, 11, 12)  # r = 3, N = 4096
        reference = whole(oracle_at, inst, info)
        assert np.max(np.abs(whole(two_term_at, inst, info) - reference)) < 1e-10

    def test_peak_cells_dominate_when_register_covers_square(self):
        # mass on the floor/ceiling cells of all peaks stays above 0.85
        for n, x, q_A in [(15, 2, 8), (21, 10, 9), (33, 2, 11), (35, 11, 11), (57, 5, 12)]:
            inst, info = build(n, x, q_A)
            assert inst.N >= n * n
            p = whole(two_term_at, inst, info)
            mass = sum(p[pk.c_nu] + p[pk.c_nu + 1] for pk in peaks(inst, info))
            assert mass >= 0.85, (n, x, mass)

    @pytest.mark.parametrize("at", [oracle_at, per_k_at, two_term_at])
    def test_normalized(self, at):
        inst, info = build(21, 10, 8)
        p = whole(at, inst, info)
        assert abs(float(p.sum()) - 1.0) < 1e-9
        assert np.all(p >= 0.0)

    def test_symmetry_about_midpoint(self):
        for n, x, q_A in [(21, 10, 8), (15, 7, 8), (35, 11, 11)]:
            inst, info = build(n, x, q_A)
            p = whole(two_term_at, inst, info)
            assert np.max(np.abs(p[1:] - p[1:][::-1])) < 1e-12

    def test_zero_state_is_local_maximum(self):
        inst, info = build(21, 10, 8)
        p = whole(oracle_at, inst, info)
        assert p[0] > p[1] and p[0] > p[-1]

    def test_exact_zeros_when_order_divides_register(self):
        inst, info = build(15, 2, 8)  # r = 4 | 256: mass sits on multiples of 64
        p = whole(two_term_at, inst, info)
        on_peaks = p[::64]
        assert np.allclose(on_peaks, 0.25, atol=1e-12)
        off = np.delete(p, np.arange(0, 256, 64))
        assert np.max(off) < 1e-20
        reference = whole(oracle_at, inst, info)
        assert np.max(np.abs(p - reference)) < 1e-12

    def test_singular_entries_match_count_squares(self):
        # wherever r*c = 0 mod N the per-class term is its squared size
        inst, info = build(21, 10, 8)
        expected_p0 = sum(
            ((inst.N - k - 1) // info.r + 1) ** 2 for k in range(info.r)
        ) / inst.N ** 2
        p = whole(per_k_at, inst, info)
        assert p[0] == pytest.approx(expected_p0, abs=1e-15)

    def test_oracle_checks_the_order_it_is_given(self):
        inst, info = build(21, 10, 8)  # r = 6
        wrong = OrderInfo(r=3, M0=(inst.N - 3) // 3, k0=inst.N % 3, delta_min=info.delta_min)
        with pytest.raises(DomainError):
            oracle_at(inst, wrong, [0])

    def test_register_cap_enforced(self):
        inst = ProblemInstance.create(21, 10, q_A=25)
        with pytest.raises(ResourceError,
                           match="^q_A=25 exceeds the cap of 24 for a pass over the register$"):
            distribution._register_values(inst, OrderInfo.from_instance(inst))


class TestOrderGuards:
    """The routes whose cost grows with r are refused before any O(r) work."""

    def test_peaks_refuse_a_large_order_before_the_walk(self, monkeypatch):
        inst, info = build(2119933513, 3, 8)  # r = 529 960 357

        def walk(*_args):
            raise AssertionError("the order walk ran before the guard")

        monkeypatch.setattr(oracles, "multiplicative_order", walk)
        with pytest.raises(ResourceError):
            peaks(inst, info)
        with pytest.raises(ResourceError):
            distribution._peak_blocks(inst, info)

    def test_peak_cap_admits_the_order_itself(self, monkeypatch):
        inst, info = build(21, 10, 8)
        monkeypatch.setattr(distribution, "MAX_PEAKS_ORDER", info.r)
        assert len(peaks(inst, info)) == info.r
        monkeypatch.setattr(distribution, "MAX_PEAKS_ORDER", info.r - 1)
        with pytest.raises(ResourceError):
            peaks(inst, info)


# SHA-256 of the float64 bytes of whole vectors, taken when the two-term
# form was evaluated on the whole register at once and reduced angles
# with %: (n, x, q_A) -> (two-term, per-k or None).
PINNED_VECTORS = {
    (15, 2, 8): ("50e88d777bc28e9d7fdc6875257d00f3e1ed02f537e9f3492cb6c309f6895829",
                 "50e88d777bc28e9d7fdc6875257d00f3e1ed02f537e9f3492cb6c309f6895829"),
    (21, 10, 9): ("cef42af65fb59638010579e99e287b4bae5b3609aebf2854317f3ea5b8c3a4b2",
                  "2317a1b91efab79c3e3af88fa3034a482394761a0ba3f9a6a4b7f349bce7a881"),
    (1007, 5, 16): ("c6e841bea6bd9d587cb0e3098fd736359fbf6d6530b8b7e2f1575f94efb2b255",
                    "7e0c12d20bced576a1be1628d1b48009cee95d94b792812776c699b00e5cfd28"),
    (899, 7, 20): ("6e129d429da2957bf8da3bd3ddbf8944b6e754937e46171d0640ecc13f6a9981", None),
}


# (instance, cells per block), at most about ten thousand blocks a pass
BLOCK_CASES = [(key, size) for key in [(15, 2, 8), (21, 10, 9), (1007, 5, 16)]
               for size in (1, 7, (1 << 16) + 1) if (1 << key[2]) <= 10_000 * size]

# the pinned per-k vectors, at most about twenty thousand class passes
PER_K_BLOCK_CASES = [(key, size) for key, size in BLOCK_CASES
                     if -(-(1 << key[2]) // size) * multiplicative_order(key[1], key[0]) <= 20_000]


def prefix_sum_bound(N):
    """How far ``two_term_prefix_sums`` may lie from ``np.cumsum`` over the
    whole register of N cells, from its two sources, to first order in the
    unit roundoff u = 2^-53.

    The evaluator's mirror asymmetry (ROADMAP Baseline): the half-period
    route reads P at a cell j in place of a cell c with the same r*c mod N
    up to sign, and each is rounded on its own path.  A sine's argument
    fl(t * fl(pi) / N), t < 2N, is off by at most 2u * 2pi, and sin is
    1-Lipschitz; where it is not 0 it is at least sin(pi/N) >= 2/N, so its
    relative error is at most 2pi*N*u + u (libm).  Two squares, a quotient,
    a scale and the sum of two terms make P's relative error at most
    8pi*N*u + 9u (a numerator zero at t = N reads sin^2(fl(pi)) ~ 1.5e-32
    instead, far below it), and the two routes' errors add over a mass of
    at most 1.

    The summation rounding: the whole cumsum adds N terms of mass 1 in
    sequence, N*u at most; the half route adds N/(2g) + 1 of them, forms
    T, multiplies it by k <= g and rounds three times more, (N/2 + 6)u.

    ROADMAP item 3's fold makes the symmetry exact, which leaves the second
    source alone."""
    u = 2.0 ** -53
    return (2 * (8 * math.pi * N + 9) + 1.5 * N + 6) * u


def digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def where_two_term(inst, info, c):
    """The two-term form as three np.where masks over whole temporaries:
    the formula two_term_at replaced, kept as its bit-for-bit oracle."""
    N, r = inst.N, info.r
    c = np.asarray(c, dtype=np.int64)
    twoN = 2 * N
    s = (r % twoN) * c & (twoN - 1)
    singular = (s & (N - 1)) == 0
    den_safe = np.where(singular, 1.0, np.sin((np.pi / N) * s) ** 2)

    def ratio(size):
        t = (size * r % twoN) * c & (twoN - 1)
        return np.where(singular, float(size * size), np.sin((np.pi / N) * t) ** 2 / den_safe)

    total = info.k0 * ratio(info.M0 + 2) + (r - info.k0) * ratio(info.M0 + 1)
    return total * (1.0 / float(N) ** 2)


# (n, x, q_A) -> gcd(r, N): r | N (r = 4, N = 256), odd r, N < r (r = 468,
# N = 16, M0 = -1), g = gcd(r, N) >= 4 with r not dividing N, and the
# widest register
WHERE_CASES = {(15, 2, 8): 4, (21, 4, 8): 1, (1007, 5, 4): 4, (35, 2, 8): 4, (85, 2, 8): 8,
               (4087, 5, 24): 2}


class TestRangeEvaluator:
    @pytest.mark.parametrize("key", PINNED_VECTORS)
    def test_vectors_are_pinned(self, key):
        inst, info = build(*key)
        two_term, per_k = PINNED_VECTORS[key]
        assert digest(whole(two_term_at, inst, info)) == two_term
        if per_k is not None:
            assert digest(whole(per_k_at, inst, info)) == per_k

    @pytest.mark.parametrize("key, size", BLOCK_CASES)
    def test_blocks_do_not_change_the_bits(self, monkeypatch, key, size):
        monkeypatch.setattr(distribution, "_BLOCK", size)
        inst, info = build(*key)
        blocks = [p for _cells, p in distribution._register_values(inst, info)]
        assert digest(np.concatenate(blocks)) == PINNED_VECTORS[key][0]

    @pytest.mark.parametrize("key, size", PER_K_BLOCK_CASES)
    def test_per_k_blocks_do_not_change_the_bits(self, monkeypatch, key, size):
        monkeypatch.setattr(distribution, "_BLOCK", size)
        inst, info = build(*key)
        blocks = [per_k_at(inst, info, np.arange(*block))
                  for block in distribution._blocks(inst.N)]
        assert digest(np.concatenate(blocks)) == PINNED_VECTORS[key][1]

    @pytest.mark.parametrize("key", [(21, 10, 9), (1007, 5, 16)])
    def test_gathered_cells_match_the_vector(self, key):
        inst, info = build(*key)
        p = whole(two_term_at, inst, info)
        cells = np.random.default_rng(5).permutation(inst.N)[:1000]
        assert np.array_equal(two_term_at(inst, info, cells), p[cells])
        assert np.array_equal(two_term_at(inst, info, [0, inst.N - 1]), p[[0, -1]])

    @pytest.mark.parametrize("at", [oracle_at, per_k_at])
    def test_per_class_routes_take_any_cells(self, at):
        # shuffled, repeated and end cells give the whole vector's bits
        inst, info = build(21, 10, 9)
        p = whole(at, inst, info)
        cells = np.random.default_rng(5).permutation(inst.N)[:200]
        cells = np.concatenate((cells, cells[:10], [inst.N - 1, 0]))
        assert np.array_equal(at(inst, info, cells), p[cells])

    @pytest.mark.parametrize("at", [oracle_at, per_k_at, two_term_at])
    def test_no_cells_give_an_empty_vector(self, at):
        inst, info = build(21, 10, 9)
        p = at(inst, info, np.arange(0))
        assert p.dtype == np.float64 and p.shape == (0,)

    @pytest.mark.parametrize("key, size", BLOCK_CASES)
    def test_prefix_sums_agree_with_the_whole_cumsum(self, monkeypatch, key, size):
        inst, info = build(*key)
        cdf = np.cumsum(whole(two_term_at, inst, info))
        cells = np.unique(np.random.default_rng(2).integers(0, inst.N, 300))
        cells = np.union1d(cells, [0, inst.N - 1])
        at_default = two_term_prefix_sums(inst, info, cells)
        monkeypatch.setattr(distribution, "_BLOCK", size)
        sums, total = two_term_prefix_sums(inst, info, cells)
        # the carry makes the block size invisible, bit for bit
        assert sums.tobytes() == at_default[0].tobytes() and total == at_default[1]
        bound = prefix_sum_bound(inst.N)
        assert np.max(np.abs(sums - cdf[cells])) <= bound
        assert abs(total - cdf[-1]) <= bound
        # cells out of order or outside [0, N) are refused: neither left
        # uninitialised nor met by a bare IndexError
        for bad in ([3, inst.N + 5, -1], [min(20000, inst.N - 1), 3], [0, inst.N], [-1, 0]):
            with pytest.raises(DomainError, match="sorted within"):
                two_term_prefix_sums(inst, info, bad)

    @pytest.mark.parametrize("key, g", [((55, 16, 12), 1), ((17, 3, 4), 16)])
    def test_prefix_sums_agree_on_the_extreme_periods(self, key, g):
        # g = 1, where the period is the register, and g = N (r = 16), where
        # it is one cell; BLOCK_CASES has neither
        inst, info = build(*key)
        assert math.gcd(info.r, inst.N) == g
        cdf = np.cumsum(whole(two_term_at, inst, info))
        cells = np.arange(inst.N)
        sums, total = two_term_prefix_sums(inst, info, cells)
        assert np.max(np.abs(sums - cdf)) <= prefix_sum_bound(inst.N)
        assert abs(total - cdf[-1]) <= prefix_sum_bound(inst.N)

    @pytest.mark.parametrize("key, g", [((1007, 5, 20), 4), ((899, 7, 20), 1)])
    def test_prefix_sums_evaluate_the_half_period_alone(self, monkeypatch, key, g):
        inst, info = build(*key)
        N = inst.N
        assert math.gcd(info.r, N) == g
        period, half = N // g, N // (2 * g)
        cdf = np.cumsum(whole(two_term_at, inst, info))
        evaluated = []

        def counted(inst, info, c):
            evaluated.append(len(c))
            return two_term_at(inst, info, c)

        monkeypatch.setattr(distribution, "two_term_at", counted)
        # j = 0, h, h + 1 and p - 1 in the first and the last period, and N - 1
        cells = sorted({k * period + j for k in (0, g - 1) for j in (0, half, half + 1, period - 1)}
                       | {N - 1})
        sums, total = two_term_prefix_sums(inst, info, cells)
        assert sum(evaluated) <= N // (2 * g) + 1
        bound = prefix_sum_bound(N)
        assert np.max(np.abs(sums - cdf[cells])) <= bound
        assert abs(total - cdf[-1]) <= bound
        evaluated.clear()
        sums, no_cells_total = two_term_prefix_sums(inst, info, [])
        assert sums.shape == (0,) and no_cells_total == total
        assert sum(evaluated) <= N // (2 * g) + 1

    @pytest.mark.parametrize("key", WHERE_CASES)
    def test_bits_equal_the_where_formula(self, key):
        inst, info = build(*key)
        N = inst.N
        g = math.gcd(info.r, N)
        assert g == WHERE_CASES[key]
        rng = np.random.default_rng(sum(key))
        singular = np.arange(0, N, N // g)  # r*c = 0 mod N exactly here
        for cells in (singular, rng.integers(0, N, 5000), np.arange(min(N, 4096)),
                      np.concatenate((rng.integers(0, N, 50), singular, singular + 1))):
            got = two_term_at(inst, info, cells)
            assert got.tobytes() == where_two_term(inst, info, cells).tobytes()
        assert np.all(two_term_at(inst, info, singular) > 0.0)

    @pytest.mark.parametrize("at, cells", [(two_term_at, [1.5]), (two_term_at, ["3"]),
                                           (two_term_prefix_sums, [1.5, 2.7])])
    def test_non_integer_cells_are_refused(self, at, cells):
        # not truncated to cells 1 and 2, nor parsed as cell 3
        inst, info = build(21, 10, 8)
        with pytest.raises(DomainError, match=r"^cells must be integers, got an array of [^\n]*$"):
            at(inst, info, cells)

    def test_int64_angle_cap(self):
        inst = ProblemInstance.create(1_000_003 * 3, 2, q_A=32)
        info = OrderInfo(r=4, M0=(inst.N - 4) // 4, k0=0, delta_min=0.0)
        with pytest.raises(ResourceError):
            two_term_at(inst, info, [1])


class TestPeaks:
    def test_fig_instance_peaks(self):
        inst, info = build(21, 10, 8)
        pk = peaks(inst, info)
        assert [p.c_nu for p in pk] == [0, 42, 85, 128, 170, 213]
        deltas = [p.delta_nu for p in pk]
        assert deltas == pytest.approx([0, 2 / 3, 1 / 3, 0, 2 / 3, 1 / 3], abs=1e-15)

    def test_zero_peak_at_origin(self):
        for n, x, q_A in [(15, 2, 8), (21, 10, 9), (35, 11, 11)]:
            pk = peaks(*build(n, x, q_A))
            assert (pk[0].nu, pk[0].c_nu, pk[0].delta_nu) == (0, 0, 0.0)

    def test_divisible_order_gives_integer_peaks(self):
        pk = peaks(*build(15, 2, 8))
        assert all(p.delta_nu == 0.0 for p in pk)
        assert [p.c_nu for p in pk] == [0, 64, 128, 192]

    @pytest.mark.parametrize("n,x,q_A", [(21, 10, 9), (1007, 5, 20), (21, 10, 60), (21, 10, 61),
                                         (21, 10, 62), (1007, 5, 62), (1007, 5, 70)])
    def test_peaks_equal_the_literal_integer_split(self, n, x, q_A):
        # nu*N passes 2^63 from q_A 61 at r = 6, yet the columns stay int64
        # while N fits there; from q_A 63 c_nu and sigma_nu are Python ints
        # and floats, while nu and delta_nu stay int64 and float64
        inst, info = build(n, x, q_A)
        dtypes = [column.dtype for column in distribution.peak_columns(inst, info, 0, info.r)]
        wide = [np.int64, object, object, np.float64]
        assert dtypes == ([np.int64, np.float64] * 2 if q_A < 63 else wide)
        literal = []
        for nu in range(info.r):
            scaled = nu * inst.N
            literal.append((nu, scaled // info.r + (scaled % info.r) / info.r,
                            scaled // info.r, (scaled % info.r) / info.r))
        got = [(p.nu, p.sigma_nu, p.c_nu, p.delta_nu) for p in peaks(inst, info)]
        assert repr(got) == repr(literal)
        columns = [c.tolist() for c in distribution.peak_columns(inst, info, 2, info.r - 1)]
        assert repr(list(zip(*columns))) == repr(literal[2:-1])

    @pytest.mark.parametrize("start, stop", [(0, 8), (-5, 2), (0.5, 3)])
    def test_peaks_outside_0_to_r_are_refused(self, start, stop):
        # r = 6: peaks 6 and 7 would sit past N, and 0.5 would be cut to 0
        inst, info = build(21, 10, 8)
        with pytest.raises(DomainError, match=r"^(start|stop) must be an integer in \[0, \d\), got [^\n]*$"):
            distribution.peak_columns(inst, info, start, stop)

    def test_center_splits_exactly(self):
        for p in peaks(*build(21, 10, 9)):
            assert p.c_nu + p.delta_nu == pytest.approx(p.sigma_nu, abs=1e-12)
            assert 0.0 <= p.delta_nu < 1.0

    def test_peak_cells_distinct_when_register_covers_square(self):
        inst, info = build(57, 2, 12)
        cells = [p.c_nu for p in peaks(inst, info)]
        assert len(set(cells)) == len(cells)


class TestEnvelope:
    def test_peak_center_takes_singular_maximum(self):
        inst, info = build(21, 10, 8)
        expected = (
            info.k0 * (info.M0 + 2) ** 2 + (info.r - info.k0) * (info.M0 + 1) ** 2
        ) / inst.N ** 2
        for nu in range(info.r):
            center = Fraction(nu * inst.N, info.r)
            assert envelope(inst, info, center) == pytest.approx(expected, abs=1e-15)

    def test_matches_distribution_on_integer_grid(self):
        inst, info = build(21, 10, 8)
        p = whole(two_term_at, inst, info)
        for c in range(inst.N):
            assert envelope(inst, info, c) == pytest.approx(p[c], abs=1e-12)

    def test_periodic_with_period_N_over_r(self):
        inst, info = build(21, 10, 8)
        period = Fraction(inst.N, info.r)
        for i in range(60):
            sigma = Fraction(7 * i, 17) % (inst.N - period)
            assert envelope(inst, info, sigma + period) == pytest.approx(
                envelope(inst, info, sigma), abs=1e-9
            )

    def test_float_positions_accepted(self):
        inst, info = build(21, 10, 8)
        assert envelope(inst, info, 42.5) > 0

    def test_out_of_range_rejected(self):
        inst, info = build(21, 10, 8)
        # refused before Fraction() converts it: no bare ValueError or
        # OverflowError, and a string is not parsed
        for sigma in (-0.5, inst.N, math.nan, math.inf, -math.inf, "3/2", None):
            with pytest.raises(DomainError, match=r"^sigma must be a real in \[0, 256\), got "):
                envelope(inst, info, sigma)


class TestPeakDeviation:
    def test_zero_displacement_limit(self):
        assert peak_deviation_prob(0, 0.0) == 1.0
        for d in (-3, -1, 1, 2, 10):
            assert peak_deviation_prob(d, 0.0) == 0.0

    def test_half_displacement_value(self):
        assert peak_deviation_prob(0, 0.5) == pytest.approx(4 / math.pi ** 2, abs=1e-15)
        assert peak_deviation_prob(1, 0.5) == pytest.approx(4 / math.pi ** 2, abs=1e-15)

    @pytest.mark.parametrize("delta", [0.1, 1 / 3, 0.5, 0.77])
    def test_total_weight_is_one(self, delta):
        total = sum(peak_deviation_prob(d, delta) for d in range(-10_000, 10_001))
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_out_of_range_displacement_rejected(self):
        with pytest.raises(DomainError):
            peak_deviation_prob(0, 1.0)
        with pytest.raises(DomainError):
            peak_deviation_prob(0, -0.1)

    @pytest.mark.parametrize("d", [0.5, pytest.param(10**400, id="10**400")])
    def test_deviation_that_is_no_integer_or_too_large_is_rejected(self, d):
        # no bare ZeroDivisionError or OverflowError
        with pytest.raises(DomainError, match=r"^d must be an integer in \[-\d+, \d+\), got [^\n]*$"):
            peak_deviation_prob(d, 0.5)

    def test_any_real_displacement_is_its_float(self):
        mpmath = pytest.importorskip("mpmath")
        for d in (-1, 0, 1, 2):
            expected = peak_deviation_prob(d, 0.25)
            assert peak_deviation_prob(d, mpmath.mpf("0.25")) == expected
            assert peak_deviation_prob(d, Fraction(1, 4)) == expected
        with pytest.raises(DomainError):
            peak_deviation_prob(0, "0.25")

    @pytest.mark.parametrize("n,x,q_A", [(15, 2, 8), (21, 10, 9), (35, 11, 11)])
    def test_approximates_exact_peak_shape(self, n, x, q_A):
        # within a peak, r * P(c_nu + d) tracks the deviation weight to O(1/n)
        inst, info = build(n, x, q_A)
        assert inst.N >= n * n
        p = whole(two_term_at, inst, info)
        for peak in peaks(inst, info):
            for d in range(-2, 4):
                exact = p[(peak.c_nu + d) % inst.N] * info.r
                approx = peak_deviation_prob(d, peak.delta_nu)
                assert abs(exact - approx) <= 5 / n, (n, x, peak.nu, d)


def gauss_legendre(weight):
    """The integral of weight(delta) over delta in [0, 1) by mpmath's
    Gauss-Legendre rule.  Its nodes lie inside the interval; the default
    tanh-sinh rule has nodes that round to delta = 1.0, which
    peak_deviation_prob refuses."""
    mpmath = pytest.importorskip("mpmath")
    return float(mpmath.quad(lambda delta: weight(float(delta)), [0, 1], method="gauss-legendre"))


class TestCaptureProbability:
    def test_matches_published_value(self):
        assert capture_probability_d01() == pytest.approx(0.902, abs=2e-3)

    def test_matches_sine_integral_closed_form(self):
        mpmath = pytest.importorskip("mpmath")
        si_2pi = float(mpmath.si(2 * math.pi))
        assert capture_probability_d01() == pytest.approx(2 * si_2pi / math.pi, abs=1e-6)

    def test_matches_quadrature_of_deviation_weights(self):
        value = gauss_legendre(lambda delta: peak_deviation_prob(0, delta) + peak_deviation_prob(1, delta))
        assert capture_probability_d01() == pytest.approx(value, abs=1e-10)

    def test_series_is_accurate_to_double_precision(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            reference = 2 * mpmath.si(2 * mpmath.pi) / mpmath.pi
            assert abs(mpmath.mpf(capture_probability_d01()) - reference) < 1e-15

    def test_halves_are_symmetric(self):
        d0 = gauss_legendre(lambda t: peak_deviation_prob(0, t))
        d1 = gauss_legendre(lambda t: peak_deviation_prob(1, t))
        assert d0 == pytest.approx(d1, abs=1e-9)
        assert d0 == pytest.approx(0.451, abs=1e-3)


class TestSampling:
    def test_point_mass_yields_constant(self):
        p = np.zeros(16)
        p[11] = 1.0
        assert sample_from(p, SplitMix64(4), 50) == [11] * 50

    def test_same_seed_same_draws(self):
        inst, info = build(21, 10, 8)
        p = whole(two_term_at, inst, info)
        assert sample_from(p, SplitMix64(42), 500) == sample_from(p, SplitMix64(42), 500)
        assert sample_from(p, SplitMix64(42), 500) != sample_from(p, SplitMix64(43), 500)

    def test_empirical_frequencies_within_binomial_bounds(self):
        inst, info = build(21, 10, 8)
        p = whole(two_term_at, inst, info)
        m = 100_000
        draws = np.bincount(sample_from(p, SplitMix64(7), m), minlength=inst.N)
        for c in range(inst.N):
            if p[c] < 1e-4:
                continue
            sigma = math.sqrt(p[c] * (1 - p[c]) / m)
            assert abs(draws[c] / m - p[c]) <= 4 * sigma, c

    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            sample_from(np.full(8, 0.2), SplitMix64(0), 1)

    def test_negative_entries_rejected(self):
        p = np.full(4, 0.5)
        p[0] = -0.5
        with pytest.raises(DomainError):
            sample_from(p, SplitMix64(0), 1)


class TestOrderOracleConsistency:
    def test_distribution_order_agrees_with_walk(self):
        for n, x in [(15, 2), (21, 10), (33, 2), (35, 11), (57, 5)]:
            assert OrderInfo.from_instance(
                ProblemInstance.create(n, x)
            ).r == multiplicative_order(x, n)


def odd_primes_below(m):
    return [p for p in range(3, m, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]


@st.composite
def machines(draw, primes, q_A):
    """(n, x, q_A) for a semiprime n of two distinct primes, a base coprime
    to it and a register width drawn from q_A (None: the default, N >= n^2)."""
    p, q = draw(st.lists(st.sampled_from(primes), min_size=2, max_size=2, unique=True))
    n = p * q
    x = draw(st.integers(2, n - 1).filter(lambda x: math.gcd(x, n) == 1))
    return n, x, draw(q_A)


class TestLawProperties:
    """The two-term law over random machines (ROADMAP item 3).

    Its rounding grows with N: an angle near pi, reduced mod 2N but not
    folded, is off by up to about N ulps of the sine it feeds.  Measured on
    1500 random machines with q_A <= 16 (primes below 400): |sum P - 1| at
    most 0.40 N 2^-53, and the relative spread of P within a class at
    most 1.67 N 2^-53 (5.8e-12 at q_A 16).  The bounds below leave a factor
    of 2.4 or more.
    """

    @settings(max_examples=100, deadline=None)
    @given(machines(odd_primes_below(64), st.integers(1, 16)))
    def test_law_sums_to_one(self, machine):
        inst, info = build(*machine)
        p = whole(two_term_at, inst, info)
        assert abs(math.fsum(p) - 1.0) <= inst.N * 2.0 ** -52

    @settings(max_examples=100, deadline=None)
    @given(machines(odd_primes_below(64), st.integers(1, 16)))
    def test_law_is_constant_on_each_class(self, machine):
        """P is a function of t = r'c mod N' (g = gcd(r, N), r' = r/g,
        N' = N/g), so the g cells of a class share one value."""
        inst, info = build(*machine)
        g = math.gcd(info.r, inst.N)
        assume(g > 1)
        cells = np.arange(inst.N)
        t = (info.r // g) * cells % (inst.N // g)
        classes = whole(two_term_at, inst, info)[np.argsort(t, kind="stable")].reshape(-1, g)
        hi, lo = classes.max(axis=1), classes.min(axis=1)
        # a class whose exact value is 0 comes out below about r 2^-104
        # (the sine of a multiple of pi rounds to 1.2e-16), hence the 2^-80
        assert np.all(hi - lo <= inst.N * 2.0 ** -51 * hi + 2.0 ** -80)

    @settings(max_examples=200, deadline=None)
    @given(machines(odd_primes_below(1 << 15), st.none()), st.data())
    def test_peak_cells_recover_the_order(self, machine, data):
        """With N >= n^2, the floor and ceiling cells of every peak nu
        coprime to r recover r itself."""
        inst, info = build(*machine)
        assert inst.N >= inst.n ** 2
        r = info.r
        nu = data.draw(st.integers(1, r - 1).filter(lambda nu: math.gcd(nu, r) == 1))
        for d in (0, 1):
            rec = recover_order(nu * inst.N // r + d, inst)
            assert rec.r_candidate == r and rec.verified
