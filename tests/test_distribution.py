"""Distribution engines against the phasor-sum oracle and against each
other, plus peak models, the envelope, the within-peak approximation,
and deterministic sampling.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import sici

from shorsim import distribution
from shorsim.distribution import (
    METHOD_ORACLE,
    METHOD_PER_K,
    METHOD_TWO_TERM,
    OrderInfo,
    OutputDistribution,
    ProblemInstance,
    capture_probability_d01,
    envelope,
    oracle_distribution,
    peak_deviation_prob,
    peaks,
    per_k_distribution,
    sample,
    two_term_at,
    two_term_distribution,
    two_term_prefix_sums,
)
from shorsim.errors import DomainError, ResourceError
from shorsim.number_theory import multiplicative_order


def coprime_bases(n):
    return [x for x in range(2, n) if math.gcd(x, n) == 1]


def build(n, x, q_A):
    inst = ProblemInstance.create(n, x, q_A)
    info = OrderInfo.from_instance(inst)
    return inst, info


class TestProblemInstance:
    def test_default_register_sizes(self):
        inst = ProblemInstance.create(21, 10)
        assert (inst.q_A, inst.q_B, inst.N) == (9, 5, 512)  # 2^9 = 512 >= 441

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
        reference = oracle_distribution(inst).probabilities
        closed = per_k_distribution(inst, info).probabilities
        assert np.max(np.abs(closed - reference)) < 1e-10

    @pytest.mark.parametrize("n,x,q_A", ORACLE_INSTANCES)
    def test_two_term_matches_per_k(self, n, x, q_A):
        inst, info = build(n, x, q_A)
        a = per_k_distribution(inst, info).probabilities
        b = two_term_distribution(inst, info).probabilities
        assert np.max(np.abs(a - b)) < 1e-12

    def test_larger_register_spot_check(self):
        inst, info = build(33, 2, 11)  # r = 10, N = 2048
        reference = oracle_distribution(inst).probabilities
        assert np.max(np.abs(per_k_distribution(inst, info).probabilities - reference)) < 1e-10

    def test_wide_register_spot_check(self):
        inst, info = build(35, 11, 12)  # r = 3, N = 4096
        reference = oracle_distribution(inst).probabilities
        assert np.max(np.abs(two_term_distribution(inst, info).probabilities - reference)) < 1e-10

    def test_peak_cells_dominate_when_register_covers_square(self):
        # mass on the floor/ceiling cells of all peaks stays above 0.85
        for n, x, q_A in [(15, 2, 8), (21, 10, 9), (33, 2, 11), (35, 11, 11), (57, 5, 12)]:
            inst, info = build(n, x, q_A)
            assert inst.N >= n * n
            p = two_term_distribution(inst, info).probabilities
            mass = sum(p[pk.c_nu] + p[pk.c_nu + 1] for pk in peaks(inst, info))
            assert mass >= 0.85, (n, x, mass)

    @pytest.mark.parametrize("method,builder", [
        (METHOD_ORACLE, lambda i, o: oracle_distribution(i)),
        (METHOD_PER_K, per_k_distribution),
        (METHOD_TWO_TERM, two_term_distribution),
    ])
    def test_normalized_and_tagged(self, method, builder):
        inst, info = build(21, 10, 8)
        dist = builder(inst, info)
        assert dist.method == method
        assert abs(dist.total - 1.0) < 1e-9
        assert np.all(dist.probabilities >= 0.0)

    def test_symmetry_about_midpoint(self):
        for n, x, q_A in [(21, 10, 8), (15, 7, 8), (35, 11, 11)]:
            inst, info = build(n, x, q_A)
            p = two_term_distribution(inst, info).probabilities
            assert np.max(np.abs(p[1:] - p[1:][::-1])) < 1e-12

    def test_zero_state_is_local_maximum(self):
        inst, _info = build(21, 10, 8)
        p = oracle_distribution(inst).probabilities
        assert p[0] > p[1] and p[0] > p[-1]

    def test_exact_zeros_when_order_divides_register(self):
        inst, info = build(15, 2, 8)  # r = 4 | 256: mass sits on multiples of 64
        p = two_term_distribution(inst, info).probabilities
        on_peaks = p[::64]
        assert np.allclose(on_peaks, 0.25, atol=1e-12)
        off = np.delete(p, np.arange(0, 256, 64))
        assert np.max(off) < 1e-20
        reference = oracle_distribution(inst).probabilities
        assert np.max(np.abs(p - reference)) < 1e-12

    def test_singular_entries_match_count_squares(self):
        # wherever r*c = 0 mod N the per-class term is its squared size
        inst, info = build(21, 10, 8)
        expected_p0 = sum(
            ((inst.N - k - 1) // info.r + 1) ** 2 for k in range(info.r)
        ) / inst.N ** 2
        p = per_k_distribution(inst, info).probabilities
        assert p[0] == pytest.approx(expected_p0, abs=1e-15)

    def test_register_cap_enforced(self):
        inst = ProblemInstance.create(21, 10, q_A=25)
        info = OrderInfo.from_instance(inst)
        with pytest.raises(ResourceError):
            two_term_distribution(inst, info)
        with pytest.raises(ResourceError):
            per_k_distribution(inst, info)
        with pytest.raises(ResourceError):
            oracle_distribution(inst)


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


def digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


class TestRangeEvaluator:
    @pytest.mark.parametrize("key", PINNED_VECTORS)
    def test_vectors_are_pinned(self, key):
        inst, info = build(*key)
        two_term, per_k = PINNED_VECTORS[key]
        assert digest(two_term_distribution(inst, info).probabilities) == two_term
        if per_k is not None:
            assert digest(per_k_distribution(inst, info).probabilities) == per_k

    @pytest.mark.parametrize("key, size", BLOCK_CASES)
    def test_blocks_do_not_change_the_bits(self, monkeypatch, key, size):
        monkeypatch.setattr(distribution, "_BLOCK_CELLS", size)
        inst, info = build(*key)
        assert digest(two_term_distribution(inst, info).probabilities) == PINNED_VECTORS[key][0]

    @pytest.mark.parametrize("key", [(21, 10, 9), (1007, 5, 16)])
    def test_gathered_cells_match_the_vector(self, key):
        inst, info = build(*key)
        p = two_term_distribution(inst, info).probabilities
        cells = np.random.default_rng(5).permutation(inst.N)[:1000]
        assert np.array_equal(two_term_at(inst, info, cells), p[cells])
        assert np.array_equal(two_term_at(inst, info, [0, inst.N - 1]), p[[0, -1]])

    @pytest.mark.parametrize("key, size", BLOCK_CASES)
    def test_prefix_sums_equal_the_whole_cumsum(self, monkeypatch, key, size):
        monkeypatch.setattr(distribution, "_BLOCK_CELLS", size)
        inst, info = build(*key)
        cdf = np.cumsum(two_term_distribution(inst, info).probabilities)
        cells = np.unique(np.random.default_rng(2).integers(0, inst.N, 300))
        cells = np.union1d(cells, [0, inst.N - 1])
        sums, total = two_term_prefix_sums(inst, info, cells)
        assert np.array_equal(sums, cdf[cells])
        assert total == cdf[-1]

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
        p = two_term_distribution(inst, info).probabilities
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
        with pytest.raises(DomainError):
            envelope(inst, info, -0.5)
        with pytest.raises(DomainError):
            envelope(inst, info, inst.N)


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

    @pytest.mark.parametrize("n,x,q_A", [(15, 2, 8), (21, 10, 9), (35, 11, 11)])
    def test_approximates_exact_peak_shape(self, n, x, q_A):
        # within a peak, r * P(c_nu + d) tracks the deviation weight to O(1/n)
        inst, info = build(n, x, q_A)
        assert inst.N >= n * n
        p = two_term_distribution(inst, info).probabilities
        for peak in peaks(inst, info):
            for d in range(-2, 4):
                exact = p[(peak.c_nu + d) % inst.N] * info.r
                approx = peak_deviation_prob(d, peak.delta_nu)
                assert abs(exact - approx) <= 5 / n, (n, x, peak.nu, d)


class TestCaptureProbability:
    def test_matches_published_value(self):
        assert capture_probability_d01() == pytest.approx(0.902, abs=2e-3)

    def test_matches_sine_integral_closed_form(self):
        si_2pi = sici(2 * math.pi)[0]
        assert capture_probability_d01() == pytest.approx(2 * si_2pi / math.pi, abs=1e-6)

    def test_matches_quadrature_of_deviation_weights(self):
        from scipy.integrate import quad

        def integrand(delta):
            return peak_deviation_prob(0, delta) + peak_deviation_prob(1, delta)

        value, _ = quad(integrand, 0, 1, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert capture_probability_d01() == pytest.approx(value, abs=1e-10)

    def test_series_is_accurate_to_double_precision(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            reference = 2 * mpmath.si(2 * mpmath.pi) / mpmath.pi
            assert abs(mpmath.mpf(capture_probability_d01()) - reference) < 1e-15

    def test_halves_are_symmetric(self):
        from scipy.integrate import quad

        d0, _ = quad(lambda t: peak_deviation_prob(0, t), 0, 1, epsabs=1e-10, limit=200)
        d1, _ = quad(lambda t: peak_deviation_prob(1, t), 0, 1, epsabs=1e-10, limit=200)
        assert d0 == pytest.approx(d1, abs=1e-9)
        assert d0 == pytest.approx(0.451, abs=1e-3)


class TestSampling:
    def test_point_mass_yields_constant(self):
        p = np.zeros(16)
        p[11] = 1.0
        dist = OutputDistribution(p, "manual")
        assert sample(dist, seed=4, count=50) == [11] * 50

    def test_same_seed_same_draws(self):
        inst, info = build(21, 10, 8)
        dist = two_term_distribution(inst, info)
        assert sample(dist, seed=42, count=500) == sample(dist, seed=42, count=500)
        assert sample(dist, seed=42, count=500) != sample(dist, seed=43, count=500)

    def test_empirical_frequencies_within_binomial_bounds(self):
        inst, info = build(21, 10, 8)
        dist = two_term_distribution(inst, info)
        m = 100_000
        draws = np.bincount(sample(dist, seed=7, count=m), minlength=inst.N)
        p = dist.probabilities
        for c in range(inst.N):
            if p[c] < 1e-4:
                continue
            sigma = math.sqrt(p[c] * (1 - p[c]) / m)
            assert abs(draws[c] / m - p[c]) <= 4 * sigma, c

    def test_unnormalized_rejected(self):
        dist = OutputDistribution(np.full(8, 0.2), "manual")
        with pytest.raises(DomainError):
            sample(dist, seed=0, count=1)

    def test_negative_entries_rejected(self):
        p = np.full(4, 0.5)
        p[0] = -0.5
        with pytest.raises(DomainError):
            sample(OutputDistribution(p, "manual"), seed=0, count=1)


class TestOrderOracleConsistency:
    def test_distribution_order_agrees_with_walk(self):
        for n, x in [(15, 2), (21, 10), (33, 2), (35, 11), (57, 5)]:
            assert OrderInfo.from_instance(
                ProblemInstance.create(n, x)
            ).r == multiplicative_order(x, n)
