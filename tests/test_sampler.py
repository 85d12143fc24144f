"""The vector-free sampler of the run route and its order fast path.

The exact-law tests rebuild P(c) analytically from the sampler's own
proposal pmf and acceptance probability and compare it with the two-term
vector; fixed-seed chi-square tests check that the code draws from that
law; the order tests compare the lambda(n) route and k0 = N mod r against
the brute-force walk and the literal class-size loop.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from shorsim import distribution, number_theory
from shorsim.distribution import (
    MAX_RUN_MODULUS,
    FejerProposal,
    OrderInfo,
    ProblemInstance,
    fejer_kernel,
    sample_states,
    two_term_at,
)
from shorsim.distribution import _bounded
from shorsim.errors import DomainError, ResourceError
from shorsim.number_theory import carmichael_lambda, multiplicative_order
from shorsim.rng import SplitMix64


class _Words:
    """A stand-in generator that replays fixed 64-bit words."""

    def __init__(self, words):
        self._words = iter(words)

    def next_uint64(self):
        return next(self._words)


class _Counted:
    """A SplitMix64 that counts the words it gives."""

    def __init__(self, seed):
        self._rng, self.words = SplitMix64(seed), 0

    def next_uint64(self):
        self.words += 1
        return self._rng.next_uint64()


def _multiword_bounded(rng, s):
    """Lemire's multiply-and-reject over as many words as s needs, for
    every s: the reference stream of the bounded draws."""
    if s == 1:
        return 0
    bits = 64 * ((s.bit_length() + 63) // 64)
    mask = (1 << bits) - 1
    threshold = None
    while True:
        x = 0
        for _ in range(bits // 64):
            x = (x << 64) | rng.next_uint64()
        m = x * s
        low = m & mask
        if low >= s:
            return m >> bits
        if threshold is None:
            threshold = (mask + 1) % s
        if low >= threshold:
            return m >> bits


def build(n, x, q_A):
    inst = ProblemInstance.create(n, x, q_A)
    return inst, OrderInfo.from_instance(inst)


def analytic_law(inst, info):
    """P(c) from class masses, pmf * acceptance on Z_N', and the lift to c."""
    N, r = inst.N, info.r
    g = math.gcd(r, N)
    Np = N // g
    r_inv = pow(r // g, -1, Np)
    p = np.zeros(N)
    for L, classes in ((info.M0 + 2, info.k0), (info.M0 + 1, r - info.k0)):
        if L * classes == 0:
            continue
        proposal = FejerProposal(L, Np)
        kept = np.array([float(proposal.pmf(t)) * proposal.acceptance(t) for t in range(Np)])
        for t in range(Np):
            c0 = r_inv * t % Np
            p[c0::Np] += (classes * L / N) * kept[t] / kept.sum() / g
    return p


# (n, x, q_A): generic even r, r | N (point masses), odd r, and N < r
LAW_INSTANCES = [(21, 10, 9), (35, 2, 11), (57, 5, 12), (15, 2, 8), (21, 4, 9),
                 (21, 10, 2), (33, 2, 3)]


class TestExactLaw:
    @pytest.mark.parametrize("n,x,q_A", LAW_INSTANCES)
    def test_accept_times_propose_is_the_two_term_law(self, n, x, q_A):
        inst, info = build(n, x, q_A)
        reference = two_term_at(inst, info, np.arange(inst.N))
        assert np.max(np.abs(analytic_law(inst, info) - reference)) < 1e-12

    def test_cases_covered(self):
        shapes = set()
        for n, x, q_A in LAW_INSTANCES:
            inst, info = build(n, x, q_A)
            shapes.add("r|N" if inst.N % info.r == 0 else "N<r" if inst.N < info.r
                       else "odd r" if info.r % 2 else "other")
            if inst.N < info.r:
                assert (info.M0, info.k0) == (-1, inst.N)
        assert shapes == {"r|N", "N<r", "odd r", "other"}

    @pytest.mark.parametrize("L,Np", [(1, 1), (1, 2), (2, 2), (1, 9), (4, 16), (7, 64), (5, 257), (40, 1000)])
    def test_proposal_is_normalised_and_dominates(self, L, Np):
        proposal = FejerProposal(L, Np)
        assert sum(proposal.pmf(t) for t in range(Np)) == 1
        acceptance = [proposal.acceptance(t) for t in range(Np)]
        assert min(acceptance) >= 0.0 and max(acceptance) <= 1.0 + 1e-12
        # Parseval: the kernel's mass N'L over the envelope's is the acceptance rate
        rate = sum(float(proposal.pmf(t)) * a for t, a in zip(range(Np), acceptance))
        kernel_mass = sum(fejer_kernel(L, Np, t) for t in range(Np))
        assert kernel_mass == pytest.approx(Np * L, rel=1e-12)
        assert rate == pytest.approx(kernel_mass * float(proposal.pmf(0)) / (L * L), rel=1e-12)

    def test_kernel_zeros_are_exact(self):
        assert fejer_kernel(4, 16, 4) == 0.0
        assert fejer_kernel(4, 16, 0) == 16.0
        assert fejer_kernel(1, 7, 3) == pytest.approx(1.0, abs=1e-15)

    def test_proposal_rejects_empty_sizes(self):
        with pytest.raises(DomainError):
            FejerProposal(0, 8)


def chi_square_pvalue(draws, probabilities):
    """Pearson p-value, cells with expected count below 5 pooled into one."""
    counts = np.bincount(draws, minlength=len(probabilities))
    expected = probabilities * len(draws)
    big = expected >= 5
    obs = np.append(counts[big], counts[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    if exp[-1] < 5:  # too little pooled mass to form its own cell
        obs, exp = obs[:-1], exp[:-1]
    stat = float(((obs - exp) ** 2 / exp).sum())
    return chi2.sf(stat, len(obs) - 1), len(obs) - 1


class TestChiSquare:
    @pytest.mark.parametrize("n,x,q_A,seed", [(21, 10, 9, 1), (35, 2, 11, 2), (21, 4, 9, 3),
                                              (15, 2, 8, 4), (33, 2, 3, 5), (57, 5, 12, 6)])
    def test_fixed_seed_draws_fit_two_term(self, n, x, q_A, seed):
        inst, info = build(n, x, q_A)
        draws = sample_states(inst, info, SplitMix64(seed), 30_000)
        assert 0 <= min(draws) and max(draws) < inst.N
        pvalue, dof = chi_square_pvalue(np.array(draws), two_term_at(inst, info, np.arange(inst.N)))
        assert dof >= 3
        assert pvalue > 1e-4, (n, x, q_A, pvalue, dof)

    @pytest.mark.parametrize("L,Np", [(5, 257), (3, 64), (1, 10)])
    def test_proposals_fit_pmf(self, L, Np):
        proposal = FejerProposal(L, Np)
        rng = SplitMix64(11)
        draws = np.array([proposal.propose(rng) for _ in range(30_000)])
        pmf = np.array([float(proposal.pmf(t)) for t in range(Np)])
        pvalue, _dof = chi_square_pvalue(draws, pmf)
        assert pvalue > 1e-4

    def test_deterministic_given_seed(self):
        inst, info = build(21, 10, 9)
        a = sample_states(inst, info, SplitMix64(9), 200)
        assert a == sample_states(inst, info, SplitMix64(9), 200)
        assert a != sample_states(inst, info, SplitMix64(10), 200)

    def test_wide_register_draws_sit_near_peaks(self):
        # q_A = 60 is far beyond any vector; peak cells carry most of the mass
        inst, info = build(4087, 5, 60)
        draws = sample_states(inst, info, SplitMix64(3), 300)
        near = [abs(c * info.r - round(c * info.r / inst.N) * inst.N) <= 2 * info.r for c in draws]
        assert sum(near) >= 0.8 * len(draws)

    def test_a_proposal_is_built_only_for_a_drawn_class_size(self, monkeypatch):
        built = []

        class Counted(FejerProposal):
            def __init__(self, L, Np):
                built.append(L)
                super().__init__(L, Np)

        inst, info = build(21, 10, 9)  # N = 512 = 85*6 + 2: sizes 86 and 85
        assert info.k0 > 0 and info.M0 + 1 >= 1
        expected = sample_states(inst, info, SplitMix64(5), 200)
        monkeypatch.setattr(distribution, "FejerProposal", Counted)
        assert len(sample_states(inst, info, SplitMix64(5), 1)) == 1
        assert len(built) == 1
        built.clear()
        assert sample_states(inst, info, SplitMix64(5), 200) == expected
        assert sorted(built) == [info.M0 + 1, info.M0 + 2]

    def test_count_validation(self):
        inst, info = build(21, 10, 9)
        assert sample_states(inst, info, SplitMix64(0), 0) == []
        with pytest.raises(DomainError):
            sample_states(inst, info, SplitMix64(0), -1)


class TestExactDraws:
    def test_lemire_rejects_the_biased_word(self):
        # bound 3: 2^64 mod 3 = 1, so only a word w with 3w = 0 mod 2^64 is rejected
        top = (1 << 64) - 1
        assert _bounded(_Words([0, top]), 3) == 2  # word 0 would give 0
        assert _bounded(_Words([top]), 3) == 2
        assert _bounded(_Words([]), 1) == 0  # consumes nothing

    def test_lemire_multiword_rejects_a_try(self):
        # bound 2^64 + 1, two words a try: 2^128 mod s = 1, so only the try
        # x = 0 is rejected; x = 2^64 gives low = 2^64 < s, kept as 1
        words = _Words([0, 0, 1, 0])
        assert _bounded(words, (1 << 64) + 1) == 1
        with pytest.raises(StopIteration):
            words.next_uint64()  # both tries, four words, are consumed

    @pytest.mark.parametrize("s", [1, 2, 3, (1 << 63) + 1, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, 3 ** 90])
    def test_lemire_stream_equals_the_multiword_loop(self, s):
        fast, reference = _Counted(21), _Counted(21)
        draws = [_bounded(fast, s) for _ in range(2000)]
        assert draws == [_multiword_bounded(reference, s) for _ in range(2000)]
        assert fast.words == reference.words
        assert fast._rng._state == reference._rng._state
        if s == (1 << 63) + 1:  # 2^64 mod s = s - 2: about half the tries are rejected
            assert 3600 < fast.words < 4400
        if s == 1 << 64:  # two words a try, and 2^128 mod 2^64 = 0 rejects none
            assert fast.words == 4000

    def test_lemire_multiword_bound(self):
        rng = SplitMix64(1)
        bound = 3 ** 70  # 111 bits: two words per attempt
        values = [_bounded(rng, bound) for _ in range(2000)]
        assert all(0 <= v < bound for v in values)
        assert sum(v < bound // 2 for v in values) == pytest.approx(1000, abs=5 * math.sqrt(500))

    def test_tail_refines_until_the_cell_is_fixed(self):
        proposal = FejerProposal(1 << 30, 1 << 61)  # h = 1, T = 2^60
        assert proposal._tail_magnitude(_Words([0, 0, 0, 0])) == proposal.T
        assert proposal._tail_magnitude(_Words([(1 << 64) - 1])) == proposal.h + 1

    def test_tail_cell_law(self):
        proposal = FejerProposal(3, 1000)  # h = 166, T = 500
        rng = SplitMix64(4)
        draws = [proposal._tail_magnitude(rng) for _ in range(20_000)]
        a, b = 2 * proposal.h + 1, 2 * proposal.T + 1
        for cut in (200, 300, 400):
            exact = (Fraction(2, 2 * cut + 1) - Fraction(2, b)) / (Fraction(2, a) - Fraction(2, b))
            p = float(exact)
            got = sum(m > cut for m in draws) / len(draws)
            assert abs(got - p) <= 5 * math.sqrt(p * (1 - p) / len(draws))


def literal_k0(N, r):
    M0 = (N - r) // r
    for k in range(r):
        if (N - k - 1) // r == M0:
            return k
    return r


class TestOrderFastPath:
    def test_lambda_route_matches_brute_walk_below_600(self):
        checked = 0
        for n in range(3, 600):
            for x in range(2, n):
                if math.gcd(x, n) != 1:
                    continue
                r = multiplicative_order(x, n)
                # default registers, plus N = 8 < r for the small moduli
                for q_A in ((n * n - 1).bit_length(), 3)[: 2 if n < 100 else 1]:
                    info = OrderInfo.from_instance(ProblemInstance.create(n, x, q_A))
                    N = 1 << q_A
                    assert info.r == r, (n, x)
                    assert info.k0 == literal_k0(N, r), (n, x, q_A)
                    assert info.M0 == (N - r) // r
                checked += 1
        assert checked > 100_000

    def test_carmichael_lambda_known_values(self):
        assert [carmichael_lambda(n)[0] for n in (2, 4, 8, 16, 9, 15, 21, 35263)] == [
            1, 2, 2, 4, 6, 4, 6, 178 * 196 // math.gcd(178, 196)]
        with pytest.raises(DomainError):
            carmichael_lambda(1)

    def test_carmichael_lambda_primes_are_those_of_lambda(self):
        for n in range(2, 3000):
            lam, primes = carmichael_lambda(n)
            divisors = [f for f in range(2, lam + 1) if lam % f == 0]
            assert primes == [f for f in divisors if all(f % d for d in range(2, f))], n

    @pytest.mark.parametrize("x", [2, 3, 5, 7])
    def test_order_info_never_trial_divides_lambda(self, monkeypatch, x):
        # safe primes: lambda = 2 * 22943 * 23099 costs ~11 500 trial steps,
        # p - 1 and q - 1 about 80 each
        p, q = 45887, 46199
        n = p * q
        original = number_theory._distinct_prime_factors
        calls = []

        def counted(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(number_theory, "_distinct_prime_factors", counted)
        info = OrderInfo.from_instance(ProblemInstance.create(n, x, q_A=8))
        assert calls == [n, p - 1, q - 1]
        assert info.r == number_theory.order_from_multiple(x, n, (p - 1) * (q - 1) // 2)

    def test_order_info_caps_the_modulus(self):
        below = ProblemInstance.create(46327 * 46337, 2, q_A=8)  # just below the cap
        assert OrderInfo.from_instance(below).r > 1
        with pytest.raises(ResourceError):
            OrderInfo.from_instance(ProblemInstance.create(MAX_RUN_MODULUS + 1, 2, q_A=8))
