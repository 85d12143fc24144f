"""Exact-arithmetic primitives, each checked against an independent oracle:
iterated multiplication for the stdlib's modular power, divisor scans for
its gcd, hand Euclid for continued fractions, and exhaustive
small-denominator searches for the best-approximation property of
convergents.
"""

import math
import random
from fractions import Fraction

import pytest

from oracles import continued_fraction
from shorsim.errors import DomainError, NoOrderError, ResourceError
from shorsim.number_theory import (
    MAX_RUN_MODULUS,
    MAX_WALK_MODULUS,
    _bounded_convergent,
    _carmichael_lambda,
    carmichael_lambda,
    multiplicative_order,
    order_from_multiple,
)


def _pow_by_repeated_multiplication(base, exponent, modulus):
    out = 1
    for _ in range(exponent):
        out = out * base % modulus
    return out


def _gcd_by_divisor_scan(a, b):
    best = 0
    for d in range(1, max(a, b) + 1):
        if (a % d == 0 or a == 0) and (b % d == 0 or b == 0):
            if a % d == 0 and b % d == 0:
                best = d
    return best


class TestModPow:
    def test_fig_instance_power(self):
        assert pow(10, 6, 21) == 1

    def test_zero_exponent_is_one(self):
        for x, n in [(2, 5), (10, 21), (999, 1000)]:
            assert pow(x, 0, n) == 1

    def test_small_hand_value(self):
        assert pow(5, 3, 21) == 20  # 125 = 5*21 + 20

    def test_against_repeated_multiplication(self):
        rnd = random.Random(20260808)
        for _ in range(200):
            base = rnd.randrange(0, 500)
            exponent = rnd.randrange(0, 200)
            modulus = rnd.randrange(2, 500)
            assert pow(base, exponent, modulus) == _pow_by_repeated_multiplication(
                base, exponent, modulus
            )


class TestGcdLcm:
    def test_hand_values(self):
        assert math.gcd(12, 21) == 3
        assert math.gcd(14, 21) == 7

    def test_one_side_zero(self):
        for k in (1, 5, 360):
            assert math.gcd(k, 0) == k
            assert math.gcd(0, k) == k

    def test_against_divisor_scan(self):
        rnd = random.Random(11)
        for _ in range(100):
            a, b = rnd.randrange(0, 200), rnd.randrange(1, 200)
            assert math.gcd(a, b) == _gcd_by_divisor_scan(a, b)

    def test_lcm_values(self):
        assert math.lcm(6, 4) == 12
        assert math.lcm(3, 6) == 6  # orders of 4 and 10 mod 21
        for r in (1, 7, 12):
            assert math.lcm(r, r) == r

    def test_gcd_times_lcm_is_product(self):
        rnd = random.Random(77)
        for _ in range(200):
            a, b = rnd.randrange(1, 2000), rnd.randrange(1, 2000)
            assert math.gcd(a, b) * math.lcm(a, b) == a * b


class TestMultiplicativeOrder:
    def test_fig_instance_order(self):
        assert multiplicative_order(10, 21) == 6

    def test_identity_has_order_one(self):
        for n in (2, 21, 100):
            assert multiplicative_order(1, n) == 1

    def test_small_hand_order(self):
        assert multiplicative_order(4, 21) == 3  # 4, 16, 64=1 mod 21

    def test_shared_factor_raises_no_order(self):
        with pytest.raises(NoOrderError):
            multiplicative_order(7, 21)
        with pytest.raises(NoOrderError):
            multiplicative_order(6, 21)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            multiplicative_order(0, 21)
        with pytest.raises(DomainError):
            multiplicative_order(21, 21)
        with pytest.raises(DomainError):
            multiplicative_order(2, 1)

    def test_the_walk_is_capped_before_it_starts(self):
        # 2^24 - 1, the largest modulus admitted, is walked: the order of 2 is 24
        assert multiplicative_order(2, MAX_WALK_MODULUS - 1) == 24
        for n in (MAX_WALK_MODULUS, 10**40):
            with pytest.raises(ResourceError, match=f"^n={n} exceeds the cap of {MAX_WALK_MODULUS - 1} "):
                multiplicative_order(3, n)

    def test_minimality_exhaustive_small_moduli(self):
        # walk the powers by hand; the order is the first hit of 1, every
        # earlier power differs from 1, and mod_pow agrees at every step
        for n in range(2, 120):
            for x in range(1, n):
                if math.gcd(x, n) != 1:
                    continue
                r = multiplicative_order(x, n)
                value = 1
                for s in range(1, r + 1):
                    value = value * x % n
                    assert pow(x, s, n) == value
                    if s < r:
                        assert value != 1
                assert value == 1

    def test_minimality_sampled_larger_moduli(self):
        rnd = random.Random(101)
        for _ in range(40):
            n = rnd.randrange(2, 10_000)
            x = rnd.randrange(1, n)
            if math.gcd(x, n) != 1:
                continue
            r = multiplicative_order(x, n)
            assert pow(x, r, n) == 1
            for s in rnd.sample(range(1, r), min(10, r - 1)):
                assert pow(x, s, n) != 1


def _random_fraction(rnd):
    num = rnd.randrange(0, 10_000)
    den = rnd.randrange(1, 10_000)
    return Fraction(num, den)


class TestContinuedFraction:
    def test_hand_expansion_256_43(self):
        # 256 = 5*43 + 41; 43 = 1*41 + 2; 41 = 20*2 + 1; 2 = 2*1
        exp = continued_fraction(Fraction(256, 43))
        assert exp.partial_quotients == (5, 1, 20, 2)
        assert exp.convergents == (
            Fraction(5), Fraction(6), Fraction(125, 21), Fraction(256, 43),
        )

    def test_integer_input_single_quotient(self):
        # k = 0 included: Euclid's loop yields the single quotient 0 itself
        for k in (0, 1, 17):
            exp = continued_fraction(Fraction(k))
            assert exp.partial_quotients == (k,)
            assert exp.convergents == (Fraction(k),)

    def test_last_convergent_reconstructs_input(self):
        rnd = random.Random(5)
        for _ in range(300):
            f = _random_fraction(rnd)
            assert continued_fraction(f).convergents[-1] == f

    def test_reconstruction_from_quotients(self):
        rnd = random.Random(6)
        for _ in range(100):
            f = _random_fraction(rnd)
            exp = continued_fraction(f)
            # rebuild each convergent from the quotient prefix, bottom up
            for i in range(len(exp.partial_quotients)):
                value = Fraction(exp.partial_quotients[i])
                for a in reversed(exp.partial_quotients[:i]):
                    value = a + 1 / value
                assert value == exp.convergents[i]

    def test_convergents_alternate_around_input(self):
        rnd = random.Random(7)
        for _ in range(200):
            f = _random_fraction(rnd)
            conv = continued_fraction(f).convergents
            for i, cv in enumerate(conv[:-1]):
                if i % 2 == 0:
                    assert cv < f
                else:
                    assert cv > f
            assert conv[-1] == f

    def test_denominators_strictly_increase_after_index_zero(self):
        rnd = random.Random(8)
        for _ in range(200):
            conv = continued_fraction(_random_fraction(rnd)).convergents
            dens = [cv.denominator for cv in conv]
            for i in range(1, len(dens) - 1):
                assert dens[i] < dens[i + 1]

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            continued_fraction(Fraction(-1, 2))


def _literal_best_convergent(f, bound):
    """The selection over the whole list of convergents, as the pair (h, k)."""
    best = None
    for cv in continued_fraction(f).convergents:
        if cv.numerator < bound:
            best = cv.numerator, cv.denominator
    return best


class TestBestConvergentBounded:
    def test_equals_the_literal_selection_on_random_fractions(self):
        rnd = random.Random(14)
        for _ in range(3000):
            top = rnd.choice([10, 1000, 1 << 40])
            f = Fraction(rnd.randrange(0, top), rnd.randrange(1, top))
            bound = rnd.choice([2, 3, rnd.randrange(2, 100), rnd.randrange(2, top + 2)])
            got = _bounded_convergent(f.numerator, f.denominator, bound)
            assert got == _literal_best_convergent(f, bound), (f, bound)

    @pytest.mark.parametrize("f, bound", [
        (Fraction(0), 2),  # a single zero convergent
        (Fraction(0), 10),
        (Fraction(17), 18),  # integer f: one convergent
        (Fraction(17), 17),  # ... at the numerator bound
        (Fraction(17), 2),
        (Fraction(3, 11), 2),  # [0; 3, 1, 2]: numerators 0, 1, 1, 3
        (Fraction(3, 11), 3),
        (Fraction(3, 11), 4),
        (Fraction(11, 4), 2),  # [2; 1, 3]: denominators 1, 1, 4
        (Fraction(11, 4), 4),
        (Fraction(11, 4), 5),
        (Fraction(1, 5), 2),  # f < 1: 0/1, then 1/5
        (Fraction(1, 5), 5),
        (Fraction(1, 5), 6),
        (Fraction(256, 1), 256),  # the first convergent is at the bound
        (Fraction(256, 1), 257),
        (Fraction(257, 2), 128),  # [128; 2]: the first numerator is at the bound
    ])
    def test_edge_cases_equal_the_literal_selection(self, f, bound):
        got = _bounded_convergent(f.numerator, f.denominator, bound)
        assert got == _literal_best_convergent(f, bound)

    def test_none_at_or_below_the_first_eligible_side(self):
        assert _bounded_convergent(257, 2, 128) is None
        assert _bounded_convergent(257, 2, 129) == (128, 1)

    def test_equal_consecutive_numerators(self):
        # [0; 3, 1, 2] = 3/11 has convergents 0/1, 1/3, 1/4, 3/11: the stop
        # at the first numerator >= bound still passes over 1/3 to 1/4
        assert continued_fraction(Fraction(3, 11)).convergents == (
            Fraction(0), Fraction(1, 3), Fraction(1, 4), Fraction(3, 11))
        assert _bounded_convergent(3, 11, 2) == (1, 4)
        assert _bounded_convergent(3, 11, 3) == (1, 4)

    def test_unreduced_terms_expand_like_the_reduced_fraction(self):
        # recover_order passes N and c as they are, with no Fraction(N, c)
        rnd = random.Random(15)
        for _ in range(2000):
            N = 1 << rnd.randrange(4, 63)
            c = rnd.randrange(1, N)
            bound = rnd.randrange(2, 1 << 31)
            best = _bounded_convergent(N, c, bound)
            assert best == _literal_best_convergent(Fraction(N, c), bound)
            assert best is None or math.gcd(*best) == 1

    def test_spec_case_numerator_route(self):
        assert _bounded_convergent(256, 43, 21) == (6, 1)

    def test_reduced_fraction_single_convergent(self):
        assert _bounded_convergent(256, 128, 21) == (2, 1)

    def test_none_when_first_convergent_too_big(self):
        assert _bounded_convergent(256, 1, 21) is None

    def test_best_approximation_property(self):
        # the convergents of 1/f are the reciprocals of those of f (past a
        # leading 0/1), so the selection on 1/f gives the last convergent of
        # f whose denominator is below 40: no non-convergent fraction with
        # a denominator up to its own approximates f better (exhaustive
        # small-q search)
        rnd = random.Random(9)
        for _ in range(60):
            f = Fraction(rnd.randrange(1, 3000), rnd.randrange(1, 3000))
            reciprocal = _bounded_convergent(f.denominator, f.numerator, 40)
            if reciprocal is None or Fraction(reciprocal[1], reciprocal[0]) == f:
                continue
            best = Fraction(reciprocal[1], reciprocal[0])
            err_best = abs(f - best)
            for q in range(1, best.denominator + 1):
                p_mid = round(float(f) * q)
                for p in (p_mid - 1, p_mid, p_mid + 1):
                    if p < 0 or Fraction(p, q) == best:
                        continue
                    assert abs(f - Fraction(p, q)) >= err_best, (f, p, q, best)


class TestOrderFromMultiple:
    def test_reduces_multiples_to_exact_order(self):
        rnd = random.Random(10)
        for _ in range(100):
            n = rnd.randrange(3, 500)
            x = rnd.randrange(2, n)
            if math.gcd(x, n) != 1:
                continue
            r = multiplicative_order(x, n)
            for mult in (1, 2, 3, 8, 15):
                assert order_from_multiple(x, n, mult * r) == r

    def test_given_primes_reduce_like_trial_division(self):
        rnd = random.Random(11)
        odd_primes = [p for p in range(3, 400) if all(p % f for f in range(2, p))]
        for _ in range(60):
            p, q = sorted(rnd.sample(odd_primes, 2))
            n = p * q
            lam, primes = _carmichael_lambda(n, (p, q))
            assert (lam, primes) == carmichael_lambda(n)
            assert lam == math.lcm(p - 1, q - 1)
            assert primes == sorted({f for f in range(2, lam + 1) if lam % f == 0
                                     and all(f % g for g in range(2, f))})
            for x in rnd.sample(range(2, n), 8):
                if math.gcd(x, n) != 1:
                    continue
                r = multiplicative_order(x, n)
                assert order_from_multiple(x, n, lam, primes) == r
                # primes that do not divide the multiple are skipped
                assert order_from_multiple(x, n, r, primes + [1009]) == r

    def test_modulus_below_two_rejected(self):
        # the modular power underneath would raise ValueError at n = 0
        for n in (0, 1):
            with pytest.raises(DomainError):
                order_from_multiple(1, n, 1)

    def test_primes_missing_a_factor_are_rejected(self):
        # 6 = 2 * 3 is a multiple of the order of 10 mod 21; [2] misses 3
        with pytest.raises(DomainError):
            order_from_multiple(10, 21, 6, [2])

    def test_the_trial_division_of_the_multiple_is_capped(self):
        # 2 * (2^61 - 1), a prime times 2, is a multiple of the order 2 of 2
        # mod 3; its trial division would not end.  Given its primes, it
        # is not trial-divided.
        multiple = 2 * ((1 << 61) - 1)
        with pytest.raises(ResourceError, match="^multiple=[0-9]+ exceeds the cap of "):
            order_from_multiple(2, 3, multiple)
        assert order_from_multiple(2, 3, multiple, [2, (1 << 61) - 1]) == 2
        assert order_from_multiple(2, 3, MAX_RUN_MODULUS - 2) == 2

    def test_non_multiple_rejected(self):
        r = multiplicative_order(10, 21)  # 6
        with pytest.raises(DomainError):
            order_from_multiple(10, 21, r + 1)
        with pytest.raises(DomainError):
            order_from_multiple(10, 21, 0)
