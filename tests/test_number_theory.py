"""Exact-arithmetic primitives, each checked against an independent oracle:
iterated multiplication for powers, divisor scans for gcd, hand Euclid for
continued fractions, and exhaustive small-denominator searches for the
best-approximation property of convergents.
"""

import math
import random
from fractions import Fraction

import pytest

from shorsim.errors import DomainError, NoOrderError
from shorsim.number_theory import (
    best_convergent_bounded,
    continued_fraction,
    gcd,
    lcm,
    mod_pow,
    multiplicative_order,
    order_from_multiple,
    semiprime_lambda,
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
        assert mod_pow(10, 6, 21) == 1

    def test_zero_exponent_is_one(self):
        for x, n in [(2, 5), (10, 21), (999, 1000)]:
            assert mod_pow(x, 0, n) == 1

    def test_small_hand_value(self):
        assert mod_pow(5, 3, 21) == 20  # 125 = 5*21 + 20

    def test_modulus_below_two_rejected(self):
        with pytest.raises(DomainError):
            mod_pow(2, 3, 1)
        with pytest.raises(DomainError):
            mod_pow(2, 3, 0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            mod_pow(-2, 3, 5)
        with pytest.raises(DomainError):
            mod_pow(2, -3, 5)

    def test_against_repeated_multiplication(self):
        rnd = random.Random(20260808)
        for _ in range(200):
            base = rnd.randrange(0, 500)
            exponent = rnd.randrange(0, 200)
            modulus = rnd.randrange(2, 500)
            assert mod_pow(base, exponent, modulus) == _pow_by_repeated_multiplication(
                base, exponent, modulus
            )


class TestGcdLcm:
    def test_hand_values(self):
        assert gcd(12, 21) == 3
        assert gcd(14, 21) == 7

    def test_one_side_zero(self):
        for k in (1, 5, 360):
            assert gcd(k, 0) == k
            assert gcd(0, k) == k

    def test_both_zero_rejected(self):
        with pytest.raises(DomainError):
            gcd(0, 0)

    def test_against_divisor_scan(self):
        rnd = random.Random(11)
        for _ in range(100):
            a, b = rnd.randrange(0, 200), rnd.randrange(1, 200)
            assert gcd(a, b) == _gcd_by_divisor_scan(a, b)

    def test_lcm_values(self):
        assert lcm(6, 4) == 12
        assert lcm(3, 6) == 6  # orders of 4 and 10 mod 21
        for r in (1, 7, 12):
            assert lcm(r, r) == r

    def test_lcm_zero_rejected(self):
        with pytest.raises(DomainError):
            lcm(0, 4)
        with pytest.raises(DomainError):
            lcm(4, 0)

    def test_gcd_times_lcm_is_product(self):
        rnd = random.Random(77)
        for _ in range(200):
            a, b = rnd.randrange(1, 2000), rnd.randrange(1, 2000)
            assert gcd(a, b) * lcm(a, b) == a * b


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
                    assert mod_pow(x, s, n) == value
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
            assert mod_pow(x, r, n) == 1
            for s in rnd.sample(range(1, r), min(10, r - 1)):
                assert mod_pow(x, s, n) != 1


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


class TestBestConvergentBounded:
    def test_spec_case_numerator_route(self):
        assert best_convergent_bounded(Fraction(256, 43), 21) == Fraction(6, 1)

    def test_reduced_fraction_single_convergent(self):
        assert best_convergent_bounded(Fraction(256, 128), 21) == Fraction(2, 1)

    def test_none_when_first_convergent_too_big(self):
        assert best_convergent_bounded(Fraction(256, 1), 21) is None

    def test_bound_below_two_rejected(self):
        with pytest.raises(DomainError):
            best_convergent_bounded(Fraction(3, 2), 1)

    def test_unknown_route_rejected(self):
        with pytest.raises(DomainError):
            best_convergent_bounded(Fraction(3, 2), 10, by="nominator")

    def test_numerator_and_denominator_routes_agree(self):
        # expanding N/c and bounding the numerator must match expanding c/N
        # and bounding the denominator, as reciprocals, for every c
        for N in (256, 512, 1024):
            for bound in (15, 21, 57):
                for c in range(1, N):
                    a = best_convergent_bounded(Fraction(N, c), bound, by="numerator")
                    b = best_convergent_bounded(Fraction(c, N), bound, by="denominator")
                    if a is None:
                        assert b is None, (N, c, bound, b)
                    else:
                        assert b == Fraction(a.denominator, a.numerator), (N, c, bound)

    def test_routes_agree_on_sampled_wide_register(self):
        rnd = random.Random(13)
        N = 1 << 13
        for _ in range(500):
            c = rnd.randrange(1, N)
            bound = rnd.choice([15, 57, 91, 1009])
            a = best_convergent_bounded(Fraction(N, c), bound, by="numerator")
            b = best_convergent_bounded(Fraction(c, N), bound, by="denominator")
            if a is None:
                assert b is None
            else:
                assert b == Fraction(a.denominator, a.numerator)

    def test_best_approximation_property(self):
        # no non-convergent fraction with denominator up to the selected
        # convergent's approximates better (exhaustive small-q search)
        rnd = random.Random(9)
        for _ in range(60):
            f = Fraction(rnd.randrange(1, 3000), rnd.randrange(1, 3000))
            best = best_convergent_bounded(f, 40, by="denominator")
            if best is None or best == f:
                continue
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
            lam, primes = semiprime_lambda(p, q)
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

    def test_primes_missing_a_factor_are_rejected(self):
        # 6 = 2 * 3 is a multiple of the order of 10 mod 21; [2] misses 3
        with pytest.raises(DomainError):
            order_from_multiple(10, 21, 6, [2])

    def test_non_multiple_rejected(self):
        r = multiplicative_order(10, 21)  # 6
        with pytest.raises(DomainError):
            order_from_multiple(10, 21, r + 1)
        with pytest.raises(DomainError):
            order_from_multiple(10, 21, 0)
