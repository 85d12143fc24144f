"""Exact integer arithmetic: modular powers, gcd/lcm, multiplicative
orders, and continued-fraction machinery for bounded best rational
approximation.

Everything in this module is integer-exact; no floating point is used
anywhere.  `multiplicative_order` deliberately walks successive powers:
it is the reference that every faster path elsewhere in the package is
tested against.  The fast path reduces the Carmichael exponent lambda(n),
a multiple of every order mod n, with `order_from_multiple`.

Order recovery keeps the last convergent of N/c whose numerator is below
n.  ``_bounded_convergent`` runs the Euclid quotients and the convergent
recurrence on plain ints and stops at the first convergent at or above
the bound: from index 0 on, numerators and denominators never decrease,
so the one before it is the last below.  ``continued_fraction``, which
lists every convergent as a Fraction, is the tests' oracle for it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NoOrderError


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus by square-and-multiply, exactly."""
    if modulus < 2:
        raise DomainError(f"modulus must be >= 2, got {modulus}")
    if base < 0 or exponent < 0:
        raise DomainError("base and exponent must be non-negative")
    return pow(base, exponent, modulus)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two non-negative integers."""
    if a < 0 or b < 0:
        raise DomainError("gcd is defined here for non-negative integers")
    if a == 0 and b == 0:
        raise DomainError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def lcm(a: int, b: int) -> int:
    """Least common multiple of two positive integers."""
    if a < 1 or b < 1:
        raise DomainError("lcm requires positive integers")
    return a // math.gcd(a, b) * b


def multiplicative_order(x: int, n: int) -> int:
    """Smallest r >= 1 with x**r = 1 (mod n), by walking successive powers.

    This brute-force walk is the desk-scale reference implementation;
    do not replace it with anything cleverer.  Raises NoOrderError when
    gcd(x, n) != 1, in which case no power of x is 1 mod n.
    """
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    if not 1 <= x < n:
        raise DomainError(f"x must satisfy 1 <= x < n, got x={x}, n={n}")
    if math.gcd(x, n) != 1:
        raise NoOrderError(f"gcd({x}, {n}) != 1: x**r = 1 (mod n) has no solution")
    value = x % n
    order = 1
    while value != 1:
        value = value * x % n
        order += 1
        if order > n:  # unreachable for coprime x; guards against misuse
            raise AssertionError("order walk exceeded the group size")
    return order


def _distinct_prime_factors(m: int) -> list[int]:
    """Distinct prime divisors of m >= 1 by trial division."""
    primes = []
    rest = m
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            primes.append(f)
            while rest % f == 0:
                rest //= f
        f += 1 if f == 2 else 2
    if rest > 1:
        primes.append(rest)
    return primes


def semiprime_factors(n: int) -> tuple[int, int] | None:
    """(p, q) with p < q odd primes and p*q = n, else None."""
    if n % 2 == 0:
        return None
    factors = _distinct_prime_factors(n)
    if len(factors) == 2 and factors[0] * factors[1] == n:
        return factors[0], factors[1]
    return None


def semiprime_lambda(p: int, q: int) -> tuple[int, list[int]]:
    """Carmichael's lambda(pq) = lcm(p-1, q-1) for distinct odd primes p
    and q, with its distinct primes: those of p-1 and of q-1, each found
    by a trial division of about sqrt(q)/2 steps at most, never one of
    lambda itself."""
    primes = set(_distinct_prime_factors(p - 1)) | set(_distinct_prime_factors(q - 1))
    return lcm(p - 1, q - 1), sorted(primes)


def carmichael_lambda(n: int) -> tuple[int, list[int]]:
    """Carmichael's lambda(n), the exponent of the unit group mod n >= 2,
    with its distinct primes.

    lambda is the lcm over the prime powers p**e exactly dividing n of
    p**(e-1)*(p-1), except that lambda(2**e) = 2**(e-2) for e >= 3.  The
    order of every unit mod n divides it.  Its primes are those of each
    p-1, and p itself where p**2 divides n, collected while n is factored,
    as ``semiprime_lambda`` does: lambda itself is never trial-divided.
    """
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    result, primes = 1, set()
    for p in _distinct_prime_factors(n):
        e, rest = 0, n
        while rest % p == 0:
            rest //= p
            e += 1
        part = p ** (e - 1) * (p - 1) if p > 2 or e < 3 else 1 << (e - 2)
        result = lcm(result, part)
        primes.update(_distinct_prime_factors(p - 1))
        if e > 1:
            primes.add(p)
    return result, sorted(primes)


def order_from_multiple(x: int, n: int, multiple: int, primes: list[int] | None = None) -> int:
    """Exact multiplicative order of x mod n, given any positive multiple of it.

    Peels prime factors off the multiple while the power stays 1.  Its
    primes are found by trial division (cheap for desk-scale inputs),
    unless the caller passes a list that holds them all; primes of the
    list that do not divide the multiple are skipped, and a multiple with
    a prime outside the list is a DomainError.
    """
    if multiple < 1:
        raise DomainError("multiple must be positive")
    if mod_pow(x, multiple, n) != 1:
        raise DomainError(f"{multiple} is not a multiple of the order of {x} mod {n}")
    m = rest = multiple
    for f in _distinct_prime_factors(multiple) if primes is None else primes:
        while rest % f == 0:
            rest //= f
        while m % f == 0 and mod_pow(x, m // f, n) == 1:
            m //= f
    if rest != 1:
        raise DomainError(f"the primes given miss a prime factor of {multiple}")
    return m


@dataclass(frozen=True)
class ContinuedFractionExpansion:
    """Partial quotients of a rational number together with all convergents.

    The final convergent always equals the expanded fraction exactly, and
    convergent denominators are strictly increasing from index 1 on.
    """

    partial_quotients: tuple[int, ...]
    convergents: tuple[Fraction, ...]


def continued_fraction(f: Fraction) -> ContinuedFractionExpansion:
    """Euclidean-algorithm expansion of a non-negative rational.

    Partial quotients come straight from the Euclidean algorithm on
    numerator and denominator; convergents follow the standard recurrence
    p_i = a_i*p_{i-1} + p_{i-2}, q_i = a_i*q_{i-1} + q_{i-2}.
    """
    if f < 0:
        raise DomainError("continued_fraction expects a non-negative rational")
    p, q = f.numerator, f.denominator
    quotients: list[int] = []
    convergents: list[Fraction] = []
    num_prev, num = 0, 1  # p_{-2}, p_{-1}
    den_prev, den = 1, 0  # q_{-2}, q_{-1}
    while q:
        a = p // q
        p, q = q, p - a * q
        num_prev, num = num, a * num + num_prev
        den_prev, den = den, a * den + den_prev
        quotients.append(a)
        convergents.append(Fraction(num, den))
    return ContinuedFractionExpansion(tuple(quotients), tuple(convergents))


def _bounded_convergent(p: int, q: int, bound: int, by: str) -> tuple[int, int] | None:
    """best_convergent_bounded of p/q as the pair (h, k) in lowest terms,
    for any p >= 0 and q >= 1, reduced or not: the quotients of Euclid's
    algorithm do not depend on the terms."""
    by_numerator = by == "numerator"
    h_prev, h, k_prev, k = 0, 1, 1, 0
    best = None
    while q:
        a = p // q
        p, q = q, p - a * q
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        if (h if by_numerator else k) >= bound:
            return best
        if h or by_numerator:
            best = h, k
    return best


def best_convergent_bounded(f: Fraction, bound: int, by: str = "numerator") -> Fraction | None:
    """Last convergent of f whose numerator (or denominator) is < bound.

    Two equivalent routes are exposed: expand f and bound the numerator,
    or expand the reciprocal quantity yourself and call this with
    by="denominator".  On the denominator route the leading zero
    convergent (present whenever f < 1) is skipped: a zero numerator
    never encodes a usable ratio, and skipping it is what makes the two
    routes agree exactly on reciprocal inputs.

    The expansion stops at the first convergent whose bounded side
    reaches bound.  That is exact because h_i = a_i h_(i-1) + h_(i-2) and
    k_i = a_i k_(i-1) + k_(i-2) with every a_i >= 1 for i >= 1 and
    h_0 = a_0 <= h_1, k_0 = 1 <= k_1: neither side ever decreases, so no
    convergent after the first one at or above bound is below it again.

    Returns None when even the first eligible convergent violates the bound.
    """
    if bound < 2:
        raise DomainError(f"bound must be >= 2, got {bound}")
    if by not in ("numerator", "denominator"):
        raise DomainError(f"unknown selection rule {by!r}")
    if f < 0:
        raise DomainError("best_convergent_bounded expects a non-negative rational")
    best = _bounded_convergent(f.numerator, f.denominator, bound, by)
    return None if best is None else Fraction(*best)
