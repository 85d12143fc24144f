"""Exact integer arithmetic: modular powers, gcd/lcm, multiplicative
orders, and continued-fraction machinery for bounded best rational
approximation.

Everything in this module is integer-exact; no floating point is used
anywhere.  `multiplicative_order` deliberately walks successive powers:
it is the reference that every faster path elsewhere in the package is
tested against.  The fast path reduces the Carmichael exponent lambda(n),
a multiple of every order mod n, with `order_from_multiple`.
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


def carmichael_lambda(n: int) -> int:
    """Carmichael's lambda(n): the exponent of the unit group mod n >= 2.

    lambda is the lcm over the prime powers p**e exactly dividing n of
    p**(e-1)*(p-1), except that lambda(2**e) = 2**(e-2) for e >= 3.  The
    order of every unit mod n divides it.
    """
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    result = 1
    for p in _distinct_prime_factors(n):
        e, rest = 0, n
        while rest % p == 0:
            rest //= p
            e += 1
        part = p ** (e - 1) * (p - 1) if p > 2 or e < 3 else 1 << (e - 2)
        result = lcm(result, part)
    return result


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
    while q:
        a = p // q
        quotients.append(a)
        p, q = q, p - a * q
    if not quotients:  # f == 0: Euclid gives a single zero quotient
        quotients = [0]
    convergents: list[Fraction] = []
    num_prev, num = 1, quotients[0]
    den_prev, den = 0, 1
    convergents.append(Fraction(num, den))
    for a in quotients[1:]:
        num_prev, num = num, a * num + num_prev
        den_prev, den = den, a * den + den_prev
        convergents.append(Fraction(num, den))
    return ContinuedFractionExpansion(tuple(quotients), tuple(convergents))


def best_convergent_bounded(f: Fraction, bound: int, by: str = "numerator") -> Fraction | None:
    """Last convergent of f whose numerator (or denominator) is < bound.

    Two equivalent routes are exposed: expand f and bound the numerator,
    or expand the reciprocal quantity yourself and call this with
    by="denominator".  On the denominator route the leading zero
    convergent (present whenever f < 1) is skipped: a zero numerator
    never encodes a usable ratio, and skipping it is what makes the two
    routes agree exactly on reciprocal inputs.

    Returns None when even the first eligible convergent violates the bound.
    """
    if bound < 2:
        raise DomainError(f"bound must be >= 2, got {bound}")
    if by not in ("numerator", "denominator"):
        raise DomainError(f"unknown selection rule {by!r}")
    best = None
    for cv in continued_fraction(f).convergents:
        if by == "denominator" and cv.numerator == 0:
            continue
        side = cv.numerator if by == "numerator" else cv.denominator
        if side < bound:
            best = cv
    return best
