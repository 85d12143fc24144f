"""Exact integer arithmetic: multiplicative orders, Carmichael's lambda,
and the bounded convergent that order recovery keeps (modular powers,
gcd and lcm are the stdlib's).

Everything in this module is integer-exact; no floating point is used
anywhere.  `multiplicative_order` deliberately walks successive powers:
it is the reference that every faster path elsewhere in the package is
tested against.  The fast path reduces the Carmichael exponent lambda(n),
a multiple of every order mod n, with `order_from_multiple`.

Order recovery keeps the last convergent of N/c whose numerator is below
n.  ``_bounded_convergent`` runs the Euclid quotients and the convergent
recurrence on plain ints and stops at the first convergent at or above
the bound: from index 0 on, numerators and denominators never decrease,
so the one before it is the last below.  The tests check it against the
selection over the whole list of convergents (``continued_fraction`` in
``tests/oracles.py``).
"""

import math

from .errors import DomainError, NoOrderError, guard, integer

#: Cap on every trial division: of n, about sqrt(n)/2 steps, a few
#: milliseconds below 2^31 and unbounded above it.
MAX_RUN_MODULUS = 1 << 31

#: Cap on the brute order walk: up to n - 2 steps, about 10.5 M a second
#: (2-CPU host), so about 1.6 s at the cap.
MAX_WALK_MODULUS = 1 << 24


def multiplicative_order(x: int, n: int) -> int:
    """Smallest r >= 1 with x**r = 1 (mod n), by walking successive powers.

    This brute-force walk is the desk-scale reference implementation;
    do not replace it with anything cleverer.  Raises NoOrderError when
    gcd(x, n) != 1, in which case no power of x is 1 mod n.
    """
    integer("n", n, 2)
    guard("n", n, MAX_WALK_MODULUS - 1, "the order walk")
    integer("x", x, 1, n)
    if math.gcd(x, n) != 1:
        raise NoOrderError(f"gcd({x}, {n}) != 1: x**r = 1 (mod n) has no solution")
    value = x % n
    order = 1
    while value != 1:
        value = value * x % n
        order += 1
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
    """(p, q) with p < q odd primes and p*q = n < MAX_RUN_MODULUS, else None."""
    integer("n", n)
    guard("n", n, MAX_RUN_MODULUS - 1, "trial division")
    if n % 2 == 0:
        return None
    factors = _distinct_prime_factors(n)
    if len(factors) == 2 and factors[0] * factors[1] == n:
        return factors[0], factors[1]
    return None


def carmichael_lambda(n: int) -> tuple[int, list[int]]:
    """Carmichael's lambda(n), the exponent of the unit group mod n >= 2,
    with its distinct primes, for n below MAX_RUN_MODULUS.

    lambda is the lcm over the prime powers p**e exactly dividing n of
    p**(e-1)*(p-1), except that lambda(2**e) = 2**(e-2) for e >= 3.  The
    order of every unit mod n divides it.  Its primes are those of each
    p-1, and p itself where p**2 divides n, collected while n is factored:
    lambda itself is never trial-divided.
    """
    integer("n", n, 2)
    guard("n", n, MAX_RUN_MODULUS - 1, "trial division")
    return _carmichael_lambda(n, _distinct_prime_factors(n))


def _carmichael_lambda(n: int, factors: list[int] | tuple[int, int]) -> tuple[int, list[int]]:
    """carmichael_lambda(n) from n's distinct primes: only each p-1 is trial-divided."""
    result, primes = 1, set()
    for p in factors:
        e, rest = 0, n
        while rest % p == 0:
            rest //= p
            e += 1
        part = p ** (e - 1) * (p - 1) if p > 2 or e < 3 else 1 << (e - 2)
        result = math.lcm(result, part)
        primes.update(_distinct_prime_factors(p - 1))
        if e > 1:
            primes.add(p)
    return result, sorted(primes)


def order_from_multiple(x: int, n: int, multiple: int, primes: list[int] | None = None) -> int:
    """Exact multiplicative order of x mod n, given any positive multiple of it.

    Peels prime factors off the multiple while the power stays 1.  Its
    primes are found by trial division, for a multiple below
    MAX_RUN_MODULUS, unless the caller passes a list of ints >= 2 that
    holds them all; primes of the list that do not divide the multiple are
    skipped, and a multiple with a prime outside the list is a DomainError.
    """
    integer("x", x)
    integer("n", n, 2)
    integer("multiple", multiple, 1)
    if primes is not None:
        if not isinstance(primes, list):
            raise DomainError(f"primes must be a list of integers >= 2, got {primes!r}")
        for f in primes:
            integer("each prime", f, 2)
    if pow(x, multiple, n) != 1:
        raise DomainError(f"{multiple} is not a multiple of the order of {x} mod {n}")
    if primes is None:
        guard("multiple", multiple, MAX_RUN_MODULUS - 1, "trial division")
        primes = _distinct_prime_factors(multiple)
    m = rest = multiple
    for f in primes:
        while rest % f == 0:
            rest //= f
        while m % f == 0 and pow(x, m // f, n) == 1:
            m //= f
    if rest != 1:
        raise DomainError(f"the primes given miss a prime factor of {multiple}")
    return m


def _bounded_convergent(p: int, q: int, bound: int) -> tuple[int, int] | None:
    """The last convergent of p/q whose numerator is below bound, as the
    pair (h, k) in lowest terms, or None when even the first is not; for
    any p >= 0 and q >= 1, reduced or not: the quotients of Euclid's
    algorithm do not depend on the terms."""
    h_prev, h, k_prev, k = 0, 1, 1, 0
    best = None
    while q:
        a = p // q
        p, q = q, p - a * q
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        if h >= bound:
            return best
        best = h, k
    return best
