"""Literal routes that no command or run takes, kept as the tests' oracles.

* ``oracle_at`` sums unit phasors literally, one per exponent, with no
  closed form anywhere, and ``per_k_at`` evaluates the geometric-series
  closed form once per residue class.  Every route evaluates P with the
  package's ``two_term_at``, which collapses the per-class form onto the
  two class sizes that occur; the tests hold it to both.  Neither has a
  cost cap: only the tests call them, on inputs they choose.
* ``continued_fraction`` lists every convergent of a rational as a
  Fraction; the package's ``_bounded_convergent`` stops at the first
  convergent at or above its bound and is checked against the selection
  over this whole list.
* ``peaks`` holds one ``PeakModel`` record per peak, built from the
  package's own ``peak_columns`` blocks; the tables stream those blocks.
* ``sample_from`` draws by inverse CDF from a whole probability vector;
  the capture pass counts the same draws against prefix sums without one.
"""

from fractions import Fraction
from typing import NamedTuple

from shorsim.distribution import (
    OrderInfo,
    ProblemInstance,
    _denominator_parts,
    _peak_blocks,
    _records,
    _sin_sq_ratio,
)
from shorsim.errors import DomainError
from shorsim.number_theory import multiplicative_order
from shorsim.rng import SplitMix64


def _class_size(N: int, r: int, k: int) -> int:
    """Number of exponents a in [0, N) with a = k (mod r)."""
    return (N - k - 1) // r + 1


def oracle_at(inst: ProblemInstance, info: OrderInfo, c):
    """P(c) at the cells of a one-dimensional integer index array, by
    literal phasor summation over every exponent.

    For each residue class k the amplitude at c is the plain sum of
    exp(2*pi*i*a*c/N) over all a = e*r + k, divided by N; the class
    contributes its squared magnitude.  O(N) work a cell, no closed form,
    no shared trigonometric shortcuts: this is the reference oracle.  The
    sum takes its own r from the brute walk, which must agree with info.r.
    """
    r = multiplicative_order(inst.x, inst.n)
    if r != info.r:
        raise DomainError(f"info.r={info.r} is not the order {r} of {inst.x} mod {inst.n}")
    import numpy as np

    N = inst.N
    c = np.asarray(c, dtype=np.int64)
    total = np.zeros(len(c))
    for k in range(r):
        amp = np.zeros(len(c), dtype=np.complex128)
        for e in range(_class_size(N, r, k)):
            a = e * r + k
            # a*c < N^2 <= 2^48 fits int64; reduce before the angle for accuracy
            angle = (2.0 * np.pi / N) * ((a * c) % N)
            amp += np.exp(1j * angle)
        total += np.abs(amp / N) ** 2
    return total


def per_k_at(inst: ProblemInstance, info: OrderInfo, c):
    """P(c) at the cells of a one-dimensional integer index array, from the
    geometric-series closed form, one term per residue class; each cell
    adds its classes in order k."""
    import numpy as np

    N, r = inst.N, info.r
    c = np.asarray(c, dtype=np.int64)
    t = np.empty_like(c)
    singular, den = _denominator_parts(N, r, c, t)
    total = np.zeros(len(c))
    for k in range(r):
        total += _sin_sq_ratio(N, r, _class_size(N, r, k), c, t, singular, den)
    return total / float(N) ** 2


class ContinuedFractionExpansion(NamedTuple):
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


class PeakModel(NamedTuple):
    """One peak of the distribution: real center nu*N/r split into integer
    cell c_nu and fractional displacement delta_nu in [0, 1)."""

    nu: int
    sigma_nu: float
    c_nu: int
    delta_nu: float


def peaks(inst: ProblemInstance, info: OrderInfo) -> list[PeakModel]:
    """The r peak models, with centers computed in exact rational arithmetic.
    Capped at r <= MAX_PEAKS_ORDER, checked before any is built."""
    return [peak for columns in _peak_blocks(inst, info) for peak in _records(PeakModel, columns)]


def sample_from(p, rng: SplitMix64, count: int) -> list[int]:
    """Draw `count` i.i.d. states from the probabilities p of the states
    0..len(p)-1 by inverse CDF out of a caller-owned stream
    (``SplitMix64(seed)`` for a fresh one); ``sample_states`` draws from the
    two-term law without a vector.
    """
    import numpy as np

    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0.0):
        raise DomainError("distribution has negative entries")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"distribution is not normalized: total={total!r}")
    cdf = np.cumsum(p)
    u = rng.random_block(count) * cdf[-1]
    idx = np.searchsorted(cdf, u, side="right")
    np.clip(idx, 0, len(p) - 1, out=idx)
    return [int(i) for i in idx]
