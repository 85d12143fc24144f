"""Literal routes that no command or run takes, kept as the tests' oracles.

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

from shorsim.distribution import OrderInfo, ProblemInstance, _peak_blocks, _records
from shorsim.errors import DomainError
from shorsim.rng import SplitMix64


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
