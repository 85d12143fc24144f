"""Quantitative experiments: the failure census over semiprimes, the
idealized two-valuation failure model, empirical peak-capture rates,
neighbor-state probes, and the bundled reference instance.

The census classifies every base of every odd distinct-prime semiprime in
range as odd-order, trivial-square-root, or good, without visiting a
single base.  For n = p*q write p-1 = 2**s1 * m1 and q-1 = 2**s2 * m2.
Because Z_p* is cyclic, exactly m1 units mod p have odd order and exactly
2**(v-1) * m1 have order valuation v; by CRT the bases of n pair these up,
so

    num_x        = (p-1)(q-1) - 1
    odd_r        = m1*m2 - 1
    trivial_sqrt = m1*m2 * (4**min(s1, s2) - 1) / 3

(x**(r/2) = -1 mod n holds exactly when the orders mod p and mod q carry
the same positive power of two).  The literal per-base sweep, with orders
read from primitive-root tables, is the test suite's differential oracle.

The census is computed as columns: ``_census_chunks`` runs the closed form
on a block of int64 arrays of (p, q) at a time, ``census_sweep`` makes rows
from those columns, and ``failure_census`` runs the same formula on Python
ints.  The (p, q) come in order of n with no sort: n is odd, so
``_semiprime_factors_below`` marks each n = p*q with p at index n // 2 of
one array, and the marked indices come back in order.  The CSV of
``shorsim census`` is rendered from the columns, and its JSON aggregate is
summed from them by ``_census_chunks_aggregate``; ``MAX_CENSUS_NMAX``
gives their cost.

Under the random-prime heuristic v2(p-1) = s with density 2**-s, a unit's
order is odd with probability 1/3 (not the idealized model's 1/2), and the
base-weighted bad fraction tends to 7/27 = 0.259 rather than 1/3.  That is
a heuristic limit, not a theorem; the measured aggregate drifts towards it
slowly: 0.2893 (nmax 10**4), 0.2830 (10**5), 0.2800 (10**6), 0.2775 (10**7).
"""

from __future__ import annotations

import gc
import math
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .distribution import (
    MAX_REGISTER_QUBITS,
    MAX_RUN_MODULUS,
    OrderInfo,
    ProblemInstance,
    _blocks,
    _records,
    peak_columns,
    two_term_at,
    two_term_prefix_sums,
)
from .errors import DomainError, guard
from .number_theory import _bounded_convergent, semiprime_factors
from .rng import SplitMix64

#: Cap on the census route.  Time and memory grow about linearly with
#: nmax: at nmax = 10**7 (1 555 366 semiprimes, 2-CPU host, six runs
#: each) the CSV takes 0.7-0.8 s and 72 MB peak RSS, and the JSON
#: aggregate, read from the same columns, about 0.3 s and 72 MB.  The
#: semiprimes are placed, not sorted: one uint16 array of nmax // 2 entries (a byte a value of n)
#: holds each one's smaller prime, and the int64 arrays of p and q read
#: back from it take 16 bytes a semiprime; the census itself is streamed
#: in blocks of ``_blocks``, each block one chunk of the CSV.
MAX_CENSUS_NMAX = 10**7

#: Cap on the order for the neighbor probe.  The report holds its probes
#: as columns, and both formats stream their text: at r = 65 521, a prime,
#: ``neighbors`` takes 0.9-1.2 s and 77 MB peak RSS as CSV, 2.4-2.9 s and
#: 74 MB as JSON (2-CPU host).
MAX_NEIGHBOR_ORDER = 1 << 16

#: Cap on the trials of the valuation Monte Carlo, checked before any
#: draw.  A trial costs about 13 ns (two words and their tally, 2-CPU
#: host), so the cap takes about 11 s and holds about 30 MB.
MAX_MC_TRIALS = 8 * 10**8

#: Cap on the draws of the capture Monte Carlo, checked before any work.
#: A draw costs about 21 ns (its word, its sort and its count, 2-CPU
#: host), on top of one pass over the register (1.3 s at q_A 24), so the
#: cap takes about 10 s at any register and holds about 32 MB.
MAX_CAPTURE_SAMPLES = 4 * 10**8

#: Heuristic limit of the census's base-weighted bad fraction as nmax
#: grows (random-prime heuristic; see the module docstring).
CENSUS_HEURISTIC_LIMIT = 7 / 27


class FailureCensus(NamedTuple):
    """Classification counts for every base 1 < x < n coprime to n: one
    row of the census table, its columns in order.

    The other counts follow from these: num_x - odd_r - trivial_sqrt bases
    are good, p1 + p2 - 2 share a factor with n, and odd_r / num_x and
    trivial_sqrt / num_x are the odd-order and trivial fractions.
    """

    n: int
    p1: int
    p2: int
    num_x: int
    odd_r: int
    trivial_sqrt: int
    fraction_bad: float


class CensusAggregate(NamedTuple):
    """Sweep-level summary; aggregate fractions are base-weighted."""

    count: int
    total_x: int
    total_odd: int
    total_trivial: int
    aggregate_bad_fraction: float
    mean_bad_fraction: float
    max_bad_fraction: float
    bound_ok: bool  # every per-n bad fraction <= 1/2


class ValuationModelResult(NamedTuple):
    """Monte Carlo estimate of the idealized failure model.

    Two 2-adic valuations are drawn independently with P(k=0) = 1/2 and
    P(k=j) = 2**-(j+1); matched_valuations counts k1 = k2 >= 1 (the
    trivial-square-root analogue, analytic value 1/12) and both_odd
    counts k1 = k2 = 0 (the odd-order analogue, analytic value 1/4).
    """

    trials: int
    matched_valuations: int
    both_odd: int
    p_a: float
    p_b: float
    p_fail: float


class CaptureReport(NamedTuple):
    """Fraction of measured states landing on a peak's floor/ceiling cell."""

    n: int
    x: int
    q_A: int
    samples: int
    exact_value: float
    sampled_fraction: float


class NeighborReport(NamedTuple):
    """The coprime peaks nu probed by ``neighbor_state_check``, as columns:
    entry i of every list is the i-th probe."""

    n: int
    x: int
    q_A: int
    r: int
    nu: list[int]
    c_nu: list[int]
    delta_nu: list[float]
    results: dict[int, list[tuple[int, int] | None]]  # by d: the bounded convergents at c_nu + d
    neighbors_differ: list[tuple[int, ...]]  # d in {-1, 2} disagreeing with d = 0
    changed_neighbors: int
    changed_within_guarantee: int  # expected 0


def _sieve_primes(limit: int) -> np.ndarray:
    """The primes up to limit, as an int64 array."""
    import numpy as np

    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return np.nonzero(flags)[0].astype(np.int64)


def _semiprime_factors_below(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """int64 arrays of p and q, for every n = p*q < limit with p < q odd
    primes, in order of n: each odd n is marked with its p at index n // 2,
    so the marked indices come back in order of n, with no sort."""
    import numpy as np

    primes = _sieve_primes(limit // 3 + 1)[1:]  # odd primes
    # p < sqrt(limit) <= sqrt(MAX_CENSUS_NMAX) < 2**16, so uint16 holds it
    smaller = np.zeros(max(limit, 0) // 2, dtype=np.uint16)
    for i, p in enumerate(primes.tolist()):
        if p * p >= limit:
            break
        smaller[p * primes[i + 1 : np.searchsorted(primes, (limit - 1) // p, side="right")] // 2] = p
    q = np.flatnonzero(smaller)  # n // 2, made q in place
    p = smaller[q].astype(np.int64)
    q *= 2
    q += 1
    q //= p
    return p, q


def _census_columns(p, q) -> FailureCensus:
    """The census of each n = p*q in closed form, as a FailureCensus whose
    fields are arrays (or numbers), from the 2-adic splits of p-1 and q-1.

    Z_p* is cyclic of order p-1 = 2**s * m, so exactly m units have odd
    order and exactly 2**(v-1) * m have order valuation v >= 1.  By CRT a
    base has odd order r = lcm(r1, r2) iff both per-prime orders are odd
    (m1*m2 bases, less x = 1), and is a trivial square root iff both carry
    the same valuation v >= 1 (4**(v-1) * m1*m2 bases for each v up to
    min(s1, s2)).  Every count is an exact integer.

    p and q are int64 arrays with every p*q below 2**53, object arrays of
    Python ints, or Python ints: the formula uses operators only.  No
    operand exceeds p*q, so int64 does not wrap and float64 holds each
    operand exactly: a fraction is the correctly rounded quotient, the same
    bits as Python's int / int.
    """
    a, b = p - 1, q - 1
    low1, low2 = a & -a, b & -b  # 2**s1 and 2**s2
    m1m2 = (a // low1) * (b // low2)
    num_x = a * b - 1  # coprime bases, x = 1 excluded
    n_odd = m1m2 - 1
    low = low1 | low2
    n_trivial = m1m2 * ((low & -low) ** 2 - 1) // 3  # 4**min(s1, s2) - 1
    return FailureCensus(
        n=p * q, p1=p, p2=q,
        num_x=num_x,
        odd_r=n_odd,
        trivial_sqrt=n_trivial,
        fraction_bad=(n_odd + n_trivial) / num_x,
    )


def failure_census(n: int) -> FailureCensus:
    """Classify every coprime base 1 < x < n as odd-order, trivial square
    root (x**(r/2) = -1 mod n), or good, counted in closed form, n < 2^31."""
    guard("n", n, MAX_RUN_MODULUS - 1, "a census row")
    factors = semiprime_factors(n)
    if factors is None:
        raise DomainError(f"n={n} is not an odd semiprime with distinct prime factors")
    return _census_columns(*factors)


def _census_chunks(nmax: int = 10_000) -> Iterator[FailureCensus]:
    """The census of every odd distinct-prime semiprime below nmax, in order
    of n, as FailureCensus chunks whose fields are arrays, one chunk per
    block of ``_blocks``.  The cap is checked on the call."""
    guard("nmax", nmax, MAX_CENSUS_NMAX, "the census")
    p, q = _semiprime_factors_below(nmax)
    return (_census_columns(p[start:stop], q[start:stop]) for start, stop in _blocks(len(p)))


def census_sweep(nmax: int = 10_000) -> list[FailureCensus]:
    """failure_census over every odd distinct-prime semiprime below nmax,
    in order of n; the cap is checked before any is enumerated.

    The list is built with the cyclic collector paused: a row is a tuple
    subclass, which the collector never untracks, so each full collection
    would walk every row made so far.  At nmax = 10**7 (1 555 366 rows,
    2-CPU host) the sweep took 4.0-5.5 s with the collector running and
    rows made by ``_make``, and takes 1.5-2.1 s (six runs each).
    """
    chunks = _census_chunks(nmax)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [row for columns in chunks for row in _records(FailureCensus, columns)]
    finally:
        if enabled:
            gc.enable()


def census_aggregate(rows: Iterable[FailureCensus]) -> CensusAggregate:
    """Sweep-level summary of the rows, in one pass over any iterable.

    Every sum adds in row order, one term at a time, so the fractions do
    not depend on how the rows arrive (or on the interpreter's ``sum``).
    """
    count = total_x = total_odd = total_trivial = 0
    fraction_sum, max_fraction = 0.0, -math.inf
    for r in rows:
        count += 1
        total_x += r.num_x
        total_odd += r.odd_r
        total_trivial += r.trivial_sqrt
        fraction = r.fraction_bad
        fraction_sum += fraction
        if fraction > max_fraction:
            max_fraction = fraction
    return _aggregate(count, total_x, total_odd, total_trivial, fraction_sum, max_fraction)


def _census_chunks_aggregate(chunks: Iterable[FailureCensus]) -> CensusAggregate:
    """census_aggregate of the rows of the chunks, read from their columns.

    The totals are exact int sums.  The mean's sum is the last entry of a
    cumulative sum with the running carry prepended: ``np.cumsum`` adds one
    term at a time in row order, so it has the bits of census_aggregate's
    loop.
    """
    import numpy as np

    count = total_x = total_odd = total_trivial = 0
    fraction_sum, max_fraction = 0.0, -math.inf
    for c in chunks:
        count += len(c.n)
        total_x += int(c.num_x.sum())
        total_odd += int(c.odd_r.sum())
        total_trivial += int(c.trivial_sqrt.sum())
        fraction_sum = float(np.cumsum(np.concatenate(([fraction_sum], c.fraction_bad)))[-1])
        max_fraction = max(max_fraction, float(c.fraction_bad.max()))
    return _aggregate(count, total_x, total_odd, total_trivial, fraction_sum, max_fraction)


def _aggregate(count: int, total_x: int, total_odd: int, total_trivial: int,
               fraction_sum: float, max_fraction: float) -> CensusAggregate:
    """The CensusAggregate of a census's sums, maximum and row count."""
    if count == 0:
        raise DomainError("no census rows to aggregate")
    return CensusAggregate(
        count=count,
        total_x=total_x,
        total_odd=total_odd,
        total_trivial=total_trivial,
        aggregate_bad_fraction=(total_odd + total_trivial) / total_x,
        mean_bad_fraction=fraction_sum / count,
        max_bad_fraction=max_fraction,
        bound_ok=max_fraction <= 0.5,
    )


def valuation_model_mc(trials: int, seed: int = 0) -> ValuationModelResult:
    """Monte Carlo for the idealized independent-valuations failure model.

    k1 is the number of trailing zero bits of one of the first `trials`
    words of the seed's SplitMix64 stream, and k2 of the word `trials`
    places later; that count has exactly the law P(j) = 2**-(j+1) (the
    all-zero word counts as 64).  Both are odd when w1 & w2 & 1 is set,
    and k1 = k2 >= 1 when w1 is even and both have the same lowest set
    bit.  The pairs whose lowest set bits agree are counted once: the
    both-odd pairs are exactly those that agree at bit 0, so matched =
    agree - both_odd.  The tallies are exact integers, made block by
    block in place on the block's words.
    """
    if trials < 1:
        raise DomainError("trials must be positive")
    guard("trials", trials, MAX_MC_TRIALS, "the valuation Monte Carlo")
    import numpy as np

    first, second = SplitMix64(seed), SplitMix64(seed).advance(trials)
    one = np.uint64(1)
    both_odd = agree = 0
    for start, stop in _blocks(trials):
        count = stop - start
        w1, w2 = first.uint64_block(count), second.uint64_block(count)
        scratch = np.bitwise_and(w1, w2)
        scratch &= one
        both_odd += int(np.count_nonzero(scratch))
        # w1 ^ (w1 - 1) masks the bits of w1 up to its lowest set bit (all
        # bits when w1 = 0); w2 has the same lowest set bit iff it agrees
        # with w1 there
        mask = np.subtract(w1, one, out=scratch)
        mask ^= w1
        w2 ^= w1
        w2 &= mask
        agree += count - int(np.count_nonzero(w2))
    matched = agree - both_odd
    return ValuationModelResult(
        trials=trials,
        matched_valuations=matched,
        both_odd=both_odd,
        p_a=both_odd / trials,
        p_b=matched / trials,
        p_fail=(both_odd + matched) / trials,
    )


def capture_rate_empirical(n: int, x: int, q_A: int | None, samples: int,
                           seed: int = 0) -> CaptureReport:
    """Peak-cell capture: exact mass on the cells {c_nu, c_nu + 1} and the
    matching sampled fraction (deviation taken against the nearest peak).

    The exact value reads the 2r peak cells alone.  The sampled fraction
    is that of inverse-CDF draws u * total from the seed's uniforms, but
    no draw is placed in a cell: a draw lands on peak cell c exactly when
    cdf(c-1) <= u < cdf(c), so one pass over the register keeps only
    those running sums, and the draws are counted against them block by
    block.  q_A None is the default register of n.
    """
    if samples < 1:
        raise DomainError(f"samples must be positive, got {samples}")
    guard("samples", samples, MAX_CAPTURE_SAMPLES, "the capture Monte Carlo")
    inst = ProblemInstance.create(n, x, q_A)
    if inst.N < n * n:
        raise DomainError(f"need N >= n^2 for capture analysis, got N={inst.N}, n={n}")
    info = OrderInfo.from_instance(inst)
    guard("q_A", inst.q_A, MAX_REGISTER_QUBITS, "the capture pass")
    import numpy as np

    # no peak guard: N >= n^2 and q_A <= 24 keep r below 4096 peaks, and
    # N below 2^63, so c_nu is an int64 array
    c_nu = peak_columns(inst, info, 0, info.r)[2]
    pairs = two_term_at(inst, info, c_nu) + two_term_at(inst, info, c_nu + 1)
    exact = float(np.cumsum(pairs)[-1])  # in peak order, one term at a time
    # N >= n^2 > 2r puts the peaks more than two cells apart, so each cell
    # c_nu + d (d in {0, 1}) has peak nu nearest: these are exactly the
    # cells whose draws count, distinct, in order, and below N - 1.  A draw
    # u lands on cell c when cdf(c-1) <= u < cdf(c), where cdf(-1) = 0, so
    # on c_nu or c_nu + 1 when cdf(c_nu - 1) <= u < cdf(c_nu + 1).
    ends = np.column_stack((c_nu - 1, c_nu + 1)).ravel()[1:]  # without the -1 of c_0 = 0
    sums, total = two_term_prefix_sums(inst, info, ends)
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"distribution is not normalized: total={total!r}")
    # peak nu's draws lie in [edges[2 nu], edges[2 nu + 1])
    edges = np.concatenate(([0.0], sums))
    rng = SplitMix64(seed)
    hits = 0
    for start, stop in _blocks(samples):
        u = rng.random_block(stop - start)
        u *= total
        u.sort()
        # a count ignores order
        at = np.searchsorted(u, edges)
        hits += int((at[1::2] - at[::2]).sum())
    return CaptureReport(
        n=n, x=x, q_A=inst.q_A, samples=samples,
        exact_value=exact,
        sampled_fraction=hits / samples,
    )


def neighbor_state_check(n: int, x: int, q_A: int | None) -> NeighborReport:
    """Probe each coprime-index peak at offsets d in {-1, 0, 1, 2}.

    The claim under test: probing the neighbors of a peak cell never
    changes what the guaranteed cells d in {0, 1} already recover.  Any
    neighbor that disagrees while sitting within the recovery-guarantee
    distance would be a genuine violation (expected count: zero).
    q_A None is the default register of n.  Capped at r <=
    MAX_NEIGHBOR_ORDER, checked before any peak is probed.
    """
    inst = ProblemInstance.create(n, x, q_A)
    if inst.N < n * n:
        raise DomainError(f"need N >= n^2 for the neighbor probe, got N={inst.N}, n={n}")
    info = OrderInfo.from_instance(inst)
    guard("r", info.r, MAX_NEIGHBOR_ORDER, "the neighbor probe")
    import numpy as np

    nus, _sigma, cells, deltas = peak_columns(inst, info, 0, info.r)
    coprime = np.gcd(nus, info.r) == 1  # not nu = 0: r > 1, as 1 < x < n
    nus, cells, deltas = (column[coprime].tolist() for column in (nus, cells, deltas))
    results = {d: [_bounded_convergent(inst.N, (c_nu + d) % inst.N, inst.n) for c_nu in cells]
               for d in (-1, 0, 1, 2)}
    differ = [tuple(d for d, result in ((-1, left), (2, right)) if result != centre)
              for left, centre, right in zip(results[-1], results[0], results[2])]
    return NeighborReport(
        n=n, x=x, q_A=inst.q_A, r=info.r,
        nu=nus, c_nu=cells, delta_nu=deltas, results=results, neighbors_differ=differ,
        changed_neighbors=sum(map(len, differ)),
        # the differing offsets within the recovery-guarantee distance
        changed_within_guarantee=sum(abs(d - delta_nu) / inst.N < info.delta_min
                                     for ds, delta_nu in zip(differ, deltas) for d in ds),
    )


def figure1_instance() -> tuple[ProblemInstance, OrderInfo]:
    """The bundled reference instance (n=21, x=10, 8-qubit register, N=256)
    and its order info."""
    inst = ProblemInstance.create(21, 10, q_A=8)
    return inst, OrderInfo.from_instance(inst)

