"""Quantitative experiments: the failure census over semiprimes, the
idealized two-valuation failure model, empirical peak-capture rates,
neighbor-state probes, and the bundled reference-instance data dump.

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

Under the random-prime heuristic v2(p-1) = s with density 2**-s, a unit's
order is odd with probability 1/3 (not the idealized model's 1/2), and the
base-weighted bad fraction tends to 7/27 = 0.259 rather than 1/3.  That is
a heuristic limit, not a theorem; the measured aggregate drifts towards it
slowly: 0.2893 (nmax 10**4), 0.2830 (10**5), 0.2800 (10**6), 0.2775 (10**7).
"""

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .distribution import (
    OrderInfo,
    OutputDistribution,
    PeakModel,
    ProblemInstance,
    guard_register,
    peaks,
    two_term_at,
    two_term_distribution,
    two_term_prefix_sums,
)
from .errors import DomainError, ResourceError
from .number_theory import semiprime_factors
from .pipeline import RecoveryResult, recover_order
from .rng import SplitMix64

#: Cap on the census route, set by time: the closed form costs
#: microseconds per semiprime, but the rows grow about linearly with nmax
#: and are made one by one in Python (nmax = 10**7: 1 555 366 rows in
#: about 11 s on a 2-CPU host).  Memory is not the limit: the semiprimes
#: are held as int64 arrays and the rows are streamed.
MAX_CENSUS_NMAX = 10**7

#: Items per block of the streamed routes: random words of a Monte Carlo
#: tally, semiprimes of the census.  A block's arrays stay cache-sized
#: whatever the total.
_BLOCK = 1 << 16

#: Heuristic limit of the census's base-weighted bad fraction as nmax
#: grows (random-prime heuristic; see the module docstring).
CENSUS_HEURISTIC_LIMIT = 7 / 27


@dataclass(frozen=True)
class FailureCensus:
    """Classification counts for every base 1 < x < n coprime to n."""

    n: int
    p1: int
    p2: int
    num_x: int
    odd_r: int
    trivial_sqrt: int
    good: int
    common_factor_skipped: int
    fraction_odd: float
    fraction_trivial_sqrt: float
    fraction_bad: float


@dataclass(frozen=True)
class CensusAggregate:
    """Sweep-level summary; aggregate fractions are base-weighted."""

    count: int
    total_x: int
    total_odd: int
    total_trivial: int
    aggregate_bad_fraction: float
    mean_bad_fraction: float
    max_bad_fraction: float
    bound_ok: bool  # every per-n bad fraction <= 1/2


@dataclass(frozen=True)
class ValuationModelResult:
    """Monte Carlo estimate of the idealized failure model.

    Two 2-adic valuations are drawn independently with P(k=0) = 1/2 and
    P(k=j) = 2**-(j+1); matched_valuations counts k1 = k2 >= 1 (the
    trivial-square-root analogue, analytic value 1/12) and both_odd
    counts k1 = k2 = 0 (the odd-order analogue, analytic value 1/4).
    """

    trials: int
    matched_valuations: int
    both_odd: int
    estimate: float  # matched_valuations / trials
    p_a: float
    p_b: float
    p_fail: float


@dataclass(frozen=True)
class CaptureReport:
    """Fraction of measured states landing on a peak's floor/ceiling cell."""

    n: int
    x: int
    q_A: int
    samples: int
    exact_value: float
    sampled_fraction: float


@dataclass(frozen=True)
class NeighborProbe:
    """Recovery results at offsets d in {-1, 0, 1, 2} from one peak cell."""

    nu: int
    c_nu: int
    delta_nu: float
    results: tuple[tuple[int, tuple[int, int] | None], ...]
    guaranteed_ds: tuple[int, ...]  # offsets whose distance beats delta_min
    neighbors_differ: tuple[int, ...]  # d in {-1, 2} disagreeing with d = 0


@dataclass(frozen=True)
class NeighborReport:
    n: int
    x: int
    q_A: int
    r: int
    probes: list[NeighborProbe]
    changed_neighbors: int
    changed_within_guarantee: int  # expected 0


def _sieve_primes(limit: int) -> np.ndarray:
    """The primes up to limit, as an int64 array."""
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
    primes, in order of n (24 bytes a semiprime at most, while sorting)."""
    primes = _sieve_primes(limit // 3 + 1)[1:]  # odd primes
    cofactors = []  # the q of each p, in order of q
    for i, p in enumerate(primes.tolist()):
        if p * p >= limit:
            break
        cofactors.append(primes[i + 1 : np.searchsorted(primes, (limit - 1) // p, side="right")])
    counts = [len(q) for q in cofactors]
    p = np.repeat(primes[: len(counts)], counts)
    q = np.concatenate(cofactors) if cofactors else p  # both empty
    order = np.argsort(p * q)  # n = p*q is unique
    return p[order], q[order]


def _semiprime_chunks(limit: int) -> Iterator[list[tuple[int, int, int]]]:
    """semiprimes_below(limit), a list of up to _BLOCK tuples at a time."""
    p, q = _semiprime_factors_below(limit)
    for start in range(0, len(p), _BLOCK):
        stop = start + _BLOCK
        yield [(a * b, a, b) for a, b in zip(p[start:stop].tolist(), q[start:stop].tolist())]


def semiprimes_below(limit: int) -> list[tuple[int, int, int]]:
    """All (n, p, q) with n = p*q < limit, p < q odd primes, sorted by n."""
    return [t for chunk in _semiprime_chunks(limit) for t in chunk]


def _two_adic_split(m: int) -> tuple[int, int]:
    """(s, odd part) with m = 2**s * odd part, for m >= 1."""
    s = (m & -m).bit_length() - 1
    return s, m >> s


def _census_row(n: int, p: int, q: int) -> FailureCensus:
    """Closed-form census of n = p*q from the 2-adic splits of p-1 and q-1.

    Z_p* is cyclic of order p-1 = 2**s * m, so exactly m units have odd
    order and exactly 2**(v-1) * m have order valuation v >= 1.  By CRT a
    base has odd order r = lcm(r1, r2) iff both per-prime orders are odd
    (m1*m2 bases, less x = 1), and is a trivial square root iff both carry
    the same valuation v >= 1 (4**(v-1) * m1*m2 bases for each v up to
    min(s1, s2)).  Every count is an exact integer.
    """
    s1, m1 = _two_adic_split(p - 1)
    s2, m2 = _two_adic_split(q - 1)
    num_x = (p - 1) * (q - 1) - 1  # coprime bases, x = 1 excluded
    n_odd = m1 * m2 - 1
    n_trivial = m1 * m2 * ((1 << 2 * min(s1, s2)) - 1) // 3
    return FailureCensus(
        n=n, p1=p, p2=q,
        num_x=num_x,
        odd_r=n_odd,
        trivial_sqrt=n_trivial,
        good=num_x - n_odd - n_trivial,
        common_factor_skipped=p + q - 2,  # the multiples of p and of q in (1, n)
        fraction_odd=n_odd / num_x,
        fraction_trivial_sqrt=n_trivial / num_x,
        fraction_bad=(n_odd + n_trivial) / num_x,
    )


def failure_census(n: int) -> FailureCensus:
    """Classify every coprime base 1 < x < n as odd-order, trivial square
    root (x**(r/2) = -1 mod n), or good, counted in closed form."""
    factors = semiprime_factors(n)
    if factors is None:
        raise DomainError(f"n={n} is not an odd semiprime with distinct prime factors")
    return _census_row(n, *factors)


def census_rows(nmax: int = 10_000) -> Iterator[FailureCensus]:
    """failure_census over every odd distinct-prime semiprime below nmax,
    one row at a time, in order of n.  The cap is checked on the call."""
    if nmax > MAX_CENSUS_NMAX:
        raise ResourceError(f"nmax={nmax} exceeds the census cap of {MAX_CENSUS_NMAX}")
    return (_census_row(n, p, q) for chunk in _semiprime_chunks(nmax) for n, p, q in chunk)


def census_sweep(nmax: int = 10_000) -> list[FailureCensus]:
    """census_rows as a list."""
    return list(census_rows(nmax))


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
    bit.  The tallies are exact integers, made block by block.
    """
    if trials < 1:
        raise DomainError("trials must be positive")
    first, second = SplitMix64(seed), SplitMix64(seed).advance(trials)
    one = np.uint64(1)
    both_odd = matched = 0
    for start in range(0, trials, _BLOCK):
        count = min(_BLOCK, trials - start)
        w1, w2 = first.uint64_block(count), second.uint64_block(count)
        both_odd += int(np.count_nonzero(w1 & w2 & one))
        # w1 ^ (w1 - 1) masks the bits of w1 up to its lowest set bit (all
        # bits when w1 = 0); w2 has the same lowest set bit iff it agrees
        # with w1 there.  A match needs w1 even, so count the misses.
        miss = ((w1 ^ w2) & (w1 ^ (w1 - one))) | (w1 & one)
        matched += count - int(np.count_nonzero(miss))
    return ValuationModelResult(
        trials=trials,
        matched_valuations=matched,
        both_odd=both_odd,
        estimate=matched / trials,
        p_a=both_odd / trials,
        p_b=matched / trials,
        p_fail=(both_odd + matched) / trials,
    )


def capture_rate_empirical(n: int, x: int, q_A: int, samples: int, seed: int = 0) -> CaptureReport:
    """Peak-cell capture: exact mass on the cells {c_nu, c_nu + 1} and the
    matching sampled fraction (deviation taken against the nearest peak).

    The exact value reads the 2r peak cells alone.  The sampled fraction
    is that of inverse-CDF draws u * total from the seed's uniforms, but
    no draw is placed in a cell: a draw lands on peak cell c exactly when
    cdf(c-1) <= u < cdf(c), so one pass over the register keeps only
    those running sums, and the draws are counted against them block by
    block.
    """
    if samples < 1:
        raise DomainError(f"samples must be positive, got {samples}")
    inst = ProblemInstance.create(n, x, q_A)
    if inst.N < n * n:
        raise DomainError(f"need N >= n^2 for capture analysis, got N={inst.N}, n={n}")
    info = OrderInfo.from_instance(inst)
    guard_register(inst, route="the capture pass")
    c_nu = np.array([p.c_nu for p in peaks(inst, info)], dtype=np.int64)
    pairs = two_term_at(inst, info, c_nu) + two_term_at(inst, info, c_nu + 1)
    exact = float(np.cumsum(pairs)[-1])  # in peak order, one term at a time
    # N >= n^2 > 2r puts the peaks more than two cells apart, so each cell
    # c_nu + d (d in {0, 1}) has peak nu nearest: these are exactly the
    # cells whose draws count, distinct, in order, and below N - 1.
    hit = np.column_stack((c_nu, c_nu + 1)).ravel()
    # a draw u lands on cell c when cdf(c-1) <= u < cdf(c), where cdf(-1) = 0
    ends = np.union1d(hit - 1, hit)[1:]  # without the -1 of c_0 = 0
    sums, total = two_term_prefix_sums(inst, info, ends)
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"distribution is not normalized: total={total!r}")
    lower = np.where(hit > 0, sums[np.searchsorted(ends, hit - 1)], 0.0)
    upper = sums[np.searchsorted(ends, hit)]
    rng = SplitMix64(seed)
    hits = 0
    for start in range(0, samples, _BLOCK):
        u = np.sort(rng.random_block(min(_BLOCK, samples - start)) * total)
        # the draws in [lower, upper) of each hit cell; a count ignores order
        hits += int((np.searchsorted(u, upper) - np.searchsorted(u, lower)).sum())
    return CaptureReport(
        n=n, x=x, q_A=q_A, samples=samples,
        exact_value=exact,
        sampled_fraction=hits / samples,
    )


def _result_key(rec: RecoveryResult) -> tuple[int, int] | None:
    if rec.recovered is None:
        return None
    return (rec.recovered.numerator, rec.recovered.denominator)


def neighbor_state_check(n: int, x: int, q_A: int) -> NeighborReport:
    """Probe each coprime-index peak at offsets d in {-1, 0, 1, 2}.

    The claim under test: probing the neighbors of a peak cell never
    changes what the guaranteed cells d in {0, 1} already recover.  Any
    neighbor that disagrees while sitting within the recovery-guarantee
    distance would be a genuine violation (expected count: zero).
    """
    inst = ProblemInstance.create(n, x, q_A)
    if inst.N < n * n:
        raise DomainError(f"need N >= n^2 for the neighbor probe, got N={inst.N}, n={n}")
    info = OrderInfo.from_instance(inst)
    probes = []
    changed = 0
    changed_guaranteed = 0
    for peak in peaks(inst, info):
        if peak.nu == 0 or math.gcd(peak.nu, info.r) != 1:
            continue
        results = {}
        for d in (-1, 0, 1, 2):
            results[d] = _result_key(recover_order((peak.c_nu + d) % inst.N, inst))
        guaranteed = tuple(
            d for d in (-1, 0, 1, 2)
            if abs(d - peak.delta_nu) / inst.N < info.delta_min
        )
        differ = tuple(d for d in (-1, 2) if results[d] != results[0])
        changed += len(differ)
        changed_guaranteed += sum(1 for d in differ if d in guaranteed)
        probes.append(NeighborProbe(
            nu=peak.nu, c_nu=peak.c_nu, delta_nu=peak.delta_nu,
            results=tuple(sorted(results.items())),
            guaranteed_ds=guaranteed,
            neighbors_differ=differ,
        ))
    return NeighborReport(
        n=n, x=x, q_A=q_A, r=info.r, probes=probes,
        changed_neighbors=changed,
        changed_within_guarantee=changed_guaranteed,
    )


def figure1_instance() -> tuple[ProblemInstance, OrderInfo]:
    """The bundled reference instance (n=21, x=10, 8-qubit register, N=256)
    and its order info."""
    inst = ProblemInstance.create(21, 10, q_A=8)
    return inst, OrderInfo.from_instance(inst)


def figure1_data() -> tuple[ProblemInstance, OutputDistribution, list[PeakModel]]:
    """The bundled reference instance: its exact distribution and peak
    annotations."""
    inst, info = figure1_instance()
    return inst, two_term_distribution(inst, info), peaks(inst, info)
