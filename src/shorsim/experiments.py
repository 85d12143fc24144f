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
from dataclasses import dataclass

import numpy as np

from .distribution import (
    OrderInfo,
    OutputDistribution,
    PeakModel,
    ProblemInstance,
    peaks,
    sample,
    two_term_distribution,
)
from .errors import DomainError, ResourceError
from .number_theory import semiprime_factors
from .pipeline import RecoveryResult, recover_order
from .rng import SplitMix64

#: Cap on the census route.  The closed form costs microseconds per
#: semiprime, but every row is held in memory: nmax = 10**6 gives 168 330
#: rows in under 2 s and about 120 MB; the cap allows ten times that.
MAX_CENSUS_NMAX = 10**7

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


def _sieve_primes(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return [int(i) for i in np.nonzero(flags)[0]]


def semiprimes_below(limit: int) -> list[tuple[int, int, int]]:
    """All (n, p, q) with n = p*q < limit, p < q odd primes, sorted by n."""
    primes = [p for p in _sieve_primes(limit // 3 + 1) if p % 2 == 1]
    out = []
    for i, p in enumerate(primes):
        if p * p >= limit:
            break
        for q in primes[i + 1 :]:
            n = p * q
            if n >= limit:
                break
            out.append((n, p, q))
    out.sort()
    return out


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


def census_sweep(nmax: int = 10_000) -> list[FailureCensus]:
    """failure_census over every odd distinct-prime semiprime below nmax.

    Capped at nmax <= MAX_CENSUS_NMAX: the rows are held in memory.
    """
    if nmax > MAX_CENSUS_NMAX:
        raise ResourceError(f"nmax={nmax} exceeds the census cap of {MAX_CENSUS_NMAX}")
    return [_census_row(n, p, q) for n, p, q in semiprimes_below(nmax)]


def census_aggregate(rows: list[FailureCensus]) -> CensusAggregate:
    total_x = sum(r.num_x for r in rows)
    total_odd = sum(r.odd_r for r in rows)
    total_trivial = sum(r.trivial_sqrt for r in rows)
    fractions = [r.fraction_bad for r in rows]
    return CensusAggregate(
        count=len(rows),
        total_x=total_x,
        total_odd=total_odd,
        total_trivial=total_trivial,
        aggregate_bad_fraction=(total_odd + total_trivial) / total_x,
        mean_bad_fraction=sum(fractions) / len(fractions),
        max_bad_fraction=max(fractions),
        bound_ok=all(f <= 0.5 for f in fractions),
    )


def _two_adic_draws(rng: SplitMix64, count: int) -> np.ndarray:
    """count draws of a 2-adic valuation with P(0)=1/2, P(j)=2**-(j+1).

    The number of trailing zero bits of a uniform 64-bit word has exactly
    this distribution (the all-zero word, probability 2**-64, counts as 64).
    """
    words = rng.uint64_block(count)
    lowbit = words & (~words + np.uint64(1))
    with np.errstate(divide="ignore"):
        tz = np.where(words == 0, 64.0, np.log2(lowbit.astype(np.float64)))
    return tz.astype(np.int64)


def valuation_model_mc(trials: int, seed: int = 0) -> ValuationModelResult:
    """Monte Carlo for the idealized independent-valuations failure model."""
    if trials < 1:
        raise DomainError("trials must be positive")
    rng = SplitMix64(seed)
    k1 = _two_adic_draws(rng, trials)
    k2 = _two_adic_draws(rng, trials)
    both_odd = int(((k1 == 0) & (k2 == 0)).sum())
    matched = int(((k1 == k2) & (k1 >= 1)).sum())
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
    matching sampled fraction (deviation taken against the nearest peak)."""
    if samples < 1:
        raise DomainError(f"samples must be positive, got {samples}")
    inst = ProblemInstance.create(n, x, q_A)
    if inst.N < n * n:
        raise DomainError(f"need N >= n^2 for capture analysis, got N={inst.N}, n={n}")
    info = OrderInfo.from_instance(inst)
    dist = two_term_distribution(inst, info)
    pk = peaks(inst, info)
    exact = float(sum(dist.probabilities[p.c_nu] + dist.probabilities[p.c_nu + 1] for p in pk))
    cs = np.asarray(sample(dist, seed, samples), dtype=np.int64)
    # nearest peak index over the periodic axis, then d = c - floor(nu*N/r)
    nu_near = np.rint(cs * info.r / inst.N).astype(np.int64)
    d = cs - (nu_near * inst.N) // info.r
    hits = int(((d == 0) | (d == 1)).sum())
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


def figure1_data() -> tuple[ProblemInstance, OutputDistribution, list[PeakModel]]:
    """The bundled reference instance (n=21, x=10, 8-qubit register, N=256):
    its exact distribution and peak annotations."""
    inst = ProblemInstance.create(21, 10, q_A=8)
    info = OrderInfo.from_instance(inst)
    return inst, two_term_distribution(inst, info), peaks(inst, info)
