"""End-to-end simulated factorization runs.

A run validates the modulus, shortcut-checks the base, draws one measured
state from the exact output law (``sample_states``, which builds no
vector), recovers an order candidate by continued fractions, verifies it,
and extracts factors.  The retry layer re-tries recoverable failures (an
unverified candidate, or the dead zero-state) with multiplier trials and
fresh samples, but never swaps in a new base: rebuilding the machine for
a different x is the caller's decision.  Both go through one run body:
``run_once`` is the first attempt of ``run_with_retries``, returned as it
is.  Validation factors n, and the order r is reduced once from
lambda(n) = lcm(p-1, q-1) over the primes of p-1 and q-1, before the
first draw, so a run trial-divides n once and lambda never.  Every later
order decision reads r: a verified candidate is a multiple of r, and an
unverified one is repaired by the multiplier r/gcd(r, candidate).
"""

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .distribution import OrderInfo, ProblemInstance, sample_states
from .errors import ContractError, DomainError, guard, integer
from .number_theory import MAX_RUN_MODULUS, _bounded_convergent, _carmichael_lambda, semiprime_factors
from .rng import SplitMix64

#: Cap on the register of the run route, which costs microseconds a draw at
#: any width: the default width of a modulus below MAX_RUN_MODULUS, the cap
#: of its trial division (N >= n^2 at q_A <= 62).
MAX_RUN_QUBITS = 62


class Classification(str, Enum):
    SUCCESS = "Success"
    ODD_ORDER = "OddOrder"
    TRIVIAL_SQUARE_ROOT = "TrivialSquareRoot"
    ZERO_PEAK = "ZeroPeak"
    UNVERIFIED_ORDER = "UnverifiedOrder"
    COMMON_FACTOR_SHORTCUT = "CommonFactorShortcut"
    EXHAUSTED = "Exhausted"


class RecoveryResult(NamedTuple):
    """Order recovery from one measured state c.

    recovered is the candidate order/peak-index ratio in lowest terms, or
    None when c = 0 or no convergent numerator stays below n; verified
    means x**r_candidate = 1 (mod n) was checked and holds.
    """

    c: int
    recovered: Fraction | None
    r_candidate: int | None
    verified: bool


class _RetryPolicyFields(NamedTuple):
    max_mu: int = 64
    max_resamples: int = 4


class RetryPolicy(_RetryPolicyFields):
    """Budget for the retry layer: multiplier trials per unverified
    candidate, and fresh samples after that.  The constructor, ``_make``,
    ``_replace``, copies and pickles (protocol 2 and up) check the budget."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        policy = super().__new__(cls, *args, **kwargs)
        integer("max_mu", policy.max_mu, 1)
        integer("max_resamples", policy.max_resamples, 0)
        return policy

    @classmethod
    def _make(cls, fields) -> "RetryPolicy":
        return cls(*fields)


_DEFAULT_POLICY = RetryPolicy()


class RetryEvent(NamedTuple):
    """One logged retry action: a multiplier scan outcome, an opportunistic
    factor found by treating an unverified candidate as the order, or a
    resample."""

    kind: str  # "multiplier_found" | "multiplier_exhausted" | "opportunistic_factor" | "resample"
    c: int | None = None
    r_candidate: int | None = None
    multiplier: int | None = None
    factor: int | None = None


class GuaranteeReport(NamedTuple):
    """Whether the register is wide enough that peak cells d in {0, 1}
    always recover the exact order.

    delta_min is the gap to the nearest wrong candidate ratio; the
    worst peak-cell distance from the true ratio is max(delta, 1-delta)/N
    over the peaks; margin_min = 1/(r*(r+1)) is the tightest gap over
    peak indices, met at nu = r-1.
    """

    n: int
    x: int
    q_A: int
    N: int
    r: int
    delta_min: float
    max_delta_c_d0: float
    max_delta_c_d1: float
    margin_min: float
    size_ok: bool  # N >= n^2
    holds: bool


class _RunOutcomeFields(NamedTuple):
    n: int
    x: int
    instance: ProblemInstance | None
    c: int | None
    recovery: RecoveryResult | None
    classification: Classification
    factors: tuple[int, int] | None
    r_true: int | None
    retries: list[RetryEvent]


class RunOutcome(_RunOutcomeFields):
    """One end-to-end attempt (plus its retry log, when retries ran).
    Left out, retries is a new empty list for each outcome."""

    __slots__ = ()

    def __new__(cls, n: int, x: int, instance: ProblemInstance | None, c: int | None,
                recovery: RecoveryResult | None, classification: Classification,
                factors: tuple[int, int] | None, r_true: int | None,
                retries: list[RetryEvent] | None = None):
        return tuple.__new__(cls, (n, x, instance, c, recovery, classification, factors, r_true,
                                   [] if retries is None else retries))


def precheck(n: int, x: int) -> int | None:
    """gcd screen before any machine is built: a shared factor of x and n
    is itself the answer.  Returns the factor, or None to proceed."""
    integer("n", n, 3)
    integer("x", x, 2, n)
    g = math.gcd(x, n)
    return g if g > 1 else None


def recover_order(c: int, inst: ProblemInstance) -> RecoveryResult:
    """Estimate the order from measured state c by continued fractions.

    Expands N/c and keeps the last convergent with numerator below n;
    its numerator is the order candidate and its denominator the peak
    index.  c = 0 carries no information and recovers nothing.
    """
    integer("c", c, 0, inst.N)
    est = _bounded_convergent(inst.N, c, inst.n)
    if est is None:
        return RecoveryResult(c=c, recovered=None, r_candidate=None, verified=False)
    r_candidate = est[0]
    verified = pow(inst.x, r_candidate, inst.n) == 1
    return RecoveryResult(c=c, recovered=Fraction(*est), r_candidate=r_candidate, verified=verified)


def extract_factors(n: int, x: int, r: int) -> tuple[Classification, tuple[int, int] | None]:
    """Split n using a verified multiplicative order r of x.

    With r even and y = x**(r/2) not equal to n-1, the pair
    gcd(y-1, n), gcd(y+1, n) contains a nontrivial factor because
    (y-1)(y+1) = 0 (mod n) with neither parenthesis 0 mod n.  Callers
    must pass the exact order; a proper multiple makes y = 1 and is
    reported as a contract violation.
    """
    integer("n", n, 3)
    integer("x", x, 2, n)
    integer("r", r, 1)
    if pow(x, r, n) != 1:
        raise ContractError(f"x**r != 1 (mod n) for x={x}, r={r}, n={n}")
    if r % 2 == 1:
        return Classification.ODD_ORDER, None
    y = pow(x, r // 2, n)
    if y == n - 1:
        return Classification.TRIVIAL_SQUARE_ROOT, None
    if y == 1:
        raise ContractError(f"r={r} is not the exact order of x={x} mod n={n}")
    g = _split(n, y)
    if g is None:
        raise ContractError(f"no nontrivial factor from x**(r/2) +- 1 (n={n} not a semiprime?)")
    p, q = sorted((g, n // g))
    return Classification.SUCCESS, (p, q)


def _split(n: int, y: int) -> int | None:
    """The first nontrivial factor of n in gcd(y-1, n), gcd(y+1, n), or None."""
    for g in (math.gcd(y - 1, n), math.gcd(y + 1, n)):
        if 1 < g < n:
            return g
    return None


def _opportunistic_factor(n: int, x: int, r_candidate: int) -> int | None:
    """Sometimes an even under-estimate of the order still splits n:
    try the usual gcd pair as if the candidate were the order."""
    if r_candidate % 2 == 1:
        return None
    return _split(n, pow(x, r_candidate // 2, n))


def _resolve(n: int, x: int, rec: RecoveryResult,
             r: int) -> tuple[Classification, tuple[int, int] | None]:
    """Classify a recovery and, when it verified, extract factors.

    A verified candidate may still be a proper multiple of the order r
    (N/c can land on one by accident, off-peak), so factors are extracted
    with r itself.
    """
    if rec.c == 0:
        return Classification.ZERO_PEAK, None
    if not rec.verified:
        return Classification.UNVERIFIED_ORDER, None
    return extract_factors(n, x, r)


def _run(n: int, x: int, q_A: int | None, seed: int, policy: RetryPolicy | None) -> RunOutcome:
    """The run route: one attempt, then retries under policy (none when None)."""
    rng = SplitMix64(seed)
    if q_A is not None:
        integer("q_A", q_A, 1)
        guard("q_A", q_A, MAX_RUN_QUBITS, "the run route")
    pq = semiprime_factors(n)
    if pq is None:
        raise DomainError(f"n={n} is not an odd semiprime with distinct prime factors")
    g = precheck(n, x)
    if g is not None:
        return RunOutcome(
            n=n, x=x, instance=None, c=None, recovery=None,
            classification=Classification.COMMON_FACTOR_SHORTCUT,
            factors=(g, n // g), r_true=None,
        )
    inst = ProblemInstance.create(n, x, q_A)
    info = OrderInfo.from_multiple(inst, *_carmichael_lambda(n, pq))
    events: list[RetryEvent] = []

    rec = recover_order(sample_states(inst, info, rng, 1)[0], inst)
    resamples = 0
    while True:
        classification, factors = _resolve(n, x, rec, info.r)
        if policy is None or classification not in (
            Classification.ZERO_PEAK, Classification.UNVERIFIED_ORDER,
        ):
            break
        if classification is Classification.UNVERIFIED_ORDER and rec.r_candidate is not None:
            # x**(mu*candidate) = 1 exactly when r divides mu*candidate, so
            # the first mu >= 2 that passes is r/gcd(r, candidate)
            mu = info.r // math.gcd(info.r, rec.r_candidate)
            if mu <= policy.max_mu:
                events.append(RetryEvent(kind="multiplier_found", c=rec.c,
                                         r_candidate=rec.r_candidate, multiplier=mu))
                classification, factors = extract_factors(n, x, info.r)
                break
            events.append(RetryEvent(kind="multiplier_exhausted", c=rec.c,
                                     r_candidate=rec.r_candidate))
            lucky = _opportunistic_factor(n, x, rec.r_candidate)
            if lucky is not None:
                # diagnostic only: logged, never steers the run
                events.append(RetryEvent(kind="opportunistic_factor", c=rec.c,
                                         r_candidate=rec.r_candidate, factor=lucky))
        if resamples >= policy.max_resamples:
            classification, factors = Classification.EXHAUSTED, None
            break
        c = sample_states(inst, info, rng, 1)[0]
        resamples += 1
        events.append(RetryEvent(kind="resample", c=c))
        rec = recover_order(c, inst)

    return RunOutcome(
        n=n, x=x, instance=inst, c=rec.c, recovery=rec,
        classification=classification, factors=factors, r_true=info.r, retries=events,
    )


def run_once(n: int, x: int, q_A: int | None = None, seed: int = 0) -> RunOutcome:
    """The first attempt of run_with_retries, with no retries: precheck,
    sample one state, recover, extract."""
    return _run(n, x, q_A, seed, None)


def run_with_retries(
    n: int,
    x: int,
    policy: RetryPolicy | None = None,
    seed: int = 0,
    q_A: int | None = None,
) -> RunOutcome:
    """run_once plus recovery from retriable failures.

    An unverified candidate lost the factor mu = r/gcd(r, candidate) of
    the order r (the peak index shared it with r); when mu <= max_mu it
    is the multiplier the scan mu = 2..max_mu of x**(mu*candidate) = 1
    would find first, and the run goes on with r.  Only then is a fresh
    state sampled, up to max_resamples times.  A candidate beyond the
    multiplier budget additionally logs any factor it happens to reveal
    through the usual gcd pair, as a diagnostic that never steers the
    run.  The dead zero state is also retried by resampling.  Odd
    orders and trivial square roots are base-level failures and are
    returned as terminal outcomes; the retry layer never substitutes a
    new x.  Exhausted budgets yield an Exhausted outcome carrying the
    last attempt.
    """
    return _run(n, x, q_A, seed, policy or _DEFAULT_POLICY)


def order_recovery_guarantee(inst: ProblemInstance) -> GuaranteeReport:
    """Report whether peak cells d in {0, 1} are guaranteed to recover r.

    The distance from a peak cell to the true ratio is |d - delta|/N,
    at most 1/N; the gap to the nearest wrong candidate exceeds
    1/((n-1)*n).  With N >= n^2 the distance is always inside the gap,
    so recovery from d in {0, 1} is exact.

    The displacements delta = (nu*N mod r)/r of the r peaks run over the
    multiples of g = gcd(N, r) in [0, r), each g/r apart, so the largest
    is (r - g)/r and the smallest 0: both worst distances are read off
    without listing a peak.
    """
    info = OrderInfo.from_instance(inst)
    r = info.r
    max_d0 = (r - math.gcd(inst.N, r)) / r / inst.N
    max_d1 = 1.0 / inst.N
    size_ok = inst.N >= inst.n * inst.n
    holds = size_ok and max(max_d0, max_d1) < info.delta_min
    return GuaranteeReport(
        n=inst.n, x=inst.x, q_A=inst.q_A, N=inst.N, r=r,
        delta_min=info.delta_min,
        max_delta_c_d0=max_d0, max_delta_c_d1=max_d1,
        margin_min=1.0 / (r * (r + 1)),
        size_ok=size_ok, holds=holds,
    )
