"""Exact output statistics of the simulated order-finding computer.

For a modulus n, a base x of multiplicative order r, and an exponent
register of q_A qubits (N = 2^q_A states), the probability of reading
state c splits over the r residue classes of the exponent mod r.  The
class containing k holds L_k = floor((N-k-1)/r) + 1 exponents, and its
contribution to P(c) is the squared magnitude of a geometric phasor sum
of length L_k.  Three independent routes compute the same distribution:

* ``oracle_distribution``   - sums unit phasors literally, one per
  exponent, with no closed form anywhere.  This is the reference the
  other two routes are validated against.
* ``per_k_distribution``    - the summed-geometric-series closed form
  sin^2(pi*L_k*r*c/N) / (N^2 sin^2(pi*r*c/N)), evaluated once per class.
* ``two_term_distribution`` - collapses the per-class form onto the two
  distinct class sizes that occur (k0 classes of the larger size, r-k0
  of the smaller), leaving two weighted terms.  Its range evaluator
  ``two_term_at`` computes the same terms at any array of cells, so a
  route that streams the register (``dist``) or reads a few cells and
  running sums (``capture``, through ``two_term_prefix_sums``) holds no
  N-length array.

Angles are reduced modulo 2N in exact integer arithmetic before any
float conversion, and the removable singularities of the closed forms
(r*c = 0 mod N) are detected by exact integer tests, never by
floating-point thresholds.

Construction is pure and single-threaded with a fixed per-entry
summation order, so results are bit-identical from run to run.

``sample_states`` draws states from the same law without building any
vector.  With g = gcd(r, N), r' = r/g and N' = N/g, a class of size L
contributes the Fejer kernel sin^2(pi*L*t/N') / sin^2(pi*t/N') of
t = r'*c mod N', whose total mass over Z_N' is N'*L (Parseval); the k0
larger classes therefore carry exactly k0*(M0+2)/N of the probability.
A draw picks L by that class mass, samples t from the kernel by von
Neumann rejection (``FejerProposal``), and lifts t to one of its g
preimages c = (r'^-1 * t mod N') + j*N'.  Every integer choice is an
unbiased bounded draw (Lemire's multiply-and-reject), so the law is the
two-term distribution itself (up to the double rounding of the acceptance
test), at any register width.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, ResourceError
from .number_theory import carmichael_lambda, multiplicative_order, order_from_multiple
from .rng import SplitMix64

#: Cap on the exponent-register width of the routes that visit every
#: state (two-term, per-k, and everything built on them: dist, fig1,
#: capture).  A whole-vector route holds one float64 per state (128 MiB
#: at 2^24 states); the streamed routes hold a block, but take time in
#: proportion to N.  ``sample_states`` visits no state and has no cap.
MAX_REGISTER_QUBITS = 24

#: Cells per block of a pass over the register: the temporaries of one
#: block of ``two_term_at`` stay small and in cache.
_BLOCK_CELLS = 1 << 15

#: Cap on the modulus of every route that needs the order r.  r is reduced
#: from lambda(n), and lambda(n) needs n trial-divided, about sqrt(n)/2
#: steps: a few milliseconds below 2^31, unbounded above it.
MAX_RUN_MODULUS = 1 << 31

#: Cap on the literal phasor-sum oracle, whose work grows as N^2:
#: q_A = 12 takes under a second, q_A = 14 over ten.
MAX_ORACLE_QUBITS = 13

METHOD_ORACLE = "oracle_sum"
METHOD_PER_K = "per_k_closed_form"
METHOD_TWO_TERM = "two_term_form"


@dataclass(frozen=True)
class ProblemInstance:
    """One simulated machine: modulus n, base x, and register sizes.

    N is always exactly 2^q_A.  Build via :meth:`create`, which applies
    the default register sizes q_A = ceil(2*log2 n) (so N >= n^2) and
    q_B = ceil(log2 n) when they are not given explicitly.
    """

    n: int
    x: int
    q_A: int
    q_B: int
    N: int = field(init=False)

    def __post_init__(self):
        if self.n < 3:
            raise DomainError(f"modulus n must be >= 3, got {self.n}")
        if not 1 < self.x < self.n:
            raise DomainError(f"base must satisfy 1 < x < n, got x={self.x}, n={self.n}")
        if math.gcd(self.x, self.n) != 1:
            raise DomainError(f"gcd({self.x}, {self.n}) != 1; precheck the base first")
        if self.q_A < 1 or self.q_B < 1:
            raise DomainError("register sizes must be positive")
        object.__setattr__(self, "N", 1 << self.q_A)

    @classmethod
    def create(cls, n: int, x: int, q_A: int | None = None, q_B: int | None = None) -> "ProblemInstance":
        if n < 3:
            raise DomainError(f"modulus n must be >= 3, got {n}")
        if q_A is None:
            q_A = cls.default_q_A(n)
        if q_B is None:
            q_B = (n - 1).bit_length()  # smallest q with 2^q >= n
        return cls(n=n, x=x, q_A=q_A, q_B=q_B)

    @staticmethod
    def default_q_A(n: int) -> int:
        """The default measured-register width: the smallest q with 2^q >= n^2."""
        return (n * n - 1).bit_length()


@dataclass(frozen=True)
class OrderInfo:
    """The order r of x mod n and the derived class-size split.

    M0 = floor((N-r)/r) is the smaller of the two per-class exponent
    bounds; k0 is the first residue class whose bound drops to M0, so
    classes k < k0 hold M0+2 exponents and classes k >= k0 hold M0+1.
    That makes k0 = N mod r (and M0 = -1, k0 = N when N < r).
    delta_min = 1/((n-1)*n) is the worst-case gap between the true
    ratio and the nearest wrong candidate fraction during recovery.

    r is reduced from a multiple of the order, Carmichael's lambda(n)
    unless the caller already knows one; ``multiplicative_order`` is the
    brute-force oracle it is tested against.
    """

    r: int
    M0: int
    k0: int
    delta_min: float

    @classmethod
    def from_instance(cls, inst: ProblemInstance) -> "OrderInfo":
        if inst.n >= MAX_RUN_MODULUS:
            raise ResourceError(f"n={inst.n} exceeds the cap of 2^31 on the modulus")
        return cls.from_multiple(inst, carmichael_lambda(inst.n))

    @classmethod
    def from_multiple(cls, inst: ProblemInstance, multiple: int,
                      primes: list[int] | None = None) -> "OrderInfo":
        """The order info of inst, given a multiple of the order of x mod n
        (and, optionally, its primes; see ``order_from_multiple``)."""
        r = order_from_multiple(inst.x, inst.n, multiple, primes)
        N = inst.N
        delta_min = 1.0 / ((inst.n - 1) * inst.n)
        return cls(r=r, M0=(N - r) // r, k0=N % r, delta_min=delta_min)


@dataclass(eq=False)
class OutputDistribution:
    """Length-N vector of state probabilities plus the method that built it."""

    probabilities: np.ndarray
    method: str

    def __len__(self) -> int:
        return len(self.probabilities)

    @property
    def total(self) -> float:
        return float(self.probabilities.sum())


@dataclass(frozen=True)
class PeakModel:
    """One peak of the distribution: real center nu*N/r split into integer
    cell c_nu and fractional displacement delta_nu in [0, 1)."""

    nu: int
    sigma_nu: float
    c_nu: int
    delta_nu: float


def guard_register(inst: ProblemInstance, cap: int = MAX_REGISTER_QUBITS,
                   route: str = "full-distribution construction"):
    """Raise ResourceError when inst's register is wider than cap qubits."""
    if inst.q_A > cap:
        raise ResourceError(f"q_A={inst.q_A} exceeds the desk-scale cap of {cap} for {route}")


def _class_size(N: int, r: int, k: int) -> int:
    """Number of exponents a in [0, N) with a = k (mod r)."""
    return (N - k - 1) // r + 1


def oracle_distribution(inst: ProblemInstance) -> OutputDistribution:
    """P(c) by literal phasor summation over every exponent.

    For each residue class k the amplitude at c is the plain sum of
    exp(2*pi*i*a*c/N) over all a = e*r + k, divided by N; the class
    contributes its squared magnitude.  O(N^2) work, no closed form,
    no shared trigonometric shortcuts: this is the reference oracle.
    Capped at q_A <= MAX_ORACLE_QUBITS because of that cost.
    """
    guard_register(inst, MAX_ORACLE_QUBITS, "the O(N^2) phasor-sum oracle")
    r = multiplicative_order(inst.x, inst.n)
    N = inst.N
    c = np.arange(N, dtype=np.int64)
    total = np.zeros(N, dtype=np.float64)
    for k in range(r):
        amp = np.zeros(N, dtype=np.complex128)
        for e in range(_class_size(N, r, k)):
            a = e * r + k
            # a*c < N^2 <= 2^48 fits int64; reduce before the angle for accuracy
            angle = (2.0 * np.pi / N) * ((a * c) % N)
            amp += np.exp(1j * angle)
        total += np.abs(amp / N) ** 2
    return OutputDistribution(total, METHOD_ORACLE)


def _sin_sq_ratio(N: int, r: int, size: int, c: np.ndarray,
                  singular: np.ndarray, den_safe: np.ndarray) -> np.ndarray:
    """sin^2(pi*size*r*c/N) / sin^2(pi*r*c/N) with the exact limit size^2
    substituted wherever r*c = 0 (mod N)."""
    twoN = 2 * N
    t = (size * r % twoN) * c & (twoN - 1)  # mod 2N, a power of two
    num = np.sin((np.pi / N) * t) ** 2
    return np.where(singular, float(size * size), num / den_safe)


def _denominator_parts(N: int, r: int, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    twoN = 2 * N
    s = (r % twoN) * c & (twoN - 1)
    singular = (s & (N - 1)) == 0
    den = np.sin((np.pi / N) * s) ** 2
    return singular, np.where(singular, 1.0, den)


def per_k_distribution(inst: ProblemInstance, info: OrderInfo) -> OutputDistribution:
    """P(c) from the geometric-series closed form, one term per residue class."""
    guard_register(inst)
    N, r = inst.N, info.r
    c = np.arange(N, dtype=np.int64)
    singular, den_safe = _denominator_parts(N, r, c)
    total = np.zeros(N, dtype=np.float64)
    for k in range(r):
        total += _sin_sq_ratio(N, r, _class_size(N, r, k), c, singular, den_safe)
    return OutputDistribution(total / float(N) ** 2, METHOD_PER_K)


def two_term_at(inst: ProblemInstance, info: OrderInfo, c) -> np.ndarray:
    """P(c) at the cells of an integer index array, by the two-term form.

    k0 classes hold M0+2 exponents and r-k0 hold M0+1, so the per-class
    sum reduces to two weighted closed-form terms.  Each entry depends on
    its own cell alone, so a block, a gathered set of cells and the whole
    register give the same bits.  The exact int64 angle reduction needs
    q_A <= 31.
    """
    guard_register(inst, 31, "int64 angle reduction")
    N, r = inst.N, info.r
    c = np.asarray(c, dtype=np.int64)
    singular, den_safe = _denominator_parts(N, r, c)
    large = _sin_sq_ratio(N, r, info.M0 + 2, c, singular, den_safe)
    small = _sin_sq_ratio(N, r, info.M0 + 1, c, singular, den_safe)
    total = info.k0 * large + (r - info.k0) * small
    # N^2 is a power of two and no term is subnormal, so the product is
    # the exact quotient total / N^2
    return total * (1.0 / float(N) ** 2)


def _cell_blocks(N: int):
    """The register's cells as consecutive int64 index blocks."""
    for start in range(0, N, _BLOCK_CELLS):
        yield np.arange(start, min(start + _BLOCK_CELLS, N), dtype=np.int64)


def two_term_distribution(inst: ProblemInstance, info: OrderInfo) -> OutputDistribution:
    """P(c) over the whole register by the two-term form, filled block by
    block from ``two_term_at``.  Must agree with per_k_distribution to
    within accumulation noise (< 1e-12 per entry).
    """
    guard_register(inst)
    out = np.empty(inst.N)
    for cells in _cell_blocks(inst.N):
        out[cells[0]:cells[-1] + 1] = two_term_at(inst, info, cells)
    return OutputDistribution(out, METHOD_TWO_TERM)


def two_term_prefix_sums(inst: ProblemInstance, info: OrderInfo, cells) -> tuple[np.ndarray, float]:
    """The running sums P(0) + ... + P(c) at the sorted cells c, and the
    total, from one pass over the register that holds no N-length array.

    The carry of the blocks before enters each block's first entry ahead
    of its ``np.cumsum``, which adds in sequence, so every sum has the
    bits of ``np.cumsum`` over the whole vector.
    """
    guard_register(inst)
    cells = np.asarray(cells, dtype=np.int64)
    sums = np.empty(len(cells))
    carry = 0.0
    for block in _cell_blocks(inst.N):
        p = two_term_at(inst, info, block)
        if np.any(p < 0.0):
            raise DomainError("distribution has negative entries")
        p[0] += carry
        cdf = np.cumsum(p)
        lo, hi = np.searchsorted(cells, (block[0], block[-1] + 1))
        sums[lo:hi] = cdf[cells[lo:hi] - block[0]]
        carry = cdf[-1]
    return sums, float(carry)


def envelope(inst: ProblemInstance, info: OrderInfo, sigma) -> float:
    """The two-term form evaluated at a real (or exact rational) position.

    Periodic with period N/r; at integer sigma it equals the two-term
    probability of that state, and at the peak centers nu*N/r it takes
    the singular-limit maximum (k0*(M0+2)^2 + (r-k0)*(M0+1)^2) / N^2.
    Pass a Fraction to hit singular points exactly; floats are converted
    to exact rationals, so angle reduction never loses precision.
    """
    N, r, k0 = inst.N, info.r, info.k0
    sig = Fraction(sigma)
    if not 0 <= sig < N:
        raise DomainError(f"sigma must lie in [0, N), got {sigma}")
    large, small = info.M0 + 2, info.M0 + 1
    base = sig * r / N
    if base.denominator == 1:  # exact singular point: substitute the limit
        return (k0 * large * large + (r - k0) * small * small) / float(N) ** 2
    den = math.sin(math.pi * float(base % 2)) ** 2
    num_large = math.sin(math.pi * float((base * large) % 2)) ** 2
    num_small = math.sin(math.pi * float((base * small) % 2)) ** 2
    return (k0 * num_large + (r - k0) * num_small) / (den * float(N) ** 2)


def peaks(inst: ProblemInstance, info: OrderInfo) -> list[PeakModel]:
    """The r peak models, with centers computed in exact rational arithmetic."""
    N, r = inst.N, info.r
    out = []
    for nu in range(r):
        scaled = nu * N
        c_nu = scaled // r
        delta_nu = (scaled % r) / r
        out.append(PeakModel(nu=nu, sigma_nu=c_nu + delta_nu, c_nu=c_nu, delta_nu=delta_nu))
    return out


def peak_deviation_prob(d: int, delta_nu: float) -> float:
    """Within-peak weight of integer deviation d for displacement delta_nu.

    sin^2(pi*delta) / (pi * (d - delta))^2, with the delta -> 0 limit
    (all weight on d = 0) substituted exactly at delta_nu == 0.
    """
    if not 0.0 <= delta_nu < 1.0:
        raise DomainError(f"delta_nu must lie in [0, 1), got {delta_nu}")
    if delta_nu == 0.0:
        return 1.0 if d == 0 else 0.0
    s = math.sin(math.pi * delta_nu)
    return (s * s) / (math.pi * math.pi * (d - delta_nu) ** 2)


def capture_probability_d01() -> float:
    """Probability that a peak sample lands on its floor or ceiling cell,
    averaged over a uniformly distributed displacement.

    The integral of peak_deviation_prob(0, delta) + peak_deviation_prob(1, delta)
    over delta in [0, 1) is (2/pi) * Si(2*pi), one integration by parts
    away; Si is summed from its Taylor series (Abramowitz & Stegun 5.2.14),
    whose largest term at 2*pi is about 11, so the sum keeps ~15 digits.
    """
    x = 2.0 * math.pi
    si, term, k = 0.0, x, 0  # term = (-1)^k x^(2k+1) / (2k+1)!
    while abs(term) > 1e-18:
        si += term / (2 * k + 1)
        term *= -x * x / ((2 * k + 2) * (2 * k + 3))
        k += 1
    return 2.0 * si / math.pi


def sample(dist: OutputDistribution, seed: int, count: int) -> list[int]:
    """Draw `count` i.i.d. states from P(c) by inverse CDF, deterministically.

    Uses a fresh SplitMix64 stream for the given seed; see sample_from
    for drawing out of an existing stream.  No route of the package
    samples this way any more: ``run`` uses ``sample_states``, and
    ``capture`` counts its draws against running sums.
    """
    return sample_from(dist, SplitMix64(seed), count)


def sample_from(dist: OutputDistribution, rng: SplitMix64, count: int) -> list[int]:
    """Inverse-CDF sampling out of a caller-owned SplitMix64 stream, from
    a built vector; ``sample_states`` draws from the same law without one.
    """
    p = dist.probabilities
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


def _bounded(rng: SplitMix64, s: int) -> int:
    """Unbiased integer in [0, s) by Lemire's multiply-and-reject.

    Lemire, "Fast random integer generation in an interval", ACM TOMACS
    29(1), 2019, widened from one 64-bit word to as many words as s needs.
    The bound s = 1 consumes no word.
    """
    if s == 1:
        return 0
    bits = 64 * ((s.bit_length() + 63) // 64)
    mask = (1 << bits) - 1
    threshold = None
    while True:
        x = 0
        for _ in range(bits // 64):
            x = (x << 64) | rng.next_uint64()
        m = x * s
        low = m & mask
        if low >= s:
            return m >> bits
        if threshold is None:
            threshold = (mask + 1) % s
        if low >= threshold:
            return m >> bits


def fejer_kernel(L: int, Np: int, t: int) -> float:
    """sin^2(pi*L*t/Np) / sin^2(pi*t/Np) on Z_Np, with the limit L^2 at t = 0.

    Both angles are reduced exactly in integers to [0, Np/2] before any
    float conversion, so the zeros (L*t = 0 mod Np) come out exactly 0.
    """
    t %= Np
    if t == 0:
        return float(L * L)
    a = min(t, Np - t)
    b = L * t % Np
    b = min(b, Np - b)
    return (math.sin(math.pi * b / Np) / math.sin(math.pi * a / Np)) ** 2


class FejerProposal:
    """Exact von Neumann sampler for the Fejer kernel of size L on Z_Np.

    The envelope is min(L^2, Np^2/(4 t^2)) on the centred residues
    |t| <= Np/2 (sin(pi*t/Np) >= 2|t|/Np there): flat on |t| <= h with
    h = floor(Np/(2L)), and beyond it the Pareto tail 1/v^2 rounded to
    the integer cells (m - 1/2, m + 1/2], whose exact mass
    Np^2/(4m^2 - 1) exceeds Np^2/(4m^2) because 1/v^2 is convex.  The tail
    is drawn by inverting a uniform real whose bits are generated until
    they fix the cell, so the proposal law is exactly ``pmf``.  A
    proposal t is kept with probability ``acceptance(t)``, and
    pmf * acceptance is proportional to the kernel.  The one rounding in
    a draw is that of the acceptance ratio and its 53-bit uniform.
    """

    def __init__(self, L: int, Np: int):
        if L < 1 or Np < 1:
            raise DomainError(f"need L >= 1 and Np >= 1, got L={L}, Np={Np}")
        self.L, self.Np = L, Np
        self.h = min(Np // (2 * L), (Np - 1) // 2)
        self.T = Np // 2
        self._alpha, self._beta = 2 * self.h + 1, 2 * self.T + 1
        # centre and tail masses, (2h+1)L^2 and Np^2 (1/(2h+1) - 1/(2T+1)),
        # both scaled by (2h+1)(2T+1) to integers
        self._centre = self._alpha ** 2 * self._beta * L * L
        self._tail = Np * Np * (self._beta - self._alpha)

    def _envelope(self, t: int) -> tuple[int, int]:
        """Unnormalised envelope mass of residue t as (numerator, denominator);
        the two signed tail cells coincide at t = Np/2."""
        m = min(t % self.Np, -t % self.Np)
        if m <= self.h:
            return self.L * self.L, 1
        return self.Np * self.Np * (2 if 2 * m == self.Np else 1), 4 * m * m - 1

    def pmf(self, t: int) -> Fraction:
        """Exact probability that one proposal lands on residue t."""
        num, den = self._envelope(t)
        return Fraction(num * self._alpha * self._beta, den * (self._centre + self._tail))

    def acceptance(self, t: int) -> float:
        """Probability of keeping a proposed residue t."""
        num, den = self._envelope(t)
        return fejer_kernel(self.L, self.Np, t) * den / num

    def _tail_magnitude(self, rng: SplitMix64) -> int:
        """m in [h+1, T] with probability proportional to 1/(m-1/2) - 1/(m+1/2).

        With u uniform in [0, 1), v = ab / (2(a + u(b-a))) has density
        proportional to 1/v^2 on (a/2, b/2], and m = ceil(v - 1/2).  u is
        known to lie in [A/D, (A+1)/D); another word refines it until both
        ends give the same m.
        """
        a, b = self._alpha, self._beta
        A, D = rng.next_uint64(), 1 << 64
        while True:
            lo = a * D + A * (b - a)  # 2v - 1 = (ab D - lo) / lo at u = A/D
            hi = lo + (b - a)  # ... and at u = (A+1)/D
            m_max = -((lo - a * b * D) // (2 * lo))
            m_min = (a * b * D - hi) // (2 * hi) + 1
            if m_max == m_min:
                return m_max
            A, D = (A << 64) | rng.next_uint64(), D << 64

    def propose(self, rng: SplitMix64) -> int:
        """One residue t in [0, Np) drawn from ``pmf``."""
        z = _bounded(rng, self._centre + self._tail) if self._tail else 0
        if z >= self._tail:
            return (_bounded(rng, self._alpha) - self.h) % self.Np
        m = self._tail_magnitude(rng)
        return m if 2 * z < self._tail else self.Np - m  # the tail mass is even

    def draw(self, rng: SplitMix64) -> int:
        """One residue t in [0, Np) drawn from the normalised kernel."""
        while True:
            t = self.propose(rng)
            if rng.random() < self.acceptance(t):
                return t


def sample_states(inst: ProblemInstance, info: OrderInfo, rng: SplitMix64, count: int) -> list[int]:
    """Draw `count` i.i.d. states from the two-term law without building it.

    Each draw picks the class size L = M0+2 with probability k0*(M0+2)/N
    (else M0+1), draws t from the size-L Fejer kernel on Z_N', and returns
    c = (r'^-1 * t mod N') + j*N' for a uniform j in [0, g).  A draw
    takes about ten 64-bit words at any N; the stream is deterministic
    given `rng`.
    """
    if count < 0:
        raise DomainError(f"count must be non-negative, got {count}")
    N, r = inst.N, info.r
    g = math.gcd(r, N)
    Np = N // g
    r_inv = pow(r // g, -1, Np)
    large = info.k0 * (info.M0 + 2)
    # M0 + 1 is 0 when N < r, and then never drawn (large = N)
    proposals = {L: FejerProposal(L, Np) for L in (info.M0 + 1, info.M0 + 2) if L >= 1}
    out = []
    for _ in range(count):
        L = info.M0 + 2 if _bounded(rng, N) < large else info.M0 + 1
        t = proposals[L].draw(rng)
        out.append(r_inv * t % Np + Np * _bounded(rng, g))
    return out
