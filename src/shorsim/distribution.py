"""Exact output statistics of the simulated order-finding computer.

For a modulus n, a base x of multiplicative order r, and an exponent
register of q_A qubits (N = 2^q_A states), the probability of reading
state c splits over the r residue classes of the exponent mod r.  The
class containing k holds L_k = floor((N-k-1)/r) + 1 exponents, and its
contribution to P(c) is the squared magnitude of a geometric phasor sum
of length L_k.  Only two class sizes occur (k0 classes of the larger
size, r-k0 of the smaller), so ``two_term_at`` evaluates P at any array
of cells as two weighted closed-form terms
sin^2(pi*L*r*c/N) / (N^2 sin^2(pi*r*c/N)).  Every route evaluates with
it.  The literal phasor sum and the per-class closed form it collapses
serve only the tests, as its oracles (``tests/oracles.py``).

Each entry depends on its own cell alone, so a block, a gathered set of
cells and the whole register give the same bits.  A route that streams
the register block by block (``dist``) or reads a few cells and running
sums (``capture``, through ``two_term_prefix_sums``) holds no N-length
array.

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

The peaks' fields come from ``peak_columns``, a block of exact integers
at a time, which the tables stream.  A list of peak records and
inverse-CDF draws from a whole vector serve only the tests, as oracles
(``tests/oracles.py``).

The array routes load numpy when they run; ``sample_states`` and the
scalar helpers are pure Python, so a caller that only samples states and
recovers orders never imports it.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from .errors import DomainError, guard
from .number_theory import carmichael_lambda, order_from_multiple
from .rng import SplitMix64

#: Cap on the exponent-register width of the routes that visit every
#: state (dist, fig1, capture).  They hold a block of cells at a time,
#: so the cap bounds their time, which grows in proportion to N.
#: ``sample_states`` visits no state and has no cap.
MAX_REGISTER_QUBITS = 24

#: Cap on every register: N = 2^q_A must convert to a float (q_A <= 1023),
#: as the guarantee, the peak centres and the neighbor probe need.
MAX_QUBITS = 1023

#: Items per block of every streamed pass: cells of the register, semiprimes
#: of the census, random words of a Monte Carlo tally, rows of a table.  A
#: block's temporaries stay in cache, and a table chunk's text and the
#: renderer's arrays, a few hundred bytes a row at their peak (``%r``),
#: stay a few MB.
_BLOCK = 1 << 14

#: Cap on the modulus of every route that needs the order r.  r is reduced
#: from lambda(n), and lambda(n) needs n trial-divided, about sqrt(n)/2
#: steps: a few milliseconds below 2^31, unbounded above it.
MAX_RUN_MODULUS = 1 << 31

#: Cap on the order for the routes that list every peak.  ``shorsim
#: peaks`` streams its rows from ``peak_columns`` chunk by chunk, so its
#: memory does not grow with r and its time does (2-CPU host, r = 988 288:
#: as CSV 0.4-0.5 s and 34-35 MB at q_A 8 and at the default 62, 0.9-1.3 s
#: and 39 MB at 100; as JSON 0.7-0.9 s and 44 MB at q_A 8, 0.9-1.2 s and
#: 44 MB at 62, 1.2-1.6 s and 48 MB at 100): about 1.7 s at the cap.
MAX_PEAKS_ORDER = 1 << 20

class _ProblemInstanceFields(NamedTuple):
    n: int
    x: int
    q_A: int
    N: int


class ProblemInstance(_ProblemInstanceFields):
    """One simulated machine: modulus n, base x, and the width q_A of the
    measured register.  Register B is traced out of every formula, so it
    has no field.

    N is always exactly 2^q_A: the constructor takes n, x and q_A only,
    ``_replace`` recomputes N and refuses it as an argument, and ``_make``
    refuses an N that is not 2^q_A.  Copies and pickles (protocol 2 and
    up) are rebuilt through the constructor.  Build via :meth:`create`,
    which applies the default width q_A = ceil(2*log2 n) (so N >= n^2)
    when it is not given explicitly.
    """

    __slots__ = ()

    def __new__(cls, n: int, x: int, q_A: int):
        if n < 3:
            raise DomainError(f"modulus n must be >= 3, got {n}")
        if not 1 < x < n:
            raise DomainError(f"base must satisfy 1 < x < n, got x={x}, n={n}")
        if math.gcd(x, n) != 1:
            raise DomainError(f"gcd({x}, {n}) != 1; precheck the base first")
        if q_A < 1:
            raise DomainError(f"the register width q_A must be positive, got {q_A}")
        guard("q_A", q_A, MAX_QUBITS, "a register, whose N = 2^q_A must fit a float")
        return tuple.__new__(cls, (n, x, q_A, 1 << q_A))

    def __getnewargs__(self):
        return self[:3]

    @classmethod
    def _make(cls, fields) -> "ProblemInstance":
        n, x, q_A, N = fields
        inst = cls(n, x, q_A)
        if N != inst.N:
            raise DomainError(f"N must be 2^q_A = {inst.N}, got {N}")
        return inst

    def _replace(self, **changes) -> "ProblemInstance":
        return type(self)(**dict(zip(("n", "x", "q_A"), self), **changes))

    @classmethod
    def create(cls, n: int, x: int, q_A: int | None = None) -> "ProblemInstance":
        if q_A is None:
            q_A = cls.default_q_A(n)
        return cls(n=n, x=x, q_A=q_A)

    @staticmethod
    def default_q_A(n: int) -> int:
        """The default measured-register width: the smallest q with 2^q >= n^2."""
        return (n * n - 1).bit_length()


class OrderInfo(NamedTuple):
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
        guard("n", inst.n, MAX_RUN_MODULUS - 1, "the order")
        return cls.from_multiple(inst, *carmichael_lambda(inst.n))

    @classmethod
    def from_multiple(cls, inst: ProblemInstance, multiple: int,
                      primes: list[int] | None = None) -> "OrderInfo":
        """The order info of inst, given a multiple of the order of x mod n
        (and, optionally, its primes; see ``order_from_multiple``)."""
        r = order_from_multiple(inst.x, inst.n, multiple, primes)
        N = inst.N
        delta_min = 1.0 / ((inst.n - 1) * inst.n)
        return cls(r=r, M0=(N - r) // r, k0=N % r, delta_min=delta_min)


def _sin_sq(N: int, a: int, c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sin^2(pi*a*c/N) at the cells c, as a new float64 array.  a*c is
    reduced exactly mod 2N (a power of two) into the int64 array t first,
    and t keeps it for the caller."""
    import numpy as np

    twoN = 2 * N
    np.multiply(c, a % twoN, out=t)
    t &= twoN - 1
    x = np.multiply(t, np.pi / N)
    np.sin(x, out=x)
    return np.square(x, out=x)


def _denominator_parts(N: int, r: int, c: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The singular cells (r*c = 0 mod N, found by the exact integer test)
    and sin^2(pi*r*c/N) with 1 put at them, so no division meets a zero."""
    import numpy as np

    den = _sin_sq(N, r, c, t)
    singular = np.flatnonzero((t & (N - 1)) == 0)
    den[singular] = 1.0
    return singular, den


def _sin_sq_ratio(N: int, r: int, size: int, c: np.ndarray, t: np.ndarray,
                  singular: np.ndarray, den: np.ndarray) -> np.ndarray:
    """sin^2(pi*size*r*c/N) / sin^2(pi*r*c/N) with the exact limit size^2
    put at the singular cells."""
    ratio = _sin_sq(N, size * r, c, t)
    ratio /= den
    ratio[singular] = float(size * size)
    return ratio


def two_term_at(inst: ProblemInstance, info: OrderInfo, c) -> np.ndarray:
    """P(c) at the cells of a one-dimensional integer index array, by the
    two-term form.

    k0 classes hold M0+2 exponents and r-k0 hold M0+1, so the per-class
    sum reduces to two weighted closed-form terms.  The cap is q_A <= 31,
    but not for the angle reduction: the int64 product a*c wraps mod 2**64,
    which 2N divides, so its residue mod 2N is exact up to q_A 62.  The
    precision is measured up to q_A 24 (ROADMAP item 3).
    """
    guard("q_A", inst.q_A, 31, "the two-term evaluator")
    import numpy as np

    N, r = inst.N, info.r
    c = np.asarray(c, dtype=np.int64)
    t = np.empty_like(c)
    singular, den = _denominator_parts(N, r, c, t)
    large = _sin_sq_ratio(N, r, info.M0 + 2, c, t, singular, den)
    small = _sin_sq_ratio(N, r, info.M0 + 1, c, t, singular, den)
    # (k0*large + (r-k0)*small) / N^2, in place.  Each weight is an integer
    # over the power of two N^2, so exact, and a power-of-two scale commutes
    # with rounding while no term is subnormal (the least nonzero, at q_A
    # 31, is about 5e-37).  The sum of two products has the same bits in
    # either order.
    large *= info.k0 / float(N) ** 2
    small *= (r - info.k0) / float(N) ** 2
    large += small
    return large


def _blocks(count: int):
    """(start, stop) of each consecutive block of `count` items, _BLOCK at most."""
    for start in range(0, count, _BLOCK):
        yield start, min(start + _BLOCK, count)


def _records(cls, columns):
    """The rows of equal-length arrays `columns`, each a record of type cls.

    ``tuple.__new__`` makes each record with no Python call; ``cls._make``
    would add one a row, about 0.2 us, a quarter of the cost of a census row.
    """
    return map(tuple.__new__, repeat(cls), zip(*(column.tolist() for column in columns)))


def _register_values(inst: ProblemInstance, info: OrderInfo):
    """The pairs (cells, P at the cells) over the register's int64 cell
    blocks, P by ``two_term_at``: the one pass over the register, capped
    at MAX_REGISTER_QUBITS on the call.  No block can raise once the cap
    has passed, so an error comes before any output.

    The pairs come from ``map``, which holds no block once it is taken; a
    generator holds its last block, and raised the peak RSS of ``dist`` by
    0.1-0.5 MB."""
    guard("q_A", inst.q_A, MAX_REGISTER_QUBITS, "a pass over the register")
    import numpy as np

    def values(block):
        cells = np.arange(*block, dtype=np.int64)
        return cells, two_term_at(inst, info, cells)

    return map(values, _blocks(inst.N))


def two_term_prefix_sums(inst: ProblemInstance, info: OrderInfo, cells) -> tuple[np.ndarray, float]:
    """The running sums P(0) + ... + P(c) at the cells c, sorted within
    [0, N), and the total, from one pass over the register that holds no
    N-length array.  Other cells are refused.

    The carry of the blocks before enters each block's first entry ahead
    of its ``np.cumsum``, which adds in sequence, so every sum has the
    bits of ``np.cumsum`` over the whole vector.
    """
    values = _register_values(inst, info)
    import numpy as np

    cells = np.asarray(cells, dtype=np.int64)
    if len(cells) and not (0 <= cells[0] and cells[-1] < inst.N
                           and np.all(cells[:-1] <= cells[1:])):
        raise DomainError("the cells of the prefix sums must be sorted within [0, N)")
    sums = np.empty(len(cells))
    carry = 0.0
    for block, p in values:
        p[0] += carry
        cdf = np.cumsum(p, out=p)
        lo, hi = np.searchsorted(cells, (block[0], block[-1] + 1))
        sums[lo:hi] = cdf[cells[lo:hi] - block[0]]
        carry = cdf[-1]
    return sums, float(carry)


def envelope(inst: ProblemInstance, info: OrderInfo, sigma) -> float:
    """The two-term form at a real (or exact rational) position sigma: with
    sigma*r/N = a/b in lowest terms, k0 classes of fejer_kernel(M0+2, b, a)
    and r-k0 of fejer_kernel(M0+1, b, a), over N^2.

    Periodic with period N/r; at integer sigma it equals the two-term
    probability of that state, and at the peak centers nu*N/r (b = 1) the
    kernel's limit gives (k0*(M0+2)^2 + (r-k0)*(M0+1)^2) / N^2.  Floats are
    converted to exact rationals, so angle reduction never loses precision.
    """
    N, r, k0, M0 = inst.N, info.r, info.k0, info.M0
    # checked before Fraction() converts it: NaN and the infinities fail the
    # comparison, and a string is refused rather than parsed
    if not (isinstance(sigma, numbers.Real) and 0 <= sigma < N):
        raise DomainError(f"sigma must be a real in [0, N), got {sigma!r}")
    a, b = (Fraction(sigma) * r / N).as_integer_ratio()
    return (k0 * fejer_kernel(M0 + 2, b, a) + (r - k0) * fejer_kernel(M0 + 1, b, a)) / float(N) ** 2


def _sin_turns(num: int, den: int) -> float:
    """|sin(pi*num/den)| for integers num and den > 0.

    The sine's magnitude is even with period den in num, so num is folded
    exactly into [0, den/2] first, where the rounding of the angle costs
    the sine no digits, and then divided by den with one rounding."""
    num %= den
    return math.sin(math.pi * (min(num, den - num) / den))


def peak_columns(inst: ProblemInstance, info: OrderInfo, start: int, stop: int) -> tuple:
    """The fields (nu, sigma_nu, c_nu, delta_nu) of peaks start..stop-1 as
    four arrays, from exact integers: c_nu = floor(nu*N/r) and delta_nu =
    (nu*N mod r)/r rounded once, taken from N = whole*r + part and
    nu*part < r^2 < 2^62 so that no term passes N or int64.  nu is int64
    and delta_nu float64 (float64 holds r and nu*N mod r < r < 2^31
    exactly, so the quotient rounds as Python's int / int does); c_nu is
    int64 and sigma_nu float64 when N fits int64, else both are object
    arrays, of Python ints and floats, from the one product nu*whole
    taken in Python ints."""
    import numpy as np

    nu = np.arange(start, stop, dtype=np.int64)
    whole, part = divmod(inst.N, info.r)
    scaled = nu * part
    carry = scaled // info.r
    c_nu = (nu if inst.N < 1 << 63 else nu.astype(object)) * whole + carry
    delta_nu = (scaled - carry * info.r) / info.r
    return nu, c_nu + delta_nu, c_nu, delta_nu


def _peak_blocks(inst: ProblemInstance, info: OrderInfo):
    """The columns of ``peak_columns`` over the blocks of the r peaks,
    capped at MAX_PEAKS_ORDER on the call."""
    guard("r", info.r, MAX_PEAKS_ORDER, "the peak table")
    return (peak_columns(inst, info, start, stop) for start, stop in _blocks(info.r))


def peak_deviation_prob(d: int, delta_nu: float) -> float:
    """Within-peak weight of integer deviation d for real displacement delta_nu.

    sin^2(pi*delta) / (pi * (d - delta))^2, with the delta -> 0 limit
    (all weight on d = 0) substituted exactly at delta_nu == 0.
    """
    # compared exactly before float() rounds it, and refused if it rounds to 1
    if not (isinstance(delta_nu, numbers.Real) and 0 <= delta_nu < 1 and float(delta_nu) < 1):
        raise DomainError(f"delta_nu must be a real in [0, 1), got {delta_nu!r}")
    delta_nu = float(delta_nu)
    if delta_nu == 0.0:
        return 1.0 if d == 0 else 0.0
    s = _sin_turns(*delta_nu.as_integer_ratio())
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


def _bounded(rng: SplitMix64, s: int) -> int:
    """Unbiased integer in [0, s) by Lemire's multiply-and-reject.

    Lemire, "Fast random integer generation in an interval", ACM TOMACS
    29(1), 2019, widened from one 64-bit word to as many words as s needs.
    The bound s = 1 consumes no word, and a bound below 2^64 one word a
    try.  Lemire's threshold 2^64 mod s is below s, so it is computed only
    when a try's low word falls below s, the only tries it can reject.
    Bounds from 2^64 up, 2^64 itself included, take the multiword loop.
    """
    if s == 1:
        return 0
    if s < 1 << 64:  # the shifts and masks fold to constants
        m = rng.next_uint64() * s
        if (m & (1 << 64) - 1) < s:
            threshold = (1 << 64) % s
            while (m & (1 << 64) - 1) < threshold:
                m = rng.next_uint64() * s
        return m >> 64
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

    Both angles are folded by ``_sin_turns``, so the zeros (L*t = 0 mod
    Np) come out exactly 0.
    """
    if t % Np == 0:
        return float(L * L)
    return (_sin_turns(L * t, Np) / _sin_turns(t, Np)) ** 2


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
    # a proposal is built for a class size on its first draw: M0 + 1 is 0
    # when N < r, and then never drawn (large = N)
    proposals = {}
    out = []
    for _ in range(count):
        L = info.M0 + 2 if _bounded(rng, N) < large else info.M0 + 1
        proposal = proposals.get(L)
        if proposal is None:
            proposal = proposals[L] = FejerProposal(L, Np)
        t = proposal.draw(rng)
        out.append(r_inv * t % Np + Np * _bounded(rng, g))
    return out
