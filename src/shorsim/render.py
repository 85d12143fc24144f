"""Exact decimal text of numeric columns, without a Python call per element.

``Renderer(row_format).rows(columns)`` returns, as ASCII bytes, the text
that ``(row_format * k) % fields`` gives for k rows, where ``fields``
takes the columns' values row after row.  ``row_format`` holds literal
text and three conversions: ``%d`` (an integer), ``%.15e`` (a float, 16
significant digits) and ``%r`` (a float's ``repr``, the shortest digits
that read back to it, which is also how ``json.dumps`` prints a float).
A table makes one renderer and hands it each chunk of its rows in turn.

Digits are an integer problem (Adams, "Ryu: fast float-to-string
conversion", PLDI 2018).  A float v in the kernel's range is scaled to
X = v * 10^(16 - e10) in [10^16, 10^17), e10 = floor(log10 v), as a
double-double: v times the pair (hi, lo) that sums to 10^(16 - e10), with
v*hi split exactly by Dekker's two-product ("A floating-point technique
for extending the available precision", 1971).  X is then held as an
int64 I and a fraction f in [0, 1).  I + f is within 1e-14 of the exact
X: the table's pair is within 2^-106 of 10^k, and the three roundings
after the exact product each err by at most 2^-53 of a term below 32.

* ``%.15e``: the 16 digits are X/10 rounded to nearest, with I // 10 and
  the remainder in int64, since float64 holds no integer above 2^53
  exactly.  A rounding that carries to 10^16 is left to the stdlib.
* ``%r``: v reads back from every decimal strictly inside its rounding
  interval, X +- H with H = X / (2m), m being v's 53-bit integer
  significand.  The shortest digits come from the largest j for which
  X lies within H of a multiple of 10^j (17 digits, j = 0, always do);
  of those multiples, the nearest to X is X rounded at 10^j (one that
  carries 9.99... to 10 is left to the stdlib).  They are laid out as
  Python's ``'r'`` format does: fixed notation for decimal exponents -4
  <= e10 < 16, else scientific.

Every decision an element takes (which way a rounding goes, whether a
candidate lies inside the interval) is certified by a margin of
``_EPS``, a hundred thousand times the error bound.  An element with a
decision inside the margin (a tie or an interval boundary), and a
negative (-0.0 too), non-finite, subnormal or out-of-range value, a
power of two (whose interval is asymmetric), or an X that leaves [10^16,
10^17) (log10 rounded across a decade, or a rounding that carries into
the next), is formatted by the stdlib instead; +0.0 is in range, X = 0
at exponent 0.  So the text equals the stdlib's by construction.

Rows are assembled in a uint8 buffer of equal rows, one row repeated:
the literal text, and NUL slots for each field as wide as its column
needs.  ``%d`` takes the digits of its largest value; ``%.15e`` 21 slots;
``%r`` 22 for scientific rows (the first digit, '.', the 16 digits after
it, e, sign, two exponent digits) or, in a column without them, the
longest fixed-notation text; a three-digit exponent adds a slot, and a
stdlib text may widen a field.  A kernel writes only the bytes a row
prints: 4-digit groups as uint32 words, an exponent as a uint32 and a
byte, the head of '%.15e' as one 5-byte item.  Fixed-notation '%r' rows
are written only where a column has them, left-aligned, their digits
moved past the point as shifts of each row's own uint64 words.  The
stdlib's texts of a field are one array of strings, NUL-padded to the
field's slots, placed over their rows in one assignment.  Dropping the
NULs of the slots a row leaves unused gives the text: the chunk's bytes
are that copy of the buffer, which the caller writes with no decode and
no re-encode.

A renderer keeps its work arrays from a table's first chunk to its last
(``_Work``): each field the few arrays its write reads (the digits, the
exponents), the fields together a set of temporaries that every kernel
and write reuses (six arrays of 8 bytes a row, t0-t5, and a few masks),
and the table its row buffer, which keeps the row laid over it while the
row does not change.  Every ufunc and ``np.take`` writes into them, so
after the first chunk a chunk allocates nothing block-sized but the bytes
it returns, and the index arrays of the rows that take a rarer path
(fixed notation, the stdlib) and the stdlib's texts; a chunk with more
rows, or wider rows, than any before grows what it needs.  Arrays
allocated and freed a chunk at a time cost more than their arithmetic:
the allocator hands the freed pages back to the system, and the next
chunk faults them in again.
"""

import re
import sys

import numpy as np

#: Certification margin in units of X's last digit.
_EPS = 2.0 ** -30

#: The kernel's range of v: the scale table and Dekker's split stay in
#: the normal floats.
_V_MIN, _V_MAX = 1e-280, 1e280

_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
_X_LO, _X_HI = 10 ** 16, 10 ** 17
_P10 = np.array([10 ** j for j in range(19)], dtype=np.int64)


def _power_table(k_min: int, k_max: int) -> tuple[np.ndarray, ...]:
    """hi, its upper and lower split halves, and lo for 10^k, k_min <= k <=
    k_max: with 10^k = num / den, hi is num / den and lo, with a / b the
    exact ratio of hi, (num * b - a * den) / (den * b), both int / int,
    which rounds correctly."""
    his, los = [], []
    for k in range(k_min, k_max + 1):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        hi = num / den
        a, b = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * b - a * den) / (den * b))
    hi = np.array(his)
    t = _SPLIT * hi
    head = t - (t - hi)
    return hi, head, hi - head, np.array(los)


# e10 lies in [-281, 280], one decade beyond _V_MIN and _V_MAX
_K_MIN = 16 - 281
_HI, _HI_HEAD, _HI_TAIL, _LO = _power_table(_K_MIN, 16 + 282)

# The ASCII digits of 0..9999, four to an entry read as one uint32; and,
# for the head of '%.15e', the first digit, a '.' and the other three, one
# 5-byte void item an entry.
_DIGITS = np.stack([np.arange(10000, dtype=np.int16) // 10 ** i % 10 + ord("0")
                    for i in (3, 2, 1, 0)], axis=1).astype(np.uint8)
_DIGITS4 = _DIGITS.view(np.uint32)[:, 0]
_HEADS = np.insert(_DIGITS, 1, ord("."), axis=1).view("V5")[:, 0]

# 'e', the sign and the digits of each decimal exponent from -_E to _E,
# NUL-padded to five bytes: the first four read as one uint32, the fifth
# (the last digit of a three-digit exponent) apart.
_E = 300
_EXPONENTS = np.frombuffer("".join(
    ("e%+03d" % e).ljust(5, "\0") for e in range(-_E, _E + 1)).encode(),
    dtype=np.uint8).reshape(-1, 5)
_EXPONENT4 = _EXPONENTS[:, :4].copy().view(np.uint32)[:, 0]
_EXPONENT5 = _EXPONENTS[:, 4].copy()


class _Work:
    """The block-sized arrays of one field of a table, kept from chunk to
    chunk.  ``keep(name, n, dtype)`` holds what the field's write reads,
    one set a field; ``temp(name, n, dtype)`` what a kernel or a write
    needs only while it runs, one set a table, shared by its fields,
    which run one at a time.  Each is the first n elements of a byte
    array kept under its name, viewed as dtype, and made anew only for a
    chunk with more rows than any before; so a name can hold an array of
    another dtype once its last use is over."""

    def __init__(self, temps: dict | None = None):
        self.kept, self.temps = {}, {} if temps is None else temps

    def keep(self, name: str, n: int, dtype) -> np.ndarray:
        return _view(self.kept, name, n, dtype)

    def temp(self, name: str, n: int, dtype) -> np.ndarray:
        return _view(self.temps, name, n, dtype)


def _view(arrays: dict, name: str, n: int, dtype) -> np.ndarray:
    size = n * np.dtype(dtype).itemsize
    raw = arrays.get(name)
    if raw is None or len(raw) < size:
        raw = arrays[name] = np.empty(size, dtype=np.uint8)
    return raw[:size].view(dtype)


def _take(table: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.take into `out`, a contiguous array of the table's dtype.  Every
    index is in range, so mode 'wrap' gives what 'raise' would; under
    'raise' numpy fills a copy of `out` first, and 'clip' is slower."""
    return table.take(index, out=out, mode="wrap")


def _groups(x: np.ndarray, out: np.ndarray, work: _Work):
    """The digits of non-negative int64 x below 10^(4 * columns), four to
    a uint32 column of `out`, the last column the lowest four.  Uses the
    temps t2-t5."""
    n = len(x)
    quotients = work.temp("t2", n, np.int64), work.temp("t3", n, np.int64)
    rest, group = work.temp("t4", n, np.int64), work.temp("t5", n, np.uint32)
    for step, i in enumerate(range(out.shape[1] - 1, 0, -1)):
        q = quotients[step % 2]
        np.floor_divide(x, 10000, out=q)
        np.multiply(q, -10000, out=rest)
        rest += x
        out[:, i] = _take(_DIGITS4, rest, group)
        x = q
    out[:, 0] = _take(_DIGITS4, x, group)


def _exponent(slots: np.ndarray, e10: np.ndarray, wide: bool, work: _Work):
    """'e', the sign and the digits of each exponent: four slots, and a
    fifth for the last digit of three when `wide`.  Uses the temps t0-t2."""
    n = len(e10)
    i = np.add(e10, _E, out=work.temp("t0", n, np.int64))
    slots[:, :4].view(np.uint32)[:, 0] = _take(_EXPONENT4, i, work.temp("t1", n, np.uint32))
    if wide:
        slots[:, 4] = _take(_EXPONENT5, i, work.temp("t2", n, np.uint8))


def _scaled(v: np.ndarray, e10: np.ndarray, work: _Work) -> tuple[np.ndarray, np.ndarray]:
    """v * 10^(16 - e10) as an int64 part, in the temp t0, and a float
    fraction in [0, 1), in t1, each rounding as written in its comment.
    Uses the temps t0-t5."""
    n = len(v)
    k = np.subtract(16 - _K_MIN, e10, out=work.temp("t2", n, np.int64))
    err, p, vh, vl, t = (work.temp(name, n, np.float64) for name in ("t0", "t1", "t3", "t4", "t5"))
    np.multiply(v, _take(_HI, k, t), out=p)
    np.multiply(_SPLIT, v, out=vh)  # Dekker's split: vh = t - (t - v), vl = v - vh
    np.subtract(vh, v, out=vl)
    vh -= vl
    np.subtract(v, vh, out=vl)
    # v*hi - p, exactly: ((vh*hh - p) + vh*hl + vl*hh) + vl*hl, hh taken
    # twice so that six temps hold every term
    np.multiply(vh, _take(_HI_HEAD, k, t), out=err)
    err -= p
    hl = _take(_HI_TAIL, k, t)
    err += np.multiply(vh, hl, out=vh)
    err += np.multiply(vl, _take(_HI_HEAD, k, vh), out=vh)
    err += np.multiply(vl, hl, out=vl)
    err += np.multiply(v, _take(_LO, k, t), out=t)  # v*lo + err
    fp = np.floor(p, out=vh)
    p -= fp  # r = (p - fp) + (err + v*lo)
    p += err
    fr = np.floor(p, out=vl)
    p -= fr
    I = work.temp("t0", n, np.int64)
    np.copyto(I, fp, casting="unsafe")
    np.copyto(k, fr, casting="unsafe")
    I += k
    return I, p


class _Floats:
    """A float column scaled for the kernel: e10 and X = I + f of each
    element (0 for +0.0, 1.0's in place of another value outside the
    kernel's range, I = 10^16 where log10 rounded across a decade), and
    the mask of elements left to the stdlib.  e10 is the field's own
    (int16); v, I, f and the masks are temps."""

    def __init__(self, values, work: _Work):
        self.work = work
        v = np.asarray(values, dtype=np.float64)
        n = len(v)
        flag = work.temp("flag", n, bool)
        self.zero = np.equal(v, 0.0, out=work.temp("zero", n, bool))
        self.zero &= np.logical_not(np.signbit(v, out=flag), out=flag)
        inside = np.greater_equal(v, _V_MIN, out=work.temp("flag2", n, bool))
        inside &= np.less(v, _V_MAX, out=flag)
        self.unsure = np.logical_or(inside, self.zero, out=work.temp("unsure", n, bool))
        np.logical_not(self.unsure, out=self.unsure)
        if not inside.all():
            stand_in = work.temp("v", n, np.float64)
            stand_in.fill(1.0)
            np.copyto(stand_in, v, where=inside)
            v = stand_in
        self.v = v
        log = np.log10(v, out=work.temp("t2", n, np.float64))
        e10 = work.keep("e10", n, np.int16)
        np.copyto(e10, np.floor(log, out=log), casting="unsafe")
        I, f = _scaled(v, e10, work)
        off = np.less(I, _X_LO, out=flag)  # log10 rounded across a decade
        off |= np.greater_equal(I, _X_HI, out=inside)
        self.unsure |= off
        np.copyto(I, _X_LO, where=off)
        np.copyto(I, 0, where=self.zero)  # +0.0: X = 0 at exponent 0, in place of 1.0's 10^16
        self.e10, self.I, self.f = e10, I, f

    def round_at(self, j, out: np.ndarray) -> np.ndarray:
        """X rounded to a multiple of 10^j (j a scalar or an int64 array
        of levels), as the multiple's quotient, into `out`; a tie within
        the margin is marked unsure.  Once only: it works in f's storage.
        Uses the temps t2 and t5."""
        work, n = self.work, len(self.I)
        P = _P10[j] if np.isscalar(j) else _take(_P10, j, work.temp("t5", n, np.int64))
        Q = np.floor_divide(self.I, P, out=out)
        # 2*(R + f - P/2), exact where it matters (|.| < 4)
        R = np.multiply(Q, P, out=work.temp("t2", n, np.int64))
        np.subtract(self.I, R, out=R)
        R *= 2
        R -= P
        d = self.f
        d *= 2
        d += np.maximum(np.minimum(R, 4, out=R), -4, out=R)
        flag = work.temp("flag", n, bool)
        Q += np.greater(d, 0, out=flag)
        self.unsure |= np.less_equal(np.abs(d, out=d), 2 * _EPS, out=flag)
        return Q


def _sci_field(column, work: _Work):
    """'%.15e' into 21 slots, d.ddddddddddddddde-XX, or 22 when some
    exponent has three digits."""
    fl = _Floats(column, work)
    n = len(fl.I)
    D = fl.round_at(1, work.keep("D", n, np.int64))
    carry = np.equal(D, 10 ** 16, out=work.temp("flag", n, bool))  # the next decade's 1.000...
    fl.unsure |= carry
    np.copyto(D, 10 ** 15, where=carry)
    e10 = fl.e10
    wide = bool(max(e10.max(), -e10.min()) >= 100)

    def write(slots):
        head = np.floor_divide(D, 10 ** 12, out=work.temp("t0", n, np.int64))
        slots[:, :5].view("V5")[:, 0] = _take(_HEADS, head, work.temp("t1", n, _HEADS.dtype))
        rest = np.multiply(head, -10 ** 12, out=head)
        rest += D
        _groups(rest, slots[:, 5:17].view(np.uint32), work)
        _exponent(slots[:, 17:], e10, wide, work)

    return 21 + wide, write, fl.unsure


def _shortest(fl: _Floats):
    """The shortest digits of each element: D17, the digits padded with
    zeros to 17, their count p, and the decimal exponent, the field's own.
    Uses the temps t2-t5."""
    work, n = fl.work, len(fl.I)
    flag = work.temp("flag", n, bool)
    fraction = np.bitwise_and(fl.v.view(np.int64), (1 << 52) - 1, out=work.temp("t2", n, np.int64))
    fl.unsure |= np.equal(fraction, 0, out=flag)  # a power of two: asymmetric interval
    fraction += 1 << 52
    H = np.multiply(fraction, 2.0, out=work.temp("t3", n, np.float64))
    np.divide(fl.I, H, out=H)
    # A..B, the integers strictly inside (X - H, X + H)
    top, bottom = np.add(fl.f, H, out=work.temp("t4", n, np.float64)), np.subtract(fl.f, H, out=H)
    gap = work.temp("t2", n, np.float64)
    for end in (top, bottom):
        np.subtract(end, np.rint(end, out=gap), out=gap)
        fl.unsure |= np.less_equal(np.abs(gap, out=gap), _EPS, out=flag)
    fl.unsure &= np.logical_not(fl.zero, out=flag)  # +0.0: X = 0 exactly, whose one digit 0 needs no margin
    np.floor(top, out=top)
    np.ceil(bottom, out=bottom)
    span = work.temp("t5", n, np.int64)
    np.copyto(span, np.subtract(top, bottom, out=bottom), casting="unsafe")
    B = work.temp("t2", n, np.int64)
    np.copyto(B, top, casting="unsafe")
    B += fl.I
    # j, the largest level with a multiple of 10^j in A..B: B mod 10^j <= B - A
    j, mod = work.temp("t3", n, np.int64), work.temp("t4", n, np.int64)
    for level, out in ((1, j), (2, flag)):
        np.floor_divide(B, _P10[level], out=mod)
        mod *= -_P10[level]
        mod += B
        np.less_equal(mod, span, out=out, casting="unsafe")
    active = np.flatnonzero(flag)
    for level in range(2, 17):
        if not active.size:
            break
        j[active] = level
        Ba = B[active]
        active = active[Ba - Ba // _P10[level + 1] * _P10[level + 1] <= span[active]]
    D = fl.round_at(j, mod)
    mod = work.temp("t2", n, np.int64)
    p = np.subtract(17, j, out=work.keep("p", n, np.int64))
    np.floor_divide(D, 10, out=mod)
    mod *= -10
    mod += D
    last_zero = np.equal(mod, 0, out=flag)
    last_zero &= np.greater(p, 1, out=work.temp("flag2", n, bool))
    fl.unsure |= last_zero
    D17 = np.multiply(D, _take(_P10, j, mod), out=work.keep("D17", n, np.int64))
    carry = np.equal(D17, _X_HI, out=flag)  # 9.99... rounded up to 10
    fl.unsure |= carry
    np.copyto(D17, _X_LO, where=carry)
    return D17, p, fl.e10


def _fixed_layouts() -> tuple[np.ndarray, ...]:
    """The fixed-notation layouts of '%r', one per decimal point position
    decpt = -3..16 and digit count p = 1..17: layout (decpt + 3) * 17 +
    p - 1.  A row's 24 slots start as its 17 digits, then '0's; a layout
    keeps some slots in place, moves others `shift` slots right, and adds
    the literal '.' or '0.000'.  Returns the masks of the kept and of the
    moved slots and the literal text, nine uint64 words to a layout, one
    layout a column; the shifts in bits; and the text's lengths."""
    keep, moved, text = (np.zeros((20, 17, 24), dtype=np.uint8) for _ in range(3))
    shift = np.ones((20, 17), dtype=np.uint64)
    for decpt in range(-3, 17):
        for p in range(1, 18):
            at = decpt + 3, p - 1
            if decpt <= 0:  # 0.000ddd: the digits after "0." and -decpt zeros
                shift[at] = 2 - decpt
                text[at][:2 - decpt] = list(b"0.000"[:2 - decpt])
                moved[at][2 - decpt:2 - decpt + p] = 0xFF
            else:  # ddd.ddd, or ddd000.0 with the padding's zeros
                keep[at][:decpt] = 0xFF
                text[at][decpt] = ord(".")
                moved[at][decpt + 1:max(p, decpt + 1) + 1] = 0xFF
    masks = np.concatenate([keep, moved, text], axis=2).reshape(20 * 17, 72).view(np.uint64)
    lengths = np.count_nonzero(keep | moved | text, axis=2).ravel()
    return masks.T.copy(), 8 * shift.ravel(), lengths


_FIXED_MASKS, _FIXED_SHIFTS, _FIXED_LENGTHS = _fixed_layouts()
_ZEROS4 = np.frombuffer(b"0000", dtype=np.uint32)[0]
# shifts of a uint64 word that move its bytes to later and earlier slots
_LATER, _EARLIER = ((np.left_shift, np.right_shift) if sys.byteorder == "little"
                    else (np.right_shift, np.left_shift))
# '.' after the first digit of p > 1 digits; the bytes of the 16 digits
# after it that p digits keep, as two uint64 words
_POINTS = np.array([0, 0] + [ord(".")] * 16, dtype=np.uint8)
_KEPT = ((np.arange(16) < np.arange(-1, 17)[:, None]) * np.uint8(0xFF)).view(np.uint64).T.copy()


def _fixed(D17: np.ndarray, layout: np.ndarray, work: _Work) -> np.ndarray:
    """The fixed-notation text of each element, from its 17 digits D17 and
    its layout (see _fixed_layouts), NUL-padded to 24 slots, shifted in
    the row's own three uint64 words.  Uses the temps t0-t5."""
    n = len(D17)
    digits = work.temp("fixed rows", 6 * n, np.uint32).reshape(n, 6)
    digits[:, 4:] = _ZEROS4
    top = np.floor_divide(D17, 10, out=work.temp("t0", n, np.int64))
    _groups(top, digits[:, :4], work)
    last = np.multiply(top, -10, out=top)
    last += D17
    last += ord("0")
    digits.view(np.uint8)[:, 16] = last
    words = digits.view(np.uint64).T
    bits = _take(_FIXED_SHIFTS, layout, work.temp("t0", n, _FIXED_SHIFTS.dtype))
    back = np.subtract(64, bits, out=work.temp("t1", n, np.uint64))
    moved, mask = work.temp("t2", n, np.uint64), work.temp("t3", n, np.uint64)
    # each slot bits / 8 slots right, across the row's own words: last
    # word first, so that the word before is still unchanged when its
    # bytes move on
    for w in (2, 1, 0):
        _LATER(words[w], bits, out=moved)
        if w:
            moved |= _EARLIER(words[w - 1], back, out=mask)
        moved &= _take(_FIXED_MASKS[3 + w], layout, mask)
        words[w] &= _take(_FIXED_MASKS[w], layout, mask)
        words[w] |= moved
        words[w] |= _take(_FIXED_MASKS[6 + w], layout, mask)
    return digits.view(np.uint8)


def _repr_field(column, work: _Work):
    """float.__repr__.  A scientific row takes 22 slots, 23 when some
    exponent has three digits: the first digit, '.', the 16 digits after
    it (NUL past the last), e, sign, exponent digits.  A fixed-notation
    row is left-aligned, NUL after its text (see _fixed_layouts), and is
    written over the scientific layout where a column has both."""
    fl = _Floats(column, work)
    D17, p, e10 = _shortest(fl)
    n = len(D17)
    decpt = np.add(e10, 1, out=work.temp("t0", n, np.int64))
    in_fixed = np.greater_equal(decpt, -3, out=work.temp("flag", n, bool))
    in_fixed &= np.less_equal(decpt, 16, out=work.temp("flag2", n, bool))
    in_fixed &= np.logical_not(fl.unsure, out=work.temp("flag2", n, bool))
    fixed = np.flatnonzero(in_fixed)
    m = len(fixed)
    layout = _take(decpt, fixed, work.keep("layout", m, np.int64))
    layout += 3
    layout *= 17
    layout += _take(p, fixed, work.temp("t1", m, np.int64))
    layout -= 1
    scientific = m + np.count_nonzero(fl.unsure) < n
    wide = scientific and bool(max(e10.max(), -e10.min()) >= 100)
    longest = _take(_FIXED_LENGTHS, layout, work.temp("t1", m, _FIXED_LENGTHS.dtype))
    width = max(22 + wide if scientific else 0, int(longest.max(initial=0)))

    def write(slots):
        if scientific:
            first = np.floor_divide(D17, _X_LO, out=work.temp("t0", n, np.int64))
            rest = np.multiply(first, -_X_LO, out=work.temp("t1", n, np.int64))
            rest += D17
            first += ord("0")
            slots[:, 0] = first
            slots[:, 1] = _take(_POINTS, p, work.temp("t0", n, np.uint8))
            digits = slots[:, 2:18]
            _groups(rest, digits.view(np.uint32), work)
            words = digits.view(np.uint64)
            kept = work.temp("t0", n, np.uint64)
            words[:, 0] &= _take(_KEPT[0], p, kept)
            words[:, 1] &= _take(_KEPT[1], p, kept)
            _exponent(slots[:, 18:], e10, wide, work)
        if m:
            slots[fixed] = _fixed(_take(D17, fixed, work.temp("v", m, np.int64)),
                                  layout, work)[:, :slots.shape[1]]

    return width, write, fl.unsure


def _int_field(column, work: _Work):
    """'%d' right-aligned in the width of the largest value, leading slots
    NUL where a value has fewer digits; a negative or beyond-int64 value
    is left to the stdlib."""
    x = np.asarray(column)
    if x.dtype.kind not in "iu":
        return 0, lambda slots: None, np.ones(len(x), dtype=bool)
    x = np.asarray(x, dtype=np.int64)
    n = len(x)
    unsure = np.less(x, 0, out=work.temp("unsure", n, bool))
    if unsure.any():
        kept = work.keep("x", n, np.int64)
        np.copyto(kept, x)
        np.copyto(kept, 0, where=unsure)
        x = kept
    width = len(str(x.max()))
    uniform = width == 1 or int(x.min()) >= 10 ** (width - 1)

    def write(slots):
        digits = slots[:, :width]
        lead, rest = width % 4, x
        if lead:  # the top digits, the last `lead` of a group of four
            P = _P10[width - lead]
            top = np.floor_divide(x, P, out=work.temp("t0", n, np.int64))
            group = _take(_DIGITS4, top, work.temp("t1", n, np.uint32))
            digits[:, :lead] = group.view(np.uint8).reshape(n, 4)[:, 4 - lead:]
            rest = np.multiply(top, -P, out=top)
            rest += x
        if width > lead:
            _groups(rest, digits[:, lead:].view(np.uint32), work)
        if not uniform:  # NUL in the slots above a value's digits
            below = work.temp("flag", n, bool)
            for i in range(width - 1):
                np.copyto(digits[:, i], 0, where=np.less(x, _P10[width - 1 - i], out=below))

    return width, write, unsure


#: conversion -> (kernel, the stdlib's text of one element).  The kernel
#: takes a column and the field's work arrays and returns the width of its
#: slots, a function laying the column out in a (rows, width) view of the
#: row buffer, and the mask of the elements left to the stdlib.
_FIELDS = {
    "d": (_int_field, lambda e: "%d" % e),
    ".15e": (_sci_field, lambda e: "%.15e" % e),
    "r": (_repr_field, float.__repr__),
}

_CONVERSION = re.compile(r"%(d|\.15e|r)")


class Renderer:
    """The rows of one table by one ``row_format``, chunk after chunk: the
    format is parsed once, and the fields' work arrays and the row buffer
    are kept from the first chunk to the last (see the module docstring).
    A format that is not literal text and the three conversions raises
    ValueError here, before any chunk."""

    def __init__(self, row_format: str):
        parts = _CONVERSION.split(row_format)
        self.literals, convs = parts[0::2], parts[1::2]
        if not convs or any("%" in text for text in self.literals):
            raise ValueError(f"row format {row_format!r} is not literal text and %d, %.15e and %r")
        self.row_format = row_format
        temps = {}
        self.fields = [(*_FIELDS[conv], _Work(temps)) for conv in convs]
        self.text, self.row = bytearray(), None

    def rows(self, columns) -> bytearray:
        """``(row_format * k) % fields`` for the k rows of the columns, one
        column per conversion, as ASCII bytes."""
        columns = list(columns)
        if len(columns) != len(self.fields):
            raise ValueError(f"row format {self.row_format!r} does not fit {len(columns)} columns")
        if not len(columns[0]):
            return bytearray()
        # one row: the literals, NUL in each field's slots
        row = bytearray(self.literals[0], "ascii")
        fields = []
        for (kernel, stdlib, work), column, literal in zip(self.fields, columns, self.literals[1:]):
            width, write, unsure = kernel(column, work)
            stdlib_rows = np.flatnonzero(unsure)
            texts = np.array([stdlib(column[i]) for i in stdlib_rows.tolist()], dtype=bytes)
            wider = max(width, texts.itemsize)
            fields.append((len(row), width, wider, write, stdlib_rows, texts.astype(f"S{wider}")))
            row += bytes(wider) + literal.encode("ascii")
        # the row repeated over the buffer, unless the last chunk left it there
        size = len(row) * len(columns[0])
        if row != self.row or size > len(self.text):
            self.text[:], self.row = row * len(columns[0]), row
        else:
            del self.text[size:]
        buf = np.frombuffer(self.text, dtype=np.uint8).reshape(-1, len(row))
        for at, width, wider, write, stdlib_rows, texts in fields:
            slots = buf[:, at:at + wider]
            slots[:, width:] = 0  # a kernel's row fills `width` slots, a stdlib text may be wider
            write(slots)
            slots[stdlib_rows] = texts.view(np.uint8).reshape(-1, wider)
        # the rows without the NULs of the slots a row left empty, a copy,
        # so that the buffer serves the next chunk
        return self.text.replace(b"\0", b"")

