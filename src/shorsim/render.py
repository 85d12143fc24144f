"""Exact decimal text of numeric columns, without a Python call per element.

``render_rows(row_format, columns)`` returns, as ASCII bytes, the text
that ``(row_format * k) % fields`` gives for k rows, where ``fields``
takes the columns' values row after row.  ``row_format`` holds literal
text and three conversions: ``%d`` (an integer), ``%.15e`` (a float, 16
significant digits) and ``%r`` (a float's ``repr``, the shortest digits
that read back to it, which is also how ``json.dumps`` prints a float).

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
  exactly.  A rounding that carries to 10^16 moves to the next decade.
* ``%r``: v reads back from every decimal strictly inside its rounding
  interval, X +- H with H = X / (2m), m being v's 53-bit integer
  significand.  The shortest digits come from the largest j for which
  X lies within H of a multiple of 10^j (17 digits, j = 0, always do);
  of those multiples, the nearest to X is X rounded at 10^j.  They are
  laid out as Python's ``'r'`` format does: fixed notation for decimal
  exponents -4 <= e10 < 16, else scientific.

Every decision an element takes (which way a rounding goes, whether a
candidate lies inside the interval) is certified by a margin of
``_EPS``, a hundred thousand times the error bound.  An element with a
decision inside the margin (a tie or an interval boundary), and a
negative (-0.0 too), non-finite, subnormal or out-of-range value, or a
power of two (whose interval is asymmetric), is formatted by the stdlib
instead; +0.0 is in range, X = 0 at exponent 0.  So the text equals the
stdlib's by construction.

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
moved past the point as shifts of uint64 words.  Dropping the NULs of the
slots a row leaves unused gives the text, and the buffer is returned as
it is: the caller writes bytes, with no decode and no re-encode.
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


def _ascii(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


def _power_table(k_min: int, k_max: int) -> tuple[np.ndarray, ...]:
    """hi, its upper and lower split halves, and lo for 10^k, k_min <= k <=
    k_max: hi is 10^k correctly rounded and lo the rest, rounded, both from
    exact integers (int / int rounds correctly)."""
    his, los = [], []
    for k in range(k_min, k_max + 1):
        if k < 0:
            den = 10 ** -k
            hi = 1 / den
            a, b = hi.as_integer_ratio()
            lo = (b - a * den) / (den * b)
        else:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        his.append(hi)
        los.append(lo)
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


def _groups(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The digits of non-negative int64 x, four to a uint32 column of
    `out`, the last column the lowest four; returns the digits above them,
    x // 10^(4 * columns)."""
    for i in range(out.shape[1] - 1, -1, -1):
        q = x // 10000
        out[:, i] = np.take(_DIGITS4, x - q * 10000)
        x = q
    return x


def _exponent(slots: np.ndarray, e10: np.ndarray, wide: bool):
    """'e', the sign and the digits of each exponent: four slots, and a
    fifth for the last digit of three when `wide`."""
    i = e10 + _E
    slots[:, :4].view(np.uint32)[:, 0] = np.take(_EXPONENT4, i)
    if wide:
        slots[:, 4] = np.take(_EXPONENT5, i)


def _scaled(v: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v * 10^(16 - e10) as an int64 part and a float fraction in [0, 1).
    The steps work in place, each rounding as written in its comment."""
    k = 16 - _K_MIN - e10
    p = v * np.take(_HI, k)
    vh = _SPLIT * v
    vh -= vh - v  # Dekker's split: vh = t - (t - v), vl = v - vh
    vl = v - vh
    hh, hl = np.take(_HI_HEAD, k), np.take(_HI_TAIL, k)
    err = vh * hh  # v*hi - p, exactly: ((vh*hh - p) + vh*hl + vl*hh) + vl*hl
    err -= p
    err += vh * hl
    err += vl * hh
    err += vl * hl
    del vh, vl, hh, hl
    err += v * np.take(_LO, k)  # v*lo + err
    fp = np.floor(p)
    p -= fp  # r = (p - fp) + (err + v*lo)
    p += err
    fr = np.floor(p)
    p -= fr
    return fp.astype(np.int64) + fr.astype(np.int64), p


class _Floats:
    """A float column scaled for the kernel: e10 and X = I + f of each
    element (0 for +0.0, 1.0's in place of another value outside the
    kernel's range), and the mask of elements left to the stdlib."""

    def __init__(self, values):
        v = np.asarray(values, dtype=np.float64)
        self.zero = (v == 0.0) & ~np.signbit(v)
        inside = (v >= _V_MIN) & (v < _V_MAX)
        self.unsure = ~(inside | self.zero)
        if not inside.all():
            v = np.where(inside, v, 1.0)
        self.v = v
        e10 = np.floor(np.log10(v)).astype(np.int64)
        I, f = _scaled(v, e10)
        off = np.flatnonzero((I < _X_LO) | (I >= _X_HI))
        if off.size:  # log10 rounded across a decade
            e10[off] += 2 * (I[off] >= _X_HI) - 1
            I[off], f[off] = _scaled(v[off], e10[off])
            self.unsure[off[(I[off] < _X_LO) | (I[off] >= _X_HI)]] = True
        I[self.zero] = 0  # +0.0: X = 0 at exponent 0, in place of 1.0's 10^16
        self.e10, self.I, self.f = e10, I, f

    def round_at(self, j):
        """X rounded to a multiple of 10^j (j a scalar or an array of
        levels), as the multiple's quotient; a tie within the margin is
        marked unsure."""
        P = _P10[j]
        Q = self.I // P
        # 2*(R + f - P/2), exact where it matters (|.| < 4)
        d = np.clip(2 * (self.I - Q * P) - P, -4, 4) + 2 * self.f
        self.unsure |= np.abs(d) <= 2 * _EPS
        return Q + (d > 0)


def _sci_field(column):
    """'%.15e' into 21 slots, d.ddddddddddddddde-XX, or 22 when some
    exponent has three digits."""
    fl = _Floats(column)
    D = fl.round_at(1)
    carry = D == 10 ** 16
    if carry.any():
        D[carry] = 10 ** 15
    e10 = fl.e10 + carry
    wide = bool(np.abs(e10).max() >= 100)

    def write(slots):
        head = D // 10 ** 12
        slots[:, :5].view("V5")[:, 0] = np.take(_HEADS, head)
        _groups(D - head * 10 ** 12, slots[:, 5:17].view(np.uint32))
        _exponent(slots[:, 17:], e10, wide)

    return 21 + wide, write, fl.unsure


def _shortest(fl: _Floats):
    """The shortest digits of each element: D17, the digits padded with
    zeros to 17, their count p, and the decimal exponent."""
    fraction = fl.v.view(np.int64) & ((1 << 52) - 1)
    fl.unsure |= fraction == 0  # a power of two: asymmetric interval
    H = fl.I / (2.0 * (fraction + (1 << 52)))
    del fraction
    # A..B, the integers strictly inside (X - H, X + H)
    top, bottom = fl.f + H, fl.f - H
    del H
    fl.unsure |= np.abs(top - np.rint(top)) <= _EPS
    fl.unsure |= np.abs(bottom - np.rint(bottom)) <= _EPS
    fl.unsure &= ~fl.zero  # +0.0: X = 0 exactly, whose one digit 0 needs no margin
    np.floor(top, out=top)
    np.ceil(bottom, out=bottom)
    span = (top - bottom).astype(np.int64)
    del bottom
    B = top.astype(np.int64)
    B += fl.I
    del top
    # j, the largest level with a multiple of 10^j in A..B: B mod 10^j <= B - A
    j = (B - B // 10 * 10 <= span).astype(np.int64)
    active = np.flatnonzero(B - B // 100 * 100 <= span)
    for level in range(2, 17):
        if not active.size:
            break
        j[active] = level
        Ba = B[active]
        active = active[Ba - Ba // _P10[level + 1] * _P10[level + 1] <= span[active]]
    D = fl.round_at(j)
    p = 17 - j
    carry = D == _P10[p]  # 9.99... rounded up to 10
    fl.unsure |= (D - D // 10 * 10 == 0) & (p > 1) & ~carry
    D17 = D * _P10[j]
    if carry.any():
        p[carry] = 1
        D17[carry] = _X_LO
    return D17, p, fl.e10 + carry


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
                text[at][:2 - decpt] = _ascii("0.000")[:2 - decpt]
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


def _fixed(D17: np.ndarray, layout: np.ndarray) -> np.ndarray:
    """The fixed-notation text of each element, from its 17 digits D17 and
    its layout (see _fixed_layouts), NUL-padded to 24 slots."""
    digits = np.empty((len(D17), 6), dtype=np.uint32)
    digits[:, 4:] = _ZEROS4
    top = D17 // 10
    _groups(top, digits[:, :4])
    digits.view(np.uint8)[:, 16] = D17 - top * 10 + ord("0")
    # word-major, so that each step runs over contiguous rows
    words = digits.view(np.uint64).T.copy()
    masks = np.take(_FIXED_MASKS, layout, axis=1)
    bits = np.take(_FIXED_SHIFTS, layout)
    moved = _LATER(words, bits)  # each slot bits / 8 slots right, across the words
    moved[1:] |= _EARLIER(words[:-1], 64 - bits)
    moved &= masks[3:6]
    words &= masks[:3]
    words |= moved
    words |= masks[6:]
    return np.ascontiguousarray(words.T).view(np.uint8)


def _repr_field(column):
    """float.__repr__.  A scientific row takes 22 slots, 23 when some
    exponent has three digits: the first digit, '.', the 16 digits after
    it (NUL past the last), e, sign, exponent digits.  A fixed-notation
    row is left-aligned, NUL after its text (see _fixed_layouts), and is
    written over the scientific layout where a column has both."""
    fl = _Floats(column)
    D17, p, e10 = _shortest(fl)
    decpt = e10 + 1
    fixed = np.flatnonzero((decpt >= -3) & (decpt <= 16) & ~fl.unsure)
    layout = (decpt[fixed] + 3) * 17 + p[fixed] - 1
    scientific = len(fixed) + np.count_nonzero(fl.unsure) < len(p)
    wide = scientific and bool(np.abs(e10).max() >= 100)
    width = max(22 + wide if scientific else 0, int(_FIXED_LENGTHS[layout].max(initial=0)))

    def write(slots):
        if scientific:
            first = D17 // _X_LO
            slots[:, 0] = first + ord("0")
            slots[:, 1] = np.take(_POINTS, p)
            digits = slots[:, 2:18]
            _groups(D17 - first * _X_LO, digits.view(np.uint32))
            words = digits.view(np.uint64)
            words[:, 0] &= np.take(_KEPT[0], p)
            words[:, 1] &= np.take(_KEPT[1], p)
            _exponent(slots[:, 18:], e10, wide)
        if len(fixed):
            slots[fixed] = _fixed(D17[fixed], layout)[:, :slots.shape[1]]

    return width, write, fl.unsure


def _int_field(column):
    """'%d' right-aligned in the width of the largest value, leading slots
    NUL where a value has fewer digits; a negative or beyond-int64 value
    is left to the stdlib."""
    x = np.asarray(column)
    if x.dtype.kind not in "iu":
        return 0, lambda slots: None, np.ones(len(x), dtype=bool)
    x = x.astype(np.int64)
    unsure = x < 0
    if unsure.any():
        x = np.where(unsure, 0, x)
    width = len(str(x.max()))
    uniform = width == 1 or int(x.min()) >= 10 ** (width - 1)

    def write(slots):
        digits = slots[:, :width]
        lead = width % 4
        top = _groups(x, digits[:, lead:].view(np.uint32))
        for i in range(lead):
            digits[:, i] = np.take(_DIGITS[:, 4 - lead + i], top)
        if not uniform:
            zeros = width - np.maximum(np.searchsorted(_P10, x, side="right"), 1)
            digits *= np.arange(width) >= zeros[:, None]

    return width, write, unsure


#: conversion -> (kernel, the stdlib's text of one element).  The kernel
#: takes a column and returns the width of its slots, a function laying
#: the column out in a (rows, width) view of the row buffer, and the mask
#: of the elements left to the stdlib.
_FIELDS = {
    "d": (_int_field, lambda e: "%d" % e),
    ".15e": (_sci_field, lambda e: "%.15e" % e),
    "r": (_repr_field, float.__repr__),
}

_CONVERSION = re.compile(r"%(d|\.15e|r)")


def render_rows(row_format: str, columns) -> bytearray:
    """``(row_format * k) % fields`` for the k rows of the columns, one
    column per conversion of ``row_format`` (``%d``, ``%.15e``, ``%r``),
    as ASCII bytes."""
    columns = list(columns)
    parts = _CONVERSION.split(row_format)
    literals, convs = parts[0::2], parts[1::2]
    if not convs or len(convs) != len(columns) or any("%" in text for text in literals):
        raise ValueError(f"row format {row_format!r} does not fit {len(columns)} columns")
    if not len(columns[0]):
        return bytearray()
    # one row: the literals, NUL in each field's slots
    row = bytearray(literals[0], "ascii")
    fields = []
    for conv, column, literal in zip(convs, columns, literals[1:]):
        kernel, stdlib = _FIELDS[conv]
        width, write, unsure = kernel(column)
        fallback = [(i, _ascii(stdlib(column[i]))) for i in np.flatnonzero(unsure).tolist()]
        width = max([width, *(len(digits) for _, digits in fallback)])
        fields.append((len(row), width, write, fallback))
        row += bytes(width) + literal.encode("ascii")
    text = row * len(columns[0])
    buf = np.frombuffer(text, dtype=np.uint8).reshape(-1, len(row))
    for at, width, write, fallback in fields:
        slots = buf[:, at:at + width]
        write(slots)
        for i, digits in fallback:
            slots[i] = 0
            slots[i, :len(digits)] = digits
    # the kernels' arrays, held by their write closures, go before the
    # compacted copy is made and the buffer is handed on
    del buf, slots, fields, write, fallback
    if 0 in text:  # a row left slots empty
        return text.replace(b"\0", b"")
    return text
