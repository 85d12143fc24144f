"""Exact decimal text of numeric columns, without a Python call per element.

``render_rows(row_format, columns)`` returns the text that
``(row_format * k) % fields`` gives for k rows, where ``fields`` takes
the columns' values row after row.  ``row_format`` holds literal text and
three conversions: ``%d`` (an integer), ``%.15e`` (a float, 16
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
negative, non-finite, subnormal or out-of-range value, or a power of two
(whose interval is asymmetric), is formatted by the stdlib instead.  So
the text equals the stdlib's by construction.  Zero is laid out directly.

Each field is written into fixed slots of a uint8 row buffer, NUL in the
slots a row does not use; dropping the NULs leaves the text.
"""

import re

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

# The ASCII digits of 0..9999, four to an entry read as one uint32; the
# same with a '.' after each digit, read as one uint64; and, for the head
# of '%.15e', the first digit, a '.' and the other three.
_DIGITS = np.stack([np.arange(10000, dtype=np.int16) // 10 ** i % 10 + ord("0")
                    for i in (3, 2, 1, 0)], axis=1).astype(np.uint8)
_DIGITS4 = _DIGITS.view(np.uint32)[:, 0]
_DOTTED4 = np.stack([_DIGITS, np.full_like(_DIGITS, ord("."))], axis=2).reshape(
    10000, 8).view(np.uint64)[:, 0]
_HEADS = np.insert(_DIGITS, 1, ord("."), axis=1)

# 'e', the sign and the digits of each decimal exponent from -_E to _E,
# the hundreds slot NUL below 100.
_E = 300
_EXPONENTS = np.frombuffer("".join(
    "e%s%s%02d" % ("-+"[e >= 0], abs(e) // 100 or "\0", abs(e) % 100)
    for e in range(-_E, _E + 1)).encode(), dtype=np.uint8).reshape(-1, 5)


def _groups(x: np.ndarray, out: np.ndarray, table=_DIGITS4):
    """The digits of non-negative int64 x, four to a column of `out`, the
    last column the lowest four, each column an entry of `table`."""
    for i in range(out.shape[1] - 1, -1, -1):
        q = x // 10000
        out[:, i] = np.take(table, x - q * 10000)
        x = q


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
    element (of 1.0 in place of a value outside the kernel's range), and
    the mask of elements left to the stdlib, which the fields extend."""

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
        self.e10, self.I, self.f = e10, I, f

    def round_at(self, j):
        """X rounded to a multiple of 10^j (j a scalar or an array of
        levels), as the multiple's quotient; a tie within the margin is
        marked unsure."""
        P = _P10[j]
        Q = self.I // P
        # R + f - P/2, exact where it matters (|.| < 2)
        d = np.clip(self.I - Q * P - P // 2, -2, 2) + self.f - (P == 1) * 0.5
        self.unsure |= np.abs(d) <= _EPS
        return Q + (d > 0)


def _sci_field(column, slots: np.ndarray) -> np.ndarray:
    """'%.15e' into 23 slots: a sign slot (used by the stdlib's negative
    values only), d.ddddddddddddddd, e, sign, digits."""
    fl = _Floats(column)
    D = fl.round_at(1)
    carry = D == 10 ** 16
    if carry.any():
        D[carry] = 10 ** 15
    head = D // 10 ** 12
    slots[:, 0] = 0
    slots[:, 1:6] = np.take(_HEADS, head, axis=0)
    _groups(D - head * 10 ** 12, slots[:, 6:18].view(np.uint32))
    slots[:, 18:] = np.take(_EXPONENTS, fl.e10 + carry + _E, axis=0)
    if fl.zero.any():
        slots[fl.zero, 1:] = _ascii("0.000000000000000e+00\0")
    return fl.unsure


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


def _repr_layouts() -> np.ndarray:
    """Slot masks (0 or 0xFF) of the '%r' layouts, one row per decimal
    point position class (decpt = -3..16 fixed, then scientific) and
    digit count p = 1..17.  Slots: '0' '.' '0' '0' '0' (0.000ddd), the 17
    digits each followed by a '.' slot, then e, sign, three digits."""
    masks = np.zeros((21, 17, 44), dtype=bool)
    for p in range(1, 18):
        for decpt in range(-3, 17):
            row = masks[decpt + 3, p - 1]
            if decpt <= 0:  # 0.000ddd
                row[:2 - decpt] = True
                row[5:5 + 2 * p:2] = True
            else:  # ddd.ddd, or ddd000.0 with the padding's zeros
                row[5:5 + 2 * max(p, decpt + 1):2] = True
                row[4 + 2 * decpt] = True
        row = masks[20, p - 1]  # d.ddde-XX, or de-XX
        row[5:5 + 2 * p:2] = True
        row[6] = p > 1
        row[39:] = True
    return masks.reshape(21 * 17, 44) * np.uint8(0xFF)


_REPR_LAYOUTS = _repr_layouts()
_REPR_PREFIX = _ascii("0.000")


def _repr_field(column, slots: np.ndarray) -> np.ndarray:
    """float.__repr__ into 44 slots (see _repr_layouts)."""
    fl = _Floats(column)
    D17, p, e10 = _shortest(fl)
    decpt = e10 + 1
    sci = (decpt < -3) | (decpt > 16)
    out = np.empty((len(p), 44), dtype=np.uint8)
    out[:, :5] = _REPR_PREFIX
    first = D17 // _X_LO
    out[:, 5] = first + ord("0")
    out[:, 6] = ord(".")
    _groups(D17 - first * _X_LO, out[:, 7:39].view(np.uint64), _DOTTED4)
    out[:, 39:] = np.take(_EXPONENTS, e10 * sci + _E, axis=0)
    layout = decpt + 3
    layout[sci] = 20
    out &= np.take(_REPR_LAYOUTS, layout * 17 + p - 1, axis=0)
    if fl.zero.any():
        out[fl.zero] = np.pad(_ascii("0.0"), (0, 41))
    slots[:] = out
    return fl.unsure


def _int_width(column) -> int:
    x = np.asarray(column)
    if not len(x):
        return 0
    # the extremes, or every value when there are Python ints beyond int64
    return max(len(str(e)) for e in ((x.min(), x.max()) if x.dtype.kind in "iu" else x.tolist()))


def _int_field(column, slots: np.ndarray) -> np.ndarray:
    """'%d' right-aligned into the column's width, leading slots NUL; a
    negative or beyond-int64 value is left to the stdlib."""
    x = np.asarray(column)
    if x.dtype.kind not in "iu":
        return np.ones(len(x), dtype=bool)
    x = x.astype(np.int64)
    unsure = x < 0
    if unsure.any():
        x = np.where(unsure, 0, x)
    width = slots.shape[1]
    groups = np.empty((len(x), -(-width // 4)), dtype=np.uint32)
    _groups(x, groups)
    digits = groups.view(np.uint8)[:, -width:]
    if len(x) and int(x.min()) < 10 ** (width - 1):  # some have fewer digits
        lead = width - np.maximum(np.searchsorted(_P10, x, side="right"), 1)
        digits = digits * (np.arange(width) >= lead[:, None])
    slots[:] = digits
    return unsure


#: conversion -> (width of its slots for a column, kernel filling them and
#: returning the elements left to the stdlib, the stdlib's text of one)
_FIELDS = {
    "d": (_int_width, _int_field, lambda e: "%d" % e),
    ".15e": (lambda column: 23, _sci_field, lambda e: "%.15e" % e),
    "r": (lambda column: 44, _repr_field, float.__repr__),
}

_CONVERSION = re.compile(r"%(d|\.15e|r)")


def render_rows(row_format: str, columns) -> str:
    """``(row_format * k) % fields`` for the k rows of the columns, one
    column per conversion of ``row_format`` (``%d``, ``%.15e``, ``%r``)."""
    columns = list(columns)
    parts = _CONVERSION.split(row_format)
    literals, convs = parts[0::2], parts[1::2]
    if not convs or len(convs) != len(columns) or any("%" in text for text in literals):
        raise ValueError(f"row format {row_format!r} does not fit {len(columns)} columns")
    widths = [_FIELDS[conv][0](column) for conv, column in zip(convs, columns)]
    row_width = sum(map(len, literals)) + sum(widths)
    text = bytearray(len(columns[0]) * row_width)
    buf = np.frombuffer(text, dtype=np.uint8).reshape(-1, row_width)
    at = 0
    for literal, conv, column, width in zip(literals, convs + [None], columns + [None], widths + [0]):
        buf[:, at:at + len(literal)] = _ascii(literal)
        at += len(literal)
        if conv is None:
            break
        slots = buf[:, at:at + width]
        _, kernel, stdlib = _FIELDS[conv]
        for i in np.flatnonzero(kernel(column, slots)).tolist():
            digits = _ascii(stdlib(column[i]))
            slots[i] = 0
            slots[i, :len(digits)] = digits
        at += width
    del buf, slots
    return text.translate(None, b"\0").decode("ascii")
