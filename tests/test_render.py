"""The vectorised decimal kernel against the stdlib's formatting, byte for byte."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim import render
from shorsim.render import render_rows

FLOAT_FORMATS = ["%.15e\n", "%r\n"]


def stdlib(row_format, columns):
    fields = [value for row in zip(*columns) for value in row]
    return (row_format * len(columns[0])) % tuple(fields)


def assert_same(row_format, *columns):
    columns = [np.asarray(column).tolist() for column in columns]
    assert render_rows(row_format, columns) == stdlib(row_format, columns)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
@pytest.mark.parametrize("row_format", FLOAT_FORMATS)
def test_non_negative_floats_property(row_format, values):
    assert_same(row_format, values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-2**70, 2**70), st.floats(), st.floats()),
                min_size=1, max_size=20))
def test_any_row_property(rows):
    """Every value, negative, non-finite and beyond int64 included, matches."""
    assert_same("%d,%.15e;%r|\n", *zip(*rows))


def decades():
    for k in range(-300, 301):
        v = float(f"1e{k}")
        yield from (v, np.nextafter(v, 0.0), np.nextafter(v, np.inf))


FIXED_CASES = {
    "zero and the smallest subnormal": [0.0, 5e-324],
    "10^k and both neighbours": list(decades()),
    "rounds across a decade": [9.9999999999999995e-05, 9.999999999999999e22, 0.9999999999999999],
    # the interval of 2^e is asymmetric: half as wide below as above
    "powers of two": [2.0 ** e for e in range(-1074, 1024)],
    # X/10 and X above 2^53, where float64 skips integers
    "scaled digits beyond 2^53": [9.5e-7, 9.999999999999998e-7, 9.007199254740993e15,
                                  9.999999999999998e300, 9.1e10, 2.0 ** 60, 1.3819401992198881e18],
    "short decimals": [0.1, 0.25, 0.375, 85.0, 42.666666666666664, 1e15, 1e16, 123456.0, 1e-4, 1e-5],
}


@pytest.mark.parametrize("row_format", FLOAT_FORMATS)
@pytest.mark.parametrize("case", FIXED_CASES)
def test_fixed_cases(row_format, case):
    assert_same(row_format, FIXED_CASES[case])


@pytest.mark.parametrize("row_format", FLOAT_FORMATS)
def test_random_bit_patterns(row_format):
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 0x7FF0000000000000, size=50_000, dtype=np.int64)
    assert_same(row_format, bits.view(np.float64))


@pytest.mark.parametrize("row_format", FLOAT_FORMATS)
def test_integers_above_2_to_53(row_format):
    rng = np.random.default_rng(6)
    assert_same(row_format, rng.integers(2**53, 2**62, size=20_000).astype(np.float64))


def shortest_digits(v):
    """(p, decpt) of repr(v): p significant digits, v = 0.d1...dp * 10^decpt."""
    _, digits, exponent = Decimal(repr(v)).normalize().as_tuple()
    return len(digits), len(digits) + exponent


def with_shortest(p, decpt):
    """A float whose repr has p significant digits and its point after decpt of them."""
    v = float(f"0.{'12345678912345678'[:p]}e{decpt}")
    for _ in range(2000):
        if shortest_digits(v) == (p, decpt):
            return v
        v = float(np.nextafter(v, np.inf))
    raise AssertionError(f"no float with p={p} digits at decpt={decpt}")


# the decimal point positions of fixed notation, then scientific ones with
# two- and three-digit exponents on both sides
DECPTS = [*range(-3, 17), -4, 17, -99, 101, -250, 250]


@pytest.mark.parametrize("p", range(1, 18))
def test_every_repr_layout(p):
    values = [with_shortest(p, decpt) for decpt in DECPTS]
    assert [shortest_digits(v) for v in values] == [(p, decpt) for decpt in DECPTS]
    assert_same("%r\n", values)  # fixed and scientific rows in one block
    for v in values:  # a block of one layout
        assert_same("%r|\n", [v, v])


SIGNIFICANDS = st.integers(1, 17).flatmap(lambda p: st.integers(10 ** (p - 1), 10 ** p - 1))
POINTS = st.one_of(st.integers(-3, 16), st.integers(-300, -4), st.integers(17, 300))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(SIGNIFICANDS, POINTS), min_size=1, max_size=30))
def test_repr_layout_classes_property(rows):
    """1-17 digits with the point anywhere in fixed notation, or scientific."""
    assert_same("[%r]\n", [float(f"{n}e{decpt - len(str(n))}") for n, decpt in rows])


MIXED = [0.25, 1e-7, 0.0, 2.0 ** -30, -1.5, 123.456, float("nan"), 5e-324, 1e300,
         0.1, float("inf"), 2.0 ** 70, 1e-300, 9.999999999999999e22, 42.666666666666664]


@pytest.mark.parametrize("row_format", FLOAT_FORMATS + ["%d,%r,%.15e;\n"])
def test_mixed_blocks(row_format):
    """Fixed, scientific, zero, power-of-two and stdlib rows in one block."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        values = rng.permutation(MIXED)[:rng.integers(1, len(MIXED) + 1)]
        columns = [values] * row_format.count("%")
        if row_format.startswith("%d"):
            columns[0] = rng.integers(-10, 10 ** 6, size=len(values))
        assert_same(row_format, *columns)


def repr_width(values):
    return render._repr_field(np.array(values))[0]


def test_layout_choices_repr():
    sci, wide, fixed = [1.5e-7, 3e-20], [1.5e-7, 3e-200], [0.5, 123.25]
    assert repr_width(sci) == 22  # compact: d, '.', 16 digits, e-XX
    assert repr_width(wide) == 23  # a three-digit exponent
    assert repr_width(fixed) == 6  # fixed notation only: its longest text
    assert repr_width(sci + fixed) == 22  # both, fixed written over its rows
    for values in (sci, wide, fixed, sci + fixed, wide + fixed, fixed + wide, [0.1, 0.0, 123.25]):
        assert_same("%r\n", values)
        assert_same("%r", values)


def test_positive_zero_never_reaches_the_stdlib(monkeypatch):
    """+0.0 is a kernel element in both float layouts; -0.0 is the stdlib's."""
    seen = []
    for conv, (kernel, text) in list(render._FIELDS.items()):
        monkeypatch.setitem(render._FIELDS, conv,
                            (kernel, lambda e, text=text: seen.append(e) or text(e)))
    values = [0.0, 1.5, 0.0, -0.0, 3e-20, 0.0]
    assert_same("%.15e,%r\n", values, values)
    assert [math.copysign(1.0, e) for e in seen] == [-1.0, -1.0]
    seen.clear()
    assert_same("%r|%.15e;", [0.0] * 5, [0.0] * 5)  # a column of zeros alone
    assert seen == []


def test_layout_choices_sci():
    assert render._sci_field(np.array([1.5, 2e-5]))[0] == 21
    assert render._sci_field(np.array([1.5, 2e-105]))[0] == 22
    assert_same("%.15e\n", [1.5, 2e-5])  # every row as wide as its slots: no NUL to drop
    assert_same("%.15e\n", [1.5, 2e-105])
    assert_same("%.15e\n", [1.5, -2e-5, 0.0])  # a stdlib row wider than the kernel's


@pytest.mark.parametrize("values", [
    [7], [0, 5], [10, 99], [0, 10], [1000, 9999], [1, 10000], [12345, 99999],
    [123456, 100000], [5, 123456789], [10 ** 18, 2 ** 63 - 1], [0, 2 ** 63 - 1], [-5, 12, 7],
])
def test_layout_choices_int(values):
    """Uniform and mixed digit counts, at every width modulo 4."""
    assert_same("%d\n", values)
    assert_same("<%d>", values[::-1])


def test_integers():
    rng = np.random.default_rng(7)
    values = np.concatenate([rng.integers(-10**18, 10**18, size=5000),
                             [0, 9, 10, 99, 100, 2**63 - 1, -2**63]])
    assert_same("%d\n", values)
    assert_same("%d|%d\n", [2**64, 5, -7], [1, 2, 3])  # beyond int64


def test_literals_and_empty_columns():
    assert render_rows("[%d]", [[]]) == ""
    assert_same('{\n  "a": %d,\n  "b": %r\n},', [1, 22, 333], [0.5, 1e-7, 3.0])


@pytest.mark.parametrize("row_format,columns", [
    ("%d %d\n", [[1]]),
    ("%s\n", [[1]]),
    ("%d %%\n", [[1]]),
    ("plain\n", []),
])
def test_unsupported_formats_are_refused(row_format, columns):
    with pytest.raises(ValueError):
        render_rows(row_format, columns)


def test_distribution_cells_rarely_need_the_stdlib():
    from shorsim.distribution import OrderInfo, ProblemInstance, two_term_at

    inst = ProblemInstance.create(1007, 5, 17)
    p = two_term_at(inst, OrderInfo.from_instance(inst), np.arange(inst.N))
    width, write, unsure = render._sci_field(p)
    write(np.empty((inst.N, width), dtype=np.uint8))
    assert not unsure.any()
    # %r leaves the powers of two, the cells where r*c = 0 mod N
    width, write, unsure = render._repr_field(p)
    write(np.empty((inst.N, width), dtype=np.uint8))
    assert 0 < unsure.sum() <= 16
    assert np.all(np.frexp(p[unsure])[0] == 0.5)
