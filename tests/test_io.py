import csv
import decimal
import io
import json
import math
import re
import struct
import tracemalloc
import unittest.mock
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodiv import (
    ClusterOptions,
    InfodivError,
    InvalidInputError,
    LabeledMatrix,
    ParseError,
    NegativeValueError,
    NonFiniteValueError,
    SimilarityMatrix,
    build_matrix,
    dendrogram_from_json,
    divisive_cluster,
    export_dendrogram,
    extract_clusters,
    format_number,
    parse_csv,
    render_dendrogram,
    similarity_csv,
    similarity_matrix,
    write_csv,
)

import infodiv.io
from infodiv.io import _scan_json, canonical_json
from infodiv.render import _NOT_XML

from conftest import (
    cocitation_matrix,
    examples,
    random_matrix,
    reference_format_number,
    reference_parse_csv,
    reference_write_csv,
)

BLOCK = [[4, 4, 0, 0], [4, 4, 0, 0], [0, 0, 4, 4], [0, 0, 4, 4]]


def test_parse_csv_basic():
    m = parse_csv(io.StringIO("x,a,b\nr1,2,0\nr2,0,2\n"))
    assert m.row_labels == ("r1", "r2")
    assert m.values.tolist() == [[2, 0], [0, 2]]


def test_parse_csv_sorts_labels():
    m = parse_csv(io.StringIO("x,b,a\nr2,1,2\nr1,3,4\n"))
    assert m.row_labels == ("r1", "r2")
    assert m.col_labels == ("a", "b")
    assert m.values.tolist() == [[4, 3], [2, 1]]


def test_parse_csv_ragged_row():
    with pytest.raises(ParseError, match="line 3"):
        parse_csv(io.StringIO("x,a,b\nr1,1,2\nr2,1\n"))


def test_parse_csv_negative_cell():
    with pytest.raises(NegativeValueError):
        parse_csv(io.StringIO("x,a,b\nr1,1,-1\n"))


def test_parse_csv_malformed_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_csv(io.StringIO("x,a,b\nr1,one,2\n"))


def test_parse_csv_empty():
    with pytest.raises(ParseError):
        parse_csv(io.StringIO(""))


_EXACT = decimal.Context(prec=1000)


def _near_midpoint(m, e, digits, up):
    """The decimal halfway between the doubles m * 2**e and (m + 1) * 2**e
    (m of 53 bits), rounded down or up to `digits` significant digits: a
    numeral that only a correctly rounding reader reads as float() does."""
    half = _EXACT.multiply(2 * m + 1, _EXACT.power(decimal.Decimal(2), e - 1))
    return str(decimal.Context(prec=digits, rounding=decimal.ROUND_UP if up
                               else decimal.ROUND_DOWN).plus(half))


# Cells in the spellings float() reads as nonnegative finite numbers
# (integers, float reprs, 17-25-digit numerals at rounding midpoints,
# subnormals, numerals over 128 characters, signs; and, in NUMBER only,
# underscores and non-ASCII digits, which float() reads and most other
# readers do not), and cells the reader rejects: malformed, negative or
# not finite ("1e400" overflows to inf), padded with the ASCII separators,
# which str.strip() strips and float() does not, or followed by the
# comment mark "#". Any of them may be padded with whitespace.
PLAIN_NUMBER = st.one_of(
    st.integers(0, 30).map(str),
    st.floats(0.0, 1e300).map(repr),
    st.builds(_near_midpoint, st.integers(2 ** 52, 2 ** 53 - 1),
              st.integers(-60, 40), st.integers(17, 25), st.booleans()),
    st.integers(1, 2 ** 52 - 1).map(lambda k: repr(k * 5e-324)),
    st.builds("{}{}".format, st.text("0123456789", min_size=129,
                                     max_size=200),
              st.sampled_from(["", ".5", "e-100"])),
    st.sampled_from(["-0", "+7", "1e3", ".5", "5.", "5e-324", "0"]))
NUMBER = st.one_of(PLAIN_NUMBER, st.sampled_from(
    ["1_0", "\u0661\u0662", "\uff13.5", "\u0664e2"]))
REJECTED = st.sampled_from(["1__0", "_1", "0x10", "one", "1e", "--1", "1,5",
                            "", " ", "\u00bd", "-2.5", "nan", "NaN", "inf",
                            "-Infinity", "1e400", "\x1c5", "5\x1f", "1\x00",
                            "5#"])
PADDING = ["{}", " {}", "{}\t", "\n{} ", "\x0c{}\x0c", " {} ",
           "\xa0{}\u2003"]
# Labels that need quoting, pad or repeat, and sort in a non-obvious order.
CSV_LABEL = st.one_of(
    st.sampled_from(["a", "b", " a", "a,b", "x\ny", 'q"t', "", "r1", "r10",
                     "r2", "\r"]),
    st.text(max_size=3))


def _unquoted(text):
    return not any(c in text for c in ',"\r\n')


@st.composite
def csv_texts(draw):
    """CSV text with up to four column labels and up to six rows besides
    blank lines. Half of the texts are faulty: they may hold rejected
    cells, rows of one empty field, rows one cell short or long, no column
    label, and repeated labels. Half, faulty or not, hold no field that
    csv.writer quotes and no underscore or non-ASCII digit: they pass the
    digit decoder's quote check, and it reads those whose every cell is
    digits."""
    faulty, quoted = draw(st.booleans()), draw(st.booleans())
    number = NUMBER if quoted else PLAIN_NUMBER
    cell = st.one_of(number, number, number, REJECTED) if faulty else number
    cell = st.tuples(st.sampled_from(PADDING), cell).map(
        lambda pad_cell: pad_cell[0].format(pad_cell[1]))
    label = CSV_LABEL
    if not quoted:
        cell, label = cell.filter(_unquoted), label.filter(_unquoted)
    kinds = ["data"] * 4 + ["blank"] + ["short", "long"] * faulty + \
        ["empty"] * (faulty and quoted)
    width = draw(st.integers(2 - faulty, 5))
    n_rows = draw(st.integers(1 - faulty, 6))
    labels = st.lists(label, min_size=n_rows + width, unique=not faulty,
                      max_size=n_rows + width)
    labels = iter(draw(labels))
    rows = [[next(labels) for _ in range(width)]]
    while n_rows:
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            rows.append([])
            continue
        n_rows -= 1
        if kind == "empty":
            rows.append([""])
        else:
            n = max(width - 1 + {"data": 0, "short": -1, "long": 1}[kind], 0)
            rows.append([next(labels)] +
                        draw(st.lists(cell, min_size=n, max_size=n)))
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))
               ).writerows(rows)
    return out.getvalue()


def _parsed(parse, text):
    try:
        m = parse(io.StringIO(text, newline=""))
    except InfodivError as exc:
        return type(exc), str(exc)
    return m.row_labels, m.col_labels, m.values.tobytes()


def _no_loadtxt(*args, **kwargs):
    raise AssertionError("parse_csv reached np.loadtxt")


@given(csv_texts())
@settings(max_examples=examples(500), deadline=None)
def test_parse_csv_matches_the_per_cell_loop(text):
    # Two readers, the digit decoder and csv.reader, read every text.
    with unittest.mock.patch.object(np, "loadtxt", _no_loadtxt):
        assert _parsed(parse_csv, text) == _parsed(reference_parse_csv, text)


# Plain CSV: unquoted labels, padded cells in spellings float() reads, a
# blank line, and rows out of order.
PLAIN_CSV = ("x, c2,c1\n"
             "r2, 1.5e3 ,\x0c0.1\x0c\n"
             "\n"
             " r1 ,4,\xa02.5e-320\u2003\n"
             "r10,123456789012345678901234567890,+0\n")


# Texts at each check that keeps a text off the digit decoder: carriage
# returns outside "\r\n", a row too long or too short (also two rows whose
# wrong widths balance, as they do within one block), a quote, NUL, and
# cells that are not digits; among them cells, unquoted labels and whole
# rows holding characters that str.strip() strips or str.splitlines()
# splits at, but csv.reader neither splits at nor strips (the ASCII
# separators \x1c-\x1f, \x0b, \x85 and \u2028), or "#".
@pytest.mark.parametrize("text", [
    "x,a\nr,\x1c5\n", "x,a\nr,5\x1f\n", "x,a\nr,5#\n", "x#,a\nr#,5\n",
    "x,a,b\rr,1,2\n", "x,a,b\r\nr,1,2\r", "x,a,b\nr,1,2,3\n",
    "x,a,b\nr,1\n", "x,a,b\nr,1,2,3\ns,4\n", "x,a,b\nr,1\ns,2,3,4\n",
    "x,a\nr,1e400\n", "x,a\nr,1_0\n", "x,a\nr,\u0661\n",
    'x,a\n"r",1\n', "x,a\nr,1\x00\n", "x\nr\n", "x,a\n\n",
    "x\x1c,a\x1d,b\x1e\n\x1fr\x1c,1,2\ns\x1d\x1e,3,4\n",
    "x,a\x0bb,\x0bc\nr\x0b,1,2\n\x0bs,3,4\n",
    "x,a\x85b,c\x85\nr\x85s,1,2\n\x85t,3,4\n",
    "x,a\u2028b,\u2028c\nr\u2028,1,2\ns\u2028t,3,4\n",
    "x,a\x1f,b\nr,1,2\n\x1er,3,4\n", "x,\x1c\nr,1\n",
    "x,a,b\nr,\x1d5,6\x1e\n", "x,a,b\nr,\x0b5,6\x0b\n",
    "x,a,b\nr,\x855,6\x85\n", "x,a,b\nr,\u20285,6\u2028\n",
    "x,a,b\n\x1c\nr,1,2\n\x1d\x1e\x0b\x85\u2028\n"])
def test_parse_csv_edge_texts_match_the_per_cell_loop(text):
    assert _parsed(parse_csv, text) == _parsed(reference_parse_csv, text)


def test_parse_csv_reads_lf_and_crlf_alike(tmp_path):
    parsed = []
    for newline in ("\n", "\r\n"):
        text = PLAIN_CSV.replace("\n", newline)
        path = tmp_path / f"m{len(newline)}.csv"
        path.write_bytes(text.encode("utf-8"))
        for source in (path, io.StringIO(text, newline="")):
            m = parse_csv(source)
            parsed.append((m.row_labels, m.col_labels, m.values.tobytes()))
    assert parsed[0][:2] == (("r1", "r10", "r2"), ("c1", "c2"))
    assert parsed == parsed[:1] * 4


def test_parse_csv_rejects_a_binary_stream():
    with pytest.raises(ParseError, match="open the file in text mode"):
        parse_csv(io.BytesIO(b"x,a\nr,1\n"))


# Plain integer CSV: unquoted labels with "-", blanks and non-ASCII
# characters; cells of 1 to 15 digits with leading zeros, and in half of
# the texts one of 16 digits, which `_digit_cells` declines; in a quarter,
# one cell moved to the next or the previous row, so that a block holding
# both rows has as many commas as it should; LF or CRLF line ends; blank
# lines. The block size is drawn from one cell up, so a text spans one to
# many blocks, and its rows may be wider than a block.
INTEGER_LABEL = st.text("ab1- \u00e9\u4e2d", max_size=4)
INTEGER_CELL = st.one_of(
    st.text("0123456789", min_size=1, max_size=15),
    st.sampled_from(["0", "000000000000000", "999999999999999"]))
SIXTEEN_DIGITS = st.one_of(
    st.text("0123456789", min_size=16, max_size=16),
    st.sampled_from(["0999999999999999", "9007199254740993"]))


@st.composite
def integer_csv_texts(draw):
    width, n_rows = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    labels = iter(draw(st.lists(INTEGER_LABEL, min_size=width + n_rows + 1,
                                max_size=width + n_rows + 1, unique=True)))
    rows = [draw(st.lists(INTEGER_CELL, min_size=width, max_size=width))
            for _ in range(n_rows)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n_rows - 1))][
            draw(st.integers(0, width - 1))] = draw(SIXTEEN_DIGITS)
    if n_rows > 1 and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, n_rows - 2))
        source, target = draw(st.permutations([rows[i], rows[i + 1]]))
        target.insert(draw(st.integers(0, width)),
                      source.pop(draw(st.integers(0, width - 1))))
    lines = [",".join(next(labels) for _ in range(width + 1))]
    lines += [",".join([next(labels), *row]) for row in rows]
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        lines.insert(at, "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


@given(integer_csv_texts(), st.sampled_from([1, 2, 7, 30, 2 ** 14]))
@settings(max_examples=examples(500), deadline=None)
def test_parse_csv_reads_integer_csv_as_the_per_cell_loop(text, block):
    with unittest.mock.patch.object(infodiv.io, "_BLOCK_CELLS", block):
        assert _parsed(parse_csv, text) == _parsed(reference_parse_csv, text)


def _no_csv_reader(handle):
    raise AssertionError("digit-only CSV reached csv.reader")


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_parse_csv_reads_digit_cells_without_loadtxt(monkeypatch, newline):
    text = ("x,c2,c1\nr2,007,123456789012345\n\nr1,0,9\n"
            "r10,999999999999999,000000000000001\n").replace("\n", newline)
    want = _parsed(reference_parse_csv, text)
    monkeypatch.setattr(np, "loadtxt", _no_loadtxt)
    monkeypatch.setattr(infodiv.io, "_read_rows", _no_csv_reader)
    assert _parsed(parse_csv, text) == want
    # Quoted text does reach csv.reader.
    with pytest.raises(AssertionError, match="reached csv.reader"):
        parse_csv(io.StringIO('x,"a"\nr,1\n'))


def _routes(monkeypatch):
    """The calls parse_csv makes to csv.reader, one "csv" each."""
    called = []
    read_rows = infodiv.io._read_rows

    def spy(*args, **kwargs):
        called.append("csv")
        return read_rows(*args, **kwargs)
    monkeypatch.setattr(infodiv.io, "_read_rows", spy)
    return called


# Cells one step from digit-only: `_digit_cells` declines each, and
# csv.reader and `float` read the text.
@pytest.mark.parametrize("cell, routes", [
    ("+1", ["csv"]), (" 1", ["csv"]), ("1.0", ["csv"]), ("1e0", ["csv"]),
    ("-0", ["csv"]), ("1234567890123456", ["csv"]), ("", ["csv"]),
    ("\u0661", ["csv"])])
def test_parse_csv_sends_near_digit_cells_to_the_old_routes(
        monkeypatch, cell, routes):
    text = f"x,a,b\nr,1,{cell}\ns,2,3\n"
    want = _parsed(reference_parse_csv, text)
    called = _routes(monkeypatch)
    assert _parsed(parse_csv, text) == want
    assert called == routes
    if cell == "-0":
        assert np.signbit(parse_csv(io.StringIO(text)).values[0, 1])


def _digit_csv(rng, n_rows, n_cols):
    """A count CSV of 1- to 15-digit cells, a third of them zero-padded."""
    widths = rng.integers(1, 16, n_rows * n_cols).tolist()
    cells = [str(int(rng.integers(0, 10 ** w))).zfill(0 if k % 3 else w)
             for k, w in enumerate(widths)]
    lines = [",".join(["x", *(f"c{j}" for j in range(n_cols))])]
    for i in range(n_rows):
        lines.append(",".join([f"r{i}", *cells[i * n_cols:(i + 1) * n_cols]]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("last", ["", "1.5"])
def test_parse_csv_block_size_does_not_change_the_result(rng, monkeypatch,
                                                         last):
    # 60 rows of 300 cells, 162 KB: five blocks at the default size; a
    # "1.5" as the last cell sends the text to csv.reader only in the last.
    text = _digit_csv(rng, 60, 300)
    if last:
        text = text[:text.rindex(",") + 1] + last + "\n"
    want = _parsed(reference_parse_csv, text)
    called = _routes(monkeypatch)
    for block in (1, 7, infodiv.io._BLOCK_CELLS):
        monkeypatch.setattr(infodiv.io, "_BLOCK_CELLS", block)
        assert _parsed(parse_csv, text) == want
    assert called == ["csv"] * 3 * bool(last)


@pytest.mark.parametrize("route", ["digits", "csv"])
@pytest.mark.parametrize("shuffled", ["none", "rows", "columns", "both"])
def test_parse_csv_sorts_shuffled_labels(rng, monkeypatch, route, shuffled):
    # Written in shuffled label order, read back sorted by either route;
    # a quoted corner cell sends the text to csv.reader.
    values = rng.integers(0, 1000, (30, 12))
    values[:, 0] += 1
    rows = [f"r{i:02d}" for i in range(30)]
    cols = [f"c{j:02d}" for j in range(12)]
    r = rng.permutation(30) if shuffled in ("rows", "both") else range(30)
    c = rng.permutation(12) if shuffled in ("columns", "both") else range(12)
    quote = '"{}"'.format if route == "csv" else str
    text = "\n".join([",".join([quote("x"), *(cols[j] for j in c)])] + [
        ",".join([rows[i], *(str(values[i, j]) for j in c)]) for i in r])
    called = _routes(monkeypatch)
    m = parse_csv(io.StringIO(text))
    assert called == ["csv"] * (route == "csv")
    assert m.row_labels == tuple(rows)
    assert m.col_labels == tuple(cols)
    assert m.values.tolist() == values.tolist()


def test_csv_round_trip(rng):
    m = random_matrix(rng)
    again = parse_csv(io.StringIO(write_csv(m)))
    assert again.row_labels == m.row_labels
    assert again.col_labels == m.col_labels
    assert again.values.tolist() == m.values.tolist()


def test_format_number():
    assert format_number(1.0) == "1.0"
    assert format_number(0.0) == "0.0"
    assert format_number(-0.0) == "0.0"
    assert format_number(0.5) == "0.5"
    assert len(format_number(1 / 3).replace("0.", "")) == 12
    # Integers are rounded to 12 significant digits like any other value;
    # ".0" marks an integer that rounds to below 1e15.
    assert format_number(5000000000000.0) == "5000000000000.0"
    assert format_number(123456789012345.0) == "123456789012000.0"
    assert format_number(-123456789012345.0) == "-123456789012000.0"
    assert format_number(999999999999999.0) == "1000000000000000"
    assert format_number(1e15) == "1000000000000000"
    # ".0" goes on every result that is an integer below 1e15, whether or
    # not the double is one.
    assert format_number(0.9999999999999998) == "1.0"
    assert format_number(123456789012.6) == "123456789013.0"


def test_format_number_writes_tiny_values_in_fixed_point():
    # Part of the number contract: no exponent notation, whatever the
    # magnitude, so a tiny value carries all its leading zeros.
    assert format_number(1e-300) == "0." + "0" * 299 + "1"
    assert format_number(-2.5e-300) == "-0." + "0" * 299 + "25"


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
def test_format_number_rejects_non_finite(x):
    with pytest.raises(NonFiniteValueError, match=re.escape(
            f"cannot write the non-finite number {x!r}")):
        format_number(x)
    with pytest.raises(NonFiniteValueError):
        canonical_json({"h0": [1.0, x]})


def _signed(floats):
    return st.tuples(floats, st.booleans()).map(
        lambda t: -t[0] if t[1] else t[0])


# Floats at each seam of the CSV cell writer: 13-digit numbers ending in 5
# (midpoints of the 12-digit grid), integers around 1e12-1e15, numbers
# that round up to a power of ten, numbers within 2e-11 of an integer
# relative to their size (the writer's screen cuts at 1e-11), values just
# under 1e-4, subnormals, -0.0 and random bit patterns (NaN and infinities
# among them).
SEAM_FLOATS = st.one_of(
    _signed(st.builds(lambda m, e: float(f"{10 * m + 5}e{e}"),
                      st.integers(10 ** 11, 10 ** 12 - 1),
                      st.integers(-30, 5))),
    _signed(st.integers(10 ** 11, 10 ** 15 + 10 ** 4).map(float)),
    _signed(st.builds(lambda n, d, e: float(f"{'9' * n}{d}e{e}"),
                      st.integers(11, 14), st.integers(5, 9),
                      st.integers(-28, 3))),
    _signed(st.builds(lambda k, f: k * (1 + f), st.integers(1, 10 ** 11),
                      st.floats(-2e-11, 2e-11))),
    _signed(st.floats(5e-5, 1e-4)),
    _signed(st.integers(1, 2 ** 53).map(lambda k: k * 5e-324)),
    st.just(-0.0),
    st.integers(0, 2 ** 64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.floats(),
)
LABELS = st.lists(st.text(",\"\r\n a", max_size=3), min_size=16, max_size=16)


@given(st.lists(SEAM_FLOATS, min_size=1, max_size=16), st.integers(1, 4),
       LABELS, LABELS)
@settings(max_examples=examples(300), deadline=None)
def test_write_csv_matches_the_decimal_reference(xs, width, rows, cols):
    values = np.array(xs + [1.0] * (-len(xs) % width)).reshape(-1, width)
    rows, cols = tuple(rows[:len(values)]), tuple(cols[:width])
    matrix = LabeledMatrix(rows, cols, values)
    try:
        want = reference_write_csv(rows, cols, values)
    except NonFiniteValueError as exc:
        with pytest.raises(NonFiniteValueError, match=re.escape(str(exc))):
            write_csv(matrix)
        return
    assert write_csv(matrix) == want


@pytest.mark.parametrize("x, text", [
    # Rounds to the integer 1e12, which takes ".0"; "{:.12g}" gives 1e+12.
    (999999999999.53, "1000000000000.0"),
    (999999999999.6, "1000000000000.0"),
    (9.9999999999996, "10.0"),  # rounds to the integer 10
    # The double is exactly 1234567890.125, a tie: rounded to even.
    (1234567890.125, "1234567890.12"),
    # The double lies below the midpoint 0.1000000000005 that its repr
    # shows, so it rounds down.
    (0.1000000000005, "0.1"),
    # The double lies below the midpoint 0.9999999999995, so it rounds
    # down, short of 1.
    (0.9999999999995, "0.999999999999"),
    (5e-05, "0.00005"),
    (9.999999999999999e-05, "0.0001"),
    (-0.0, "0.0"),
    (999999999999.0, "999999999999.0"),
    (1e12, "1000000000000.0"),
    (123456789012345.0, "123456789012000.0"),
])
def test_csv_cells_at_the_seams(x, text):
    assert reference_format_number(x) == format_number(x) == text
    labels = ("a",)
    assert write_csv(LabeledMatrix(labels, labels, np.array([[x]]))) == \
        similarity_csv(SimilarityMatrix(labels, np.array([[x]]))) == \
        f",a\na,{text}\n"


FINITE_FLOATS = SEAM_FLOATS.filter(math.isfinite) | \
    st.floats(allow_nan=False, allow_infinity=False)


@given(FINITE_FLOATS)
@settings(max_examples=examples(300), deadline=None)
def test_format_number_is_a_fixed_point_of_float(x):
    # The text is the 12-digit decimal nearest the double; read back, it
    # gives the double nearest that decimal, which rounds to it again.
    text = format_number(x)
    assert format_number(float(text)) == text


@given(st.lists(FINITE_FLOATS.map(abs), min_size=1, max_size=12),
       st.integers(1, 3))
@settings(max_examples=examples(300), deadline=None)
def test_write_csv_is_a_fixed_point_of_parse_csv(xs, width):
    # A last column of 1.0 keeps every row's sum positive.
    values = np.array(xs + [1.0] * (-len(xs) % width)).reshape(-1, width)
    values = np.hstack([values, np.ones((len(values), 1))])
    labels = [f"r{i:02d}" for i in range(len(values))]
    text = write_csv(build_matrix(
        labels, [f"c{j}" for j in range(values.shape[1])], values))
    assert write_csv(parse_csv(io.StringIO(text))) == text


INF, NAN = float("inf"), float("nan")


@st.composite
def repeated_values(draw):
    """A matrix whose cells repeat a few SEAM_FLOATS, 0.0 and -0.0, an
    integer, a value below 1e-4 that format_number writes, and in most
    matrices one or two of inf, -inf and NaN."""
    pool = draw(st.lists(SEAM_FLOATS, min_size=1, max_size=4)) + \
        [0.0, -0.0, 3.0, -2e-05] + \
        draw(st.lists(st.sampled_from([INF, -INF, NAN]), max_size=2))
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.sampled_from(pool), min_size=rows * width,
                          max_size=rows * width))
    return np.array(cells).reshape(rows, width)


@given(repeated_values(), LABELS)
@settings(max_examples=examples(300), deadline=None)
def test_write_csv_of_repeated_values_matches_the_decimal_reference(values,
                                                                    labels):
    rows, cols = tuple(labels[:len(values)]), tuple(labels[:values.shape[1]])
    try:
        want = reference_write_csv(rows, cols, values)
    except NonFiniteValueError as exc:
        with pytest.raises(NonFiniteValueError, match=re.escape(str(exc))):
            write_csv(LabeledMatrix(rows, cols, values))
        return
    assert write_csv(LabeledMatrix(rows, cols, values)) == want


@pytest.mark.parametrize("values, first", [
    ([[0.5, INF], [NAN, 1.0]], "inf"),
    ([[0.5, NAN], [INF, 1.0]], "nan"),
    ([[NAN, 0.5], [-INF, INF]], "nan"),
    ([[-0.5, NAN], [-INF, 1.0]], "nan"),
    ([[-0.5, -2.0], [INF, -INF]], "inf"),
    ([[-0.5, 0.0], [-INF, NAN]], "-inf"),
])
def test_csv_names_the_first_non_finite_cell_in_row_major_order(values,
                                                                first):
    labels, values = ("a", "b"), np.array(values)
    for matrix, write in [(LabeledMatrix(labels, labels, values), write_csv),
                          (SimilarityMatrix(labels, values), similarity_csv)]:
        with pytest.raises(NonFiniteValueError, match=re.escape(
                f"cannot write the non-finite number {first}")):
            write(matrix)


_SQUARE = np.array([[1.0, 0.25, -0.5], [0.25, 1.0, 1e-05],
                    [-0.5, 1e-05, 1.0]]) + np.array([[0.0], [0.0], [2.0]])


@pytest.mark.parametrize("values", [
    np.array([[5, 0, 2], [0, 7, 2], [2, 2, 9]]),
    _SQUARE.T,
    np.asfortranarray(_SQUARE),
    np.array([[1.0]]),
    np.empty((0, 0)),
], ids=["int", "transposed", "fortran", "1x1", "empty"])
def test_csv_writes_any_array_layout_as_its_values(values):
    labels = ("a", "b", "c")[:len(values)]
    want = reference_write_csv(labels, labels, values)
    assert write_csv(LabeledMatrix(labels, labels, values)) == want
    assert similarity_csv(SimilarityMatrix(labels, values)) == want


def test_parse_csv_memory_is_bounded(tmp_path):
    # A 2000 x 300 CSV of counts below 1000, read from a file: the text,
    # its bytes, the cells and one block's temporaries are what the digit
    # decoder holds at once; 10.3 MB was measured.
    values = np.random.default_rng(3).integers(0, 1000, (2000, 300))
    path = tmp_path / "counts.csv"
    path.write_text(write_csv(LabeledMatrix(
        tuple(f"r{i:04d}" for i in range(2000)),
        tuple(f"c{j:03d}" for j in range(300)), values)).replace(".0", ""))
    tracemalloc.start()
    try:
        m = parse_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(m.values, values)
    assert peak < 12 * 10 ** 6


def test_similarity_csv_memory_is_bounded():
    # An 80 x 80 Pearson matrix holds about 3200 distinct values. Their
    # texts, the index of each cell's value and the output text are what
    # the writer keeps; 660 KB was measured.
    sim = similarity_matrix(cocitation_matrix(np.random.default_rng(5), 80),
                            "pearson")
    tracemalloc.start()
    try:
        similarity_csv(sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_export_json_block():
    m = build_matrix(list("abcd"), list("wxyz"), BLOCK)
    text = export_dendrogram(divisive_cluster(m), "json")
    assert text.endswith("\n")
    assert '"global_delta":1.0' in text
    assert '"divisive":true' in text
    tree = dendrogram_from_json(text)
    assert export_dendrogram(tree, "json") == text


def test_export_json_deterministic(rng):
    m = random_matrix(rng)
    d = divisive_cluster(m)
    assert export_dendrogram(d, "json") == export_dendrogram(
        divisive_cluster(m), "json")


def test_newick_single_leaf():
    d = divisive_cluster(build_matrix(["leafy"], ["x", "y"], [[1, 2]]))
    assert export_dendrogram(d, "newick") == "(leafy:0.0);\n"


def test_newick_two_leaves():
    d = divisive_cluster(build_matrix(["a", "b"], ["x", "y"],
                                      [[2, 0], [0, 2]]))
    assert export_dendrogram(d, "newick") == "(a:1.0,b:1.0);\n"


def cumulative_leaf_heights(dend):
    out = {}

    def walk(node):
        if node.is_leaf:
            label = "+".join(sorted(dend.row_labels[i] for i in node.members))
            out[label] = node.height
        else:
            walk(node.children[0])
            walk(node.children[1])

    walk(dend.root)
    return out


def test_newick_branch_lengths_sum_to_heights(rng):
    for _ in range(10):
        m = random_matrix(rng, max_rows=6)
        d = divisive_cluster(m, ClusterOptions(stop_rule="full"))
        text = export_dendrogram(d, "newick")
        # Independent check via a tiny Newick reader.
        expected = cumulative_leaf_heights(d)
        parsed = parse_newick_depths(text)
        for name, h in expected.items():
            assert parsed[name] == pytest.approx(h, abs=1e-9)


def parse_newick_depths(s):
    """Cumulative root-to-leaf path lengths from a Newick string."""
    s = s.strip().rstrip(";")
    pos = 0

    def read_length():
        nonlocal pos
        if pos >= len(s) or s[pos] != ":":
            return 0.0
        pos += 1
        start = pos
        while pos < len(s) and s[pos] not in "(),":
            pos += 1
        return float(s[start:pos])

    def parse_elem():
        nonlocal pos
        if s[pos] == "(":
            pos += 1
            merged = {}
            while True:
                merged.update(parse_elem())
                if s[pos] == ",":
                    pos += 1
                    continue
                assert s[pos] == ")"
                pos += 1
                break
            length = read_length()
            return {k: v + length for k, v in merged.items()}
        start = pos
        while s[pos] != ":":
            pos += 1
        name = s[start:pos]
        return {name: read_length()}

    return parse_elem()


def test_dot_export():
    m = build_matrix(list("abcd"), list("wxyz"), BLOCK)
    text = export_dendrogram(divisive_cluster(m), "dot")
    assert text.startswith("digraph")
    assert 'label="1.0"' in text
    d2 = divisive_cluster(build_matrix(["a", "b"], ["x", "y"],
                                       [[1, 1], [1, 1]]),
                          ClusterOptions(stop_rule="full"))
    assert "style=dashed" in export_dendrogram(d2, "dot")


def test_render_text():
    m = build_matrix(list("abcd"), list("wxyz"), BLOCK)
    out = render_dendrogram(divisive_cluster(m), "text")
    assert "a+b" in out and "c+d" in out
    assert "bits" in out
    single = divisive_cluster(build_matrix(["only"], ["x", "y"], [[1, 2]]))
    assert "only" in render_dendrogram(single, "text")


def test_render_text_marks_nondivisive():
    d = divisive_cluster(build_matrix(["a", "b"], ["x", "y"],
                                      [[1, 1], [1, 1]]),
                         ClusterOptions(stop_rule="full"))
    out = render_dendrogram(d, "text")
    assert "cut line" in out


def test_render_svg():
    m = build_matrix(list("abcd"), list("wxyz"), BLOCK)
    out = render_dendrogram(divisive_cluster(m), "svg")
    assert out.startswith("<svg") and out.rstrip().endswith("</svg>")
    assert "cumulative bits" in out
    d2 = divisive_cluster(build_matrix(["a", "b"], ["x", "y"],
                                       [[1, 1], [1, 1]]),
                          ClusterOptions(stop_rule="full"))
    assert "stroke-dasharray" in render_dendrogram(d2, "svg")


def test_similarity_csv_layout():
    m = build_matrix(["a", "b"], ["a", "b"], [[2, 0], [0, 2]])
    text = similarity_csv(similarity_matrix(m, measure="cosine"))
    lines = text.strip().split("\n")
    assert lines[0] == ",a,b"
    assert lines[1] == "a,1.0,0.0"


@pytest.mark.parametrize("doc, message", [
    ('{"tree":{"members":[],"height":0.0}}',
     "document: missing field 'labels'"),
    ('{"labels":["a",1],"tree":{}}',
     "document.labels: every label must be a string"),
    ('{"labels":["a"],"tree":{"members":["a"],"height":"0"}}',
     "tree.height: expected a finite number >= 0"),
    ('{"labels":["a"],"tree":{"members":["a"],"height":NaN}}',
     "tree.height: expected a finite number >= 0"),
    ('{"labels":["a"],"tree":{"members":["a"],"height":1' + "0" * 400 + '}}',
     "tree.height: expected a finite number >= 0"),
    ('{"labels":["a","b"],"tree":{"members":["a","b"],"height":0.0,'
     '"children":[{"members":["a"],"height":0.0}]}}',
     "tree.children: expected 2 nodes, got 1"),
    ('{"labels":["a","b"],"tree":{"members":["a","b"],"height":0.0,'
     '"children":[{"members":["a"],"height":0.0},'
     '{"members":["b"],"height":0.0}]}}',
     "tree: missing field 'split'"),
    ('{"labels":["a","b"],"tree":{"members":["a","b"],"height":0.0,'
     '"split":{"h_aggregate":1,"h_left":0,"h_right":0,"local_h0":1,'
     '"global_delta":1,"divisive":1},'
     '"children":[{"members":["a"],"height":1.0},'
     '{"members":["b"],"height":1.0}]}}',
     "tree.split.divisive: expected true or false"),
    ('{"labels":["a","b"],"tree":{"members":["a","b"],"height":0.0,'
     '"split":{},"children":[{"members":["a"],"height":1.0},[]]}}',
     "tree.children[1]: expected an object"),
    # A descendant's fields are checked before its parent's split numbers.
    ('{"labels":["a","b"],"tree":{"members":["a","b"],"height":0.0,'
     '"split":{"h_aggregate":1,"h_left":-1,"h_right":0,"local_h0":1,'
     '"global_delta":1,"divisive":true},'
     '"children":[{"members":["a"],"height":1.0},'
     '{"members":["zz"],"height":1.0}]}}',
     "tree.children[1].members: unknown label 'zz'"),
    ('{"labels":["a","b","a"],"tree":{}}',
     "document.labels: repeated label 'a'"),
    ('{"labels":["a","b"],"tree":{"members":["a","b","a"],"height":0.0}}',
     "tree.members: repeated label 'a'"),
    ('{"labels":["a","b","c"],"tree":{"members":["a","b"],"height":0.0}}',
     "tree.members: the root must hold every label"),
    ('{"labels":["a","b"],"tree":{"members":["a","b"],"height":0.0,'
     '"split":{},"children":[{"members":["a"],"height":1.0},'
     '{"members":["a"],"height":1.0}]}}',
     "tree.children: their members must partition tree.members"),
    # The children's own fields come first, then the partition, then the
    # split's numbers.
    ('{"labels":["a","b","c"],"tree":{"members":["a","b","c"],'
     '"height":0.0,"split":{},"children":['
     '{"members":["a","b"],"height":1.0,"split":{},"children":['
     '{"members":["a"],"height":1.0},{"members":["a","a"],"height":1.0}]},'
     '{"members":["c"],"height":1.0}]}}',
     "tree.children[0].children[1].members: repeated label 'a'"),
    ('{"labels":["a","b","c"],"tree":{"members":["a","b","c"],'
     '"height":0.0,"split":{},"children":['
     '{"members":["a","b"],"height":1.0},{"members":["b"],"height":1.0}]}}',
     "tree.children: their members must partition tree.members"),
    ('{"labels":[],"tree":{"height":0,"members":[]}}',
     "document.labels: expected at least one label"),
    ('{"labels":["a","b"],"tree":{"members":["a","b"],"height":5.0,'
     '"split":{"h_aggregate":1,"h_left":0,"h_right":0,"local_h0":1,'
     '"global_delta":1,"divisive":true},'
     '"children":[{"members":["a"],"height":0.0},'
     '{"members":["b"],"height":0.0}]}}',
     "tree.height: the root must be at height 0"),
    # The chain rule is checked after the split's numbers.
    ('{"labels":["a","b","c"],"tree":{"members":["a","b","c"],'
     '"height":0.0,"split":{"h_aggregate":1,"h_left":0.5,"h_right":0,'
     '"local_h0":0.5,"global_delta":0.5,"divisive":true},"children":['
     '{"members":["a","b"],"height":0.5,"split":{"h_aggregate":1,'
     '"h_left":0,"h_right":0,"local_h0":1,"global_delta":0.25,'
     '"divisive":true},"children":[{"members":["a"],"height":0.75},'
     '{"members":["b"],"height":0.7500001}]},'
     '{"members":["c"],"height":0.5}]}}',
     "tree.children[0].children[1].height: expected "
     "tree.children[0].height + global_delta"),
    ('{"labels":["a","b"],"tree":{"members":["a","b"],"height":0.0,'
     '"split":{"h_aggregate":1,"h_left":-1,"h_right":0,"local_h0":1,'
     '"global_delta":1,"divisive":true},'
     '"children":[{"members":["a"],"height":0.0},'
     '{"members":["b"],"height":0.0}]}}',
     "tree.split.h_left: expected a finite number >= 0"),
], ids=["no-labels", "label-type", "height-string", "height-nan",
        "height-huge-int", "one-child", "no-split", "divisive-type",
        "child-type", "child-before-split", "repeated-label",
        "repeated-member", "root-short", "children-overlap",
        "member-before-partition", "partition-before-split", "labels-empty",
        "root-height", "child-height", "split-before-child-height"])
def test_dendrogram_from_json_names_the_bad_field(doc, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        dendrogram_from_json(doc)


SQUARE = build_matrix(["a", "b"], ["a", "b"], [[2, 0], [0, 2]])
TREE = divisive_cluster(SQUARE)


@pytest.mark.parametrize("call, message", [
    (lambda: ClusterOptions(stop_rule="half"), "unknown stop_rule: 'half'"),
    (lambda: divisive_cluster(SQUARE, method="random"),
     "unknown method: 'random'"),
    (lambda: extract_clusters(TREE, height=-1.0),
     "cut height must be >= 0, got -1.0"),
    (lambda: extract_clusters(TREE, height=float("nan")),
     "cut height must be >= 0, got nan"),
    (lambda: extract_clusters(TREE, height="1"),
     "cut height must be >= 0, got '1'"),
    (lambda: similarity_matrix(SQUARE, measure="spearman"),
     "unknown measure: 'spearman'"),
    (lambda: similarity_matrix(SQUARE, diagonal_mode="skip"),
     "unknown diagonal_mode: 'skip'"),
    (lambda: export_dendrogram(TREE, "png"), "unknown export format: 'png'"),
    (lambda: render_dendrogram(TREE, "png"), "unknown render format: 'png'"),
], ids=["stop-rule", "method", "cut-negative-height", "cut-nan-height",
        "cut-string-height", "measure", "diagonal-mode", "export-format",
        "render-format"])
def test_bad_option_value_raises_invalid_input(call, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)) as exc:
        call()
    assert isinstance(exc.value, ValueError)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) |
    st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20)


@given(JSON_VALUES, st.sampled_from([None, 0, 2]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_scan_json_reads_what_json_loads_reads(value, indent, ascii_only):
    text = json.dumps(value, indent=indent, ensure_ascii=ascii_only)
    assert repr(_scan_json(text)) == repr(json.loads(text))


@pytest.mark.parametrize("text", ["", "[1,]", '{"a"}', '{"a":1,}', "[1 2]",
                                  "{1:2}", "01", '"abc', "[-]", '{"a":1]',
                                  "tru", "1" * 5000])
def test_scan_json_rejects_what_json_loads_rejects(text):
    with pytest.raises(ValueError) as want:
        json.loads(text)
    with pytest.raises(ValueError) as got:
        _scan_json(text)
    if isinstance(want.value, json.JSONDecodeError):
        assert str(got.value) == str(want.value)


def test_scan_json_reads_any_depth():
    text = "[" * 5000 + '{"a":[]}' + "]" * 5000
    value = _scan_json(text)
    for _ in range(5000):
        (value,) = value
    assert value == {"a": []}


# Labels that exercise every escaping rule, mixed with arbitrary text.
LABEL = st.text(st.one_of(st.sampled_from(list(" _'\"\\<&>(),:;[]+\n\t\x00")),
                          st.characters()), max_size=6)


def _xml_char(c):
    o = ord(c)
    return c in "\t\n" or 0x20 <= o <= 0xD7FF or 0xE000 <= o <= 0xFFFD or \
        o >= 0x10000


def test_not_xml_class_matches_the_xml_char_production():
    # Reference: the complement of XML 1.0's Char production.
    every = "".join(map(chr, range(0x110000)))
    reference = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd"
                           "\U00010000-\U0010ffff]")
    assert _NOT_XML.sub("\ufffd", every) == reference.sub("\ufffd", every)


def _newick_leaves(text):
    leaves = re.finditer(r"[(,]('(?:[^']|'')*'|[^\s()\[\]':;,]*):", text)
    return [m[1][1:-1].replace("''", "'") if m[1].startswith("'") else m[1]
            for m in leaves]


@given(st.lists(LABEL, min_size=1, max_size=5, unique=True))
@settings(max_examples=200, deadline=None)
def test_exports_are_valid_for_any_label(labels):
    m = build_matrix(labels, ["x", "y"],
                     [[i + 1, 1] for i in range(len(labels))])
    d = divisive_cluster(m, ClusterOptions(stop_rule="full"))

    svg = ET.fromstring(render_dendrogram(d, "svg"))
    texts = [t.text or ""
             for t in svg.iter("{http://www.w3.org/2000/svg}text")]
    for lab in labels:
        if all(map(_xml_char, lab)):
            assert lab in texts

    dot = export_dendrogram(d, "dot")
    names = [re.sub(r"\\(.)", r"\1", t, flags=re.S) for t in re.findall(
        r'\n  n\d+ \[label="((?:[^"\\]|\\.)*)"\];', dot, flags=re.S)]
    assert len(names) == 2 * len(labels) - 1
    assert set(labels) <= set(names)

    assert sorted(_newick_leaves(export_dendrogram(d, "newick"))) == \
        sorted(labels)

    text = export_dendrogram(d, "json")
    assert export_dendrogram(dendrogram_from_json(text), "json") == text


def test_newick_quotes_labels_that_need_it():
    m = build_matrix(["a b", "a_b", "o'k", "plain"], ["x", "y"],
                     [[1, 1], [1, 2], [1, 3], [1, 4]])
    text = export_dendrogram(divisive_cluster(m, ClusterOptions(
        stop_rule="full")), "newick")
    assert "'a b':" in text and "'a_b':" in text and "'o''k':" in text
    assert "plain:" in text
