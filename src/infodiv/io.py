"""CSV ingestion and writing, canonical dendrogram exports, and their JSON
reader (`dendrogram_from_json` on `load_json`). The drawings are in `render`.

Numbers in all text formats are written as `format_number` defines: the
double's exact value rounded once to 12 significant digits, ties to even,
so golden files are byte-exact across platforms and runs. JSON export uses
sorted keys and a trailing newline for the same reason. Row and column
labels are sorted lexicographically at ingestion, which makes clustering
output independent of the input row order.

The CSV reader has two routes, each giving the doubles `float` gives:
plain text whose every cell is 1 to 15 ASCII digits is decoded exactly by
numpy, which finds the line ends, commas and digits a block of whole lines
at a time (Python only slices the labels); anything else goes through
`csv.reader` and `float` (see `parse_csv`).

The CSV writer formats each distinct value of a matrix once and builds
each row by looking up its cells' texts. "{:.12g}" rounds as format_number
does, so `_screens` only picks the values it also writes in format_number's
notation; format_number writes the rest: -0.0, values below 1e-4 or, other
than integers below 1e12, from 1e11 up, and values near an integer, which
may round to one.
"""

from __future__ import annotations

import csv
import decimal
import io
import itertools
import json
import math
import re
from typing import Iterator

import numpy as np

from .cluster import Dendrogram, DendrogramNode, SplitEvaluation
from .errors import InvalidInputError, NonFiniteValueError, ParseError
from .matrix import LabeledMatrix, _validated
from .similarity import SimilarityMatrix

_CTX = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)
_NEWICK_PLAIN = re.compile(r"[^\s()\[\]':;,_]*")
# The fields of an export's "split" object and their kinds for `_field`,
# in the order `dendrogram_from_json` checks them.
_SPLIT_FIELDS = {"h_aggregate": float, "h_left": float, "h_right": float,
                 "local_h0": float, "global_delta": float, "divisive": bool}
_SPLIT_KEYS = sorted(_SPLIT_FIELDS)  # the order an export writes them in


def format_number(x: float) -> str:
    """The exact value of the double x rounded once to 12 significant
    digits, ties to even, in fixed-point notation; a result that is an
    integer below 1e15 keeps ".0". NaN and infinities have no such
    rendering: NonFiniteValueError."""
    if not math.isfinite(x):
        raise NonFiniteValueError(f"cannot write the non-finite number "
                                  f"{float(x)!r}")
    d = _CTX.create_decimal(float(x)).normalize(_CTX)  # exact, then rounded
    if d == d.to_integral_value() and abs(d) < 10 ** 15:
        return f"{int(d)}.0"
    return format(d, "f")


def read_text(path) -> str:
    """The contents of a UTF-8 text file; ParseError if it is not UTF-8."""
    with open(path, encoding="utf-8") as handle:
        return _read(handle)


def parse_csv(text_or_path) -> LabeledMatrix:
    """Read a labeled matrix from CSV.

    First row: column labels (the corner cell is ignored). First column:
    row labels. Remaining cells: nonnegative numbers, as the built-in
    `float` reads them. Blank rows are skipped. Accepts either a path (read
    as UTF-8) or a file-like object, which is read whole and split into
    lines as a file opened with newline="" is.

    Plain text, with no quote, NUL or lone carriage return, with every row
    as wide as the header and every cell 1 to 15 ASCII digits, as in count
    data, is decoded by `_digit_cells`. Any other text goes through
    `csv.reader` and `float` one cell at a time, which also names the
    first bad cell.
    """
    if hasattr(text_or_path, "read"):
        text = _read(text_or_path)
    else:
        with open(text_or_path, newline="", encoding="utf-8") as handle:
            text = _read(handle)
    row_labels, col_labels, cells = _digit_cells(text) or \
        _row_cells(_read_rows(io.StringIO(text, newline="")))
    # Free the text. The decoded cells become the matrix's values as they
    # are; only labels out of order make a sorted copy, and the decoded
    # cells are freed once it is made.
    del text
    r_order = sorted(range(len(row_labels)), key=row_labels.__getitem__)
    c_order = sorted(range(len(col_labels)), key=col_labels.__getitem__)
    if r_order != list(range(len(r_order))) or \
            c_order != list(range(len(c_order))):
        cells = cells[np.ix_(r_order, c_order)]
    return _validated([row_labels[i] for i in r_order],
                      [col_labels[j] for j in c_order], cells)


def _read(handle) -> str:
    """All the text of a text stream; ParseError if it is not UTF-8."""
    try:
        text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not {exc.encoding} text ({exc.reason}: "
                         f"0x{exc.object[exc.start]:02x})") from None
    if not isinstance(text, str):
        raise ParseError("input is not text: open the file in text mode")
    return text


# _digit_cells decodes the lines a block of at most this many cells (twice
# as many bytes, or one line) at a time, so that its temporaries, about 40
# bytes a cell (a few index arrays and the block's bytes), stay near
# 0.6 MB. The whole text at once raises the peak memory of a large read.
_BLOCK_CELLS = 2 ** 14


def _digit_cells(text: str):
    """(row labels, column labels, cells) as `_row_cells` gives them for
    csv.reader's rows of `text`, if every cell is 1 to 15 ASCII digits;
    else None.

    Without quotes, NUL (which csv.reader rejects before Python 3.11), a
    carriage return outside "\\r\\n" or a line over csv.field_size_limit()
    bytes, csv.reader's rows are the non-blank lines split at every comma.
    numpy reads the UTF-8 bytes in blocks of whole lines: it finds each
    block's line ends, then, once the cells are allocated, its commas, and
    gives the k-th line the k-th `width` of them. Every byte of every cell
    must be a digit and no width negative, so no cell runs across a line
    end: each line holds the commas it is given, whatever the block's
    comma total. Horner's rule, v = 10 v + digit, reads the digits of all
    cells at once, right-aligned, 0 before a cell's first. Every partial
    value is an integer below 10^15 < 2^53, so every step is exact in
    float64, and the result is the double the correctly rounded `float`
    reads.
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    text = text.lstrip("\n")
    data = text.encode("utf-8", "surrogatepass")
    if not data.endswith(b"\n"):
        data += b"\n"
    head, limit = data.find(b"\n"), csv.field_size_limit()
    header = data[:head].decode("utf-8", "surrogatepass")
    width = header.count(",")
    if width == 0 or head > limit or head + 1 == len(data):
        return None
    # Blocks of whole lines, of 2 * _BLOCK_CELLS bytes at most (a cell and
    # its comma take two) or of one line, each with its lines' ends.
    buf, blocks, lo, n = np.frombuffer(data, np.uint8), [], head + 1, 0
    while lo < len(data):
        hi = len(data) if len(data) - lo <= 2 * _BLOCK_CELLS else \
            data.rfind(b"\n", lo, lo + 2 * _BLOCK_CELLS) + 1 or \
            data.find(b"\n", lo) + 1
        stops = (buf[lo:hi] == 10).nonzero()[0]  # b"\n"
        if hi - lo > limit + 1 and \
                np.diff(stops, prepend=-1).max() > limit + 1:
            return None
        blocks.append((lo, stops))
        n, lo = n + len(stops), hi
    cells, labels, ascii_text = np.empty((n, width)), [], text.isascii()
    for lo, stops in blocks:
        digits = buf[lo:lo + stops[-1]] - 48  # b"0"; counted from `lo`
        commas = (digits == 252).nonzero()[0]  # b","
        if len(commas) != len(stops) * width:
            if b"\n\n" in data:  # blank lines, which csv.reader skips
                return _digit_cells(re.sub("\n+", "\n", text))
            return None
        # A cell ends before the next comma or its line's end. A negative
        # width is past 15 as an unsigned number; an empty cell's last
        # digit is its own comma.
        lasts = np.empty_like(commas)
        np.subtract(commas[1:], 1, out=lasts[:-1])
        np.subtract(stops, 1, out=lasts[width - 1::width])
        widths = lasts - commas
        most = int(np.maximum.reduce(widths.view(np.uint64)))
        if not 1 <= most <= 15:
            return None
        values = cells[len(labels):len(labels) + len(stops)].reshape(-1)
        for shift in range(most - 1, -1, -1):
            # The digit `shift` places before each cell's last, 0 where the
            # cell is shorter; "clip" keeps such a position in the block.
            digit = digits.take(lasts - shift if shift else lasts,
                                mode="clip")
            if shift:
                digit *= widths > shift
            if shift == most - 1:
                values[:] = top = digit
            else:
                np.maximum(top, digit, out=top)
                values *= 10
                values += digit
        if np.maximum.reduce(top) > 9:
            return None
        # A label runs from the line break before it, which strip() removes,
        # to its line's first comma. In ASCII a byte's position is its
        # character's.
        bounds = zip([0, *stops.tolist()], commas[::width].tolist())
        if ascii_text:
            block = text[lo:lo + stops[-1]]
            labels += [block[s:f].strip() for s, f in bounds]
        else:
            block = data[lo:lo + stops[-1]]
            labels += [block[s:f].decode("utf-8", "surrogatepass").strip()
                       for s, f in bounds]
    return labels, [c.strip() for c in header.split(",")[1:]], cells


def _row_cells(rows: list[list[str]]):
    """(row labels, column labels, cells) of csv.reader's rows, the cells
    read by `float`; ParseError naming the first bad row or cell."""
    if not rows:
        raise ParseError("empty CSV input")
    header, body = rows[0], rows[1:]
    width = len(header)
    if width < 2:
        raise ParseError("header must contain at least one column label")
    col_labels = [c.strip() for c in header[1:]]
    if not body:
        raise ParseError("CSV contains no data rows")

    # All cells in one pass, in row-major order; only on failure are the
    # rows walked again, to name the first bad row or cell.
    n_rows, n_cols = len(body), width - 1
    if any(len(row) != width for row in body):
        _raise_first_error(body, width, col_labels)
    try:
        cells = np.fromiter(
            map(float, itertools.chain.from_iterable(
                itertools.islice(row, 1, None) for row in body)),
            float, count=n_rows * n_cols)
    except ValueError:
        _raise_first_error(body, width, col_labels)
        raise
    return ([row[0].strip() for row in body], col_labels,
            cells.reshape(n_rows, n_cols))


def _read_rows(handle) -> list[list[str]]:
    """The non-blank rows that `csv.reader` reads from a text stream."""
    reader = csv.reader(handle)
    try:
        return [row for row in reader if row]
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def _raise_first_error(body, width: int, col_labels) -> None:
    """Raise the ParseError for the first row of the wrong width or the
    first malformed cell of `body`, in row-major order; line numbers count
    the header as line 1 and skip blank rows."""
    for lineno, row in enumerate(body, start=2):
        if len(row) != width:
            raise ParseError(
                f"line {lineno}: expected {width} cells, got {len(row)}")
        for label, cell in zip(col_labels, row[1:]):
            try:
                float(cell)
            except ValueError:
                raise ParseError(
                    f"line {lineno}, column {label!r}: "
                    f"malformed number {cell!r}") from None


def _screens(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the finite cells of `values` that "{:.12g}", which rounds
    as format_number does, writes in its notation: the integers, once
    ".0" is appended, and the other cells. Every cell outside both goes
    to format_number.

    - An integer below 1e12 in magnitude has at most 12 digits, which
      ".12g" writes exactly and without an exponent; -0.0 is left out.
    - Any other cell from 1e-4 up to below 1e11 in magnitude rounds to a
      value ".12g" writes in fixed point, without trailing zeros, unless
      it rounds to an integer r, which takes ".0". Such a cell lies within
      half a unit of r's 12th digit of r, at most 5e-12 * |r|, which is
      under |x| * 1e-11; every cell that near an integer is left out.
    """
    size = np.abs(values)
    nearest = np.rint(values)
    integral = (size < 1e12) & (nearest == values) & \
        ~((values == 0) & np.signbit(values))
    plain = (size >= 1e-4) & (size < 1e11) & \
        (np.abs(values - nearest) > size * 1e-11)
    return integral, plain


class _Echo:
    """A file whose write returns the text it is given, so that a
    csv.writer on it returns each line it writes."""

    @staticmethod
    def write(text: str) -> str:
        return text


def _csv(row_labels, col_labels, values) -> str:
    # Each distinct bit pattern is formatted once, and each row is built by
    # looking its cells' texts up. Cells with equal bits have equal text;
    # 0.0 and -0.0, equal but not in bits, both get "0.0". In a similarity
    # matrix every value off the diagonal appears twice.
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        # Raises naming the first NaN or infinity in row-major order, which
        # np.unique, ordering by bits, would not find first.
        format_number(values[~finite][0])
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(float)
    integral, plain = _screens(distinct)
    texts = np.array(list(map("{:.12g}".format, distinct.tolist())),
                     dtype=object)
    texts[integral] += ".0"
    for k in np.flatnonzero(~(integral | plain)).tolist():
        texts[k] = format_number(distinct[k])
    line = csv.writer(_Echo(), lineterminator="\n").writerow
    lines = [line(["", *col_labels])]
    for label, cells in zip(row_labels,
                            texts[inverse].reshape(values.shape).tolist()):
        # The label quoted as csv.writer quotes a field, then the cells,
        # which hold only digits, "-" and "." and need no quoting.
        lines.append(line((label, ""))[:-1] + ",".join(cells) + "\n")
    return "".join(lines)


def write_csv(matrix: LabeledMatrix) -> str:
    """Inverse of parse_csv, at 12 significant digits."""
    return _csv(matrix.row_labels, matrix.col_labels, matrix.values)


def similarity_csv(sim: SimilarityMatrix) -> str:
    """Similarity matrix as CSV, same layout as the input matrices."""
    return _csv(sim.labels, sim.labels, sim.values)


# --- canonical JSON ---------------------------------------------------------

def canonical_json(obj) -> str:
    """JSON text with sorted keys, no spaces and numbers at 12 significant
    digits, so equal data gives equal bytes. No trailing newline."""
    if isinstance(obj, dict):
        body = ",".join(f"{json.dumps(k)}:{canonical_json(v)}"
                        for k, v in sorted(obj.items()))
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, float):
        return format_number(obj)
    return json.dumps(obj)


def _unfold(items: list, expand) -> Iterator[str]:
    """The text `items` stand for, depth first and without recursion, so
    that a deep tree costs no stack: a str stands for itself, anything else
    for the items `expand(item)` lists, in order."""
    todo = items[::-1]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            yield item
        else:
            todo += reversed(expand(item))


def _tree_json(dendrogram: Dendrogram, codes: list[str]) -> str:
    """canonical_json of the export's "tree" object, with the nesting
    written without recursion. `codes` holds each row label's
    canonical_json: a node's "members" list joins the codes of its rows in
    the order of their labels' ranks, which is the order of the labels."""
    labels = dendrogram.row_labels
    order = sorted(range(len(labels)), key=labels.__getitem__)
    ranked = [codes[i] for i in order]
    rank = [0] * len(labels)
    for r, i in enumerate(order):
        rank[i] = r

    def pieces(node: DendrogramNode) -> list:
        # The keys in sorted order: children, height, members, split.
        own = (f'"height":{canonical_json(node.height)},"members":['
               + ",".join([ranked[r] for r in
                           sorted([rank[i] for i in node.members])]) + "]")
        if node.is_leaf:
            return ["{" + own + "}"]
        split = ",".join([f'"{key}":{canonical_json(getattr(node.split, key))}'
                          for key in _SPLIT_KEYS])
        return ['{"children":[', node.children[0], ",", node.children[1],
                "]," + own + ',"split":{' + split + "}}"]

    return "".join(_unfold([dendrogram.root], pieces))


def export_dendrogram(dendrogram: Dendrogram, fmt: str = "json") -> str:
    """Serialize a dendrogram as canonical JSON, Newick, or Graphviz DOT."""
    if fmt == "json":  # canonical_json of {"labels": ..., "tree": ...}
        codes = [canonical_json(label) for label in dendrogram.row_labels]
        return (f'{{"labels":[{",".join(codes)}],'
                f'"tree":{_tree_json(dendrogram, codes)}}}\n')
    if fmt == "newick":
        return _newick(dendrogram)
    if fmt == "dot":
        return _dot(dendrogram)
    raise InvalidInputError(f"unknown export format: {fmt!r}")


def dendrogram_from_json(text: str) -> Dendrogram:
    """Rebuild a Dendrogram from the canonical JSON export, however deeply
    nested. Text that is not JSON raises json.JSONDecodeError; a document
    of another shape, or a tree that is not one (a label given twice, or
    children that do not partition their node), raises ParseError naming
    the first bad field. So does a tree `cluster` cannot write: no labels,
    a root above height 0, or a child whose height is not its parent's
    plus the split's global_delta (the chain rule), to within
    1e-9 * max(1, child height)."""
    doc = load_json(text)
    labels = _field(doc, "labels", "document", list)
    if not labels:
        raise ParseError("document.labels: expected at least one label")
    index: dict[str, int] = {}
    for i, lab in enumerate(labels):
        if not isinstance(lab, str):
            raise ParseError("document.labels: every label must be a string")
        if index.setdefault(lab, i) != i:
            raise ParseError(f"document.labels: repeated label {lab!r}")

    # Depth first without recursion: an object's own fields are checked on
    # the way down, its split's numbers on the way back up, once both
    # children are built (the top two of `built`).
    built: list[DendrogramNode] = []
    todo = [(_field(doc, "tree", "document", dict), "tree", None)]
    while todo:
        d, path, inner = todo.pop()
        if inner is not None:
            members, height, s = inner
            kids = (built[-2], built[-1])
            del built[-2:]
            if tuple(sorted(kids[0].members + kids[1].members)) != members:
                raise ParseError(f"{path}.children: their members must "
                                 f"partition {path}.members")
            split = SplitEvaluation(
                left=kids[0].members, right=kids[1].members,
                **{key: _field(s, key, f"{path}.split", kind)
                   for key, kind in _SPLIT_FIELDS.items()})
            for k, kid in enumerate(kids):
                if abs(kid.height - (height + split.global_delta)) > \
                        1e-9 * max(1.0, kid.height):
                    raise ParseError(f"{path}.children[{k}].height: expected "
                                     f"{path}.height + global_delta")
            built.append(DendrogramNode(members=members, height=height,
                                        split=split, children=kids))
            continue
        members = set()
        for lab in _field(d, "members", path, list):
            if not isinstance(lab, str) or lab not in index:
                raise ParseError(f"{path}.members: unknown label {lab!r}")
            if index[lab] in members:
                raise ParseError(f"{path}.members: repeated label {lab!r}")
            members.add(index[lab])
        if path == "tree" and len(members) != len(labels):
            raise ParseError("tree.members: the root must hold every label")
        members = tuple(sorted(members))
        height = _field(d, "height", path, float)
        if path == "tree" and height != 0:
            raise ParseError("tree.height: the root must be at height 0")
        if "children" not in d:
            built.append(DendrogramNode(members=members, height=height))
            continue
        children = _field(d, "children", path, list)
        if len(children) != 2:
            raise ParseError(f"{path}.children: expected 2 nodes, "
                             f"got {len(children)}")
        s = _field(d, "split", path, dict)
        todo += [(d, path, (members, height, s)),
                 (children[1], f"{path}.children[1]", None),
                 (children[0], f"{path}.children[0]", None)]
    return Dendrogram(root=built.pop(), row_labels=tuple(labels))


def load_json(text: str):
    """The value of a JSON document of any nesting depth; JSONDecodeError
    if it is not one. The C parser of `json.loads` reads most documents
    more than ten times faster; what it does not read (nested too deep for
    its stack, an integer past `int`'s digit limit, or not JSON) goes to
    `_scan_json`."""
    try:
        return json.loads(text)
    except (RecursionError, ValueError):
        return _scan_json(text)


def _scan_json(text: str):
    """json.loads, without recursion: the arrays and objects still open
    are kept on a list, so that nesting depth costs no stack."""
    def fail(message: str, pos: int):
        raise json.JSONDecodeError(message, text, pos)

    # json.loads' reader of one value; never given a bracket, so never nests.
    scan = json.scanner.make_scanner(json.JSONDecoder())

    def skip(pos: int) -> int:
        return json.decoder.WHITESPACE.match(text, pos).end()

    def key(pos: int) -> tuple[str, int]:
        """An object key at `pos`, and where its value starts."""
        pos = skip(pos)
        if not text.startswith('"', pos):
            fail("Expecting property name enclosed in double quotes", pos)
        name, pos = scan(text, pos)
        pos = skip(pos)
        if not text.startswith(":", pos):
            fail("Expecting ':' delimiter", pos)
        return name, skip(pos + 1)

    open_: list[list] = []  # [container, key of the value being read]
    pos = skip(0)
    while True:
        # Read the value at `pos`; an opening bracket reads on inside it.
        c = text[pos:pos + 1]
        if c in ("{", "["):
            pos = skip(pos + 1)
            if text.startswith("}" if c == "{" else "]", pos):
                value, pos = ({} if c == "{" else []), pos + 1
            elif c == "{":
                name, pos = key(pos)
                open_.append([{}, name])
                continue
            else:
                open_.append([[], None])
                continue
        else:
            try:
                value, pos = scan(text, pos)
            except StopIteration:
                fail("Expecting value", pos)
            except json.JSONDecodeError:  # a malformed string
                raise
            except ValueError:  # over int's limit on decimal digits
                fail("Number too long", pos)
        # Put it in the innermost open container; close those that end.
        while True:
            pos = skip(pos)
            if not open_:
                if pos != len(text):
                    fail("Extra data", pos)
                return value
            container = open_[-1][0]
            if isinstance(container, dict):
                container[open_[-1][1]] = value
            else:
                container.append(value)
            if text.startswith(",", pos):
                pos = skip(pos + 1)
                if isinstance(container, dict):
                    open_[-1][1], pos = key(pos)
                break
            if not text.startswith("}" if isinstance(container, dict)
                                   else "]", pos):
                fail("Expecting ',' delimiter", pos)
            value, pos = open_.pop()[0], pos + 1


def _field(obj, key: str, path: str, kind: type):
    """obj[key], checked to be a JSON value of `kind`; a float must be
    finite and >= 0, as every number in an export is."""
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    if key not in obj:
        raise ParseError(f"{path}: missing field {key!r}")
    value = obj[key]
    if kind is float and isinstance(value, (int, float)) and \
            not isinstance(value, bool):
        try:
            if math.isfinite(value) and value >= 0:
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    elif kind is not float and isinstance(value, kind):
        return value
    expected = "a finite number >= 0" if kind is float else \
        {list: "a list", dict: "an object", bool: "true or false"}[kind]
    raise ParseError(f"{path}.{key}: expected {expected}")


def _newick(dendrogram: Dendrogram) -> str:
    labels = dendrogram.row_labels

    def pieces(item) -> list:
        node, branch = item
        if node.is_leaf:
            name = _newick_name(_leaf_name(labels, node))
            return [f"{name}:{format_number(branch)}"]
        delta = node.split.global_delta
        return ["(", (node.children[0], delta), ",", (node.children[1], delta),
                f"):{format_number(branch)}"]

    root = dendrogram.root
    top = [(root, 0.0)] if root.is_leaf else \
        [(root.children[0], root.split.global_delta), ",",
         (root.children[1], root.split.global_delta)]
    return "".join(_unfold(["(", *top, ");\n"], pieces))


def _leaf_name(labels, node: DendrogramNode) -> str:
    """A leaf's name: its members' labels, sorted and joined by "+"."""
    return "+".join(sorted(labels[i] for i in node.members))


def _newick_name(name: str) -> str:
    """`name` as a Newick label: as is when it holds no blank, punctuation
    or underscore (which readers turn into a blank), else single-quoted
    with each quote doubled."""
    if _NEWICK_PLAIN.fullmatch(name):
        return name
    return "'" + name.replace("'", "''") + "'"


def _dot(dendrogram: Dendrogram) -> str:
    labels = dendrogram.row_labels
    counter = itertools.count()

    def lines(item) -> list:
        """A node's line, its children's, then the edge from its parent
        (given as the text around this node's name)."""
        node, edge = item
        name = f"n{next(counter)}"
        if node.is_leaf:
            text = ", ".join(sorted(labels[i] for i in node.members))
            text = text.replace("\\", "\\\\").replace('"', '\\"')
        else:
            text = f"{len(node.members)} rows @ {format_number(node.height)} bits"
        out = [f'  {name} [label="{text}"];']
        if not node.is_leaf:
            style = "" if node.split.divisive else ", style=dashed"
            label = format_number(node.split.global_delta)
            out += [(child, (f"  {name} -> ", f' [label="{label}"{style}];'))
                    for child in node.children]
        if edge:
            out.append(name.join(edge))
        return out

    return "\n".join(["digraph dendrogram {", "  rankdir=LR;",
                      '  node [shape=box, fontname="Helvetica"];',
                      *_unfold([(dendrogram.root, None)], lines), "}"]) + "\n"
