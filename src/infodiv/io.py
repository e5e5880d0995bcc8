"""CSV ingestion and writing, canonical dendrogram exports, and their JSON
reader (`dendrogram_from_json` on `load_json`). The drawings are in `render`.

Numbers in all text formats are written with 12 significant digits, rounded
half away from zero, as `format_number` defines, so golden files are
byte-exact across platforms and runs. JSON export uses sorted keys and a
trailing newline for the same reason. Row and column labels are sorted
lexicographically at ingestion, which makes clustering output independent
of the input row order.

The CSV reader sends plain text to numpy's C reader in one call, and
everything else through `csv.reader` and `float` (see `parse_csv`).

The CSV writer screens a whole matrix with numpy in one pass, then writes
it a row at a time. Each cell is written by Python's "{:.12g}" where that
provably gives format_number's text, and by format_number itself where
the screens say it might not: -0.0, values below 1e-4 or from 1e11 up,
non-finite values, and 13-digit ties (see `_screens`).
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
from .matrix import LabeledMatrix, build_matrix
from .similarity import SimilarityMatrix

_CTX = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_UP)
_NEWICK_PLAIN = re.compile(r"[^\s()\[\]':;,_]*")
# The fields of an export's "split" object and their kinds for `_field`,
# in the order `dendrogram_from_json` checks them.
_SPLIT_FIELDS = {"h_aggregate": float, "h_left": float, "h_right": float,
                 "local_h0": float, "global_delta": float, "divisive": bool}
_SPLIT_KEYS = sorted(_SPLIT_FIELDS)  # the order an export writes them in


def format_number(x: float) -> str:
    """Decimal rendering at 12 significant digits, half away from zero, in
    fixed-point notation; an integer that rounds to below 1e15 keeps ".0".
    NaN and infinities have no such rendering: NonFiniteValueError."""
    if not math.isfinite(x):
        raise NonFiniteValueError(f"cannot write the non-finite number "
                                  f"{float(x)!r}")
    d = _CTX.create_decimal(repr(float(x))).normalize(_CTX)
    if x == int(x) and abs(d) < 10 ** 15:
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

    Plain text, with no quote, NUL, lone carriage return or ASCII
    separator (\\x1c-\\x1f), goes to numpy's C reader, which reads each
    cell as `float` does or rejects it (see `_plain_cells`). Any other
    text, and any text that reader rejects, goes through `csv.reader` and
    `float` one cell at a time, which also names the first bad cell.
    """
    if hasattr(text_or_path, "read"):
        text = _read(text_or_path)
    else:
        with open(text_or_path, newline="", encoding="utf-8") as handle:
            text = _read(handle)
    row_labels, col_labels, cells = _plain_cells(text) or \
        _row_cells(_read_rows(io.StringIO(text, newline="")))
    # Free the text: from here on at most two copies of the values are
    # alive, the sorted one and build_matrix's.
    del text
    r_order = sorted(range(len(row_labels)), key=row_labels.__getitem__)
    c_order = sorted(range(len(col_labels)), key=col_labels.__getitem__)
    cells = cells[np.ix_(r_order, c_order)]
    return build_matrix([row_labels[i] for i in r_order],
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


# Characters that keep a text off numpy's reader: the quote, which only
# csv.reader reads; NUL, which csv.reader rejects before Python 3.11; and
# the ASCII separators, which numpy strips off a number as whitespace and
# `float` does not.
_NOT_PLAIN = '"\0\x1c\x1d\x1e\x1f'


def _plain_cells(text: str):
    """(row labels, column labels, cells) as `_row_cells` gives them for
    csv.reader's rows of `text`, read by numpy's C reader in one call; None
    for text where that might not give the same, and for text it rejects.

    Without quotes, NUL or a carriage return outside "\\r\\n", csv.reader's
    rows are the non-blank lines split at every comma. numpy strips Unicode
    whitespace off a cell and reads the rest with PyOS_string_to_double,
    the routine `float` calls after stripping the same whitespace (all
    but the separators \\x1c-\\x1f, which are not plain) and dropping
    underscores. So numpy reads the double `float` reads, or rejects the
    cell: one `float` rejects too, or one only `float` reads, such as
    "1_0" or non-ASCII digits.
    """
    if any(c in text for c in _NOT_PLAIN):
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    lines = [line for line in text.split("\n") if line]
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    commas, body = lines[0].count(","), lines[1:]
    if commas == 0 or any(line.count(",") != commas for line in body):
        return None
    try:
        cells = np.loadtxt(body, dtype=float, comments=None, delimiter=",",
                           usecols=range(1, commas + 1), ndmin=2)
    except ValueError:
        return None
    return ([line[:line.index(",")].strip() for line in body],
            [c.strip() for c in lines[0].split(",")[1:]], cells)


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


# The floats nearest 10^k, k = -4 .. 11. Those below 1 lie just above
# 10^k, so a float is at least 10^k exactly when it is at least its entry,
# and searchsorted(side="right") gives each cell's decade exactly: i for
# [10^(i-5), 10^(i-4)).
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 12)])
# 10^(17-i), exact in binary: it scales a cell of decade i to 13 digits
# before the point.
_TO_13_DIGITS = np.array([float(f"1e{17 - i}") for i in range(17)])


def _screens(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the cells of `values` that "{:.12g}" writes as
    format_number does: the integers, once ".0" is appended, and the
    other cells. Every cell outside both must go to format_number.

    - An integer below 1e12 in magnitude has at most 12 digits, which
      ".12g" writes exactly and without an exponent.
    - Any other cell from 1e-4 up to below 1e11 in magnitude rounds to a
      value ".12g" writes in fixed point, without trailing zeros as
      `normalize` leaves it, unless its repr is a 13-digit midpoint of the
      12-digit grid (one ending in 5). Only there can ".12g"'s rounding
      of the binary value and format_number's half-up rounding of repr(x)
      differ: a midpoint between x and repr(x) lies in x's round-trip
      interval, where the shortest repr(x) then is that midpoint. Scaled
      to 13 digits such an x lies within 0.003 of an integer ending in 5
      (half an ulp of x plus the rounding of the scaling), so every cell
      within 0.01 of one is left out.
    - Left out too: -0.0 (written "0.0"), values below 1e-4 (".12g" takes
      an exponent), from 1e11 up, and NaN and infinities.
    """
    size = np.abs(values)
    with np.errstate(invalid="ignore"):  # trunc of a signaling NaN
        integral = (size < 1e12) & (np.trunc(values) == values) & \
            ~((values == 0) & np.signbit(values))
    decade = np.searchsorted(_DECADES, size, side="right")
    plain = (decade > 0) & (decade < len(_DECADES)) & ~integral
    scaled = np.where(plain, size, 0.0) * _TO_13_DIGITS[decade]
    nearest = np.rint(scaled)
    plain &= (np.abs(scaled - nearest) >= 0.01) | (nearest % 10 != 5)
    return integral, plain


class _Echo:
    """A file whose write returns the text it is given, so that a
    csv.writer on it returns each line it writes."""

    @staticmethod
    def write(text: str) -> str:
        return text


def _csv(row_labels, col_labels, values) -> str:
    line = csv.writer(_Echo(), lineterminator="\n").writerow
    integral, plain = _screens(values)
    lines = [line(["", *col_labels])]
    for label, row, ints, slow in zip(row_labels, values, integral,
                                      ~(integral | plain)):
        floats = row.tolist()
        cells = list(map("{:.12g}".format, floats))
        for k in np.flatnonzero(ints).tolist():
            cells[k] += ".0"
        for k in np.flatnonzero(slow).tolist():  # raises on NaN and inf
            cells[k] = format_number(floats[k])
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
