"""CSV ingestion, canonical dendrogram exports, and renderers.

Numbers in all text formats are written with 12 significant digits, rounded
half away from zero, so golden files are byte-exact across platforms and
runs. JSON export uses sorted keys and a trailing newline for the same
reason. Row and column labels are sorted lexicographically at ingestion,
which makes clustering output independent of the input row order.
"""

from __future__ import annotations

import csv
import decimal
import io as _io
import json

import numpy as np

from .cluster import Dendrogram, DendrogramNode, SplitEvaluation
from .errors import ParseError
from .matrix import LabeledMatrix, build_matrix
from .similarity import SimilarityMatrix

_CTX = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_UP)


def format_number(x: float) -> str:
    """Decimal rendering at 12 significant digits, half away from zero."""
    if x == int(x) and abs(x) < 1e15:
        return f"{int(x)}.0"
    d = _CTX.create_decimal(repr(float(x)))
    return format(d.normalize(_CTX), "f")


def parse_csv(text_or_path, zero_row_policy: str = "reject",
              sort_labels: bool = True) -> LabeledMatrix:
    """Read a labeled matrix from CSV.

    First row: column labels (the corner cell is ignored). First column:
    row labels. Remaining cells: nonnegative numbers. Accepts either a path
    or a file-like object.
    """
    if hasattr(text_or_path, "read"):
        handle = text_or_path
        rows = list(csv.reader(handle))
    else:
        with open(text_or_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    rows = [r for r in rows if r]  # tolerate trailing blank lines
    if not rows:
        raise ParseError("empty CSV input")
    header = rows[0]
    if len(header) < 2:
        raise ParseError("header must contain at least one column label")
    col_labels = [c.strip() for c in header[1:]]

    row_labels: list[str] = []
    values: list[list[float]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"line {lineno}: expected {len(header)} cells, got {len(row)}")
        row_labels.append(row[0].strip())
        parsed = []
        for colno, cell in enumerate(row[1:], start=1):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"line {lineno}, column {col_labels[colno - 1]!r}: "
                    f"malformed number {cell!r}") from None
            parsed.append(v)
        values.append(parsed)
    if not values:
        raise ParseError("CSV contains no data rows")

    arr = np.asarray(values)
    if sort_labels:
        r_order = sorted(range(len(row_labels)), key=lambda i: row_labels[i])
        c_order = sorted(range(len(col_labels)), key=lambda j: col_labels[j])
        row_labels = [row_labels[i] for i in r_order]
        col_labels = [col_labels[j] for j in c_order]
        arr = arr[np.ix_(r_order, c_order)]
    return build_matrix(row_labels, col_labels, arr, zero_row_policy)


def _csv(row_labels, col_labels, values) -> str:
    out = _io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["", *col_labels])
    for label, row in zip(row_labels, values):
        w.writerow([label, *[format_number(v) for v in row]])
    return out.getvalue()


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
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format_number(obj)
    return json.dumps(obj)


def _node_dict(node: DendrogramNode, labels) -> dict:
    d = {
        "members": sorted(labels[i] for i in node.members),
        "height": node.height,
    }
    if not node.is_leaf:
        s = node.split
        d["split"] = {
            "h_aggregate": s.h_aggregate,
            "h_left": s.h_left,
            "h_right": s.h_right,
            "local_h0": s.local_h0,
            "global_delta": s.global_delta,
            "divisive": s.divisive,
        }
        d["children"] = [_node_dict(c, labels) for c in node.children]
    return d


def export_dendrogram(dendrogram: Dendrogram, fmt: str = "json") -> str:
    """Serialize a dendrogram as canonical JSON, Newick, or Graphviz DOT."""
    if fmt == "json":
        doc = {"labels": list(dendrogram.row_labels),
               "tree": _node_dict(dendrogram.root, dendrogram.row_labels)}
        return canonical_json(doc) + "\n"
    if fmt == "newick":
        return _newick(dendrogram)
    if fmt == "dot":
        return _dot(dendrogram)
    raise ValueError(f"unknown export format: {fmt!r}")


def dendrogram_from_json(text: str) -> Dendrogram:
    """Rebuild a Dendrogram from the canonical JSON export."""
    doc = json.loads(text)
    labels = tuple(doc["labels"])
    index = {lab: i for i, lab in enumerate(labels)}

    def build(d) -> DendrogramNode:
        members = tuple(sorted(index[lab] for lab in d["members"]))
        if "children" not in d:
            return DendrogramNode(members=members, height=d["height"])
        s = d["split"]
        kids = tuple(build(c) for c in d["children"])
        split = SplitEvaluation(
            left=kids[0].members, right=kids[1].members,
            h_aggregate=s["h_aggregate"], h_left=s["h_left"],
            h_right=s["h_right"], local_h0=s["local_h0"],
            global_delta=s["global_delta"], divisive=s["divisive"])
        return DendrogramNode(members=members, height=d["height"],
                              split=split, children=kids)

    return Dendrogram(root=build(doc["tree"]), row_labels=labels)


def _newick(dendrogram: Dendrogram) -> str:
    labels = dendrogram.row_labels

    def esc(lab: str) -> str:
        return lab.replace(" ", "_").replace(",", "_").replace("(", "_") \
                  .replace(")", "_").replace(":", "_").replace(";", "_")

    def walk(node: DendrogramNode, branch: float) -> str:
        if node.is_leaf:
            if len(node.members) == 1:
                name = esc(labels[node.members[0]])
            else:
                name = esc("+".join(sorted(labels[i] for i in node.members)))
            return f"{name}:{format_number(branch)}"
        delta = node.split.global_delta
        kids = ",".join(walk(c, delta) for c in node.children)
        return f"({kids}):{format_number(branch)}"

    root = dendrogram.root
    if root.is_leaf:
        return f"({walk(root, 0.0)});\n"
    kids = ",".join(walk(c, root.split.global_delta) for c in root.children)
    return f"({kids});\n"


def _dot(dendrogram: Dendrogram) -> str:
    labels = dendrogram.row_labels
    lines = ["digraph dendrogram {", "  rankdir=LR;",
             '  node [shape=box, fontname="Helvetica"];']
    counter = [0]

    def walk(node: DendrogramNode) -> str:
        name = f"n{counter[0]}"
        counter[0] += 1
        if node.is_leaf:
            text = ", ".join(sorted(labels[i] for i in node.members))
        else:
            text = f"{len(node.members)} rows @ {format_number(node.height)} bits"
        lines.append(f'  {name} [label="{text}"];')
        if not node.is_leaf:
            style = "" if node.split.divisive else ", style=dashed"
            for child in node.children:
                cname = walk(child)
                lines.append(
                    f'  {name} -> {cname} '
                    f'[label="{format_number(node.split.global_delta)}"'
                    f'{style}];')
        return name

    walk(dendrogram.root)
    lines.append("}")
    return "\n".join(lines) + "\n"
