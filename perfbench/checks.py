"""Output checks for benchmark operations, run outside the timed interval.

Each check returns None when the output is correct and a one-line reason
otherwise. `reference` computes, once per corpus item, the bytes every
later run of that item must reproduce; for cluster ops in a drawing format
it also verifies the tree itself through the canonical JSON export.
"""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ET

from corpus import Op

TOL = 1e-9  # bits


def _bell(n: int) -> int:
    """Number of set partitions of n items (Bell triangle)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def input_labels(op: Op) -> list[str]:
    """Sorted row labels of the op's input matrix."""
    with open(op.argv[1], newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return sorted(r[0].strip() for r in rows[1:])


def check_dendrogram_json(text: str, labels: list[str]) -> str | None:
    """Round-trip through dendrogram_from_json and verify the heights."""
    from infodiv.io import dendrogram_from_json, export_dendrogram

    try:
        dend = dendrogram_from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"dendrogram JSON does not load: {exc!r}"
    if export_dendrogram(dend, "json") != text:
        return "dendrogram JSON does not round-trip byte-identically"
    if sorted(dend.row_labels) != labels:
        return "dendrogram labels differ from the input rows"
    if abs(dend.root.height) > TOL:
        return f"root height {dend.root.height} is not 0"
    seen: list[int] = []
    stack = [dend.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            seen.extend(node.members)
            continue
        want = node.height + node.split.global_delta
        for child in node.children:
            if abs(child.height - want) > TOL:
                return (f"child height {child.height} != parent height "
                        f"{node.height} + global_delta "
                        f"{node.split.global_delta}")
            stack.append(child)
    if sorted(seen) != list(range(len(labels))):
        return "dendrogram leaves do not partition the rows"
    return None


def _structure(fmt: str, text: str, labels: list[str]) -> str | None:
    if fmt == "newick":
        depth = 0
        for ch in text:
            depth += (ch == "(") - (ch == ")")
            if depth < 0:
                return "newick parentheses unbalanced"
        if depth or not text.endswith(";\n"):
            return "newick not terminated or unbalanced"
    elif fmt == "dot":
        if not (text.startswith("digraph") and text.endswith("}\n")):
            return "dot output is not a digraph"
    elif fmt == "svg":
        try:
            ET.fromstring(text)
        except ET.ParseError as exc:
            return f"svg is not well-formed XML: {exc}"
    missing = [lab for lab in labels if lab not in text]
    if missing:
        return f"{fmt} output misses labels {missing[:3]}"
    return None


def reference(op: Op, labels: list[str]) -> tuple[bytes | None, str | None]:
    """Expected output bytes of `op` and the reason if none can be trusted.

    Cluster ops in a drawing format are recomputed in-process; the tree is
    verified through its JSON export before being rendered in the op's
    format. For other ops the first output that passes `check` becomes
    the reference.
    """
    if op.kind != "cluster" or op.fmt == "json":
        return None, None
    from infodiv.cluster import ClusterOptions, divisive_cluster
    from infodiv.io import export_dendrogram, parse_csv
    from infodiv.render import render_dendrogram

    argv = list(op.argv)
    stop = argv[argv.index("--stop") + 1] if "--stop" in argv else "divisive"
    mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "greedy"
    dend = divisive_cluster(parse_csv(argv[1]), ClusterOptions(stop_rule=stop),
                            method=mode)
    why = check_dendrogram_json(export_dendrogram(dend, "json"), labels)
    if why:
        return None, "reference tree: " + why
    if op.fmt in ("newick", "dot"):
        text = export_dendrogram(dend, op.fmt)
    else:
        text = render_dendrogram(dend, op.fmt)
    return text.encode("utf-8"), None


def check(op: Op, data: bytes, labels: list[str]) -> str | None:
    """Semantic check of one op's output; `labels` are the input rows."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return "output is not UTF-8"
    if op.kind == "cluster":
        if op.fmt == "json":
            return check_dendrogram_json(text, labels)
        return _structure(op.fmt, text, labels)
    if op.kind == "similarity":
        return _check_similarity(text, labels)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if op.kind == "oracle":
        return _check_oracle(doc, labels)
    return _check_entropy(doc)


def _check_oracle(doc, labels: list[str]) -> str | None:
    part, root = doc["best_partition"], doc["root_bisection"]
    if root["gap"] < -TOL:
        return f"greedy beats the exhaustive bisection: gap {root['gap']}"
    if part["h0"] < root["exhaustive_h0"] - TOL:
        return "best partition scores below the best bisection"
    if sorted(lab for g in part["groups"] for lab in g) != labels:
        return "best partition does not cover the rows exactly once"
    if part["candidates_examined"] != _bell(len(labels)):
        return (f"{part['candidates_examined']} partitions examined, "
                f"expected Bell({len(labels)})")
    return None


def _check_entropy(doc) -> str | None:
    h0, h_n, h_m = doc["h0"], doc["h_n"], doc["h_m"]
    if not -TOL <= h0 <= min(h_n, h_m) + TOL:
        return f"h0 {h0} outside [0, min(h_n, h_m)]"
    if abs(h_n - (h0 + doc["h_cond"])) > TOL:
        return "h_n != h0 + h_cond"
    if abs(sum(g["p"] for g in doc["groups"].values()) - 1.0) > TOL:
        return "group weights do not sum to 1"
    return None


def _check_similarity(text: str, labels: list[str]) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    if header[1:] != labels or [r[0] for r in body] != labels:
        return "similarity labels differ from the input"
    cells = [r[1:] for r in body]
    n = len(labels)
    for i in range(n):
        if len(cells[i]) != n:
            return f"similarity row {i} has {len(cells[i])} cells"
        if float(cells[i][i]) != 1.0:
            return f"diagonal cell {i} is {cells[i][i]}"
        for j in range(i + 1, n):
            if cells[i][j] != cells[j][i]:
                return f"not symmetric at ({i}, {j})"
            if not -1.0 <= float(cells[i][j]) <= 1.0:
                return f"value {cells[i][j]} outside [-1, 1]"
    return None

