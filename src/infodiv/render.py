"""Text and SVG dendrogram drawings.

The horizontal axis is linear in cumulative bits, so vertical connector
positions are exact. The boundary beyond which splits stop being divisive
is drawn as an explicit marked line; branches past it are styled (dashed in
SVG, light dashes in text).
"""

from __future__ import annotations

import re

from .cluster import Dendrogram, DendrogramNode
from .errors import InvalidInputError
from .io import _leaf_name, format_number

_WIDTH = 60  # columns of the text drawing's plot area
# Characters XML 1.0 cannot carry, even as character references: the C0
# controls but tab, newline and carriage return, surrogates, U+FFFE, U+FFFF.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def divisive_cut_height(dendrogram: Dendrogram) -> float:
    """Cumulative height of the deepest split reachable through divisive
    splits only; 0 when the root split is already non-divisive."""
    return max([0.0, *(node.height + node.split.global_delta
                       for node in dendrogram.walk(lambda n: n.split.divisive)
                       if not node.is_leaf and node.split.divisive)])


def _post_order(dendrogram: Dendrogram, x_of) -> list:
    """(node, x of its parent's split, or x_of(0.0) at the root, x of its
    own split or None at a leaf), each node after its children, left
    subtree first: the reverse of a pre-order that visits the right
    subtree first, which needs no recursion."""
    order = []
    todo = [(dendrogram.root, x_of(0.0))]
    while todo:
        node, from_x = todo.pop()
        split_x = None if node.is_leaf else \
            x_of(node.height + node.split.global_delta)
        order.append((node, from_x, split_x))
        if split_x is not None:
            todo += [(node.children[0], split_x), (node.children[1], split_x)]
    return order[::-1]


def render_dendrogram(dendrogram: Dendrogram, fmt: str = "text") -> str:
    if fmt == "text":
        return _render_text(dendrogram)
    if fmt == "svg":
        return _render_svg(dendrogram)
    raise InvalidInputError(f"unknown render format: {fmt!r}")


def _render_text(dendrogram: Dendrogram) -> str:
    max_h = dendrogram.max_height()
    scale = (_WIDTH - 1) / max_h if max_h > 0 else 0.0

    def x_of(h: float) -> int:
        return int(round(h * scale))

    leaves: list[DendrogramNode] = dendrogram.leaves()
    # Row of each leaf; the center row of each inner node is added below.
    rows = {id(leaf): 2 * k for k, leaf in enumerate(leaves)}
    n_lines = 2 * len(leaves) - 1
    grid = [[" "] * (_WIDTH + 2) for _ in range(n_lines)]

    def hline(r: int, x0: int, x1: int, ch: str):
        for x in range(min(x0, x1), max(x0, x1) + 1):
            if grid[r][x] == " ":
                grid[r][x] = ch

    def vline(x: int, r0: int, r1: int):
        for r in range(min(r0, r1) + 1, max(r0, r1)):
            grid[r][x] = "│"
        grid[min(r0, r1)][x] = "┬" if grid[min(r0, r1)][x] == "─" else "┌"
        grid[max(r0, r1)][x] = "└"

    # Post-order, as each connector joins its children's center rows.
    for node, from_x, split_x in _post_order(dendrogram, x_of):
        if node.is_leaf:
            hline(rows[id(node)], from_x, _WIDTH - 1, "─")
            continue
        ch = "─" if node.split.divisive else "╌"
        r0, r1 = rows[id(node.children[0])], rows[id(node.children[1])]
        center = rows[id(node)] = (r0 + r1) // 2
        vline(split_x, r0, r1)
        hline(center, from_x, split_x - 1 if split_x > from_x else from_x, ch)

    # Cut line between divisive and non-divisive territory.
    cut_h = divisive_cut_height(dendrogram)
    cut_x = x_of(cut_h)
    for r in range(n_lines):
        if grid[r][cut_x] == " ":
            grid[r][cut_x] = "┊"

    lines = ["".join(row).rstrip() for row in grid]
    # Append leaf labels at the right edge of their rows.
    for leaf in leaves:
        r = rows[id(leaf)]
        lines[r] = lines[r].ljust(_WIDTH + 1) + " " + \
            _leaf_name(dendrogram.row_labels, leaf)

    axis = "0" + " " * (_WIDTH - len(format_number(max_h)) - 1) + \
        format_number(max_h) if max_h > 0 else "0"
    lines.append("─" * _WIDTH + " bits")
    lines.append(axis)
    lines.append(f"cut line (┊) at {format_number(cut_h)} bits")
    return "\n".join(lines) + "\n"


def _xml_text(text: str) -> str:
    """`text` as XML character data: &, < and > escaped, and characters
    XML cannot carry replaced by U+FFFD."""
    text = _NOT_XML.sub("\ufffd", text).replace("&", "&amp;")
    return text.replace("<", "&lt;").replace(">", "&gt;")


def _render_svg(dendrogram: Dendrogram) -> str:
    leaves = dendrogram.leaves()
    max_h = dendrogram.max_height()
    row_step, pad, plot_w = 24, 60, 480
    height = pad + row_step * len(leaves) + 40
    scale = plot_w / max_h if max_h > 0 else 0.0

    def x_of(h: float) -> float:
        return pad + h * scale

    # y of each leaf; that of each inner node's center is added below.
    rows = {id(leaf): pad + row_step * k for k, leaf in enumerate(leaves)}
    parts: list[str] = []

    def line(x1, y1, x2, y2, dashed=False):
        dash = ' stroke-dasharray="5,4"' if dashed else ""
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="black"{dash}/>')

    for node, from_x, sx in _post_order(dendrogram, x_of):
        if node.is_leaf:
            y = rows[id(node)]
            line(from_x, y, pad + plot_w, y)
            name = _xml_text(_leaf_name(dendrogram.row_labels, node))
            parts.append(
                f'<text x="{pad + plot_w + 6:.2f}" y="{y + 4:.2f}" '
                f'font-size="12">{name}</text>')
            continue
        dashed = not node.split.divisive
        y0, y1 = rows[id(node.children[0])], rows[id(node.children[1])]
        line(sx, y0, sx, y1, dashed)
        cy = rows[id(node)] = (y0 + y1) / 2
        line(from_x, cy, sx, cy, dashed)

    # Divisive cut line and axis.
    cut_x = x_of(divisive_cut_height(dendrogram))
    axis_y = pad + row_step * (len(leaves) - 1) + 24
    parts.append(
        f'<line x1="{cut_x:.2f}" y1="{pad - 16}" x2="{cut_x:.2f}" '
        f'y2="{axis_y:.2f}" stroke="red" stroke-dasharray="3,3"/>')
    line(pad, axis_y, pad + plot_w, axis_y)
    n_ticks = 5
    for t in range(n_ticks + 1):
        h = max_h * t / n_ticks if max_h > 0 else 0.0
        tx = x_of(h)
        line(tx, axis_y, tx, axis_y + 5)
        parts.append(
            f'<text x="{tx:.2f}" y="{axis_y + 18:.2f}" font-size="10" '
            f'text-anchor="middle">{format_number(round(h, 6))}</text>')
    parts.append(
        f'<text x="{pad + plot_w / 2:.2f}" y="{axis_y + 34:.2f}" '
        f'font-size="11" text-anchor="middle">cumulative bits</text>')

    body = "\n  ".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{pad + plot_w + 160}" '
            f'height="{height + 20}">\n  {body}\n</svg>\n')
