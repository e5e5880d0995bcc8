"""Text and SVG dendrogram drawings.

The horizontal axis is linear in cumulative bits, so vertical connector
positions are exact. The boundary beyond which splits stop being divisive
is drawn as an explicit marked line; branches past it are styled (dashed in
SVG, light dashes in text).
"""

from __future__ import annotations

from .cluster import Dendrogram, DendrogramNode
from .io import format_number


def divisive_cut_height(dendrogram: Dendrogram) -> float:
    """Cumulative height of the deepest split reachable through divisive
    splits only; 0 when the root split is already non-divisive."""
    return max([0.0, *(node.height + node.split.global_delta
                       for node in dendrogram.walk(lambda n: n.split.divisive)
                       if not node.is_leaf and node.split.divisive)])


def render_dendrogram(dendrogram: Dendrogram, fmt: str = "text",
                      width: int = 60) -> str:
    if fmt == "text":
        return _render_text(dendrogram, width)
    if fmt == "svg":
        return _render_svg(dendrogram)
    raise ValueError(f"unknown render format: {fmt!r}")


def _leaf_label(dendrogram: Dendrogram, node: DendrogramNode) -> str:
    labels = dendrogram.row_labels
    return "+".join(sorted(labels[i] for i in node.members))


def _render_text(dendrogram: Dendrogram, width: int = 60) -> str:
    root = dendrogram.root
    max_h = dendrogram.max_height()
    scale = (width - 1) / max_h if max_h > 0 else 0.0

    def x_of(h: float) -> int:
        return int(round(h * scale))

    leaves: list[DendrogramNode] = dendrogram.leaves()
    rows = {id(leaf): 2 * k for k, leaf in enumerate(leaves)}
    n_lines = 2 * len(leaves) - 1 if leaves else 1
    grid = [[" "] * (width + 2) for _ in range(n_lines)]

    def hline(r: int, x0: int, x1: int, ch: str):
        for x in range(min(x0, x1), max(x0, x1) + 1):
            if grid[r][x] == " ":
                grid[r][x] = ch

    def vline(x: int, r0: int, r1: int):
        for r in range(min(r0, r1) + 1, max(r0, r1)):
            grid[r][x] = "│"
        grid[min(r0, r1)][x] = "┬" if grid[min(r0, r1)][x] == "─" else "┌"
        grid[max(r0, r1)][x] = "└"

    def draw(node: DendrogramNode, from_x: int) -> int:
        """Draws the subtree, returns its center row."""
        if node.is_leaf:
            r = rows[id(node)]
            hline(r, from_x, width - 1, "─")
            return r
        ch = "─" if node.split.divisive else "╌"
        split_x = x_of(node.height + node.split.global_delta)
        r0 = draw(node.children[0], split_x)
        r1 = draw(node.children[1], split_x)
        center = (r0 + r1) // 2
        vline(split_x, r0, r1)
        hline(center, from_x, split_x - 1 if split_x > from_x else from_x, ch)
        return center

    draw(root, 0)

    # Cut line between divisive and non-divisive territory.
    cut_x = x_of(divisive_cut_height(dendrogram))
    for r in range(n_lines):
        if grid[r][cut_x] == " ":
            grid[r][cut_x] = "┊"

    lines = ["".join(row).rstrip() for row in grid]
    # Append leaf labels at the right edge of their rows.
    for k, leaf in enumerate(leaves):
        r = rows[id(leaf)]
        lines[r] = lines[r].ljust(width + 1) + " " + \
            _leaf_label(dendrogram, leaf)

    axis = "0" + " " * (width - len(format_number(max_h)) - 1) + \
        format_number(max_h) if max_h > 0 else "0"
    lines.append("─" * width + " bits")
    lines.append(axis)
    lines.append(f"cut line (┊) at {format_number(divisive_cut_height(dendrogram))} bits")
    return "\n".join(lines) + "\n"


def _render_svg(dendrogram: Dendrogram) -> str:
    leaves = dendrogram.leaves()
    max_h = dendrogram.max_height()
    row_step, pad, plot_w = 24, 60, 480
    height = pad + row_step * max(len(leaves), 1) + 40
    scale = plot_w / max_h if max_h > 0 else 0.0

    def x_of(h: float) -> float:
        return pad + h * scale

    rows = {id(leaf): pad + row_step * k for k, leaf in enumerate(leaves)}
    parts: list[str] = []

    def line(x1, y1, x2, y2, dashed=False):
        dash = ' stroke-dasharray="5,4"' if dashed else ""
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="black"{dash}/>')

    def draw(node: DendrogramNode, from_x: float) -> float:
        if node.is_leaf:
            y = rows[id(node)]
            line(from_x, y, pad + plot_w, y)
            parts.append(
                f'<text x="{pad + plot_w + 6:.2f}" y="{y + 4:.2f}" '
                f'font-size="12">{_leaf_label(dendrogram, node)}</text>')
            return y
        dashed = not node.split.divisive
        sx = x_of(node.height + node.split.global_delta)
        y0 = draw(node.children[0], sx)
        y1 = draw(node.children[1], sx)
        line(sx, y0, sx, y1, dashed)
        cy = (y0 + y1) / 2
        line(from_x, cy, sx, cy, dashed)
        return cy

    draw(dendrogram.root, x_of(0.0))

    # Divisive cut line and axis.
    cut_x = x_of(divisive_cut_height(dendrogram))
    axis_y = pad + row_step * max(len(leaves) - 1, 0) + 24
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
