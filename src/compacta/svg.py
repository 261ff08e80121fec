"""Write-only SVG diagrams of a tree's interval layout.

Each tree node owns a nested interval; the diagram stacks them by depth,
root at the top.  Terminal leaves get a dot at their concentration
point, eta leaves a solid bar, splits an outline plus a dot for each
isolated point they shed.  Every coordinate is drawn from the ints
`construct` gives: a position num / 2^exp (an interval's ends from one
walk of the tree, `tree_ends`, a junk point's from `node_junk`) maps to
the floor of its exact scaling, so equal inputs give byte-equal files.
"""

from __future__ import annotations

from .construct import node_junk, tree_ends
from .trees import ETA, SPINE, SPLIT, TERMINAL, LabelledTree

WIDTH = 10000
ROW = 60
BAR = 16
MARGIN = 40

_STYLE = {
    TERMINAL: ("#ffffff", "#1f4e79"),
    ETA: ("#1f4e79", "#1f4e79"),
    SPLIT: ("#dce6f1", "#1f4e79"),
    SPINE: ("#f2f2f2", "#999999"),
}


def _x(num: int, exp: int) -> int:
    """The column of num / 2^exp: the floor of its scaling by WIDTH, which
    is the same whether or not num / 2^exp is in lowest terms."""
    return MARGIN + (num * WIDTH >> exp)


def render_tree_svg(tree: LabelledTree) -> str:
    depth = max(len(a) for a in tree.nodes)
    height = (depth + 1) * ROW + 2 * MARGIN
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {WIDTH + 2 * MARGIN} {height}">',
        f'<rect width="{WIDTH + 2 * MARGIN}" height="{height}" fill="#ffffff"/>',
    ]
    node_ends = tree_ends(tree.nodes)
    for addr, node in sorted(tree.nodes.items()):
        lo, e = ends = node_ends[addr]
        x0, x1 = _x(lo, e), _x(lo + 2, e)
        y = MARGIN + len(addr) * ROW
        fill, stroke = _STYLE[node.kind]
        out.append(
            f'<rect x="{x0}" y="{y}" width="{x1 - x0}" height="{BAR}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="2"/>'
        )
        cy = y + BAR // 2
        if node.kind == TERMINAL:
            out.append(
                f'<circle cx="{_x(lo + 1, e)}" cy="{cy}" r="5" fill="#c0392b"/>'
            )
        elif node.kind == SPLIT:
            # the seed (index 0, if the node was ever bare), then the bridges
            junk = node_junk(ends, node.r, node.ever_terminal)
            for i, (_, p, _, x) in enumerate(junk, not node.ever_terminal):
                dot = 'r="3" fill="#e67e22"' if i else 'r="4" fill="#c0392b"'
                out.append(f'<circle cx="{_x(p, x)}" cy="{cy}" {dot}/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
