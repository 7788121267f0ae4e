"""Deterministic SVG diagram of a constructed tree.

Exact combinatorics lives upstream; this module is the only place floating
point appears.  Each angle enters it as one correctly rounded integer
division, with no ``Fraction`` arithmetic: a circle point as its numerator
over its denominator, an arc midpoint as one integer ratio over twice the
arcs' common denominator.  The drawing shows the unit circle, each set's
star (dashed spokes from its circle points to their barycenter -
decoration, not tree), the tree vertices and solid edges, local degrees,
and dotted arrows for the vertices the dynamics actually moves.  Output is
byte-for-byte reproducible for a given input.
"""

from __future__ import annotations

import math
from typing import Sequence

from .angles import format_angle
from .builder import ConstructedTree, Region

_SIZE = 560.0
_CENTER = _SIZE / 2
_RADIUS = 230.0


def _text(x, y, content: str, cls: str) -> str:
    return f'<text class="{cls}" x="{x:.3f}" y="{y:.3f}">{content}</text>'


def render_svg(ct: ConstructedTree, regions: Sequence[Region]) -> str:
    """Draw the constructed tree over its circle data as an SVG document.

    Set j of ``ct.sets`` is drawn as vertex ``vj`` at the barycenter of its
    circle points, and region i of ``regions`` as vertex ``wi``.
    """
    t = ct.tree
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_SIZE)}" '
        f'height="{int(_SIZE)}" viewBox="0 0 {int(_SIZE)} {int(_SIZE)}">',
        '<style>',
        '.circle { fill: none; stroke: #888888; stroke-width: 1.2; }',
        '.star { stroke: #777777; stroke-width: 1.0; stroke-dasharray: 5 4; }',
        '.edge { stroke: #111111; stroke-width: 2.0; }',
        '.julia { fill: #111111; }',
        '.fatou { fill: #ffffff; stroke: #111111; stroke-width: 1.8; }',
        '.tau { stroke: #c04040; stroke-width: 1.4; stroke-dasharray: 2 3; '
        'fill: none; marker-end: url(#arrow); }',
        '.label { font: 13px sans-serif; fill: #202020; }',
        '.ray { font: 11px sans-serif; fill: #555555; }',
        '</style>',
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#c04040" /></marker></defs>',
        f'<circle class="circle" cx="{_CENTER:.3f}" cy="{_CENTER:.3f}" '
        f'r="{_RADIUS:.3f}" />',
    ]

    positions: dict[str, tuple[float, float]] = {}
    for j, rs in enumerate(ct.sets, start=1):
        angles = rs.angles
        units = []
        for a in angles:
            turn = 2 * math.pi * (a.numerator / a.denominator)
            units.append((math.cos(turn), math.sin(turn)))
        points = [(_CENTER + _RADIUS * c, _CENTER - _RADIUS * s) for c, s in units]
        bx = sum(x for x, _ in points) / len(points)
        by = sum(y for _, y in points) / len(points)
        positions[f"v{j}"] = (bx, by)
        if len(angles) >= 2:
            parts.extend(f'<line class="star" x1="{x:.3f}" y1="{y:.3f}" '
                         f'x2="{bx:.3f}" y2="{by:.3f}" />' for x, y in points)
        for a, (c, s) in zip(angles, units):
            ox = _CENTER + (_RADIUS + 16) * c
            oy = _CENTER - (_RADIUS + 16) * s
            parts.append(_text(ox - 9, oy + 4, format_angle(a), "ray"))

    # pull each region vertex off the circle: average its arc midpoints with
    # the barycenters of its boundary stars.  With s and e the arc's ends as
    # numerators over q, its midpoint is ((2s + span) mod 2q) / 2q, span =
    # (e - s) mod q (a whole turn when the arc is the circle minus a point).
    q = math.lcm(*(x.denominator for r in regions for arc in r.arcs for x in arc))
    for r in regions:
        points = []
        for start, end in r.arcs:
            s = start.numerator * (q // start.denominator)
            span = (end.numerator * (q // end.denominator) - s) % q or q
            mid = (2 * s + span) % (2 * q) / (2 * q)
            points.append((_CENTER + 0.84 * _RADIUS * math.cos(2 * math.pi * mid),
                           _CENTER - 0.84 * _RADIUS * math.sin(2 * math.pi * mid)))
        points.extend(positions[f"v{j}"] for j in r.boundary_sets)
        positions[f"w{r.index}"] = (
            sum(x for x, _ in points) / len(points),
            sum(y for _, y in points) / len(points))

    for a, b in t.edges:
        (x1, y1), (x2, y2) = positions[a], positions[b]
        parts.append(f'<line class="edge" x1="{x1:.3f}" y1="{y1:.3f}" '
                     f'x2="{x2:.3f}" y2="{y2:.3f}" />')

    tau, delta = t.tau, t.delta
    for v in t.vertices:
        if tau[v] == v:
            continue
        (x1, y1), (x2, y2) = positions[v], positions[tau[v]]
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        nx, ny = -(y2 - y1), (x2 - x1)
        norm = math.hypot(nx, ny) or 1.0
        cx, cy = mx + 24 * nx / norm, my + 24 * ny / norm
        parts.append(f'<path class="tau" d="M {x1:.3f} {y1:.3f} '
                     f'Q {cx:.3f} {cy:.3f} {x2:.3f} {y2:.3f}" />')

    for v in t.vertices:
        x, y = positions[v]
        kind, size = ("julia", "4.0") if v.startswith("v") else ("fatou", "6.0")
        parts.append(f'<circle class="{kind}" cx="{x:.3f}" cy="{y:.3f}" r="{size}" />')
        parts.append(_text(x + 8, y - 6, f"{v} &#948;={delta[v]}", "label"))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
