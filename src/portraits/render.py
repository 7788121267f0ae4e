"""Deterministic SVG diagram of a constructed tree.

Exact combinatorics lives upstream; this module is the only place floating
point appears.  Each angle and arc end is read once, as its integer pair
``as_integer_ratio()``, and enters as one correctly rounded division: a
circle point as numerator over denominator, an arc midpoint as one integer
ratio over twice its two ends' lcm.  The fixed prelude is built once, at
import.  The drawing shows the unit circle, each set's star
(dashed spokes from its circle points to their barycenter - decoration,
not tree), the tree vertices and solid edges, local degrees, and dotted
arrows for the moving vertices.  Output is byte-for-byte reproducible.
"""

from __future__ import annotations

import math
from typing import Sequence

from .builder import ConstructedTree, Region

_SIZE = 560.0
_CENTER = _SIZE / 2
_RADIUS = 230.0

_PRELUDE = "\n".join([
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
])


def render_svg(ct: ConstructedTree, regions: Sequence[Region]) -> str:
    """Draw the constructed tree over its circle data as an SVG document.

    Set j of ``ct.sets`` is drawn as vertex ``vj`` at the barycenter of its
    circle points, and region i of ``regions`` as vertex ``wi``.
    """
    t = ct.tree
    parts = [_PRELUDE]
    positions: dict[str, tuple[float, float]] = {}
    for j, rs in enumerate(ct.sets, start=1):
        xs, ys, rays = [], [], []
        for a in rs.angles:
            num, den = a.as_integer_ratio()
            turn = 2 * math.pi * (num / den)
            c, s = math.cos(turn), math.sin(turn)
            xs.append(_CENTER + _RADIUS * c)
            ys.append(_CENTER - _RADIUS * s)
            rays.append(f'<text class="ray" x="{_CENTER + (_RADIUS + 16) * c - 9:.3f}" '
                        f'y="{_CENTER - (_RADIUS + 16) * s + 4:.3f}">{num}/{den}</text>')
        positions[f"v{j}"] = bx, by = sum(xs) / len(xs), sum(ys) / len(ys)
        if len(xs) >= 2:
            center = f'x2="{bx:.3f}" y2="{by:.3f}" />'
            parts += [f'<line class="star" x1="{x:.3f}" y1="{y:.3f}" {center}'
                      for x, y in zip(xs, ys)]
        parts += rays

    # pull each region vertex off the circle: average its arc midpoints with
    # the barycenters of its boundary stars.  With s and e the arc's ends as
    # numerators over q, their lcm, its midpoint is ((2s + span) mod 2q) / 2q,
    # span = (e - s) mod q (a whole turn when the arc is the circle minus a point).
    for r in regions:
        points = []
        for start, end in r.arcs:
            (sn, sd), (en, ed) = start.as_integer_ratio(), end.as_integer_ratio()
            q = math.lcm(sd, ed)
            s = sn * (q // sd)
            span = (en * (q // ed) - s) % q or q
            turn = 2 * math.pi * ((2 * s + span) % (2 * q) / (2 * q))
            points.append((_CENTER + 0.84 * _RADIUS * math.cos(turn),
                           _CENTER - 0.84 * _RADIUS * math.sin(turn)))
        xs, ys = zip(*points, *[positions[f"v{j}"] for j in r.boundary_sets])
        positions[f"w{r.index}"] = (sum(xs) / len(xs), sum(ys) / len(ys))

    # each vertex's coordinates are formatted once, for its edges, arrows and dot
    xy = {v: (f"{x:.3f}", f"{y:.3f}") for v, (x, y) in positions.items()}
    for a, b in t.edges:
        (x1, y1), (x2, y2) = xy[a], xy[b]
        parts.append(f'<line class="edge" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" />')

    tau, delta = t.tau, t.delta
    for v in t.vertices:
        if tau[v] == v:
            continue
        (x1, y1), (x2, y2) = positions[v], positions[tau[v]]
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        nx, ny = -(y2 - y1), (x2 - x1)
        norm = math.hypot(nx, ny) or 1.0
        cx, cy = mx + 24 * nx / norm, my + 24 * ny / norm
        parts.append(f'<path class="tau" d="M {" ".join(xy[v])} '
                     f'Q {cx:.3f} {cy:.3f} {" ".join(xy[tau[v]])}" />')

    for v in t.vertices:
        (x, y), (sx, sy) = positions[v], xy[v]
        kind, size = ("julia", "4.0") if v.startswith("v") else ("fatou", "6.0")
        parts.append(f'<circle class="{kind}" cx="{sx}" cy="{sy}" r="{size}" />')
        parts.append(f'<text class="label" x="{x + 8:.3f}" y="{y - 6:.3f}">'
                     f'{v} &#948;={delta[v]}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
