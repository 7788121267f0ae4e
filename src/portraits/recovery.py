"""Recover a portrait from its constructed tree.

At a vertex with m edges there are m sectors between circularly consecutive
edges (one full sector when m = 1); at the set vertices each sector holds
exactly one landing ray.  Walking counterclockwise around the tree visits
every sector once, in the circle order of the underlying rays.  Sectors map
forward through the germs of their bounding edges; sectors fixed by that map
carry the d-1 fixed rays and are labelled in walk order starting from the
marked sector, which anchors ray 0.  A rotating vertex is then pinned down
by its sector count, its sector shift, and where its sectors fall between
the fixed rays along the walk.  These are the set's cardinality, shift and
deployment, which determine a rotation set, and Goldberg's closed form
(*Fixed points of polynomial maps I*, 1992; see ``rotation``) writes its
angles down directly.

The input is the ``ConstructedTree`` of ``builder.construct_tree``.  Only
its tree (with ``tau``) and its marked sector are read; the regions and arc
anchors it also carries are for the reports and the SVG.  The boundary walk
is a plain tuple of sectors, marked sector first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .builder import ConstructedTree
from .errors import InvariantViolationError
from .portrait import Portrait
from .rotation import generate_rotation_set
from .tree import classify_vertices, initial_image_edge


@dataclass(frozen=True)
class Sector:
    """Sector ``index`` at a vertex: the span between circular edges
    index-1 and index (the whole neighborhood when there is one edge)."""

    vertex: str
    index: int


def boundary_walk(ct: ConstructedTree) -> tuple[Sector, ...]:
    """Trace the face of the embedded tree, one sector per step, starting
    at the marked sector.

    Arriving at a vertex along an edge, the walk sweeps the sector that
    follows that edge in the circular order and leaves along the sector's
    other bounding edge.  A tree has a single face, so the trace returns to
    the marked sector after exactly 2 * |edges| steps.
    """
    t = ct.tree
    start = Sector(*ct.marked_sector)
    walk: list[Sector] = []
    v, k = start.vertex, start.index
    limit = 2 * len(t.edges) + 1
    for _ in range(limit):
        walk.append(Sector(v, k))
        u = t.circular_order[v][k]           # leave along the sector's ccw edge
        j = t.circular_order[u].index(v)     # arrive at u along that edge
        v, k = u, (j + 1) % t.degree_of(u)
        if (v, k) == (start.vertex, start.index):
            break
    else:
        raise InvariantViolationError("boundary walk failed to close up")
    if len(walk) != 2 * len(t.edges):
        raise InvariantViolationError(
            f"boundary walk has {len(walk)} steps, expected {2 * len(t.edges)}")
    return tuple(walk)


def sector_map(ct: ConstructedTree, s: Sector) -> Sector:
    """Image of a sector: the sector at tau(v) between its edges' germs.

    Meant for sectors at Julia vertices, where the local degree 1 makes the
    germ map injective; a germ collision there is an invariant violation.
    """
    t = ct.tree
    order = t.circular_order[s.vertex]
    m = len(order)
    left, right = order[(s.index - 1) % m], order[s.index]
    g_left = initial_image_edge(t, s.vertex, left)
    g_right = initial_image_edge(t, s.vertex, right)
    tv = t.tau[s.vertex]
    target_order = t.circular_order[tv]
    mm = len(target_order)
    if left == right:                        # one-edge vertex, full sector
        if mm != 1:
            raise InvariantViolationError(
                f"full sector at {s.vertex} maps to multi-edge vertex {tv}")
        return Sector(tv, 0)
    if g_left == g_right:
        raise InvariantViolationError(
            f"germ collision at {s.vertex}: edges to {left} and {right} "
            f"share the image germ {g_left}")
    i = target_order.index(g_left)
    if target_order[(i + 1) % mm] != g_right:
        raise InvariantViolationError(
            f"sector {s} maps between non-consecutive germs {g_left}, {g_right}")
    return Sector(tv, (i + 1) % mm)


def _sector_shift(ct: ConstructedTree, v: str) -> int:
    """Shift of the sector permutation at a fixed Julia vertex.

    The permutation must be a rigid rotation of the circular sector order;
    anything else contradicts the construction.
    """
    n = ct.tree.degree_of(v)
    shifts = set()
    for k in range(n):
        image = sector_map(ct, Sector(v, k))
        if image.vertex != v:
            raise InvariantViolationError(
                f"sector at fixed vertex {v} maps to a sector at {image.vertex}")
        shifts.add((image.index - k) % n)
    if len(shifts) != 1:
        raise InvariantViolationError(
            f"sector permutation at {v} is not a rotation (shifts {sorted(shifts)})")
    return shifts.pop()


def recover_portrait(ct: ConstructedTree) -> Portrait:
    """Read the portrait back off the tree.

    Recovery never consults the construction's arc anchors: the fixed rays
    come from the walk order alone, and each rotating set is rebuilt by
    Goldberg's closed form (``generate_rotation_set``) from its sector count,
    sector shift and walk positions between the fixed rays.
    """
    t = ct.tree
    d = t.total_degree()
    classes = classify_vertices(t)
    julia_fixed = [v for v in t.vertices
                   if t.tau[v] == v and classes[v].kind == "julia"]

    fixed_vertices: list[str] = []
    rotating: dict[str, int] = {}
    for v in julia_fixed:
        shift = _sector_shift(ct, v)
        if shift == 0:
            fixed_vertices.append(v)
        else:
            rotating[v] = shift

    fixed_sector_count = sum(t.degree_of(v) for v in fixed_vertices)
    if fixed_sector_count != d - 1:
        raise InvariantViolationError(
            f"{fixed_sector_count} fixed sectors found, expected {d - 1}")

    walk = boundary_walk(ct)
    if walk[0].vertex not in fixed_vertices:
        raise InvariantViolationError("the marked sector is not a fixed sector")

    assigned: dict[str, list[Fraction]] = {v: [] for v in fixed_vertices}
    buckets: dict[str, list[int]] = {v: [0] * (d - 1) for v in rotating}
    counter = 0
    for s in walk:
        if s.vertex in assigned:
            assigned[s.vertex].append(Fraction(counter, d - 1))
            counter += 1
        elif s.vertex in rotating:
            buckets[s.vertex][counter - 1] += 1
    if counter != d - 1:
        raise InvariantViolationError(
            f"walk assigned {counter} fixed rays, expected {d - 1}")

    sets: list[tuple[Fraction, ...]] = [tuple(sorted(assigned[v]))
                                        for v in fixed_vertices]
    for v, shift in rotating.items():
        n = t.degree_of(v)
        rs = generate_rotation_set(d, n, shift, tuple(buckets[v]))
        if rs is None:
            raise InvariantViolationError(
                f"no rotation set matches shift={shift} cardinality={n} "
                f"deployment={tuple(buckets[v])} read off {v}")
        sets.append(rs.angles)
    return Portrait.create(d, sets)
