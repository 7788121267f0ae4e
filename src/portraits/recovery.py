"""Recover a portrait from its constructed tree.

At a vertex with m edges there are m sectors between circularly consecutive
edges (one full sector when m = 1); at the set vertices each sector holds
exactly one landing ray.  Walking counterclockwise around the tree visits
every sector once, in the circle order of the underlying rays.  At a fixed
vertex a sector maps to the sector between the germs of its bounding edges
(``tree.image_germs``), so the sectors there rotate by a shift read off the
germs in one pass.  Sectors of shift 0 carry the d-1 fixed rays and are
labelled in walk order starting from the marked sector, which anchors ray
0.  A rotating vertex is then pinned down by its sector count, its sector
shift, and where its sectors fall between the fixed rays along the walk.
These are the set's cardinality, shift and deployment, which determine a
rotation set, and Goldberg's closed form (*Fixed points of polynomial maps
I*, 1992; see ``rotation``) writes its angles down directly.

The input is the ``ConstructedTree`` of ``builder.construct_tree``.  Only
its tree (with ``tau``) and its marked sector are read; the regions and arc
anchors it also carries are for the reports and the SVG.  The boundary walk
is a plain tuple of sectors, marked sector first.  The fixed rays are
labelled in walk order and the closed form returns increasing angles, so
the portrait is built directly and only its family needs sorting.  A tree
from elsewhere (a hand edit, say) may be malformed; recovery then raises
``InvariantViolationError`` naming the vertex or edge at fault.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .builder import ConstructedTree
from .errors import InvariantViolationError
from .portrait import Portrait
from .rotation import generate_rotation_set
from .tree import image_germs


class Sector(NamedTuple):
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
    order = t.circular_order
    start = Sector(*ct.marked_sector)
    walk: list[Sector] = []
    v, k = start.vertex, start.index
    if not 0 <= k < len(order[v]):
        raise InvariantViolationError(
            f"marked sector {k} at {v} is not one of its {len(order[v])} sectors")
    limit = 2 * len(t.edges) + 1
    for _ in range(limit):
        walk.append(Sector(v, k))
        u = order[v][k]                      # leave along the sector's ccw edge
        try:
            j = order[u].index(v)            # arrive at u along that edge
        except ValueError:
            raise InvariantViolationError(
                f"the order at {v} lists {u}, but the order at {u} "
                f"does not list {v}") from None
        v, k = u, (j + 1) % len(order[u])
        if (v, k) == (start.vertex, start.index):
            break
    else:
        raise InvariantViolationError("boundary walk failed to close up")
    if len(walk) != 2 * len(t.edges):
        raise InvariantViolationError(
            f"boundary walk has {len(walk)} steps, expected {2 * len(t.edges)}")
    return tuple(walk)


def recover_portrait(ct: ConstructedTree) -> Portrait:
    """Read the portrait back off the tree.

    Recovery never consults the construction's arc anchors: the fixed rays
    come from the walk order alone, and each rotating set is rebuilt by
    Goldberg's closed form (``generate_rotation_set``) from its sector count,
    sector shift and walk positions between the fixed rays.
    """
    return _recover(ct, lambda v: image_germs(ct.tree, v))


def _recover(ct: ConstructedTree, germs_at: Callable[[str], tuple[str, ...]]
             ) -> Portrait:
    """``recover_portrait`` with the germs at v given as germs_at(v)."""
    t = ct.tree
    d = t.total_degree()
    # a fixed vertex is its own cycle, which is Julia iff it is not critical
    julia_fixed = [v for v in t.vertices if t.tau[v] == v and t.delta[v] == 1]

    fixed_vertices: list[str] = []
    rotating: dict[str, int] = {}
    for v in julia_fixed:
        # the sectors rotate by s iff the germs are the order rotated by s
        order, germs = t.circular_order[v], germs_at(v)
        if not order:
            raise InvariantViolationError(f"the order at {v} is empty")
        s = order.index(germs[0])
        if germs != order[s:] + order[:s]:
            raise InvariantViolationError(
                f"sector permutation at {v} is not a rotation (germs {germs})")
        if s == 0:
            fixed_vertices.append(v)
        else:
            rotating[v] = s

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

    sets: list[tuple[Fraction, ...]] = [tuple(assigned[v]) for v in fixed_vertices]
    for v, shift in rotating.items():
        n = t.degree_of(v)
        rs = generate_rotation_set(d, n, shift, tuple(buckets[v]))
        if rs is None:
            raise InvariantViolationError(
                f"no rotation set matches shift={shift} cardinality={n} "
                f"deployment={tuple(buckets[v])} read off {v}")
        sets.append(rs.angles)
    return Portrait(d, tuple(sorted(sets)))
