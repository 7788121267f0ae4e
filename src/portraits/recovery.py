"""Recover a portrait from its constructed tree.

At a vertex with m edges there are m sectors between circularly consecutive
edges (one full sector when m = 1); at the set vertices each sector holds
exactly one landing ray.  Walking counterclockwise around the tree visits
every sector once, in the circle order of the underlying rays.  At a fixed
vertex a sector maps to the sector between the germs of its bounding edges,
so the sectors there rotate by a shift read off the germs, all of them from
one survey of the tree (``tree._survey``).  Sectors of shift 0 carry the
d-1 fixed rays and are labelled in walk order starting from the marked
sector, which anchors ray 0.  A rotating vertex is then pinned down by its
sector count, its sector shift, and where its sectors fall between the
fixed rays along the walk.
These are the set's cardinality, shift and deployment, which determine a
rotation set, and Goldberg's closed form (*Fixed points of polynomial maps
I*, 1992; see ``rotation``) writes its angles down directly, read off the
block of each sector in walk order: the sorted block sequence it takes.

The input is the ``ConstructedTree`` of ``builder.construct_tree``.  Only
its tree (with ``tau``) and its marked sector are read, never its classified
sets or its regions.  Recovery walks plain (vertex, index) pairs from the
marked sector (``boundary_walk`` wraps them as ``Sector``s) and calls the
closed-form kernel ``rotation._closed_form`` directly, which returns
increasing numerators.  Sets stay integers until ``recover_portrait``
builds ``Fraction``s (``Analysis.recovered`` is the input when they match
it).  A tree from elsewhere (a hand edit, say) may be malformed; recovery
then raises ``InvariantViolationError`` naming the vertex, edge or missing
entry.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .builder import ConstructedTree
from .errors import InvariantViolationError
from .portrait import Portrait
from .rotation import _closed_form
from .tree import _complete, _ok, _survey, _Survey


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

    The walk is linear in the edges.  In a tree it comes back to a vertex
    along the edge it last left that vertex by, so only the first arrival
    at a vertex searches its circular order for the incoming edge; each
    later arrival checks the edge it remembers in one step.
    """
    return tuple(map(Sector._make, _walk(ct)))


def _walk(ct: ConstructedTree) -> list[tuple[str, int]]:
    """``boundary_walk`` as plain (vertex, index) pairs, with its errors."""
    order, edges = ct.tree.circular_order, ct.tree.edges
    left_by: dict[str, int] = {}             # the slot each vertex was last left by
    start = v, k = tuple(ct.marked_sector)
    walk: list[tuple[str, int]] = []
    sectors = len(order.get(v, ()))
    if not 0 <= k < sectors:
        raise InvariantViolationError(
            f"marked sector {k} at {v} is not one of its {sectors} sectors")
    for _ in range(2 * len(edges) + 1):
        walk.append((v, k))
        u = order[v][k]                      # leave along the sector's ccw edge
        left_by[v] = k
        j = left_by.get(u)                   # arrive at u along that edge
        if j is None or order[u][j] != v:
            try:
                j = order[u].index(v)
            except (KeyError, ValueError):
                raise InvariantViolationError(
                    f"the order at {v} lists {u}, but the order at {u} "
                    f"does not list {v}") from None
        v, k = u, (j + 1) % len(order[u])
        if (v, k) == start:
            break
    else:
        raise InvariantViolationError("boundary walk failed to close up")
    if len(walk) != 2 * len(edges):
        raise InvariantViolationError(
            f"boundary walk has {len(walk)} steps, expected {2 * len(edges)}")
    return walk


def recover_portrait(ct: ConstructedTree) -> Portrait:
    """Read the portrait back off the tree, as the module docstring says.

    Each rotating set comes from ``rotation._closed_form`` on its sector
    shift and its block sequence, so nothing of size d - 1 is built per
    vertex, and none of ``generate_rotation_set``'s checks can fire: d >= 2
    (the fixed-sector and marked-sector checks reject d <= 1 first),
    0 < shift < n, and the blocks are sorted and in range(d - 1).
    """
    return _portrait(*_recover(ct, _survey(ct.tree)))


def _portrait(d: int, found: list[tuple[int, list[int]]]) -> Portrait:
    """The recovered sets, numerators xs over q, as a canonical Portrait."""
    return Portrait(d, tuple(sorted(tuple(Fraction(x, q) for x in xs) for q, xs in found)))


def _recover(ct: ConstructedTree, survey: _Survey) -> tuple[int, list]:
    """(d, found): the degree and each set as increasing numerators xs over q."""
    t = ct.tree
    tau, delta, d = _complete(t, "tau"), t.delta, t.total_degree()
    fixed_vertices: list[str] = []
    rotating: dict[str, int] = {}
    # a fixed vertex is its own cycle, which is Julia iff it is not critical
    for v in t.vertices:
        if tau[v] != v or delta[v] != 1:
            continue
        # the sectors rotate by s iff the germs are the order rotated by s
        germs, order = _ok(survey.germs[v]), t.circular_order[v]
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

    fixed_sector_count = sum(len(t.circular_order[v]) for v in fixed_vertices)
    if fixed_sector_count != d - 1:
        raise InvariantViolationError(
            f"{fixed_sector_count} fixed sectors found, expected {d - 1}")

    walk = _walk(ct)
    if walk[0][0] not in (fixed := set(fixed_vertices)):
        raise InvariantViolationError("the marked sector is not a fixed sector")
    # with c fixed sectors walked so far, a fixed sector holds ray c - 1 and
    # a rotating one lies in block c - 1: a block sequence, non-decreasing
    numbers: dict[str, list[int]] = {v: [] for v in (*fixed_vertices, *rotating)}
    counter = 0
    for v, _ in walk:
        counter += v in fixed
        if v in numbers:
            numbers[v].append(counter - 1)
    if counter != d - 1:
        raise InvariantViolationError(
            f"walk assigned {counter} fixed rays, expected {d - 1}")

    found = [(d - 1, numbers[v]) for v in fixed_vertices]
    for v, shift in rotating.items():
        n, bs = len(t.circular_order[v]), numbers[v]
        rotation_set = _closed_form(d, shift, bs) if len(bs) == n else None
        if rotation_set is None:
            dep = [0] * (d - 1)
            for b in bs:
                dep[b] += 1
            raise InvariantViolationError(
                f"no rotation set matches shift={shift} cardinality={n} "
                f"deployment={tuple(dep)} read off {v}")
        found.append(rotation_set)
    return d, found
