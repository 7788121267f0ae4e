"""From a valid portrait to its invariant planar tree.

The circle points of all member sets cut the circle into elementary arcs.
Joining each set's points to their barycenter cuts the disk into regions;
combinatorially a region is a class of elementary arcs lying in the same
gap of every member set, and that equivalence is all this module uses (the
barycenter picture only returns in the SVG renderer).  Each region receives
an interior vertex, joined to the boundary-set vertices, and the result is
a tree carrying circular edge orders, uniform consecutive angles, local
degrees, and vertex dynamics.

Naming is deterministic: sets are numbered in the portrait's canonical
order (v1, v2, ...), regions by their least arc start (w1, w2, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .angles import Angle, arc_start_gap, map_angle
from .errors import InternalContradictionError, InvariantViolationError
from .portrait import Portrait, classified_sets
from .rotation import RotationSet
from .tree import AngledTree, edge_key


@dataclass(frozen=True)
class ElementaryArc:
    """Open arc between circularly consecutive support points.

    ``start == end`` encodes the full circle minus that single point, which
    happens exactly when the portrait's support is one angle.
    """

    start: Angle
    end: Angle


@dataclass(frozen=True)
class Region:
    """One disk region: its arcs, boundary sets in crossing order, and capacity.

    ``boundary_cycle[i]`` is the (1-based) index of the set crossed between
    arc i and the next arc counterclockwise; ``cc`` counts how many distinct
    boundary sets have rotation number zero.
    """

    index: int
    arcs: tuple[ElementaryArc, ...]
    boundary_cycle: tuple[int, ...]
    cc: int

    @property
    def boundary_sets(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.boundary_cycle)))


@dataclass(frozen=True)
class ConstructedTree:
    """An angled tree plus the embedding data recovery and rendering need.

    ``arc_anchor[v]`` lists, for a set vertex v, the circle angle sitting in
    each of its edge sectors (sector i lies between circular edges i-1 and
    i, which is where the spoke to that angle leaves the barycenter).  The
    marked sector is the one spanning circle point 0.  ``regions`` are the
    disk regions the tree was built from, indexed as in
    ``fatou_vertex_of_region``.
    """

    tree: AngledTree
    julia_vertex_of_set: dict[int, str]
    fatou_vertex_of_region: dict[int, str]
    arc_anchor: dict[str, tuple[Angle, ...]]
    marked_sector: tuple[str, int]
    degree: int
    regions: tuple[Region, ...]


def _arcs_of(sets: Sequence[RotationSet]) -> list[ElementaryArc]:
    support = sorted(a for rs in sets for a in rs.angles)
    if len(support) == 1:
        return [ElementaryArc(support[0], support[0])]
    return [ElementaryArc(s, support[(i + 1) % len(support)])
            for i, s in enumerate(support)]


def _owner_map(sets: Sequence[RotationSet]) -> dict[Angle, int]:
    owner: dict[Angle, int] = {}
    for j, rs in enumerate(sets, start=1):
        for a in rs.angles:
            owner[a] = j
    return owner


def _partition(sets: Sequence[RotationSet],
               arcs: Sequence[ElementaryArc]) -> list[Region]:
    """Group arcs into regions and compute boundary data.

    Two arcs bound the same region iff they lie in the same gap of every
    set; singletons have a single gap and never split anything, so only
    sets with at least two points contribute to the signature.
    """
    splitters = [rs.angles for rs in sets if rs.cardinality >= 2]
    owner = _owner_map(sets)

    groups: dict[tuple[int, ...], list[int]] = {}
    for i, arc in enumerate(arcs):
        sig = tuple(arc_start_gap(s, arc.start) for s in splitters)
        groups.setdefault(sig, []).append(i)

    classes = sorted(groups.values(), key=lambda idxs: arcs[idxs[0]].start)
    regions: list[Region] = []
    for pos, idxs in enumerate(classes, start=1):
        cls = [arcs[i] for i in idxs]          # ascending by start already
        cycle = []
        for i, arc in enumerate(cls):
            nxt = cls[(i + 1) % len(cls)]
            crossed = owner[arc.end]
            if owner[nxt.start] != crossed:
                raise InternalContradictionError(
                    f"region {pos}: arc ending at {arc.end} (set {crossed}) is "
                    f"followed by an arc starting at {nxt.start} of set "
                    f"{owner[nxt.start]}")
            cycle.append(crossed)
        if len(set(cycle)) != len(cycle):
            raise InternalContradictionError(
                f"region {pos} crosses a set twice: {cycle}")
        rotating = [j for j in set(cycle) if not sets[j - 1].is_fixed]
        if len(rotating) > 1:
            raise InvariantViolationError(
                f"region {pos} has two rotating sets {rotating} on its boundary")
        cc = sum(1 for j in set(cycle) if sets[j - 1].is_fixed)
        regions.append(Region(pos, tuple(cls), tuple(cycle), cc))
    return regions


def elementary_arcs(p: Portrait) -> list[ElementaryArc]:
    """Sorted open arcs between consecutive support points of a valid portrait."""
    return _arcs_of(classified_sets(p))


def _regions(p: Portrait, sets: Sequence[RotationSet]) -> tuple[Region, ...]:
    """Partition the disk once and check the result.

    The region count is checked against both closed forms: l + d - k (l the
    total size of the rotating sets, k the number of sets) and
    1 + sum(|T| - 1); the capacities must sum to d - 1.
    """
    regions = _partition(sets, _arcs_of(sets))

    d, k = p.degree, p.k
    ell = sum(rs.cardinality for rs in sets if not rs.is_fixed)
    by_rotating = ell + d - k
    by_sizes = 1 + sum(rs.cardinality - 1 for rs in sets)
    if by_rotating != by_sizes:
        raise InternalContradictionError(
            f"region count formulas disagree: {by_rotating} != {by_sizes}")
    if len(regions) != by_rotating:
        raise InternalContradictionError(
            f"found {len(regions)} regions where the count formula gives {by_rotating}")
    critical_capacities(regions, d)
    return tuple(regions)


def _region_of_arc(regions: Sequence[Region]) -> tuple[dict[Angle, int], dict[Angle, int]]:
    """Region index of the arc starting at each support angle, and of the
    arc ending at it."""
    after: dict[Angle, int] = {}
    before: dict[Angle, int] = {}
    for r in regions:
        for arc in r.arcs:
            after[arc.start] = r.index
            before[arc.end] = r.index
    return after, before


def build_regions(p: Portrait) -> list[Region]:
    """Regions of a valid portrait, ordered by least arc start.

    The region count is checked against both closed forms, l + d - k and
    1 + sum(|T| - 1), and the critical capacities against d - 1.
    """
    return list(_regions(p, classified_sets(p)))


def critical_capacities(regions: Sequence[Region], degree: int) -> tuple[int, ...]:
    """Per-region capacities; their sum must be degree - 1."""
    caps = tuple(r.cc for r in regions)
    if sum(caps) != degree - 1:
        raise InvariantViolationError(
            f"critical capacities {caps} sum to {sum(caps)}, expected {degree - 1}")
    return caps


def assemble_tree(p: Portrait) -> ConstructedTree:
    """Build the angled tree of a valid portrait (dynamics still identity).

    Vertices are one per set and one per region; a set vertex and a region
    vertex are joined when the set lies on the region's boundary.  The
    circular order at a region vertex follows its boundary crossings; at a
    set vertex it follows the set's gaps.  Consecutive edges subtend 1/m at
    a vertex with m edges.  Local degree is capacity + 1 at region vertices
    and 1 at set vertices, which makes the total degree come out at d.
    """
    sets = classified_sets(p)
    regions = _regions(p, sets)
    return _assemble(p, sets, regions, *_region_of_arc(regions))


def _assemble(p: Portrait, sets: Sequence[RotationSet],
              regions: tuple[Region, ...], after: dict[Angle, int],
              before: dict[Angle, int]) -> ConstructedTree:
    v_label = {j: f"v{j}" for j in range(1, len(sets) + 1)}
    w_label = {r.index: f"w{r.index}" for r in regions}

    # one edge per gap of each set; both arcs flanking the gap must agree on
    # the region, and distinct gaps must see distinct regions
    order_at_v: dict[str, list[str]] = {}
    edges_from_gaps: set[tuple[str, str]] = set()
    for j, rs in enumerate(sets, start=1):
        n = rs.cardinality
        gap_regions = []
        for i in range(n):
            theta, theta_next = rs.angles[i], rs.angles[(i + 1) % n]
            r_after = after[theta]
            r_before = before[theta_next]
            if r_after != r_before:
                raise InternalContradictionError(
                    f"gap ({theta}, {theta_next}) of set {j} touches regions "
                    f"{r_after} and {r_before}")
            gap_regions.append(r_after)
        if len(set(gap_regions)) != n:
            raise InternalContradictionError(
                f"set {j}: gaps map onto regions {gap_regions} with repeats")
        order_at_v[v_label[j]] = [w_label[r] for r in gap_regions]
        edges_from_gaps.update(edge_key(v_label[j], w_label[r]) for r in gap_regions)

    order_at_w = {w_label[r.index]: [v_label[j] for j in r.boundary_cycle]
                  for r in regions}
    edges_from_regions = {edge_key(w_label[r.index], v_label[j])
                          for r in regions for j in r.boundary_sets}
    if edges_from_gaps != edges_from_regions:
        raise InternalContradictionError(
            "edge sets from gap adjacency and region boundaries disagree")

    vertices = tuple([v_label[j] for j in sorted(v_label)]
                     + [w_label[i] for i in sorted(w_label)])
    edges = tuple(sorted(edges_from_gaps))
    circular_order = {v: tuple(nbrs) for v, nbrs in
                      list(order_at_v.items()) + list(order_at_w.items())}
    gap_angles = {v: tuple([Fraction(1, len(nbrs))] * len(nbrs))
                  for v, nbrs in circular_order.items()}
    delta = {v_label[j]: 1 for j in v_label}
    delta.update({w_label[r.index]: r.cc + 1 for r in regions})
    tau = {v: v for v in vertices}

    tree = AngledTree(vertices, edges, circular_order, gap_angles, tau, delta)
    if len(edges) != len(vertices) - 1:
        raise InvariantViolationError(
            f"{len(vertices)} vertices with {len(edges)} edges is not a tree")
    reach = {vertices[0]}
    frontier = [vertices[0]]
    while frontier:
        v = frontier.pop()
        for u in circular_order[v]:
            if u not in reach:
                reach.add(u)
                frontier.append(u)
    if len(reach) != len(vertices):
        raise InvariantViolationError("constructed graph is disconnected")
    if tree.total_degree() != p.degree:
        raise InvariantViolationError(
            f"total degree {tree.total_degree()} differs from portrait degree {p.degree}")

    arc_anchor = {v_label[j]: rs.angles for j, rs in enumerate(sets, start=1)}
    zero = Fraction(0)
    owner = _owner_map(sets)
    marked_vertex = v_label[owner[zero]]
    marked_index = arc_anchor[marked_vertex].index(zero)
    return ConstructedTree(tree, dict(v_label), dict(w_label), arc_anchor,
                           (marked_vertex, marked_index), p.degree, regions)


def vertex_dynamics(p: Portrait, ct: ConstructedTree) -> dict[str, str]:
    """Vertex dynamics for an assembled tree.

    A region whose boundary holds the (unique) rotating set vertex spans one
    gap (theta, theta') of that set: the arc just counterclockwise of theta
    and the arc just clockwise of theta' are both on its boundary.  The
    region is sent where those flanks go: to the region holding the arc just
    counterclockwise of d*theta and the one just clockwise of d*theta',
    which must be a single region.  Every other vertex stays put.
    """
    return _dynamics(p, classified_sets(p), ct, *_region_of_arc(ct.regions))


def _dynamics(p: Portrait, sets: Sequence[RotationSet], ct: ConstructedTree,
              after: dict[Angle, int], before: dict[Angle, int]) -> dict[str, str]:
    tau = {v: v for v in ct.tree.vertices}
    moving: dict[str, int] = {}
    for j, rs in enumerate(sets, start=1):
        if rs.is_fixed:
            continue
        v = ct.julia_vertex_of_set[j]
        n = rs.cardinality
        for i in range(n):
            theta, theta_next = rs.angles[i], rs.angles[(i + 1) % n]
            w = ct.tree.circular_order[v][i]   # region vertex across gap i
            img_ccw = after[map_angle(theta, p.degree)]
            img_cw = before[map_angle(theta_next, p.degree)]
            if img_ccw != img_cw:
                raise InvariantViolationError(
                    f"images of the flanks of gap ({theta}, {theta_next}) land "
                    f"in regions {img_ccw} and {img_cw}")
            tau[w] = ct.fatou_vertex_of_region[img_ccw]
            moving[w] = rs.period

    for w, expected in moving.items():
        steps, x = 1, tau[w]
        while x != w:
            x = tau[x]
            steps += 1
        if steps != expected:
            raise InvariantViolationError(
                f"{w} has period {steps} under tau but its driving angle has "
                f"period {expected}")
    return tau


def construct_tree(p: Portrait) -> ConstructedTree:
    """Assemble the tree of a valid portrait and install its dynamics."""
    return _construct(p, classified_sets(p))


def _construct(p: Portrait, sets: Sequence[RotationSet]) -> ConstructedTree:
    """``construct_tree`` for a caller that already holds the classified sets.

    The disk is partitioned once; assembly and dynamics share the regions
    and the arc-to-region maps.
    """
    regions = _regions(p, sets)
    after, before = _region_of_arc(regions)
    ct = _assemble(p, sets, regions, after, before)
    tau = _dynamics(p, sets, ct, after, before)
    return replace(ct, tree=replace(ct.tree, tau=tau))
