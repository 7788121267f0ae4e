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

The input is validated, so every angle's denominator divides d**n - 1 for
its set's size n, and the sets' common denominator q is bounded by the
input.  The partition, the arc-to-region maps and the dynamics work on the
angles' numerators over q (the covering map is x |-> d*x mod q); arcs and
regions keep their ``Fraction`` endpoints for the reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Sequence

from .angles import Angle, _scaled, arc_start_gap
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


def _scaled_sets(sets: Sequence[RotationSet]) -> tuple[int, list[tuple[int, ...]]]:
    """The sets' common denominator q and each set's angles as numerators over q."""
    q, xs = _scaled([a for rs in sets for a in rs.angles])
    flat = iter(xs)
    return q, [tuple(islice(flat, rs.cardinality)) for rs in sets]


def _support(sets: Sequence[RotationSet], xsets: Sequence[tuple[int, ...]]
             ) -> list[tuple[int, int, Angle]]:
    """Every angle of the sets in circle order, as (numerator, set index, angle)."""
    return sorted((x, j, a) for j, (rs, xs) in enumerate(zip(sets, xsets), start=1)
                  for x, a in zip(xs, rs.angles))


def _arcs_of(support: Sequence[tuple[int, int, Angle]]) -> list[ElementaryArc]:
    angles = [a for _, _, a in support]
    if len(angles) == 1:
        return [ElementaryArc(angles[0], angles[0])]
    return [ElementaryArc(a, angles[(i + 1) % len(angles)])
            for i, a in enumerate(angles)]


def _partition(sets: Sequence[RotationSet],
               xsets: Sequence[tuple[int, ...]]) -> list[Region]:
    """Group arcs into regions and compute boundary data.

    Two arcs bound the same region iff they lie in the same gap of every
    set; singletons have a single gap and never split anything, so only
    sets with at least two points contribute to the signature.  Arc k runs
    from support point k to point k+1.
    """
    splitters = [xs for xs in xsets if len(xs) >= 2]
    support = _support(sets, xsets)
    arcs = _arcs_of(support)
    owner = [j for _, j, _ in support]

    groups: dict[tuple[int, ...], list[int]] = {}
    for k, (x, _, _) in enumerate(support):
        sig = tuple(arc_start_gap(s, x) for s in splitters)
        groups.setdefault(sig, []).append(k)

    # groups open in circle order, so they are already sorted by least arc start
    regions: list[Region] = []
    for pos, idxs in enumerate(groups.values(), start=1):
        cycle = []
        for i, k in enumerate(idxs):
            nxt = idxs[(i + 1) % len(idxs)]
            crossed = owner[(k + 1) % len(owner)]
            if owner[nxt] != crossed:
                raise InternalContradictionError(
                    f"region {pos}: arc ending at {arcs[k].end} (set {crossed}) is "
                    f"followed by an arc starting at {arcs[nxt].start} of set "
                    f"{owner[nxt]}")
            cycle.append(crossed)
        if len(set(cycle)) != len(cycle):
            raise InternalContradictionError(
                f"region {pos} crosses a set twice: {cycle}")
        rotating = [j for j in set(cycle) if not sets[j - 1].is_fixed]
        if len(rotating) > 1:
            raise InvariantViolationError(
                f"region {pos} has two rotating sets {rotating} on its boundary")
        cc = sum(1 for j in set(cycle) if sets[j - 1].is_fixed)
        regions.append(Region(pos, tuple(arcs[k] for k in idxs), tuple(cycle), cc))
    return regions


def elementary_arcs(p: Portrait) -> list[ElementaryArc]:
    """Sorted open arcs between consecutive support points of a valid portrait."""
    sets = classified_sets(p)
    return _arcs_of(_support(sets, _scaled_sets(sets)[1]))


def _regions(p: Portrait, sets: Sequence[RotationSet],
             xsets: Sequence[tuple[int, ...]]) -> tuple[Region, ...]:
    """Partition the disk once and check the result.

    The region count is checked against both closed forms: l + d - k (l the
    total size of the rotating sets, k the number of sets) and
    1 + sum(|T| - 1); the capacities must sum to d - 1.
    """
    regions = _partition(sets, xsets)

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


def _region_of_arc(regions: Sequence[Region], q: int) -> tuple[dict[int, int], dict[int, int]]:
    """Region index of the arc starting at each support angle, and of the
    arc ending at it, keyed by the angle's numerator over q."""
    after: dict[int, int] = {}
    before: dict[int, int] = {}
    for r in regions:
        for arc in r.arcs:
            after[arc.start.numerator * q // arc.start.denominator] = r.index
            before[arc.end.numerator * q // arc.end.denominator] = r.index
    return after, before


def build_regions(p: Portrait) -> list[Region]:
    """Regions of a valid portrait, ordered by least arc start.

    The region count is checked against both closed forms, l + d - k and
    1 + sum(|T| - 1), and the critical capacities against d - 1.
    """
    sets = classified_sets(p)
    return list(_regions(p, sets, _scaled_sets(sets)[1]))


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
    q, xsets = _scaled_sets(sets)
    regions = _regions(p, sets, xsets)
    return _assemble(p, sets, xsets, regions, *_region_of_arc(regions, q))


def _assemble(p: Portrait, sets: Sequence[RotationSet],
              xsets: Sequence[tuple[int, ...]], regions: tuple[Region, ...],
              after: dict[int, int], before: dict[int, int]) -> ConstructedTree:
    v_label = {j: f"v{j}" for j in range(1, len(sets) + 1)}
    w_label = {r.index: f"w{r.index}" for r in regions}

    # one edge per gap of each set; both arcs flanking the gap must agree on
    # the region, and distinct gaps must see distinct regions
    order_at_v: dict[str, list[str]] = {}
    edges_from_gaps: set[tuple[str, str]] = set()
    for j, (rs, xs) in enumerate(zip(sets, xsets), start=1):
        n = rs.cardinality
        gap_regions = []
        for i in range(n):
            r_after = after[xs[i]]
            r_before = before[xs[(i + 1) % n]]
            if r_after != r_before:
                raise InternalContradictionError(
                    f"gap ({rs.angles[i]}, {rs.angles[(i + 1) % n]}) of set {j} "
                    f"touches regions {r_after} and {r_before}")
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
    # angle 0 is the least angle of the set holding it
    marked = next(j for j, xs in enumerate(xsets, start=1) if xs[0] == 0)
    return ConstructedTree(tree, dict(v_label), dict(w_label), arc_anchor,
                           (v_label[marked], 0), p.degree, regions)


def vertex_dynamics(p: Portrait, ct: ConstructedTree) -> dict[str, str]:
    """Vertex dynamics for an assembled tree.

    A region whose boundary holds the (unique) rotating set vertex spans one
    gap (theta, theta') of that set: the arc just counterclockwise of theta
    and the arc just clockwise of theta' are both on its boundary.  The
    region is sent where those flanks go: to the region holding the arc just
    counterclockwise of d*theta and the one just clockwise of d*theta',
    which must be a single region.  Every other vertex stays put.
    """
    sets = classified_sets(p)
    q, xsets = _scaled_sets(sets)
    return _dynamics(p, sets, q, xsets, ct, *_region_of_arc(ct.regions, q))


def _dynamics(p: Portrait, sets: Sequence[RotationSet], q: int,
              xsets: Sequence[tuple[int, ...]], ct: ConstructedTree,
              after: dict[int, int], before: dict[int, int]) -> dict[str, str]:
    d = p.degree
    tau = {v: v for v in ct.tree.vertices}
    moving: dict[str, int] = {}
    for j, (rs, xs) in enumerate(zip(sets, xsets), start=1):
        if rs.is_fixed:
            continue
        v = ct.julia_vertex_of_set[j]
        n = rs.cardinality
        for i in range(n):
            w = ct.tree.circular_order[v][i]   # region vertex across gap i
            img_ccw = after[d * xs[i] % q]
            img_cw = before[d * xs[(i + 1) % n] % q]
            if img_ccw != img_cw:
                raise InvariantViolationError(
                    f"images of the flanks of gap ({rs.angles[i]}, "
                    f"{rs.angles[(i + 1) % n]}) land in regions {img_ccw} and {img_cw}")
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
    q, xsets = _scaled_sets(sets)
    regions = _regions(p, sets, xsets)
    after, before = _region_of_arc(regions, q)
    ct = _assemble(p, sets, xsets, regions, after, before)
    tau = _dynamics(p, sets, q, xsets, ct, after, before)
    return replace(ct, tree=replace(ct.tree, tau=tau))
