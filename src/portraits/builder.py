"""From a valid portrait to its invariant planar tree.

The circle points of all member sets cut the circle into elementary arcs.
Joining each set's points to their barycenter cuts the disk into regions,
and a region is traced as a face: walking its boundary counterclockwise,
the arc that ends at a point x of set T continues, across T's chord, with
the arc that starts at the point of T before x (a singleton continues with
itself).  That successor map is all this module uses of the picture (the
barycenters only return in the SVG renderer).  Each region receives an
interior vertex, joined to the boundary-set vertices, and the result is a
tree carrying circular edge orders, uniform consecutive angles, local
degrees, and vertex dynamics.

Naming is deterministic: sets are numbered in the portrait's canonical
order (v1, v2, ...), regions by their least arc start (w1, w2, ...).

``construct_tree`` is the one public way in.  It validates once, partitions
the disk once, and reads the tree and its dynamics off the regions in one
pass over each set's gaps; ``report.analyze``, which already holds the
validated sets, calls ``_construct`` directly.  The regions travel on in
``ConstructedTree.regions``, and their arcs are the elementary arcs.

The partition orders the support points by the numerators validation wrote
over the sets' common denominator; arcs and regions keep their ``Fraction``
endpoints for the reports.  The dynamics need no arithmetic at all:
classification has already shown that d*theta_i = theta_(i+m) on a set of
shift m.

A validated portrait goes in, and the builder checks nothing it builds.
P2-P4 guarantee each fact below; the tests pin them all over the benchmark
censuses, and ``tests/enumeration_digest.py`` round-trips 9,778 portraits.

* No region crosses a set twice and a set's gaps lie in distinct regions:
  by P2, each region lies in one gap of each set, and each gap meets its
  set along one chord.
* At most one rotating set bounds a region: by P4, two rotating sets on one
  region would lie in the same gap of every fixed set.
* The region counts l + d - k (l the size of the rotating sets, k the number
  of sets) and 1 + sum(|T| - 1) agree iff the fixed sets hold exactly d - 1
  angles (P2 and P3).
* Face tracing finds 1 + sum(|T| - 1) regions: by P2 the chords of a set lie
  in one region of the others and cut it into |T| pieces.
* The edges read off the gaps equal those read off the region boundaries:
  face tracing pairs the same arcs on both sides.
* E = V - 1: one edge per gap gives E = sum |T|, and V = k + 1 + sum(|T| - 1).
* The tree is connected: so is the disk, and crossing a chord of T from one
  region into the next is a path w - v_T - w'.
* The capacities sum to d - 1, so the total degree is d: sum cc counts one
  region per gap of each fixed set.
* A region moved by tau has its set's period: tau is i -> i + m on n
  distinct regions, so each region's period is ``rs.period``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .angles import Angle
from .portrait import Portrait, _validate
from .rotation import RotationSet
from .tree import AngledTree, edge_key


class ElementaryArc(NamedTuple):
    """Open arc between circularly consecutive support points.

    ``start == end`` encodes the full circle minus that single point, which
    happens exactly when the portrait's support is one angle.
    """

    start: Angle
    end: Angle


class Region(NamedTuple):
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


class ConstructedTree(NamedTuple):
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
    regions: tuple[Region, ...]


def _partition(sets: Sequence[RotationSet], xsets: Sequence[tuple[int, ...]]
               ) -> tuple[tuple[Region, ...], list[list[int]]]:
    """Partition the disk once.

    Arc k runs from support point k to point k+1 in circle order.  Each
    region is one cycle of the face-tracing map; starting each cycle at the
    least arc not yet traced numbers the regions by least arc start and
    lists their arcs in circle order.

    Returns the regions and, for each set, the region across each of its
    gaps: gap i lies in the region of the arc that starts at point i.
    """
    support = sorted((x, j, i, a) for j, (rs, xs) in enumerate(zip(sets, xsets))
                     for i, (x, a) in enumerate(zip(xs, rs.angles)))
    start_of = {x: k for k, (x, _, _, _) in enumerate(support)}
    arcs = [ElementaryArc(a, support[(k + 1) % len(support)][3])
            for k, (_, _, _, a) in enumerate(support)]

    region_of = [0] * len(support)
    regions: list[Region] = []
    for first in range(len(support)):
        if region_of[first]:
            continue
        pos = len(regions) + 1
        idxs, cycle = [], []
        k = first
        while not region_of[k]:
            region_of[k] = pos
            idxs.append(k)
            _, j, i, _ = support[(k + 1) % len(support)]
            cycle.append(j + 1)
            k = start_of[xsets[j][i - 1]]
        cc = sum(1 for j in cycle if sets[j - 1].is_fixed)
        regions.append(Region(pos, tuple(arcs[k] for k in idxs), tuple(cycle), cc))
    return tuple(regions), [[region_of[start_of[x]] for x in xs] for xs in xsets]


def construct_tree(p: Portrait) -> ConstructedTree:
    """The angled tree of a portrait, with its dynamics.

    Raises InvalidPortraitError, carrying the violations, when the portrait
    fails validation.

    Vertices are one per set and one per region; a set vertex and a region
    vertex are joined when the set lies on the region's boundary.  The
    circular order at a region vertex follows its boundary crossings; at a
    set vertex it follows the set's gaps.  Consecutive edges subtend 1/m at
    a vertex with m edges.  Local degree is capacity + 1 at region vertices
    and 1 at set vertices, which makes the total degree come out at d.

    A region across gap (theta, theta') of the (unique) rotating set on its
    boundary holds the arc just counterclockwise of theta and the arc just
    clockwise of theta'.  tau sends it where those flanks go, to the region
    holding the arc just counterclockwise of d*theta and the one just
    clockwise of d*theta'.  On a set of shift m, d*theta_i = theta_(i+m),
    so that is the region across gap i + m (Goldberg, *Fixed points of
    polynomial maps I*, 1992).  Every other vertex stays put.
    """
    validation, xsets = _validate(p)
    return _construct(validation.valid_sets(), xsets)


def _construct(sets: Sequence[RotationSet], xsets: Sequence[tuple[int, ...]]
               ) -> ConstructedTree:
    """``construct_tree`` for a caller holding ``portrait._validate``'s output.

    The disk is partitioned once, and one pass over each set's gaps yields
    both its edges and, for a rotating set, the images of its regions.
    """
    regions, gaps = _partition(sets, xsets)
    v_label = {j: f"v{j}" for j in range(1, len(sets) + 1)}
    w_label = {r.index: f"w{r.index}" for r in regions}

    # one edge per gap of each set
    order_at_v: dict[str, list[str]] = {}
    moved: dict[str, str] = {}
    for j, (rs, gap_regions) in enumerate(zip(sets, gaps), start=1):
        if not rs.is_fixed:
            n = rs.cardinality
            for i, r in enumerate(gap_regions):
                moved[w_label[r]] = w_label[gap_regions[(i + rs.shift) % n]]
        order_at_v[v_label[j]] = [w_label[r] for r in gap_regions]
    order_at_w = {w_label[r.index]: [v_label[j] for j in r.boundary_cycle]
                  for r in regions}

    vertices = tuple([v_label[j] for j in sorted(v_label)]
                     + [w_label[i] for i in sorted(w_label)])
    edges = tuple(sorted(edge_key(v, w) for v, ws in order_at_v.items() for w in ws))
    circular_order = {v: tuple(nbrs) for v, nbrs in
                      list(order_at_v.items()) + list(order_at_w.items())}
    gap_angles = {v: (len(nbrs), (1,) * len(nbrs)) for v, nbrs in circular_order.items()}
    delta = {v_label[j]: 1 for j in v_label}
    delta.update({w_label[r.index]: r.cc + 1 for r in regions})
    tau = {v: moved.get(v, v) for v in vertices}

    tree = AngledTree(vertices, edges, circular_order, gap_angles, tau, delta)
    arc_anchor = {v_label[j]: rs.angles for j, rs in enumerate(sets, start=1)}
    # angle 0 is the least angle of the set holding it
    marked = next(j for j, xs in enumerate(xsets, start=1) if xs[0] == 0)
    return ConstructedTree(tree, dict(v_label), dict(w_label), arc_anchor,
                           (v_label[marked], 0), regions)
