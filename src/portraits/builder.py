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

``construct_tree`` is the one way in, and ``report.analyze`` goes through it
too.  It validates once, partitions the disk once, and reads the tree and
its dynamics off the regions in one pass over each set's gaps.  The
classified sets and the regions travel on in ``ConstructedTree.sets`` and
``ConstructedTree.regions``; the regions' arcs are the elementary arcs.

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
from .tree import AngledTree


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
    arc i and the next arc counterclockwise, each set once (P2);
    ``boundary_sets`` sorts them, and ``cc`` counts how many have rotation
    number zero.
    """

    index: int
    arcs: tuple[ElementaryArc, ...]
    boundary_cycle: tuple[int, ...]
    boundary_sets: tuple[int, ...]
    cc: int


class ConstructedTree(NamedTuple):
    """An angled tree plus the embedding data recovery and rendering need.

    ``sets`` are the classified member sets in the portrait's order, and set
    j is vertex ``vj``.  Sector i of ``vj`` (between its circular edges i-1
    and i, which is where the spoke to that angle leaves the barycenter)
    holds the angle ``sets[j-1].angles[i]``.  The marked sector is the one
    holding circle point 0.  ``regions`` are the disk regions the tree was
    built from, and region i is vertex ``wi``.
    """

    tree: AngledTree
    sets: tuple[RotationSet, ...]
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
        regions.append(Region(pos, tuple(arcs[k] for k in idxs), tuple(cycle),
                              tuple(sorted(cycle)), cc))
    return tuple(regions), [[region_of[start_of[x]] for x in xs] for xs in xsets]


def construct_tree(p: Portrait) -> ConstructedTree:
    """The angled tree of a portrait, with its dynamics.

    Raises InvalidPortraitError, carrying the violations, when the portrait
    fails validation.  The marked sector is sector 0 of v1, where angle 0 is.

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

    ``tree.edges`` is sorted by label string, not by set or region number,
    so ``("v10", "w1")`` comes before ``("v2", "w1")``; the text report and
    the JSON list the edges in this order.
    """
    validation, _, xsets = _validate(p)
    sets = validation.valid_sets()
    # one pass over each set's gaps yields both its edges and, for a
    # rotating set, the images of its regions
    regions, gaps = _partition(sets, xsets)

    vs = [f"v{j}" for j in range(len(sets) + 1)]   # each label once; 0 unused
    ws = [f"w{r}" for r in range(len(regions) + 1)]
    circular_order: dict[str, tuple[str, ...]] = {}
    moved: dict[str, str] = {}
    for v, rs, gap_regions in zip(vs[1:], sets, gaps):
        circular_order[v] = nbrs = tuple(map(ws.__getitem__, gap_regions))
        if not rs.is_fixed:
            moved.update((w, nbrs[(i + rs.shift) % len(nbrs)]) for i, w in enumerate(nbrs))
    # "v" < "w", so each (vj, wr) is already in label order
    edges = tuple(sorted((v, w) for v, nbrs in circular_order.items() for w in nbrs))
    circular_order.update((ws[r.index], tuple(map(vs.__getitem__, r.boundary_cycle)))
                          for r in regions)

    vertices = tuple(circular_order)
    gap_angles = {v: (len(nbrs), (1,) * len(nbrs)) for v, nbrs in circular_order.items()}
    delta = dict.fromkeys(vs[1:], 1) | {ws[r.index]: r.cc + 1 for r in regions}
    tau = dict(zip(vertices, vertices)) | moved

    tree = AngledTree(vertices, edges, circular_order, gap_angles, tau, delta)
    # P3 puts the fixed angle 0 in a set and P2 in only one; being the least
    # angle, it opens that set, which the canonical order therefore puts first
    return ConstructedTree(tree, sets, ("v1", 0), regions)
