from bisect import bisect_right
from fractions import Fraction as F
from functools import cache

import pytest

from portraits import (ElementaryArc, InvalidPortraitError, Portrait,
                       check_tree_axioms, construct_tree, enumerate_portraits,
                       validate_portrait)
from portraits.tree import edge_key

from conftest import orbit


@cache
def census():
    """(portrait, validated sets, constructed tree) for the 944 portraits of
    the benchmark censuses (2,6), (3,4), (4,3) and (5,2).  The builder checks
    nothing it builds, so the tests below pin what validation guarantees."""
    return tuple((p, validate_portrait(p).valid_sets(), construct_tree(p))
                 for d, n in ((2, 6), (3, 4), (4, 3), (5, 2))
                 for p in enumerate_portraits(d, n))


def elementary_arcs(p):
    """The arcs of the constructed regions, in circle order."""
    return sorted((a for r in construct_tree(p).regions for a in r.arcs),
                  key=lambda a: a.start)


def gap_of_arc(points, start):
    """Gap of increasing ``points`` holding the arc that begins at ``start``
    (gap i opens at points[i]; the last gap wraps past 1)."""
    return (bisect_right(points, start) - 1) % len(points)


def union_find_regions(p):
    """Independent oracle for the region partition.

    Pairwise union-find over elementary arcs with the literal predicate
    "same gap of every member set", no signature trick.
    """
    angles = sorted(a for s in p.sets for a in s)
    arcs = [ElementaryArc(a, angles[(i + 1) % len(angles)])
            for i, a in enumerate(angles)]
    parent = list(range(len(arcs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    splitters = [s for s in p.sets if len(s) >= 2]
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if all(gap_of_arc(s, arcs[i].start) == gap_of_arc(s, arcs[j].start)
                   for s in splitters):
                union(i, j)

    groups = {}
    for i in range(len(arcs)):
        groups.setdefault(find(i), []).append(i)
    return sorted(frozenset((arcs[i].start, arcs[i].end) for i in idxs)
                  for idxs in groups.values())


def flank_image_tau(p):
    """Independent oracle for tau: the paper's rule on ``Fraction``s.

    The region across gap (theta, theta') of a rotating set goes to the
    region holding the arc just counterclockwise of d*theta and the arc just
    clockwise of d*theta'; both flanks must agree on either side.
    """
    ct = construct_tree(p)
    after, before = {}, {}
    for r in ct.regions:
        for a in r.arcs:
            after[a.start] = before[a.end] = ct.fatou_vertex_of_region[r.index]
    tau = {v: v for v in ct.tree.vertices}
    for s in p.sets:
        if all(p.degree * a % 1 == a for a in s):
            continue
        for a, b in zip(s, s[1:] + s[:1]):
            assert after[a] == before[b]
            image = after[p.degree * a % 1]
            assert image == before[p.degree * b % 1]
            tau[after[a]] = image
    return tau


class TestElementaryArcs:
    def test_degree5(self, degree5_portrait):
        arcs = elementary_arcs(degree5_portrait)
        assert [(a.start, a.end) for a in arcs] == [
            (F(0), F(1, 8)), (F(1, 8), F(1, 4)), (F(1, 4), F(1, 2)),
            (F(1, 2), F(5, 8)), (F(5, 8), F(3, 4)), (F(3, 4), F(0))]

    def test_basilica(self, basilica):
        assert len(elementary_arcs(basilica)) == 3

    def test_single_angle_wraps(self):
        arcs = elementary_arcs(Portrait.create(2, [[F(0)]]))
        assert [(a.start, a.end) for a in arcs] == [(F(0), F(0))]

    def test_requires_valid_portrait(self):
        with pytest.raises(InvalidPortraitError):
            construct_tree(Portrait.create(5, [[F(1, 8), F(5, 8)]]))


class TestRegions:
    def test_degree5_partition(self, degree5_portrait):
        regions = construct_tree(degree5_portrait).regions
        partition = sorted(frozenset((a.start, a.end) for a in r.arcs)
                           for r in regions)
        assert partition == [
            frozenset({(F(0), F(1, 8)), (F(5, 8), F(3, 4))}),
            frozenset({(F(1, 8), F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), F(5, 8))}),
            frozenset({(F(3, 4), F(0))}),
        ]
        assert partition == union_find_regions(degree5_portrait)

    def test_degree5_counts(self, degree5_portrait):
        regions = construct_tree(degree5_portrait).regions
        assert len(regions) == 3          # l + d - k = 2 + 5 - 4
        assert sorted(r.cc for r in regions) == [1, 1, 2]
        assert tuple(r.cc for r in regions) == (1, 2, 1)

    def test_basilica(self, basilica):
        regions = construct_tree(basilica).regions
        partition = sorted(frozenset((a.start, a.end) for a in r.arcs)
                           for r in regions)
        assert partition == [
            frozenset({(F(0), F(1, 3)), (F(2, 3), F(0))}),
            frozenset({(F(1, 3), F(2, 3))}),
        ]
        assert partition == union_find_regions(basilica)
        assert [r.cc for r in regions] == [1, 0]

    def test_single_angle(self):
        regions = construct_tree(Portrait.create(2, [[F(0)]])).regions
        assert len(regions) == 1
        assert tuple(r.cc for r in regions) == (1,)

    def test_oracle_agreement_over_census(self):
        for d in (2, 3):
            for p in enumerate_portraits(d, 3):
                regions = construct_tree(p).regions
                assert union_find_regions(p) == sorted(
                    frozenset((a.start, a.end) for a in r.arcs) for r in regions)

    def test_count_formulas_over_census(self):
        assert len(census()) == 944
        for p, sets, ct in census():
            d = p.degree
            ell = sum(rs.cardinality for rs in sets if not rs.is_fixed)
            assert len(ct.regions) == ell + d - p.k, p
            assert len(ct.regions) == 1 + sum(rs.cardinality - 1 for rs in sets), p
            assert sum(r.cc for r in ct.regions) == d - 1, p

    def test_boundary_transitions_share_a_set(self):
        for p in enumerate_portraits(3, 3):
            sets = validate_portrait(p).valid_sets()
            owner = {a: j for j, rs in enumerate(sets, 1) for a in rs.angles}
            for r in construct_tree(p).regions:
                for i, arc in enumerate(r.arcs):
                    nxt = r.arcs[(i + 1) % len(r.arcs)]
                    assert owner[arc.end] == owner[nxt.start] == r.boundary_cycle[i]

    def test_at_most_one_rotating_boundary_set(self):
        # and no region crosses a set twice
        for p, sets, ct in census():
            for r in ct.regions:
                assert len(set(r.boundary_cycle)) == len(r.boundary_cycle), p
                rotating = [j for j in r.boundary_sets if not sets[j - 1].is_fixed]
                assert len(rotating) <= 1, p


class TestAssembly:
    def test_degree5_shape(self, degree5_portrait):
        ct = construct_tree(degree5_portrait)
        t = ct.tree
        assert len(t.vertices) == 7
        assert len(t.edges) == 6
        assert sorted(t.delta[v] for v in t.vertices if v.startswith("v")) == [1, 1, 1, 1]
        assert sorted(t.delta[v] for v in t.vertices if v.startswith("w")) == [2, 2, 3]
        assert t.total_degree() == 5

    def test_edge_count_matches_set_size(self):
        # a set's gaps see distinct regions, the edges read off the region
        # boundaries are the tree's, and the result is a tree of degree d
        for p, sets, ct in census():
            t = ct.tree
            for j, s in enumerate(sets, 1):
                order = t.circular_order[ct.julia_vertex_of_set[j]]
                assert len(set(order)) == len(order) == s.cardinality, p
            from_regions = sorted(edge_key(ct.fatou_vertex_of_region[r.index],
                                           ct.julia_vertex_of_set[j])
                                  for r in ct.regions for j in r.boundary_sets)
            assert tuple(from_regions) == t.edges, p
            assert check_tree_axioms(t) == (), p
            assert t.total_degree() == p.degree, p

    def test_edges_at_region_vertices(self, degree5_portrait):
        ct = construct_tree(degree5_portrait)
        for r in ct.regions:
            w = ct.fatou_vertex_of_region[r.index]
            assert ct.tree.degree_of(w) == len(r.boundary_sets)

    def test_uniform_gap_angles(self, degree5_portrait):
        # consecutive edges at a vertex with m edges sit 1/m apart: m unit
        # gaps over the vertex's own denominator m
        t = construct_tree(degree5_portrait).tree
        for v in t.vertices:
            m = t.degree_of(v)
            assert t.gap_angles[v] == (m, (1,) * m)
            order = t.circular_order[v]
            assert [t.angle_between(v, order[i], order[(i + 1) % m])
                    for i in range(m)] == [F(1, m) % 1] * m

    def test_marked_sector(self, degree5_portrait):
        ct = construct_tree(degree5_portrait)
        v, k = ct.marked_sector
        assert ct.arc_anchor[v][k] == F(0)


class TestDynamics:
    def test_degree5_interchanges_one_pair(self, degree5_portrait):
        ct = construct_tree(degree5_portrait)
        tau = ct.tree.tau
        moved = {v: tau[v] for v in ct.tree.vertices if tau[v] != v}
        assert moved == {"w1": "w2", "w2": "w1"}

    def test_basilica_two_cycle(self, basilica):
        ct = construct_tree(basilica)
        tau = ct.tree.tau
        assert tau["w1"] == "w2" and tau["w2"] == "w1"
        assert tau["v1"] == "v1" and tau["v2"] == "v2"

    def test_all_fixed_when_no_rotating_set(self):
        p = Portrait.create(3, [[F(0), F(1, 2)]])
        ct = construct_tree(p)
        assert all(ct.tree.tau[v] == v for v in ct.tree.vertices)

    def test_moving_vertex_period_matches_angle_period(self):
        for p, sets, ct in census():
            tau = ct.tree.tau
            for j, rs in enumerate(sets, 1):
                if rs.is_fixed:
                    continue
                # the regions around the rotating vertex cycle with the
                # same period as its angles
                for w in ct.tree.circular_order[ct.julia_vertex_of_set[j]]:
                    steps, x = 1, tau[w]
                    while x != w:
                        x, steps = tau[x], steps + 1
                    assert steps == rs.period, p

    @pytest.mark.parametrize("d, n", [(2, 6), (3, 4), (4, 3), (5, 2)])
    def test_tau_matches_flank_images_over_census(self, d, n):
        for p in enumerate_portraits(d, n):
            assert construct_tree(p).tree.tau == flank_image_tau(p), p

    @pytest.mark.parametrize("n", [22, 40, 64])
    def test_tau_matches_flank_images_at_long_period(self, n):
        p = Portrait.create(2, [[F(0)], orbit(F(1, 2 ** n - 1), 2)])
        assert construct_tree(p).tree.tau == flank_image_tau(p)

    def test_tau_never_collapses_an_edge(self):
        for p in enumerate_portraits(3, 3):
            ct = construct_tree(p)
            for a, b in ct.tree.edges:
                assert ct.tree.tau[a] != ct.tree.tau[b]
