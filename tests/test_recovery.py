import re
import time
from fractions import Fraction as F

import pytest

import portraits.recovery
import portraits.report
from portraits import (InvariantViolationError, Portrait, RotationSet, analyze,
                       boundary_walk, classify_rotation_set, construct_tree,
                       deployment_vector, enumerate_portraits, fixed_angles,
                       image_germs, recover_portrait, render_report)

from conftest import orbit, wide_rotating
from test_golden import goldens


class TestBoundaryWalk:
    def test_length_degree5(self, degree5_portrait):
        ct = construct_tree(degree5_portrait)
        walk = boundary_walk(ct)
        assert len(walk) == 12 == 2 * len(ct.tree.edges)

    def test_length_basilica(self, basilica):
        ct = construct_tree(basilica)
        assert len(boundary_walk(ct)) == 6

    def test_length_single_edge(self):
        ct = construct_tree(Portrait.create(2, [[F(0)]]))
        assert len(boundary_walk(ct)) == 2

    def test_starts_at_marked_sector(self, degree5_portrait):
        ct = construct_tree(degree5_portrait)
        first = boundary_walk(ct)[0]
        assert (first.vertex, first.index) == ct.marked_sector

    def test_each_sector_once(self):
        for d in (2, 3):
            for p in enumerate_portraits(d, 3):
                ct = construct_tree(p)
                walk = boundary_walk(ct)
                assert len(set(walk)) == len(walk)
                assert len(walk) == sum(
                    ct.tree.degree_of(v) for v in ct.tree.vertices)

    def test_julia_sectors_follow_circle_order(self):
        # reading off the anchors, the walk lists the support angles in
        # increasing circle order starting from angle 0
        for d in (2, 3):
            for p in enumerate_portraits(d, 3):
                ct = construct_tree(p)
                seen = [ct.sets[int(s.vertex[1:]) - 1].angles[s.index]
                        for s in boundary_walk(ct)
                        if s.vertex.startswith("v")]
                assert seen == sorted(seen)
                assert set(seen) == {a for s in p.sets for a in s}


class TestSectorMap:
    """Sector k at a fixed vertex lies between edges k-1 and k and maps to
    the sector between their germs: germs rotated by s shift sectors by s."""

    def test_single_sector_fixed(self, degree5_portrait):
        t = construct_tree(degree5_portrait).tree
        assert image_germs(t)("v3") == t.circular_order["v3"]

    def test_rotating_sectors_swap(self, degree5_portrait):
        t = construct_tree(degree5_portrait).tree
        order = t.circular_order["v2"]
        assert len(order) == 2
        assert image_germs(t)("v2") == order[1:] + order[:1] != order

    def test_fixed_vertex_sectors_stay(self, degree5_portrait):
        t = construct_tree(degree5_portrait).tree
        assert t.degree_of("v1") == 2
        assert image_germs(t)("v1") == t.circular_order["v1"]

    def test_sector_count_equals_edge_count(self):
        # one landing ray per sector at every set vertex
        for p in enumerate_portraits(3, 3):
            ct = construct_tree(p)
            for j, s in enumerate(p.sets, 1):
                assert ct.tree.degree_of(f"v{j}") == len(s)


class TestRecovery:
    def test_degree5(self, degree5_portrait):
        ct = construct_tree(degree5_portrait)
        assert recover_portrait(ct) == degree5_portrait

    def test_basilica(self, basilica):
        assert recover_portrait(construct_tree(basilica)) == basilica

    def test_all_fixed_portrait(self):
        p = Portrait.create(4, [[F(0), F(1, 3)], [F(2, 3)]])
        assert recover_portrait(construct_tree(p)) == p

    def test_fixed_sector_count(self):
        for d in (2, 3):
            for p in enumerate_portraits(d, 3):
                ct = construct_tree(p)
                t = ct.tree
                germs_at = image_germs(t)
                fixed_sectors = 0
                for j, s in enumerate(p.sets, 1):
                    v = f"v{j}"
                    if germs_at(v) == t.circular_order[v]:
                        fixed_sectors += len(s)
                assert fixed_sectors == d - 1

    def test_round_trip_census(self):
        for d in (2, 3):
            for p in enumerate_portraits(d, 3):
                assert recover_portrait(construct_tree(p)) == p

    def test_direct_portrait_matches_create_over_census(self):
        # recovery builds its Portrait without Portrait.create: each set
        # must come out increasing and the family in create's order
        count = 0
        for d, period in ((2, 6), (3, 4), (4, 3), (5, 2)):
            for p in enumerate_portraits(d, period):
                rec = recover_portrait(construct_tree(p))
                shuffled = [tuple(reversed(s)) for s in reversed(rec.sets)]
                assert rec == Portrait.create(rec.degree, shuffled) == p
                count += 1
        assert count == 944

    def test_round_trip_degree_four(self):
        # beyond the exhaustive small-degree suite: several rotating sets
        # and capacity-2 regions show up here
        for p in enumerate_portraits(4, 2):
            assert recover_portrait(construct_tree(p)) == p

    def test_recovers_fixed_rays_in_circle_order(self, degree5_portrait):
        # the four fixed rays land on v1, v3, v4, v1 in walk order
        ct = construct_tree(degree5_portrait)
        rec = recover_portrait(ct)
        assert set(fixed_angles(5)) == {a for s in rec.sets for a in s
                                        if a in fixed_angles(5)}


class TestValidInputsAccepted:
    """Valid portraits whose rotating sets lie far beyond any grid scan."""

    @pytest.mark.parametrize("n", [22, 40, 64])
    def test_degree2_rotation_number_one_over_n(self, n):
        angles = orbit(F(1, 2 ** n - 1), 2)     # {2^i / (2^n - 1)}
        assert classify_rotation_set(angles, 2) == (1, n)
        p = Portrait.create(2, [[F(0)], angles])
        an = analyze(p)
        assert an.all_ok
        assert an.recovered == p

    def test_wide_fixed_portrait_recovers_fast(self):
        # 2,000 singleton fixed sets: one germ forest serves every fixed
        # vertex (0.06 s on a 2-vCPU host with Python 3.11.7)
        p = Portrait.create(2001, [[a] for a in fixed_angles(2001)])
        ct = construct_tree(p)
        start = time.perf_counter()
        assert recover_portrait(ct) == p
        assert time.perf_counter() - start < 0.5

    def test_wide_rotating_portrait_recovers_fast(self):
        # 4,000 period-2 sets, one per arc: each appends its two blocks as
        # the walk passes, where a vector of 4,000 counts per set took
        # about 3 s (0.15 s now on a 2-vCPU host with Python 3.11.7)
        p = wide_rotating(4001)
        ct = construct_tree(p)
        start = time.perf_counter()
        assert recover_portrait(ct) == p
        assert time.perf_counter() - start < 1.0

    def test_degree46_period4(self):
        d = 46
        # the 46-adic expansion 0.(0 1 2 4) repeated
        angles = orbit(F(d ** 2 + 2 * d + 4, d ** 4 - 1), d)
        assert classify_rotation_set(angles, d) == (1, 4)
        assert deployment_vector(RotationSet(d, angles, 1)) == (1, 1, 1, 1) + (0,) * 41
        p = Portrait.create(d, [[F(i, d - 1)] for i in range(d - 1)] + [angles])
        an = analyze(p)
        assert an.all_ok
        assert an.recovered == p


def edited(ct, **fields):
    """``ct`` with single tree fields replaced."""
    return ct._replace(tree=ct.tree._replace(**fields))


class TestRecoveryErrors:
    """Each reachable raise of recovery, reached by a single-field edit of a
    census tree, except one: fewer fixed rays on the walk than fixed sectors
    needs a walk that misses a fixed sector while closing up after
    2 * |edges| steps, which no single edit produces, so a crafted
    disconnected tree reaches it.  A malformed tree raises
    ``InvariantViolationError`` and nothing else."""

    def check(self, ct, message):
        with pytest.raises(InvariantViolationError, match=f"^{re.escape(message)}$"):
            recover_portrait(ct)

    def test_fixed_sector_count(self, degree5_portrait):
        # v1 turns critical: it is no longer a Julia vertex, and d becomes 6
        ct = construct_tree(degree5_portrait)
        self.check(edited(ct, delta={**ct.tree.delta, "v1": 2}),
                   "2 fixed sectors found, expected 5")

    def test_marked_sector_not_fixed(self, degree5_portrait):
        # v2 carries the rotating pair
        ct = construct_tree(degree5_portrait)._replace(marked_sector=("v2", 0))
        self.check(ct, "the marked sector is not a fixed sector")

    def test_sector_permutation_not_a_rotation(self, basilica):
        ct = construct_tree(basilica)
        self.check(edited(ct, tau={**ct.tree.tau, "w1": "w1"}),
                   "sector permutation at v2 is not a rotation (germs ('w1', 'w1'))")

    def test_edge_collapses(self, basilica):
        ct = construct_tree(basilica)
        self.check(edited(ct, tau={**ct.tree.tau, "w2": "v2"}),
                   "edge v2-w2 collapses under tau")

    def test_walk_longer_than_the_edges_allow(self, basilica):
        ct = construct_tree(basilica)
        self.check(edited(ct, edges=ct.tree.edges[:-1]),
                   "boundary walk failed to close up")

    def test_walk_shorter_than_the_edges_demand(self, degree5_portrait):
        ct = construct_tree(degree5_portrait)
        self.check(edited(ct, edges=ct.tree.edges + (("v1", "v2"),)),
                   "boundary walk has 12 steps, expected 14")

    def test_walk_misses_a_fixed_sector(self):
        # the walk from v1 closes up around the edge v1-w1 and never reaches
        # the fixed Julia vertex x, which lies on the separate edge x-y
        ct = construct_tree(Portrait.create(3, [[F(0)], [F(1, 2)]]))
        vertices = ("v1", "w1", "x", "y")
        ct = edited(ct, vertices=vertices, edges=(("v1", "w1"),),
                    circular_order={"v1": ("w1",), "w1": ("v1",),
                                    "x": ("y",), "y": ("x",)},
                    gap_angles=dict.fromkeys(vertices, (1, (1,))),
                    tau={v: v for v in vertices},
                    delta={"v1": 1, "w1": 2, "x": 1, "y": 2})
        self.check(ct, "walk assigned 1 fixed rays, expected 2")

    def test_order_not_symmetric(self):
        # w2 put first in w1's order, although w2's order lists only v1
        ct = construct_tree(Portrait.create(3, [[F(0), F(1, 2)]]))
        order = ct.tree.circular_order
        self.check(edited(ct, circular_order={**order, "w1": ("w2",) + order["w1"]}),
                   "the order at w1 lists w2, but the order at w2 does not list w1")

    def test_order_empty(self, degree5_portrait):
        ct = construct_tree(degree5_portrait)
        ct = edited(ct, circular_order={**ct.tree.circular_order, "v1": ()})
        self.check(ct, "the order at v1 is empty")
        with pytest.raises(InvariantViolationError,
                           match="^marked sector 0 at v1 is not one of its 0 sectors$"):
            boundary_walk(ct)

    def test_single_neighbor_edits_raise_only_invariant_violations(self):
        # every insertion of a new neighbor into one circular order, at every
        # position, and every removal of one neighbor, on the (3, 2) census
        edits = 0
        for p in enumerate_portraits(3, 2):
            ct = construct_tree(p)
            t = ct.tree
            for v, order in t.circular_order.items():
                changed = [order[:i] + order[i + 1:] for i in range(len(order))]
                changed += [order[:i] + (u,) + order[i:] for u in t.vertices
                            if u != v and u not in order for i in range(len(order) + 1)]
                for new in changed:
                    edits += 1
                    try:
                        rec = recover_portrait(
                            edited(ct, circular_order={**t.circular_order, v: new}))
                    except InvariantViolationError:
                        continue
                    assert isinstance(rec, Portrait)
        assert edits == 466

    def test_no_rotation_set_matches(self):
        # delta 0 at v3 lowers d to 2, where no 4-element set has shift 2
        p = Portrait.create(3, [[F(0)], [F(1, 8), F(1, 4), F(3, 8), F(3, 4)],
                                [F(1, 2)]])
        ct = construct_tree(p)
        self.check(edited(ct, delta={**ct.tree.delta, "v3": 0}),
                   "no rotation set matches shift=2 cardinality=4 "
                   "deployment=(4,) read off v2")


class TestIntegerRoundTrip:
    """``analyze`` decides the round trip on integers: recovery hands over
    each set as numerators over its own denominator, and they are
    cross-multiplied against the numerators validation wrote.  A match keeps
    the input portrait as ``recovered``; ``Fraction``s are built only on a
    mismatch and by ``recover_portrait``."""

    def test_analyze_builds_no_fraction_in_recovery(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"recovery built Fraction{args}")

        monkeypatch.setattr(portraits.recovery, "Fraction", refuse)
        assert len(goldens()) == 457
        for p in goldens():
            an = analyze(p)
            assert an.round_trip_ok and an.all_ok
            assert an.recovered is p

    def test_recover_portrait_over_goldens(self):
        for p in goldens():
            assert recover_portrait(construct_tree(p)) == p

    # the degree-5 example recovers (5, [(4, [0, 3]), (4, [1]), (4, [2]),
    # (24, [3, 15])]): {0, 3/4}, {1/4}, {1/2} over 4 and {1/8, 5/8} over 24
    @pytest.mark.parametrize("edit, recovered", [
        (lambda d, f: (d, f[:3] + [(24, [3, 16])]),
         ["set 0/1 3/4", "set 1/8 2/3", "set 1/4", "set 1/2"]),
        (lambda d, f: (d, [(4, [0, 2])] + f[1:]),
         ["set 0/1 1/2", "set 1/8 5/8", "set 1/4", "set 1/2"]),
        (lambda d, f: (d, [(4, [0])] + f[1:]),
         ["set 0/1", "set 1/8 5/8", "set 1/4", "set 1/2"]),
        (lambda d, f: (d, f[:3] + [(24, [3, 15, 21])]),
         ["set 0/1 3/4", "set 1/8 5/8 7/8", "set 1/4", "set 1/2"]),
        (lambda d, f: (d, f[:2] + f[3:]),
         ["set 0/1 3/4", "set 1/8 5/8", "set 1/4"]),
        (lambda d, f: (d, f + [(24, [9])]),
         ["set 0/1 3/4", "set 1/8 5/8", "set 1/4", "set 3/8", "set 1/2"]),
        (lambda d, f: (d, f + [f[1]]),
         ["set 0/1 3/4", "set 1/8 5/8", "set 1/4", "set 1/4", "set 1/2"]),
        (lambda d, f: (d, [f[0], (5, [1])] + f[2:]),
         ["set 0/1 3/4", "set 1/8 5/8", "set 1/5", "set 1/2"]),
        # 5/16 lies between the numerators 2/8 and 3/8 of the portrait's q = 8
        (lambda d, f: (d, [f[0], (16, [5])] + f[2:]),
         ["set 0/1 3/4", "set 1/8 5/8", "set 5/16", "set 1/2"]),
    ], ids=["one-numerator", "fixed-numerator", "smaller-set", "larger-set",
            "fewer-sets", "more-sets", "repeated-set", "other-denominator",
            "between-numerators"])
    def test_differing_family_fails(self, monkeypatch, degree5_portrait, edit,
                                    recovered):
        original = portraits.report._recover
        monkeypatch.setattr(portraits.report, "_recover",
                            lambda ct, s: edit(*original(ct, s)))
        an = analyze(degree5_portrait)
        assert not an.round_trip_ok and not an.all_ok
        lines = ["degree 5", *recovered]
        assert an.recovered == Portrait(5, tuple(
            tuple(map(F, line.split()[1:])) for line in lines[1:]))
        assert render_report(an).endswith(
            "\nround trip: FAIL\nrecovered portrait:\n"
            + "".join(f"  {line}\n" for line in lines))

    def test_differing_degree_fails(self, monkeypatch, degree5_portrait):
        original = portraits.report._recover
        monkeypatch.setattr(portraits.report, "_recover",
                            lambda ct, s: (6, original(ct, s)[1]))
        an = analyze(degree5_portrait)
        assert not an.round_trip_ok
        assert render_report(an).endswith(
            "\nround trip: FAIL\nrecovered portrait:\n  degree 6\n"
            "  set 0/1 3/4\n  set 1/8 5/8\n  set 1/4\n  set 1/2\n")

    @pytest.mark.parametrize("edit", [
        lambda d, f: (d, f[:3] + [(8, [1, 5])]),
        lambda d, f: (d, [(8, [0, 6])] + f[1:]),
        lambda d, f: (d, f[::-1]),
    ], ids=["rotating-over-8", "fixed-over-8", "reversed-family"])
    def test_equal_values_over_other_denominators_match(self, monkeypatch,
                                                        degree5_portrait, edit):
        original = portraits.report._recover
        monkeypatch.setattr(portraits.report, "_recover",
                            lambda ct, s: edit(*original(ct, s)))
        an = analyze(degree5_portrait)
        assert an.round_trip_ok and an.recovered is degree5_portrait
