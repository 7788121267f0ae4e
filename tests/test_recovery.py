from fractions import Fraction as F

import pytest

from portraits import (Portrait, RotationSet, Sector, analyze, boundary_walk,
                       classify_rotation_set, construct_tree, deployment_vector,
                       enumerate_portraits, fixed_angles, recover_portrait,
                       sector_map)


def orbit(seed, degree):
    """The sorted forward orbit of a periodic angle."""
    out = [seed]
    while (nxt := degree * out[-1] % 1) != seed:
        out.append(nxt)
    return tuple(sorted(out))


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
                seen = [ct.arc_anchor[s.vertex][s.index]
                        for s in boundary_walk(ct)
                        if s.vertex in ct.arc_anchor]
                assert seen == sorted(seen)
                assert set(seen) == {a for s in p.sets for a in s}


class TestSectorMap:
    def test_single_sector_fixed(self, degree5_portrait):
        ct = construct_tree(degree5_portrait)
        assert sector_map(ct, Sector("v3", 0)) == Sector("v3", 0)

    def test_rotating_sectors_swap(self, degree5_portrait):
        ct = construct_tree(degree5_portrait)
        assert sector_map(ct, Sector("v2", 0)) == Sector("v2", 1)
        assert sector_map(ct, Sector("v2", 1)) == Sector("v2", 0)

    def test_fixed_vertex_sectors_stay(self, degree5_portrait):
        ct = construct_tree(degree5_portrait)
        for k in range(2):
            assert sector_map(ct, Sector("v1", k)) == Sector("v1", k)

    def test_sector_count_equals_edge_count(self):
        # one landing ray per sector at every set vertex
        for p in enumerate_portraits(3, 3):
            ct = construct_tree(p)
            for j, s in enumerate(p.sets, 1):
                v = ct.julia_vertex_of_set[j]
                assert ct.tree.degree_of(v) == len(s)


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
                fixed_sectors = 0
                for j, s in enumerate(p.sets, 1):
                    v = ct.julia_vertex_of_set[j]
                    if all(sector_map(ct, Sector(v, k)) == Sector(v, k)
                           for k in range(len(s))):
                        fixed_sectors += len(s)
                assert fixed_sectors == d - 1

    def test_round_trip_census(self):
        for d in (2, 3):
            for p in enumerate_portraits(d, 3):
                assert recover_portrait(construct_tree(p)) == p

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
