"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time
from fractions import Fraction as F

import portraits
from portraits import (Portrait, check_degree_angle, check_expanding,
                       check_julia_normalization, check_tree_axioms,
                       classify_vertices, construct_tree, count_fixed_points, deployment_vector,
                       enumerate_portraits, enumerate_rotation_sets,
                       recover_portrait, validate_portrait)

from conftest import BASILICA_SETS, DEGREE5_SETS


def verdict(number, ok, text):
    marker = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {marker}: {text}")
    assert ok, f"criterion {number}: {text}"


def test_c1_degree5_golden_fixture():
    started = time.monotonic()
    p = Portrait.create(5, DEGREE5_SETS)
    assert validate_portrait(p).ok
    sets = validate_portrait(p).valid_sets()
    assert [rs.rotation_number for rs in sets] == [F(0), F(1, 2), F(0), F(0)]

    ct = construct_tree(p)
    regions = ct.regions
    assert len(regions) == 3
    assert sum(r.cc for r in regions) == 4 == p.degree - 1

    t = ct.tree
    classes = classify_vertices(t)
    julia = [v for v in t.vertices if classes[v].kind == "julia"]
    fatou = [v for v in t.vertices if classes[v].kind == "fatou"]
    assert len(t.vertices) == 7 and len(julia) == 4 and len(fatou) == 3
    assert len(t.edges) == 6
    assert t.total_degree() == 5
    assert count_fixed_points(t) == 5

    moved = {v: t.tau[v] for v in t.vertices if t.tau[v] != v}
    assert len(moved) == 2
    (a, ta), (b, tb) = sorted(moved.items())
    assert ta == b and tb == a and a in fatou and b in fatou

    assert recover_portrait(ct) == p
    elapsed = time.monotonic() - started
    verdict(1, elapsed < 1.0,
            f"degree-5 fixture: 3 regions, capacity sum 4, 7 vertices, "
            f"6 edges, 5 fixed points, one interchanged pair, exact round "
            f"trip ({elapsed:.3f}s < 1s)")


def test_c2_exhaustive_small_scale_suite():
    started = time.monotonic()
    total = 0
    for d in (2, 3):
        for p in enumerate_portraits(d, 3):
            total += 1
            sets = validate_portrait(p).valid_sets()
            k = p.k
            ell = sum(rs.cardinality for rs in sets if not rs.is_fixed)
            ct = construct_tree(p)
            regions = ct.regions
            assert len(regions) == ell + d - k, p
            assert len(regions) == 1 + sum(rs.cardinality - 1 for rs in sets), p
            assert sum(r.cc for r in regions) == d - 1, p

            t = ct.tree
            classes = classify_vertices(t)
            assert count_fixed_points(t) == d, p
            julia_fixed = sum(1 for v in t.vertices
                              if t.tau[v] == v and classes[v].kind == "julia")
            fatou_fixed = sum(1 for v in t.vertices
                              if t.tau[v] == v and classes[v].kind == "fatou")
            assert julia_fixed == k and fatou_fixed == d - k, p

            assert check_tree_axioms(t) == (), p
            assert check_degree_angle(t) == (), p
            assert check_julia_normalization(t, classes) == (), p
            expanding, witness = check_expanding(t, classes)
            assert expanding, (p, witness)

            assert recover_portrait(ct) == p, p
    elapsed = time.monotonic() - started
    verdict(2, elapsed < 300.0,
            f"{total} valid portraits for degrees 2 and 3, period <= 3: all "
            f"counts, checks and round trips pass ({elapsed:.2f}s < 300s)")


def test_c3_rotation_set_uniqueness():
    started = time.monotonic()
    counted = {}
    for d in (2, 3, 4):
        seen = {}
        for rs in enumerate_rotation_sets(d, (d - 1) * 4, 4):
            key = (rs.shift, rs.cardinality, deployment_vector(rs))
            assert key not in seen, (
                f"degree {d}: {seen[key]} and {rs.angles} share {key}")
            seen[key] = rs.angles
        counted[d] = len(seen)
    elapsed = time.monotonic() - started
    verdict(3, elapsed < 120.0,
            f"no (shift, cardinality, deployment) collisions among "
            f"{counted} rotation sets, period <= 4 ({elapsed:.2f}s < 120s)")


def test_c4_negative_validator_suite():
    missing_cover = Portrait.create(5, [[F(1, 8), F(5, 8)]])
    assert validate_portrait(missing_cover).codes == ("P3-missing",)

    unseparated = Portrait.create(3, [[F(0)], [F(1, 2)],
                                      [F(1, 8), F(3, 8)], [F(5, 8), F(7, 8)]])
    assert validate_portrait(unseparated).codes == ("P4",)

    linked = Portrait.create(5, [[F(0), F(1, 2)], [F(1, 4), F(3, 4)]])
    assert validate_portrait(linked).codes == ("P2-linked",)

    not_rotation = Portrait.create(5, [[F(1, 8), F(1, 4)]])
    assert validate_portrait(not_rotation).codes == ("P1",)

    verdict(4, True, "negative suite reports exactly P3-missing, P4, "
                     "P2-linked, P1 on the four crafted portraits")


def test_c5_basilica_fixture():
    p = Portrait.create(2, BASILICA_SETS)
    ct = construct_tree(p)
    regions = ct.regions
    assert len(regions) == 2
    assert tuple(r.cc for r in regions) == (1, 0)

    t = ct.tree
    assert len(t.vertices) == 4 and len(t.edges) == 3
    classes = classify_vertices(t)
    fatou = [v for v in t.vertices if classes[v].kind == "fatou"]
    assert sorted(fatou) == ["w1", "w2"]
    assert t.tau["w1"] == "w2" and t.tau["w2"] == "w1"
    assert classes["w1"].period == 2
    assert count_fixed_points(t) == 2
    assert recover_portrait(ct) == p
    verdict(5, True, "basilica: regions with capacities (1, 0), 4 vertices, "
                     "3 edges, a fatou 2-cycle, 2 fixed points, exact round trip")


def test_c6_no_polynomial_coefficients_in_scope():
    # the deliverable certifies realizability through the checked expanding
    # tree and the exact round trip; it never computes polynomial
    # coefficients or raster julia sets, and exposes no such api
    names = {name.lower() for name in dir(portraits)}
    assert not any("polynomial" in n or "coefficient" in n or "raster" in n
                   for n in names)

    p = Portrait.create(5, DEGREE5_SETS)
    ct = construct_tree(p)
    expanding, _ = check_expanding(ct.tree)
    certificate = (check_tree_axioms(ct.tree) == () and expanding
                   and recover_portrait(ct) == p)
    assert certificate
    verdict(6, True, "no polynomial-coefficient or raster output is produced; "
                     "the certificate is the checked expanding tree plus the "
                     "exact round trip")
