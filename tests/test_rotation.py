import math
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from portraits import (CapacityError, MalformedSetError, Portrait, RotationSet,
                       as_angle_tuple, classify_rotation_set, deployment_vector,
                       enumerate_portraits, enumerate_rotation_sets,
                       fixed_angles, generate_rotation_set, validate_portrait)
from portraits.rotation import _CANDIDATE_CEILING, _candidate_count, _shapes


def map_angle(theta, degree):
    """The d-fold covering map on Fractions, theta |-> d*theta (mod 1)."""
    return theta * degree % 1


def shape_walk_count(degree, max_cardinality, max_period):
    """Oracle: the candidate count taken shift by shift over ``_shapes``,
    as ``enumerate_rotation_sets`` counted before it used Euler's phi.
    Stops once past the ceiling, as the enumeration's refusal does."""
    count = 0
    for n, _ in _shapes(degree, max_cardinality, max_period):
        count += math.comb(n + degree - 2, degree - 2)
        if count > _CANDIDATE_CEILING:
            break
    return count


def fraction_classify(angles, degree):
    """Oracle: the shift search on Fractions, one ``map_angle`` per angle,
    that ``classify_rotation_set`` ran before it moved to integers."""
    th = as_angle_tuple(angles)
    n = len(th)
    index = {a: i for i, a in enumerate(th)}
    m = index.get(map_angle(th[0], degree))
    if m is None:
        return None
    for i, a in enumerate(th):
        if index.get(map_angle(a, degree)) != (i + m) % n:
            return None
    return m, n


def brute_force_rotation_sets(degree, period, max_size):
    """Independent oracle: test every subset of the periodic-angle grid.

    Angles of period p lie on the k/(d**p - 1) grid, so the union over
    p <= period is scanned subset by subset.  Exhaustive by definition of a
    rotation set, with no orbit reasoning at all; only feasible tiny.
    """
    grid = sorted({F(k, degree ** p - 1)
                   for p in range(1, period + 1)
                   for k in range(degree ** p - 1)})
    found = []
    for size in range(1, max_size + 1):
        for combo in combinations(grid, size):
            result = classify_rotation_set(combo, degree)
            if result is not None:
                found.append((combo, result[0]))
    return sorted(found)


def orbit_union_rotation_sets(degree, max_period, max_size):
    """Second oracle: unions of whole orbits found by scanning the grid.

    Every angle of exact period p lies on the grid k/(d**p - 1), so scanning
    it finds every periodic orbit.  A rotation set splits into orbits of one
    period that are rotation sets on their own with a common shift, so the
    orbits that are rotation sets are grouped by (period, shift) and every
    union of at most max_size // p orbits of one group is classified.  Far
    wider reach than the subset search, with no closed form involved.
    """
    classes = {}
    for p in range(1, max_period + 1):
        q = degree ** p - 1
        seen = set()
        for k in range(q):
            a = F(k, q)
            if a in seen:
                continue
            orbit = [a]
            b = map_angle(a, degree)
            while b != a:
                orbit.append(b)
                b = map_angle(b, degree)
            seen.update(orbit)
            if len(orbit) != p:
                continue  # lower exact period; found in its own pass
            th = tuple(sorted(orbit))
            found = classify_rotation_set(th, degree)
            if found is not None:
                classes.setdefault((p, found[0]), []).append(th)
    found = []
    for (p, _), orbits in classes.items():
        for g in range(1, min(max_size // p, len(orbits)) + 1):
            for combo in combinations(orbits, g):
                merged = tuple(sorted(a for orbit in combo for a in orbit))
                result = classify_rotation_set(merged, degree)
                if result is not None:
                    found.append((merged, result[0]))
    return sorted(found)


class TestClassify:
    def test_examples(self):
        assert classify_rotation_set((F(1, 8), F(5, 8)), 5) == (1, 2)
        assert classify_rotation_set((F(0), F(3, 4)), 5) == (0, 2)
        assert classify_rotation_set((F(1, 8), F(1, 4)), 5) is None

    def test_malformed_inputs(self):
        with pytest.raises(MalformedSetError):
            classify_rotation_set((F(1, 4), F(1, 8)), 5)
        with pytest.raises(MalformedSetError):
            classify_rotation_set((F(1, 8), F(1, 8)), 5)
        with pytest.raises(MalformedSetError):
            classify_rotation_set((), 5)

    def test_properties(self):
        rs = RotationSet.from_angles((F(1, 8), F(5, 8)), 5)
        assert rs.cardinality == 2
        assert rs.rotation_number == F(1, 2)
        assert rs.period == 2
        assert not rs.is_fixed

    def test_denominator_divides_power(self):
        # every element denominator divides d**period - 1
        for rs in enumerate_rotation_sets(3, 6, 3):
            q = rs.degree ** rs.period - 1
            assert all(q % a.denominator == 0 for a in rs.angles)


class TestClassifyOracle:
    def test_census_sets(self):
        checked = 0
        for d in (2, 3, 4):
            sets = {s for p in enumerate_portraits(d, 3) for s in p.sets}
            sets.update(rs.angles for rs in enumerate_rotation_sets(d, (d - 1) * 3, 3))
            for s in sets:
                assert classify_rotation_set(s, d) == fraction_classify(s, d) is not None
                checked += 1
        assert checked > 100

    def test_mixed_denominators(self):
        cases = [((F(1, 8), F(1, 4), F(3, 8), F(3, 4)), 3, (2, 4)),
                 ((F(0), F(1, 4), F(1, 2), F(3, 4)), 5, (0, 4)),
                 ((F(0), F(1, 2)), 3, (0, 2)),
                 ((F(1, 8), F(1, 4), F(3, 8), F(3, 4)), 5, None),
                 ((F(1, 7), F(1, 3), F(2, 3)), 2, None)]
        for angles, d, expected in cases:
            angles = tuple(sorted(angles))
            assert classify_rotation_set(angles, d) == expected
            assert fraction_classify(angles, d) == expected

    def test_every_small_subset_of_a_farey_grid(self):
        # rotation sets and non-rotation sets alike, denominators mixed
        grid = sorted({F(k, q) for q in range(1, 10) for k in range(q)})
        outcomes = set()
        for size in (1, 2, 3):
            for combo in combinations(grid, size):
                for d in (2, 3, 4):
                    result = classify_rotation_set(combo, d)
                    assert result == fraction_classify(combo, d)
                    outcomes.add(result is None)
        assert outcomes == {True, False}

    def test_hostile_denominators_fail_fast(self):
        # about 2000 angles over powers of distinct primes with about 100
        # digits each: pairwise coprime, so their common denominator would
        # run to some 200000 digits
        primes = [n for n in range(2, 17400)
                  if all(n % k for k in range(2, math.isqrt(n) + 1))][:2000]
        angles = sorted(F(1, p ** math.ceil(99 / math.log10(p))) for p in primes)
        portrait = Portrait.create(2, [angles])
        start = time.perf_counter()
        assert classify_rotation_set(angles, 2) is None
        assert validate_portrait(portrait).codes == ("P1",)
        assert time.perf_counter() - start < 1.0


class TestDeployment:
    def test_examples(self):
        rs = RotationSet.from_angles((F(1, 8), F(5, 8)), 5)
        assert deployment_vector(rs) == (1, 0, 1, 0)
        rs = RotationSet.from_angles((F(0), F(1, 4), F(1, 2), F(3, 4)), 5)
        assert deployment_vector(rs) == (1, 1, 1, 1)
        rs = RotationSet.from_angles((F(1, 3), F(2, 3)), 2)
        assert deployment_vector(rs) == (2,)

    def test_entries_sum_to_cardinality(self):
        for rs in enumerate_rotation_sets(4, 9, 3):
            dep = deployment_vector(rs)
            assert len(dep) == 3
            assert sum(dep) == rs.cardinality


class TestEnumerate:
    def test_matches_brute_force_d2(self):
        oracle = brute_force_rotation_sets(2, 3, 4)
        ours = sorted((rs.angles, rs.shift)
                      for rs in enumerate_rotation_sets(2, 4, 3))
        assert ours == oracle

    def test_matches_brute_force_d3(self):
        oracle = brute_force_rotation_sets(3, 2, 5)
        ours = sorted((rs.angles, rs.shift)
                      for rs in enumerate_rotation_sets(3, 5, 2))
        assert ours == oracle

    @pytest.mark.parametrize("d,p", [(2, 10), (3, 6), (4, 4), (5, 3), (6, 2)])
    def test_matches_orbit_union_scan(self, d, p):
        ours = sorted((rs.angles, rs.shift)
                      for rs in enumerate_rotation_sets(d, (d - 1) * p, p))
        assert ours == orbit_union_rotation_sets(d, p, (d - 1) * p)

    def test_rotation_half_d2(self):
        sets = [rs for rs in enumerate_rotation_sets(2, 2, 2)
                if rs.rotation_number == F(1, 2)]
        assert [rs.angles for rs in sets] == [(F(1, 3), F(2, 3))]

    def test_rotation_third_d2(self):
        sets = [rs.angles for rs in enumerate_rotation_sets(2, 3, 3)
                if rs.rotation_number == F(1, 3)]
        assert (F(1, 7), F(2, 7), F(4, 7)) in sets

    def test_fixed_sets_are_subsets_of_fixed_angles(self):
        sets = [rs.angles for rs in enumerate_rotation_sets(3, 2, 2)
                if rs.is_fixed]
        expected = [(F(0),), (F(0), F(1, 2)), (F(1, 2),)]
        assert sorted(sets) == expected

    def test_zero_rotation_characterization(self):
        for d in (2, 3, 4):
            fixed = set(fixed_angles(d))
            for rs in enumerate_rotation_sets(d, (d - 1) * 3, 3):
                assert rs.is_fixed == set(rs.angles).issubset(fixed)

    def test_singletons_have_rotation_zero(self):
        for d in (2, 3, 4):
            for rs in enumerate_rotation_sets(d, (d - 1) * 3, 3):
                if rs.cardinality == 1:
                    assert rs.shift == 0

    def test_shift_condition_holds(self):
        for rs in enumerate_rotation_sets(4, 9, 3):
            n = rs.cardinality
            for i, a in enumerate(rs.angles):
                assert map_angle(a, 4) == rs.angles[(i + rs.shift) % n]

    def test_deterministic_order(self):
        a = enumerate_rotation_sets(3, 6, 3)
        b = enumerate_rotation_sets(3, 6, 3)
        assert a == b
        assert a == sorted(a, key=lambda rs: rs.angles)

    def test_oversized_request_fails_fast(self):
        # about 2e11 candidate triples: refused before any set is built
        with pytest.raises(CapacityError):
            enumerate_rotation_sets(10, 90, 10)

    @pytest.mark.parametrize("degree", range(2, 8))
    def test_candidate_count_matches_shape_walk(self, degree):
        # 64 (max_cardinality, max_period) pairs per degree, on both sides
        # of the ceiling
        for max_cardinality in (1, 2, 3, 5, 8, 20, 60, 400):
            for max_period in (1, 2, 3, 4, 7, 12, 50, 10**4):
                expected = shape_walk_count(degree, max_cardinality, max_period)
                count = _candidate_count(degree, max_cardinality, max_period)
                if expected > _CANDIDATE_CEILING:
                    assert count > _CANDIDATE_CEILING
                else:
                    assert count == expected

    def test_huge_degree2_bounds_refused_fast(self):
        # about 3600 periods pass before the count clears the ceiling
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            enumerate_rotation_sets(2, 10**9, 10**9)
        assert time.perf_counter() - start < 0.5

    def test_large_cardinality_bound_stays_cheap(self):
        # degree 2 has one set per (period, shift), however large the bound
        sets = [rs.angles for rs in enumerate_rotation_sets(2, 1000, 3)]
        assert sets == [(F(0),), (F(1, 7), F(2, 7), F(4, 7)), (F(1, 3), F(2, 3)),
                        (F(3, 7), F(5, 7), F(6, 7))]

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            enumerate_rotation_sets(2, 0, 3)
        with pytest.raises(ValueError):
            enumerate_rotation_sets(2, 3, 0)


class TestGenerate:
    def test_examples(self):
        rs = generate_rotation_set(5, 2, 1, (1, 0, 1, 0))
        assert rs is not None and rs.angles == (F(1, 8), F(5, 8))
        rs = generate_rotation_set(2, 2, 1, (2,))
        assert rs is not None and rs.angles == (F(1, 3), F(2, 3))
        assert generate_rotation_set(5, 2, 1, (3, 0, 0, 0)) is None

    def test_round_trip_through_determinants(self):
        # shift + cardinality + deployment pin down every enumerated set
        for d in (2, 3):
            for rs in enumerate_rotation_sets(d, (d - 1) * 3, 3):
                again = generate_rotation_set(
                    d, rs.cardinality, rs.shift, deployment_vector(rs))
                assert again == rs

    def test_uniqueness_no_collisions(self):
        for d in (2, 3, 4):
            seen = {}
            for rs in enumerate_rotation_sets(d, (d - 1) * 4, 4):
                key = (rs.shift, rs.cardinality, deployment_vector(rs))
                assert key not in seen, (
                    f"d={d}: {seen.get(key)} and {rs.angles} share {key}")
                seen[key] = rs.angles

    def test_input_validation(self):
        with pytest.raises(ValueError):
            generate_rotation_set(5, 2, 2, (1, 0, 1, 0))   # shift out of range
        with pytest.raises(ValueError):
            generate_rotation_set(5, 2, 1, (1, 0, 1))      # wrong length
        with pytest.raises(ValueError):
            generate_rotation_set(5, 2, 1, (-1, 1, 1, 1))  # negative entry
