import math
import time
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement

import pytest

from portraits import (CapacityError, MalformedSetError, Portrait, RotationSet,
                       as_angle_tuple, classify_rotation_set, deployment_vector,
                       enumerate_portraits, enumerate_rotation_sets,
                       fixed_angles, generate_rotation_set, validate_portrait)
import portraits.enumeration
import portraits.rotation
from portraits.enumeration import _CANDIDATE_CEILING, _candidate_count, _pool
from portraits.rotation import _closed_form


def classified(angles, degree):
    """The RotationSet of a rotation set's angles, its shift classified."""
    return RotationSet(degree, angles, classify_rotation_set(angles, degree)[0])


def map_angle(theta, degree):
    """The d-fold covering map on Fractions, theta |-> d*theta (mod 1)."""
    return theta * degree % 1


def shapes(d, max_cardinality, max_period):
    """Each (n, m) with n <= max_cardinality, g = gcd(m, n) <= d-1 and
    n/g <= max_period, walked as (period, g, reduced shift)."""
    for p in range(1, min(max_period, max_cardinality) + 1):
        for g in range(1, min(d - 1, max_cardinality // p) + 1):
            for r in range(p):
                if math.gcd(r, p) == 1:
                    yield g * p, g * r


def block_sequences(n, d):
    """Every deployment of n angles among the d-1 arcs between fixed
    angles, as the non-decreasing block sequence the closed form reads."""
    return combinations_with_replacement(range(d - 1), n)


def dense(blocks, d):
    """The deployment vector of a block sequence: its d-1 block counts."""
    return tuple(blocks.count(b) for b in range(d - 1))


def deployment_walk(d, max_cardinality, max_period):
    """Oracle: the pool as ``_pool`` built it before it grew cliques of
    cycles, the closed form run on every deployment of every (n, m) of
    ``shapes``, fixed sets included; (shift, blocks, q, numerators)
    of each candidate that increases."""
    return [(m, blocks, *found)
            for n, m in shapes(d, max_cardinality, max_period)
            for blocks in block_sequences(n, d)
            if (found := _closed_form(d, m, blocks)) is not None]


def walked_pool(d, max_cardinality, max_period, big):
    """``deployment_walk``'s rotating sets as sorted (shift, support,
    numerators over big) rows, a support the sorted blocks occupied."""
    return sorted((m, sorted(set(blocks)), tuple(x * (big // q) for x in xs))
                  for m, blocks, q, xs in deployment_walk(d, max_cardinality, max_period)
                  if m)


def support_blocks(support):
    """The sorted blocks of a ``_pool`` support bitmask, bit b for block b."""
    return [b for b in range(support.bit_length()) if support >> b & 1]


def single_cycles(d, p, r):
    """The sets of one cycle and rotation number r/p, as numerator lists
    over d**p - 1; every deployment gives one."""
    return [_closed_form(d, r, blocks)[1] for blocks in block_sequences(p, d)]


def alternate(xs, ys):
    """Oracle: True iff increasing numerators xs and ys, as many of each,
    alternate around the circle from xs: xs[0] < ys[0] < xs[1] < ... < ys[-1]."""
    return (all(x < y for x, y in zip(xs, ys))
            and all(y < x for y, x in zip(ys, xs[1:])))


def proposed_pairs(d, p):
    """The (a, b) block sequences ``_pool`` pairs at period p: for each
    sorted sequence s of 2p blocks, a takes its even positions, b the odd."""
    for s in block_sequences(2 * p, d):
        yield s[::2], s[1::2]


def shape_walk_count(degree, max_cardinality, max_period):
    """Oracle: the candidate count taken shift by shift over ``shapes``,
    as ``enumerate_rotation_sets`` counted before it used Euler's phi.
    Stops once past the ceiling, as the enumeration's refusal does."""
    count = 0
    for n, _ in shapes(degree, max_cardinality, max_period):
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


def fraction_generate(degree, cardinality, shift, deployment):
    """Oracle: Goldberg's closed form checked as ``generate_rotation_set``
    once checked it, by classifying the built Fractions and reading their
    deployment vector (the library now relies on the proof in its
    docstring instead)."""
    n = cardinality
    if sum(deployment) != n:
        return None
    blocks = [b for b, c in enumerate(deployment) for _ in range(c)]
    digits = [blocks[i] + (i + shift >= n) for i in range(n)]
    p = n // math.gcd(shift, n)
    q = degree ** p - 1
    angles = tuple(F(sum(digits[(i + j * shift) % n] * degree ** (p - 1 - j)
                         for j in range(p)), q) for i in range(n))
    if angles[-1] >= 1 or any(a >= b for a, b in zip(angles, angles[1:])):
        return None
    rs = RotationSet(degree, angles, shift)
    if (classify_rotation_set(angles, degree) != (shift, n)
            or deployment_vector(rs) != tuple(deployment)):
        return None
    return rs


def closed_form_sum(degree, shift, blocks):
    """Oracle: Goldberg's closed form as ``generate_rotation_set`` took it
    before the cycle recurrence, one p-term sum per numerator (O(n * p)
    steps); (q, numerators) when they increase in [0, q), else None."""
    n = len(blocks)
    digits = [blocks[i] + (i + shift >= n) for i in range(n)]
    p = n // math.gcd(shift, n)
    q = degree ** p - 1
    numerators = [sum(digits[(i + j * shift) % n] * degree ** (p - 1 - j)
                      for j in range(p)) for i in range(n)]
    if numerators[-1] >= q or any(a >= b for a, b in zip(numerators, numerators[1:])):
        return None
    return q, numerators


def realised(degree, cardinality, shift):
    """How many deployments of (cardinality, shift) give a rotation set."""
    return sum(_closed_form(degree, shift, blocks) is not None
               for blocks in block_sequences(cardinality, degree))


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
        rs = classified((F(1, 8), F(5, 8)), 5)
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

    def test_hostile_set_beside_a_valid_one(self, monkeypatch):
        # the same 2000 angles plus the singleton {0}: the common
        # denominator is taken over the singleton alone, and P2 compares
        # the Fractions; a common denominator of all 2001 angles took
        # seconds to compute
        primes = [n for n in range(2, 17400)
                  if all(n % k for k in range(2, math.isqrt(n) + 1))][:2000]
        angles = sorted(F(1, p ** math.ceil(99 / math.log10(p))) for p in primes)
        portrait = Portrait.create(2, [angles, [F(0)]])
        taken = []

        def lcm(*args):
            taken.extend(args)
            return math.lcm(*args)

        monkeypatch.setattr(portraits.rotation, "lcm", lcm)
        start = time.perf_counter()
        result = validate_portrait(portrait)
        elapsed = time.perf_counter() - start
        assert result.codes == ("P1",)
        assert result.violations[0].witness[0] == 2
        assert taken == [1]
        assert elapsed < 2.0


class TestDeployment:
    def test_examples(self):
        rs = classified((F(1, 8), F(5, 8)), 5)
        assert deployment_vector(rs) == (1, 0, 1, 0)
        rs = classified((F(0), F(1, 4), F(1, 2), F(3, 4)), 5)
        assert deployment_vector(rs) == (1, 1, 1, 1)
        rs = classified((F(1, 3), F(2, 3)), 2)
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

    def test_degree9_period2_is_fast(self):
        # 36 cycles and 330 proposed pairs give the 9,231 rotating sets;
        # the deployment walk tried some 450,000 candidates
        start = time.perf_counter()
        sets = enumerate_rotation_sets(9, 16, 2)
        assert time.perf_counter() - start < 3
        assert len(sets) == 9486
        assert sum(rs.is_fixed for rs in sets) == 2 ** 8 - 1

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
        # enumerate_portraits passes max_cardinality (d-1) * max_period, so
        # a zero period must be reported as the period the caller gave
        with pytest.raises(ValueError, match="^max_period must be >= 1, got 0$"):
            enumerate_rotation_sets(2, 0, 0)
        with pytest.raises(ValueError, match="^max_period must be >= 1, got 0$"):
            enumerate_portraits(2, 0)
        # a float or a bool is refused by name, not run or left to a
        # TypeError deep inside
        for bad in (2.5, 2.0, True, "2", None):
            with pytest.raises(ValueError, match="^max_period must be an integer, got "):
                enumerate_rotation_sets(2, 4, bad)
            with pytest.raises(ValueError, match="^max_cardinality must be an integer, got "):
                enumerate_rotation_sets(2, bad, 2)
            with pytest.raises(ValueError, match="^max_period must be an integer, got "):
                enumerate_portraits(3, bad)


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

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_self_check_matches_fraction_oracle(self, d):
        # every (n, m, deployment) with n <= 8: the increasing test alone
        # accepts exactly the candidates that the Fraction self-check
        # (classification and deployment vector) accepts
        accepted = rejected = 0
        for n in range(1, 9):
            for m in range(n):
                for blocks in block_sequences(n, d):
                    dep = dense(blocks, d)
                    expected = fraction_generate(d, n, m, dep)
                    assert generate_rotation_set(d, n, m, dep) == expected
                    accepted += expected is not None
                    rejected += expected is None
        assert accepted and rejected

    def test_input_validation(self):
        with pytest.raises(ValueError):
            generate_rotation_set(5, 2, 2, (1, 0, 1, 0))   # shift out of range
        with pytest.raises(ValueError):
            generate_rotation_set(5, 2, 1, (1, 0, 1))      # wrong length
        with pytest.raises(ValueError):
            generate_rotation_set(5, 2, 1, (-1, 1, 1, 1))  # negative entry
        # a bool would be kept as the set's shift, and a float cardinality
        # would fail with a bare TypeError in gcd
        for bad in (True, 1.0, "1", None):
            with pytest.raises(ValueError, match="^shift must be an integer, got "):
                generate_rotation_set(2, 2, bad, (2,))
        for bad in (2.0, True, "2", None):
            with pytest.raises(ValueError, match="^cardinality must be an integer, got "):
                generate_rotation_set(2, bad, 1, (2,))
        for bad in (0, -1):
            with pytest.raises(ValueError, match=f"^cardinality must be >= 1, got {bad}$"):
                generate_rotation_set(2, bad, 0, ())
        # int(2.7) would read the deployment (2,) and return {1/3, 2/3}
        assert generate_rotation_set(2, 2, 1, (2,)) is not None
        for entry in (2.7, 2.0, "2", True, F(2)):
            with pytest.raises(ValueError, match="deployment entries must be integers"):
                generate_rotation_set(2, 2, 1, (entry,))


class TestClosedForm:
    def test_matches_term_by_term_sum(self):
        # every (n, m, deployment) with d <= 6 and n <= 8, the 11,295
        # candidates with gcd(m, n) <= d-1 among them
        tried = 0
        for d in range(2, 7):
            for n in range(1, 9):
                for m in range(n):
                    for blocks in block_sequences(n, d):
                        assert _closed_form(d, m, blocks) == closed_form_sum(d, m, blocks)
                        tried += 1
        assert tried == 13014

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_realised_deployment_counts(self, d):
        # fixed sets: the 0/1 deployments
        for n in range(1, d):
            assert realised(d, n, 0) == math.comb(d - 1, n)
        for q in range(1, 6):
            for r in range(q):
                if math.gcd(r, q) == 1:
                    # one cycle: every deployment is realised
                    assert realised(d, q, r) == math.comb(q + d - 2, d - 2)
                    # d-1 cycles, the most a rotation set has
                    assert realised(d, (d - 1) * q, (d - 1) * r) == q ** (d - 2)


class TestCyclePool:
    @pytest.mark.parametrize("d,p", [(d, p) for d in range(2, 7) for p in range(1, 5)]
                             + [(7, 2), (3, 6)])
    def test_matches_deployment_walk(self, d, p):
        big, pool = _pool(d, (d - 1) * p, p)
        assert big == math.lcm(*(d ** k - 1 for k in range(1, p + 1)))
        for _, _, xs, angles in pool:
            assert angles == tuple(F(x, big) for x in xs)
        ours = sorted((m, support_blocks(support), xs) for m, support, xs, _ in pool)
        assert ours == walked_pool(d, (d - 1) * p, p, big)

    @pytest.mark.parametrize("d,p", [(d, p) for d in range(2, 7) for p in range(1, 5)]
                             + [(7, 2)])
    def test_every_proposed_pair_alternates(self, d, p):
        # the module docstring's proof that the pool needs no alternation test
        pairs = 0
        for r in range(1, p):
            if math.gcd(r, p) != 1:
                continue
            for a, b in proposed_pairs(d, p):
                if a != b:
                    assert alternate(_closed_form(d, r, a)[1],
                                     _closed_form(d, r, b)[1]), (r, a, b)
                    pairs += 1
        assert (pairs > 0) == (d > 2 and p > 1)

    def test_cardinality_bound_limits_the_cliques(self):
        for max_cardinality in range(1, 13):
            big, pool = _pool(5, max_cardinality, 3)
            ours = sorted((m, support_blocks(support), xs) for m, support, xs, _ in pool)
            assert ours == walked_pool(5, max_cardinality, 3, big)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_alternation_is_a_union_of_shift_2r(self, d):
        # every pair of distinct cycles of one rotation number r/p, p <= 4:
        # they alternate exactly when their union rotates by 2r
        both = 0
        for p in range(2, 5):
            q = d ** p - 1
            for r in range(1, p):
                if math.gcd(r, p) != 1:
                    continue
                for a, b in combinations(single_cycles(d, p, r), 2):
                    union = sorted(F(x, q) for x in a + b)
                    rotates = classify_rotation_set(union, d) == (2 * r, 2 * p)
                    assert (alternate(a, b) or alternate(b, a)) == rotates
                    both += rotates
        assert (both > 0) == (d > 2)  # degree 2 has one cycle per rotation number

    def test_pinned_two_cycle_rows(self):
        # g-cycle sets of rotation number 1/2: g = 1 gives C(d, 2) and
        # g = d-1 gives 2**(d-2)
        assert [realised(6, 2 * g, g) for g in range(1, 6)] == [15, 55, 85, 60, 16]
        assert [realised(7, 2 * g, g) for g in range(1, 7)] == [21, 105, 231, 258, 144, 32]
        for d, row in ((6, [15, 55, 85, 60, 16]), (7, [21, 105, 231, 258, 144, 32])):
            _, pool = _pool(d, 2 * (d - 1), 2)
            counts = Counter(m for m, _, _, _ in pool)
            assert [counts[g] for g in range(1, d)] == row

    def test_no_fixed_set_in_the_pool(self, monkeypatch):
        # the fixed sets come from the fixed angles, not the closed form
        shapes_tried = []

        def closed_form(d, m, blocks):
            shapes_tried.append((len(blocks), m))
            return _closed_form(d, m, blocks)

        monkeypatch.setattr(portraits.enumeration, "_closed_form", closed_form)
        sets = enumerate_rotation_sets(7, 12, 2)
        assert len(sets) == 791 + 63
        assert set(shapes_tried) == {(2, 1)}
        assert len(shapes_tried) == 21
