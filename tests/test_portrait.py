import random
import time
from bisect import bisect_right
from fractions import Fraction as F
from itertools import combinations, product
from math import comb, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from portraits import (CapacityError, InvalidPortraitError, MalformedSetError,
                       Portrait, Violation, construct_tree,
                       classify_rotation_set, enumerate_portraits,
                       enumerate_rotation_sets, format_angle,
                       validate_portrait)
from portraits.angles import Angle, check_degree, fixed_angles
from portraits.enumeration import _noncrossing_partitions
from portraits.portrait import _DEGREE_CEILING, _noncrossing
import portraits.enumeration
import portraits.portrait
from portraits.rotation import RotationSet

from conftest import BASILICA_SETS, DEGREE5_SETS, wide_rotating
from test_golden import goldens


def gap_of(points, x):
    """Gap of increasing ``points`` holding x (gap i opens at points[i]; the
    last gap wraps past 1).  A singleton's one gap is the whole circle."""
    return (bisect_right(points, x) - 1) % len(points)


def unlinked(first, second) -> bool:
    """Oracle for P2: the two angle sets are disjoint and ``second`` fits
    inside a single gap of ``first`` (their convex hulls are disjoint)."""
    a = sorted(first)
    return not set(a) & set(second) and len({gap_of(a, x) for x in second}) == 1


def separates(separator, left, right) -> bool:
    """Oracle for P4: left and right lie in different gaps of the separator.

    Requires left != right, each inside one gap of the separator.  A
    singleton separator has one gap, so it never separates anything.
    """
    if sorted(left) == sorted(right):
        raise ValueError("the two sets to separate must be distinct")
    sep = sorted(separator)
    gl, gr = ({gap_of(sep, x) for x in s} for s in (left, right))
    if len(gl) != 1 or len(gr) != 1:
        raise ValueError("each set must lie inside a single gap of the separator")
    return gl != gr


def set_partitions(items: list) -> list[list[list]]:
    """Oracle: all Bell(len(items)) partitions of ``items`` into blocks."""
    if not items:
        return [[]]
    head, rest = items[0], items[1:]
    out = []
    for partial in set_partitions(rest):
        out.append([[head]] + [list(b) for b in partial])
        for t in range(len(partial)):
            grown = [list(b) for b in partial]
            grown[t] = [head] + grown[t]
            out.append(grown)
    return out


def fraction_backtracking(degree: int, max_period: int) -> list[Portrait]:
    """Oracle: the per-node Fraction search enumerate_portraits replaced.

    Every backtracking node re-tests unlinkedness and separation against
    the cover and the chosen sets with ``unlinked`` and ``separates``.
    """
    d = check_degree(degree)
    pool = enumerate_rotation_sets(d, (d - 1) * max_period, max_period)
    rotating_pool = [rs for rs in pool if not rs.is_fixed]

    covers: list[list[tuple[Angle, ...]]] = []
    for partition in set_partitions(list(fixed_angles(d))):
        blocks = sorted(tuple(sorted(b)) for b in partition)
        if all(unlinked(x, y) for x, y in combinations(blocks, 2)):
            covers.append(blocks)
    covers.sort()

    portraits: list[Portrait] = []
    for cover in covers:
        chosen: list[RotationSet] = []

        def extend(start: int) -> None:
            portraits.append(Portrait.create(
                d, list(cover) + [rs.angles for rs in chosen]))
            for idx in range(start, len(rotating_pool)):
                cand = rotating_pool[idx]
                if not all(unlinked(cand.angles, b) for b in cover):
                    continue
                if not all(unlinked(cand.angles, c.angles) for c in chosen):
                    continue
                if not all(any(separates(b, cand.angles, c.angles) for b in cover)
                           for c in chosen):
                    continue
                chosen.append(cand)
                extend(idx + 1)
                chosen.pop()

        extend(0)

    portraits.sort(key=lambda q: (q.k, q.sets))
    return portraits


def per_set_cover_loop(degree: int, max_period: int) -> list[Portrait]:
    """Oracle: ``enumerate_portraits`` before it grouped its pool by support.

    The pool comes from the public ``enumerate_rotation_sets``, and every
    cover tests every pool set against every block with ``unlinked`` and
    takes a ``gap_of`` signature per set.
    """
    d = check_degree(degree)
    pool = [rs.angles for rs in enumerate_rotation_sets(
        d, (d - 1) * max_period, max_period) if not rs.is_fixed]
    q = lcm(*(d ** p - 1 for p in range(1, max_period + 1)))
    fixed = [i * (q // (d - 1)) for i in range(d - 1)]
    sets = [tuple(a.numerator * (q // a.denominator) for a in s) for s in pool]
    angle = dict(zip(fixed, fixed_angles(d)))
    for s, angles in zip(sets, pool):
        angle.update(zip(s, angles))

    found = []
    for cover in _noncrossing_partitions(fixed):
        by_signature = {}
        for s in sets:
            if all(unlinked(b, s) for b in cover):
                sig = tuple(gap_of(b, s[0]) for b in cover)
                by_signature.setdefault(sig, [None]).append(s)
        for choice in product(*by_signature.values()):
            found.append(tuple(sorted(
                cover + tuple(s for s in choice if s is not None))))
    found.sort(key=lambda f: (len(f), f))
    return [Portrait(d, tuple(tuple(angle[x] for x in s) for s in f))
            for f in found]


def fraction_p2_p4(p: Portrait) -> list[Violation]:
    """Oracle: P2 and P4 as ``validate_portrait`` tested them before it
    ranked the angles, pair by pair with ``unlinked`` and ``separates``."""
    out = []
    for (i, a), (j, b) in combinations(enumerate(p.sets, start=1), 2):
        shared = tuple(sorted(set(a) & set(b)))
        if shared:
            text = "{" + " ".join(format_angle(x) for x in shared) + "}"
            out.append(Violation("P2-not-disjoint", (i, j, shared),
                                 f"sets {i} and {j} share angles {text}"))
        elif not unlinked(a, b):
            out.append(Violation(
                "P2-linked", (i, j),
                f"sets {i} and {j} cross (neither lies in one gap of the other)"))
    found = [classify_rotation_set(s, p.degree) for s in p.sets]
    if out or None in found:
        return out
    fixed = [s for s, (m, _) in zip(p.sets, found) if m == 0]
    rotating = [(i, s) for i, (s, (m, _)) in enumerate(zip(p.sets, found), start=1)
                if m]
    for (i, ri), (j, rj) in combinations(rotating, 2):
        if not any(separates(block, ri, rj) for block in fixed):
            out.append(Violation(
                "P4", (i, j),
                f"rotating sets {i} and {j} are separated by no "
                f"rotation-number-zero set"))
    return out


def p2_p4(p: Portrait) -> list[Violation]:
    return [v for v in validate_portrait(p).violations if v.code[:2] in ("P2", "P4")]


def fraction_p3(p: Portrait) -> list[Violation]:
    """Oracle: P3 as ``validate_portrait`` checked it before it ran on
    integers, as set differences with ``fixed_angles`` sorted as Fractions."""
    union = set()
    for s in p.sets:
        found = classify_rotation_set(s, p.degree)
        if found is None:
            return []
        if found[0] == 0:
            union.update(s)
    target = set(fixed_angles(p.degree))
    missing = tuple(sorted(target - union))
    extra = tuple(sorted(union - target))
    out = []
    if missing:
        text = "{" + " ".join(format_angle(x) for x in missing) + "}"
        out.append(Violation("P3-missing", missing,
                             f"fixed angles {text} belong to no "
                             f"rotation-number-zero set"))
    if extra:
        text = "{" + " ".join(format_angle(x) for x in extra) + "}"
        out.append(Violation("P3-extra", extra,
                             f"rotation-number-zero sets contain non-fixed "
                             f"angles {text}"))
    return out


def p3(p: Portrait) -> list[Violation]:
    return [v for v in validate_portrait(p).violations if v.code.startswith("P3")]


class TestP3Oracle:
    @pytest.mark.parametrize("degree,max_period", [(2, 3), (3, 3), (4, 3), (5, 2)])
    def test_census_and_mutations(self, degree, max_period):
        # every valid portrait, then with each fixed set dropped, and with
        # one angle dropped from each fixed set that has several
        mutated = 0
        for p in enumerate_portraits(degree, max_period):
            assert p3(p) == fraction_p3(p) == []
            for i, s in enumerate(p.sets):
                if classify_rotation_set(s, degree)[0]:
                    continue
                rest = p.sets[:i] + p.sets[i + 1:]
                variants = [rest] if rest else []
                variants += [rest + (s[:j] + s[j + 1:],) for j in range(len(s))
                             if len(s) > 1]
                for sets in variants:
                    q = Portrait.create(degree, sets)
                    expected = fraction_p3(q)
                    assert expected and p3(q) == expected
                    mutated += 1
        assert mutated

    @pytest.mark.parametrize("degree", [7, 13, 31])
    def test_subsets_of_the_fixed_angles(self, degree):
        # fixed angles i/(d-1) reduce to many denominators; the witness
        # lists the uncovered ones in circle order
        fixed = fixed_angles(degree)
        for step in (2, 3, 5):
            p = Portrait.create(degree, [[a] for a in fixed[::step]])
            expected = fraction_p3(p)
            assert expected and p3(p) == expected

    def test_large_degree(self):
        d = 10**4
        p = Portrait.create(d, [[F(0)], [F(1, 2)]])
        assert p3(p) == fraction_p3(p)

    def test_huge_degree_is_fast(self):
        # the largest degree whose fixed angles one listed angle may leave
        # missing: past it, validation refuses (below)
        d = _DEGREE_CEILING + 1
        p = Portrait.create(d, [[F(0)]])
        start = time.perf_counter()
        (v,) = validate_portrait(p).violations
        assert time.perf_counter() - start < 1
        assert v.code == "P3-missing"
        assert len(v.witness) == d - 2
        assert v.witness[:2] == (F(1, d - 1), F(2, d - 1))
        assert p3(p) == fraction_p3(p)

    def test_degree_past_the_ceiling_is_refused_fast(self):
        # parse_portrait's rule: d-1 fixed angles outnumber both the listed
        # angles and the ceiling, so the portrait cannot be valid
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="^degree 1000000 has 999999 fixed "
                                                "angles, more than the 1 angles listed$"):
            validate_portrait(Portrait.create(10**6, [[F(0)]]))
        assert time.perf_counter() - start < 0.1
        with pytest.raises(CapacityError):
            construct_tree(Portrait.create(_DEGREE_CEILING + 2, [[F(0)]]))
        # P1 is reported first; P3 never runs
        assert validate_portrait(Portrait.create(10**6, [[F(1, 2)]])).codes == ("P1",)


class TestP2P4Oracle:
    def test_census(self):
        for d in (2, 3, 4):
            for p in enumerate_portraits(d, 3):
                assert p2_p4(p) == fraction_p2_p4(p) == []

    @pytest.mark.parametrize("degree,max_period,seen", [
        (2, 3, {"P2-not-disjoint", "P2-linked"}),
        (3, 3, {"P2-not-disjoint", "P2-linked", "P4"}),
        (4, 2, {"P2-not-disjoint", "P2-linked", "P4"})])
    def test_census_plus_one_pool_set(self, degree, max_period, seen):
        # every valid portrait with each pool set added, and with its last
        # set's first angle nudged off its orbit: disjointness, linking,
        # separation and P1 failures in every combination
        codes = set()
        pool = enumerate_rotation_sets(degree, (degree - 1) * max_period, max_period)
        for p in enumerate_portraits(degree, max_period):
            nudged = ((p.sets[-1][0] + F(1, 97)) % 1,) + p.sets[-1][1:]
            variants = [Portrait.create(degree, p.sets[:-1] + (sorted(nudged),))]
            variants += [Portrait.create(degree, p.sets + (rs.angles,)) for rs in pool]
            for q in variants:
                expected = fraction_p2_p4(q)
                assert p2_p4(q) == expected
                codes.update(v.code for v in expected)
        assert codes == seen

    def test_pairs_named_in_order_across_signature_groups(self):
        # degree 7 with one rotating set inside each of the six arcs: the
        # chord {1/6, 1/2} puts arcs 1 and 2 in one signature group and
        # arcs 0, 3, 4 and 5 in the other, whose sets come both before and
        # after the first group's; the pairs still come in (i, j) order
        arcs = wide_rotating(7).sets[1:]  # after the set of fixed angles
        p = Portrait.create(7, [[F(0)], [F(1, 6), F(1, 2)], [F(1, 3)], [F(2, 3)],
                                [F(5, 6)], *arcs])
        expected = fraction_p2_p4(p)
        assert [v.witness for v in expected] == [
            (2, 7), (2, 9), (2, 11), (4, 6), (7, 9), (7, 11), (9, 11)]
        assert p2_p4(p) == expected

    def test_wide_rotating_portrait_validates_fast(self):
        # 4,000 rotating sets in 4,000 signature groups: P4 names no pair,
        # where comparing every pair of signatures took about 0.6 s (0.08 s
        # now on a 2-vCPU host with Python 3.11.7)
        p = wide_rotating(4001)
        start = time.perf_counter()
        assert validate_portrait(p).ok
        assert time.perf_counter() - start < 0.3


def pairwise_p2(p: Portrait) -> list[Violation]:
    """Oracle: P2 as ``validate_portrait`` decided it before its walk around
    the circle, ``unlinked`` on every pair of sets."""
    out = []
    for (i, a), (j, b) in combinations(enumerate(p.sets, start=1), 2):
        if unlinked(a, b):
            continue
        shared = tuple(sorted(set(a) & set(b)))
        if shared:
            text = "{" + " ".join(format_angle(x) for x in shared) + "}"
            out.append(Violation("P2-not-disjoint", (i, j, shared),
                                 f"sets {i} and {j} share angles {text}"))
        else:
            out.append(Violation(
                "P2-linked", (i, j),
                f"sets {i} and {j} cross (neither lies in one gap of the other)"))
    return out


def random_family(rng, pools) -> Portrait:
    """Up to 5 sets of at most 4 angles at a degree d <= 5: most drawn from
    a few points of one small grid, so that they share angles or cross, the
    rest rotation sets of the degree, so that P1 passes now and then.  A
    grid whose denominator divides no d**p - 1 leaves the sets without
    integer numerators, and validation compares them as ``Fraction``s."""
    d = rng.randint(2, 5)
    q = rng.choice([d * d - 1, d ** 3 - 1, 12])
    grid = rng.sample(range(q), min(q, rng.randint(2, 8)))
    sets = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.3:
            sets.append(rng.choice(pools[d]).angles)
        else:
            points = rng.sample(grid, rng.randint(1, min(4, len(grid))))
            sets.append([F(x, q) for x in points])
    return Portrait.create(d, sets)


class TestP2Walk:
    """The walk around the circle (``_noncrossing``) decides P2, and the
    pairwise loop names the pairs only after it has found a fault."""

    def test_walk_matches_every_pair(self):
        rng = random.Random(20261019)
        outcomes = set()
        for _ in range(20000):
            keys = [tuple(sorted(rng.sample(range(12), rng.randint(1, 4))))
                    for _ in range(rng.randint(1, 5))]
            expected = all(unlinked(a, b) for a, b in combinations(keys, 2))
            assert _noncrossing(keys) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_random_families_match_pairwise_oracle(self, monkeypatch):
        rng = random.Random(20261019)
        pools = {d: enumerate_rotation_sets(d, 4, 2) for d in range(2, 6)}
        families = [random_family(rng, pools) for _ in range(3000)]
        found = [validate_portrait(p) for p in families]
        # with the walk always reporting a fault, every pair is named
        # pairwise, as validation ran before the walk
        monkeypatch.setattr(portraits.portrait, "_noncrossing", lambda keys: False)
        codes = {}
        for p, result in zip(families, found):
            assert result == validate_portrait(p)
            p2 = [v for v in result.violations if v.code.startswith("P2")]
            assert p2 == pairwise_p2(p)
            assert p2_p4(p) == fraction_p2_p4(p)
            for code in {v.code for v in result.violations} or {"ok"}:
                codes[code] = codes.get(code, 0) + 1
        assert set(codes) == {"ok", "P1", "P2-not-disjoint", "P2-linked",
                              "P3-missing", "P4"}
        assert codes["P2-not-disjoint"] + codes["P2-linked"] > len(families) // 2

    def test_single_fault_names_only_the_suspect_sets(self):
        # n fixed singletons at degree n + 1 plus {0, 1/(2n)}: the walk fails
        # at the shared 0, and naming visits the pairs of sets that share a
        # point or hold two, not all n^2/2 pairs (3.3 s at n = 4,000 when
        # it visited every pair, 0.04 s now, on a 2-vCPU host with Python
        # 3.11.7)
        n = 4000
        p = Portrait.create(n + 1, [[a] for a in fixed_angles(n + 1)]
                            + [[F(0), F(1, 2 * n)]])
        start = time.perf_counter()
        result = validate_portrait(p)
        assert time.perf_counter() - start < 0.3
        assert [(v.code, v.witness) for v in result.violations] == [
            ("P1", (2, (F(0), F(1, 2 * n)))), ("P2-not-disjoint", (1, 2, (F(0),)))]


class TestUnlinked:
    """The P2 oracle ``unlinked`` above."""

    def test_examples(self):
        assert unlinked((F(0), F(3, 4)), (F(1, 8), F(5, 8)))
        assert not unlinked((F(0), F(1, 2)), (F(1, 4), F(3, 4)))
        assert not unlinked((F(0),), (F(0), F(1, 2)))

    def test_singleton_unlinked_with_anything_disjoint(self):
        assert unlinked((F(1, 3),), (F(0), F(1, 2), F(3, 4)))

    def test_symmetric_over_enumerated_sets(self):
        pool = [rs.angles for rs in enumerate_rotation_sets(3, 6, 3)]
        for a, b in combinations(pool, 2):
            assert unlinked(a, b) == unlinked(b, a)


class TestSeparates:
    """The P4 oracle ``separates`` above."""

    def test_examples(self):
        assert separates((F(0), F(1, 2)), (F(1, 8), F(3, 8)), (F(5, 8), F(7, 8)))
        # a singleton's complement is connected: it never separates
        assert not separates((F(0),), (F(1, 8), F(3, 8)), (F(5, 8), F(7, 8)))
        with pytest.raises(ValueError):
            separates((F(0), F(3, 4)), (F(1, 8), F(5, 8)), (F(1, 8), F(5, 8)))

    def test_same_gap_is_not_separated(self):
        assert not separates((F(0), F(1, 2)), (F(1, 8), F(3, 8)),
                             (F(1, 16), F(7, 16)))


class TestValidate:
    def test_golden_portrait_ok(self, degree5_portrait):
        assert validate_portrait(degree5_portrait).ok

    def test_basilica_ok(self, basilica):
        assert validate_portrait(basilica).ok

    def test_p3_missing(self):
        p = Portrait.create(5, [[F(1, 8), F(5, 8)]])
        result = validate_portrait(p)
        assert result.codes == ("P3-missing",)

    def test_p4(self):
        p = Portrait.create(3, [[F(0)], [F(1, 2)],
                                [F(1, 8), F(3, 8)], [F(5, 8), F(7, 8)]])
        result = validate_portrait(p)
        assert result.codes == ("P4",)

    def test_p2_linked(self):
        p = Portrait.create(5, [[F(0), F(1, 2)], [F(1, 4), F(3, 4)]])
        result = validate_portrait(p)
        assert result.codes == ("P2-linked",)

    def test_p2_not_disjoint(self):
        p = Portrait.create(5, [[F(0), F(1, 4), F(1, 2), F(3, 4)], [F(0)]])
        result = validate_portrait(p)
        assert "P2-not-disjoint" in result.codes

    def test_p1_skips_p3_p4(self):
        p = Portrait.create(5, [[F(1, 8), F(1, 4)]])
        result = validate_portrait(p)
        assert result.codes == ("P1",)
        assert any("skipped" in n for n in result.notes)

    def test_violations_carry_witnesses(self):
        p = Portrait.create(3, [[F(0)], [F(1, 2)],
                                [F(1, 8), F(3, 8)], [F(5, 8), F(7, 8)]])
        (v,) = validate_portrait(p).violations
        i, j = v.witness
        fixed_members = [s for s in p.sets if set(s) <= {F(0), F(1, 2)}]
        assert not any(separates(s, p.sets[i - 1], p.sets[j - 1])
                       for s in fixed_members)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            Portrait.create(5, [])


class TestNonCanonicalPortrait:
    """A raw ``Portrait(...)`` skips ``Portrait.create``; validation refuses
    one that is not canonical instead of reporting it valid."""

    @pytest.mark.parametrize("p, message", [
        (Portrait(2, ((F(0),), (F(2, 3), F(1, 3)))),
         "set 2 {2/3 1/3} is not strictly increasing in [0, 1)"),
        (Portrait(2, ((F(1, 3), F(2, 3)), (F(0),))),
         "the portrait's sets are not in sorted order"),
        (Portrait(2, ((), (F(0),))), "set 1 is empty"),
        (Portrait(3, ((F(0), F(1, 2)), (F(3, 2),))),
         "set 2 {3/2} is not strictly increasing in [0, 1)"),
        (Portrait(2, ((F(0),), (F(1, 5),), (F(-1, 5),))),
         "angle -1/5 outside [0, 1)"),
        (Portrait(2, ((0.5,),)), "angle 0.5 is neither an int nor a Fraction"),
        (Portrait(2, ((F(0),), ("1/2",))),
         "angle '1/2' is neither an int nor a Fraction"),
    ], ids=["decreasing-set", "reversed-family", "empty-set",
            "angle-past-one", "no-numerators", "float-angle", "str-angle"])
    def test_malformed_sets_raise(self, p, message):
        with pytest.raises(MalformedSetError) as exc:
            validate_portrait(p)
        assert str(exc.value) == message

    def test_construct_tree_refuses_a_float_angle(self):
        with pytest.raises(MalformedSetError,
                           match=r"^angle 0\.5 is neither an int nor a Fraction$"):
            construct_tree(Portrait(2, ((0.5,),)))

    def test_degree_one_raises(self):
        with pytest.raises(ValueError, match="degree must be an integer >= 2"):
            validate_portrait(Portrait(1, ((F(0),),)))

    def test_canonical_raw_portrait_validates(self):
        p = Portrait(2, ((F(0),), (F(1, 3), F(2, 3))))
        assert p == Portrait.create(2, BASILICA_SETS)
        assert validate_portrait(p).ok


class TestPortraitType:
    def test_canonical_sorting(self):
        a = Portrait.create(5, DEGREE5_SETS)
        b = Portrait.create(5, list(reversed(DEGREE5_SETS)))
        assert a == b
        assert a.sets[0] == (F(0), F(3, 4))

    def test_valid_sets_requires_valid(self):
        p = Portrait.create(5, [[F(1, 8), F(5, 8)]])
        with pytest.raises(InvalidPortraitError):
            validate_portrait(p).valid_sets()


def sorted_create(degree, sets):
    """Oracle: ``Portrait.create`` as plain sorts.  Each set is sorted and
    its first fault in sorted order raised (every angle out of [0, 1) before
    any repeat), then the family is sorted."""
    family = []
    for s in map(sorted, sets):
        if not s:
            raise MalformedSetError("angle set is empty")
        for a in s:
            if not 0 <= a < 1:
                raise MalformedSetError(f"angle {a} outside [0, 1)")
        for x, y in zip(s, s[1:]):
            if not x < y:
                raise MalformedSetError(
                    f"angles must be strictly increasing, got {x} before {y}")
        family.append(tuple(s))
    return Portrait(check_degree(degree), tuple(sorted(family)))


# built at import, so that no example pays for the golden enumerations
GOLDEN_PORTRAITS = st.sampled_from(goldens())


@st.composite
def shuffled_goldens(draw):
    """A golden portrait, and its sets with each set and the family shuffled."""
    p = draw(GOLDEN_PORTRAITS)
    return p, draw(st.permutations([draw(st.permutations(s)) for s in p.sets]))


class TestCanonicalOrder:
    """``Portrait.create`` checks each set's order and the family's on
    integer pairs and sorts only what fails; the result is the sorted one."""

    @given(shuffled_goldens())
    def test_shuffled_goldens_match_the_sorted_oracle(self, case):
        p, sets = case
        made = Portrait.create(p.degree, sets)
        assert made == sorted_create(p.degree, sets) == p
        assert all(type(s) is tuple for s in made.sets)

    @given(shuffled_goldens(), st.data())
    def test_faulty_unsorted_set_raises_as_the_oracle(self, case, data):
        p, sets = case
        j = data.draw(st.integers(0, len(sets) - 1))
        extra = data.draw(st.sampled_from(sets[j])          # a repeated angle
                          | st.sampled_from([F(-1, 3), F(1), F(5, 4), 1, -1]))
        faulty = data.draw(st.permutations([*sets[j], extra]))
        if faulty == sorted(faulty):
            faulty.reverse()
        sets = [*sets[:j], faulty, *sets[j + 1:]]
        with pytest.raises(MalformedSetError) as expected:
            sorted_create(p.degree, sets)
        with pytest.raises(MalformedSetError) as made:
            Portrait.create(p.degree, sets)
        assert str(made.value) == str(expected.value)

    @pytest.mark.parametrize("sets", [
        [[F(1, 2), 0], [F(1, 3)]],
        [[F(1, 3)], [0, F(1, 2)]],
        [[F(1, 3), F(2, 3)], [F(1, 3)]],
        [[F(1, 3)], [F(1, 3)]],
        [[0], [F(0)]],
    ], ids=["unsorted-set", "unsorted-family", "prefix-after", "repeated-set",
            "int-and-fraction-zero"])
    def test_examples_match_the_sorted_oracle(self, sets):
        assert Portrait.create(3, sets) == sorted_create(3, sets)


class TestNoncrossingPartitions:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_filtered_set_partitions(self, m):
        # the unlinked covers, found by filtering every set partition
        items = list(range(m))
        expected = set()
        for partition in set_partitions(items):
            blocks = sorted(tuple(sorted(b)) for b in partition)
            if all(unlinked(x, y) for x, y in combinations(blocks, 2)):
                expected.add(tuple(blocks))
        found = [tuple(sorted(p)) for p in _noncrossing_partitions(items)]
        assert len(found) == comb(2 * m, m) // (m + 1)   # Catalan(m)
        assert set(found) == expected

    def test_blocks_increasing_first_item_first(self):
        for p in _noncrossing_partitions(list(range(6))):
            assert p[0][0] == 0
            assert all(list(b) == sorted(b) for b in p)


class TestEnumeratePortraits:
    def test_all_enumerated_portraits_validate(self):
        for d in (2, 3):
            for p in enumerate_portraits(d, 3):
                assert validate_portrait(p).ok, p

    def test_degree2_census(self):
        ports = enumerate_portraits(2, 3)
        assert len(ports) == 4
        assert Portrait.create(2, BASILICA_SETS) in ports
        assert Portrait.create(2, [[F(0)]]) in ports

    def test_fixed_sets_cover_is_forced(self):
        # for every valid portrait the fixed sets' sizes sum to d - 1
        for d in (2, 3):
            for p in enumerate_portraits(d, 2):
                sets = validate_portrait(p).valid_sets()
                total = sum(rs.cardinality for rs in sets if rs.is_fixed)
                assert total == d - 1

    @pytest.mark.parametrize("degree, max_period, pool_size",
                             [(2, 4, 6), (3, 2, 8)])
    def test_every_valid_subset_of_the_pool_is_emitted(self, degree,
                                                       max_period, pool_size):
        pool = [rs.angles for rs in enumerate_rotation_sets(
            degree, (degree - 1) * max_period, max_period)]
        assert len(pool) == pool_size
        valid = set()
        for size in range(1, len(pool) + 1):
            for family in combinations(pool, size):
                p = Portrait.create(degree, family)
                if validate_portrait(p).ok:
                    valid.add(p)
        emitted = enumerate_portraits(degree, max_period)
        assert len(emitted) == len(set(emitted))
        assert set(emitted) == valid

    @pytest.mark.parametrize("degree, max_period", [(3, 4), (4, 3)])
    def test_separated_sets_are_unlinked(self, degree, max_period):
        # why enumerate_portraits never tests two rotating sets against
        # each other: sets in different gaps of a block are unlinked
        pool = [rs.angles for rs in enumerate_rotation_sets(
            degree, (degree - 1) * max_period, max_period) if not rs.is_fixed]
        fixed = fixed_angles(degree)
        separated = 0
        for size in range(2, len(fixed) + 1):
            for block in combinations(fixed, size):
                inside = [s for s in pool if unlinked(block, s)]
                for a, b in combinations(inside, 2):
                    if separates(block, a, b):
                        assert unlinked(a, b)
                        separated += 1
        assert separated

    # at max_period 1 there is no pool, only the Catalan(d - 1) covers: the
    # (8, 1), (9, 1) and (10, 1) cases check the order of many families of
    # fixed sets alone
    @pytest.mark.parametrize("degree, max_period",
                             [(2, 6), (3, 4), (4, 2), (5, 2), (8, 1), (9, 1)])
    def test_matches_fraction_backtracking(self, degree, max_period):
        assert (enumerate_portraits(degree, max_period)
                == fraction_backtracking(degree, max_period))

    @pytest.mark.parametrize("degree, max_period",
                             [(2, 6), (3, 4), (4, 2), (5, 2), (6, 2),
                              (3, 6), (4, 4), (6, 3), (9, 1), (10, 1)])
    def test_matches_per_set_cover_loop(self, degree, max_period):
        assert (enumerate_portraits(degree, max_period)
                == per_set_cover_loop(degree, max_period))

    def test_pool_comes_from_the_kernel(self, monkeypatch):
        # no per-candidate call to the public generation or enumeration
        def refuse(*args):
            raise AssertionError("enumerate_portraits called a public rotation function")
        for name in ("generate_rotation_set", "enumerate_rotation_sets"):
            monkeypatch.setattr(portraits.enumeration, name, refuse)
        assert len(enumerate_portraits(4, 4)) == 1116

    def test_degree7_period2_count(self):
        # 21 cycles, 126 proposed pairs (105 alternate), 791 rotating sets,
        # 63 supports and 132 covers
        assert len(enumerate_portraits(7, 2)) == 28608

    def test_degree6_period2_count(self):
        ports = enumerate_portraits(6, 2)
        assert len(ports) == 3544
        assert validate_portrait(ports[0]).ok
        assert validate_portrait(ports[-1]).ok

    def test_mutations_are_rejected(self):
        for p in enumerate_portraits(3, 2):
            sets = [list(s) for s in p.sets]
            fixed_idx = next(i for i, s in enumerate(sets) if F(0) in s)
            # drop a whole fixed set: P3 coverage breaks
            if len(sets) > 1:
                mutated = Portrait.create(3, sets[:fixed_idx] + sets[fixed_idx + 1:])
                assert not validate_portrait(mutated).ok
            # copy an angle into another set: disjointness breaks
            if len(sets) > 1:
                other = (fixed_idx + 1) % len(sets)
                mutated_sets = [list(s) for s in sets]
                mutated_sets[other] = sorted(set(mutated_sets[other])
                                             | {sets[fixed_idx][0]})
                mutated = Portrait.create(3, mutated_sets)
                assert not validate_portrait(mutated).ok
            # swap two angles across sets: some condition breaks
            if len(sets) > 1 and len({tuple(s) for s in sets}) > 1:
                a, b = sorted(range(len(sets)))[:2]
                swapped = [list(s) for s in sets]
                swapped[a][0], swapped[b][0] = swapped[b][0], swapped[a][0]
                try:
                    mutated = Portrait.create(3, swapped)
                except ValueError:
                    continue  # swap produced a malformed set; rejected earlier
                if mutated == p:
                    continue  # swapping singletons can reproduce the portrait
                assert not validate_portrait(mutated).ok
