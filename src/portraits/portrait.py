"""Fixed point portraits and their validator.

A portrait is a degree d together with a family of angle sets.  A valid
portrait satisfies four conditions, reported under these codes:

* ``P1``              -- some member set is not a degree-d rotation set;
* ``P2-not-disjoint`` -- two member sets share an angle;
* ``P2-linked``       -- two member sets cross (neither fits inside a
                         single gap of the other);
* ``P3-missing``      -- some of the d-1 fixed angles lie in no fixed
                         (rotation number zero) set;
* ``P4``              -- two rotating sets lie in the same gap of every
                         fixed set.

The validator collects every violation it can still make sense of instead
of stopping at the first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product
from math import lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .angles import (Angle, as_angle_tuple, check_degree, fixed_angles,
                     format_angle, gap_index)
from .errors import InvalidPortraitError
from .rotation import RotationSet, _numerators, _shift, enumerate_rotation_sets


def _angles_text(angles: Iterable[Angle]) -> str:
    return "{" + " ".join(format_angle(a) for a in angles) + "}"


class Portrait(NamedTuple):
    """A degree plus a family of candidate rotation sets (raw angle tuples).

    Sets are stored canonically: each set strictly increasing, the family
    sorted by its sets' angle tuples.  Equality is therefore structural.
    """

    degree: int
    sets: tuple[tuple[Angle, ...], ...]

    @classmethod
    def create(cls, degree: int, sets: Iterable[Iterable[Angle]]) -> "Portrait":
        d = check_degree(degree)
        family = [as_angle_tuple(sorted(s)) for s in sets]
        if not family:
            raise ValueError("a portrait needs at least one angle set")
        family.sort()
        return cls(d, tuple(family))

    @property
    def k(self) -> int:
        """Number of member sets."""
        return len(self.sets)


class Violation(NamedTuple):
    """One validator finding: a code, a re-checkable witness, and prose."""

    code: str
    witness: tuple
    message: str


class ValidationResult(NamedTuple):
    """The validator's findings, plus the member sets it classified.

    ``sets`` holds one ``RotationSet`` per member set, in the portrait's
    order, and is None while P1 fails.
    """

    violations: tuple[Violation, ...]
    notes: tuple[str, ...] = ()
    sets: Optional[tuple[RotationSet, ...]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)

    def valid_sets(self) -> tuple[RotationSet, ...]:
        """The classified sets; raises InvalidPortraitError unless ok."""
        if not self.ok:
            raise InvalidPortraitError(
                "portrait fails validation: " + ", ".join(self.codes),
                self.violations)
        return self.sets


def _unlinked_sorted(a: Sequence, b: Sequence) -> bool:
    """True iff two strictly increasing tuples of any ordered values are
    disjoint and the second fits inside a single gap of the first (their
    convex hulls in the disk are disjoint).  A singleton has one gap, the
    whole circle minus a point, so it is unlinked with anything disjoint
    from it."""
    if set(a) & set(b):
        return False
    if len(a) == 1:
        return True
    g = gap_index(a, b[0])
    return all(gap_index(a, x) == g for x in b[1:])


def validate_portrait(p: Portrait) -> ValidationResult:
    """Check the four portrait conditions, collecting all violations.

    Later conditions that cannot be evaluated after an earlier failure
    (rotation numbers while P1 fails, separation while P2 fails) are
    skipped and recorded in ``notes``.

    The portrait's sets are canonical, so P2 and P4 run on its angles as
    integer numerators over the common denominator of its sets, which also
    classify each set.  Once P2 holds, a fixed set separates two rotating
    sets exactly when they lie in different gaps of it, so P4 compares each
    rotating set's gap signature (its gap in every fixed set) instead of
    testing separation pair by pair.
    """
    return _validate(p)[0]


def _validate(p: Portrait) -> tuple[ValidationResult, list]:
    """``validate_portrait``, plus the sets' numerators for the builder."""
    d = p.degree
    violations: list[Violation] = []
    notes: list[str] = []

    q, xsets = _numerators(d, p.sets)
    classified: list[Optional[RotationSet]] = []
    for idx, (s, xs) in enumerate(zip(p.sets, xsets), start=1):
        m = None if xs is None else _shift(d, q, xs)
        if m is None:
            violations.append(Violation(
                "P1", (idx, s),
                f"set {idx} {_angles_text(s)} is not a degree-{d} rotation set"))
        classified.append(None if m is None else RotationSet(d, s, m))

    if None in xsets:   # P1 fails; the angles order as numerators would
        xsets = list(p.sets)
    for (i, a), (j, b) in combinations(enumerate(xsets, start=1), 2):
        if _unlinked_sorted(a, b):
            continue
        shared = tuple(sorted(set(p.sets[i - 1]).intersection(p.sets[j - 1])))
        if shared:
            violations.append(Violation(
                "P2-not-disjoint", (i, j, shared),
                f"sets {i} and {j} share angles {_angles_text(shared)}"))
        else:
            violations.append(Violation(
                "P2-linked", (i, j),
                f"sets {i} and {j} cross (neither lies in one gap of the other)"))

    if any(rs is None for rs in classified):
        notes.append("P3 and P4 skipped: rotation numbers unavailable while P1 fails")
        return ValidationResult(tuple(violations), tuple(notes)), xsets

    # a shift-0 set has d*a = a, so each of its angles is a fixed angle
    # i/(d-1), with i = a*(d-1): P3 can only find fixed angles missing
    fixed_members = [(i, rs) for i, rs in enumerate(classified, start=1)
                     if rs.is_fixed]
    covered = {a.numerator * ((d - 1) // a.denominator)
               for _, rs in fixed_members for a in rs.angles}
    missing = tuple(Fraction(i, d - 1) for i in range(d - 1) if i not in covered)
    if missing:
        violations.append(Violation(
            "P3-missing", missing,
            f"fixed angles {_angles_text(missing)} belong to no "
            f"rotation-number-zero set"))

    if any(v.code.startswith("P2") for v in violations):
        notes.append("P4 skipped: separation is ill-defined while P2 fails")
    else:
        blocks = [xsets[i - 1] for i, _ in fixed_members]
        signature = {i: tuple(gap_index(b, xsets[i - 1][0]) for b in blocks)
                     for i, rs in enumerate(classified, start=1) if not rs.is_fixed}
        for i, j in combinations(signature, 2):
            if signature[i] == signature[j]:
                violations.append(Violation(
                    "P4", (i, j),
                    f"rotating sets {i} and {j} are separated by no "
                    f"rotation-number-zero set"))

    return ValidationResult(tuple(violations), tuple(notes), tuple(classified)), xsets


def _noncrossing_partitions(items: Sequence) -> list[tuple[tuple, ...]]:
    """Partitions of increasing ``items`` into blocks that do not cross.

    Read around the circle, these are the pairwise unlinked covers; there
    are Catalan(len(items)) of them.  The block of the first item either
    holds it alone, or continues at some items[j]: the items in between
    then form a noncrossing partition of their own, and the first item
    joins the block of items[j] in one of items[j:].  Blocks come out
    increasing, the first item's block first.
    """
    @cache
    def over(lo: int, hi: int) -> list[tuple[tuple, ...]]:
        if lo == hi:
            return [()]
        head = (items[lo],)
        out = [(head,) + rest for rest in over(lo + 1, hi)]
        for j in range(lo + 1, hi):
            for outer in over(j, hi):
                joined = (head + outer[0],)
                out.extend(joined + inner + outer[1:] for inner in over(lo + 1, j))
        return out

    return over(0, len(items))


def enumerate_portraits(degree: int, max_period: int) -> list[Portrait]:
    """Every valid portrait whose sets have element period <= max_period.

    The family of fixed sets is an exact, pairwise-unlinked cover of the
    fixed angles, i.e. a noncrossing set partition of them, and those are
    generated directly.  Output is sorted by (number of sets, sets).

    Given a cover, P4 is a test of gap signatures.  A block separates two
    sets unlinked with it exactly when they lie in different gaps of it (a
    singleton block has one gap and never separates).  Call the tuple of a
    set's gap indices in the cover's blocks its signature: two rotating
    sets are separated by some block exactly when their signatures differ.
    Separation also implies P2 between them: sets in different gaps of a
    block lie in disjoint arcs, so each fits in one gap of the other.  The
    rotating sets that may join a cover are the pool sets unlinked with
    every block, and a valid portrait takes at most one of them per
    signature.  Angles are numerators over q = lcm(d**p - 1 : p <=
    max_period), which every denominator involved divides; that keeps their
    order, so the gap tests and the final sort compare integers.
    """
    d = check_degree(degree)
    pool = [rs.angles for rs in enumerate_rotation_sets(
        d, (d - 1) * max_period, max_period) if not rs.is_fixed]
    q = lcm(*(d ** p - 1 for p in range(1, max_period + 1)))
    fixed = [i * (q // (d - 1)) for i in range(d - 1)]
    sets = [tuple(a.numerator * (q // a.denominator) for a in s) for s in pool]
    angle = dict(zip(chain(fixed, *sets), chain(fixed_angles(d), *pool)))

    found: list[tuple[tuple[int, ...], ...]] = []
    for cover in _noncrossing_partitions(fixed):
        # per signature: take none of its sets (None) or one of them
        by_signature: dict[tuple[int, ...], list] = {}
        for s in sets:
            if all(_unlinked_sorted(b, s) for b in cover):
                sig = tuple(gap_index(b, s[0]) for b in cover)
                by_signature.setdefault(sig, [None]).append(s)
        for choice in product(*by_signature.values()):
            found.append(tuple(sorted(
                cover + tuple(s for s in choice if s is not None))))

    found.sort(key=lambda f: (len(f), f))
    # each family is already canonical, so Portrait.create would only
    # re-sort and re-validate it
    return [Portrait(d, tuple(tuple(angle[x] for x in s) for s in f))
            for f in found]
