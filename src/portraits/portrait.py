"""Fixed point portraits and their validator.

A portrait is a degree d together with a family of angle sets.  A valid
portrait satisfies four conditions, reported under these codes:

* ``P1``              -- some member set is not a degree-d rotation set;
* ``P2-not-disjoint`` -- two member sets share an angle;
* ``P2-linked``       -- two member sets cross (neither fits inside a
                         single gap of the other);
* ``P3-missing`` / ``P3-extra`` -- the union of the fixed (rotation number
                         zero) sets is not exactly the d-1 fixed angles;
* ``P4``              -- two rotating sets lie in the same gap of every
                         fixed set.

The validator collects every violation it can still make sense of instead
of stopping at the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

from .angles import (Angle, as_angle_tuple, check_degree, fixed_angles,
                     format_angle, gap_index)
from .errors import InvalidPortraitError
from .rotation import RotationSet, enumerate_rotation_sets


def _angles_text(angles: Iterable[Angle]) -> str:
    return "{" + " ".join(format_angle(a) for a in angles) + "}"


@dataclass(frozen=True)
class Portrait:
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


@dataclass(frozen=True)
class Violation:
    """One validator finding: a code, a re-checkable witness, and prose."""

    code: str
    witness: tuple
    message: str


@dataclass(frozen=True)
class ValidationResult:
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


def unlinked(first: Sequence[Angle], second: Sequence[Angle]) -> bool:
    """True iff the two angle sets are disjoint and neither crosses the other.

    Equivalently: ``second`` fits inside a single gap of ``first`` (their
    convex hulls in the disk are disjoint).  A singleton has one gap, the
    whole circle minus a point, so it is unlinked with anything disjoint
    from it.
    """
    return _unlinked_sorted(as_angle_tuple(sorted(first)),
                            as_angle_tuple(sorted(second)))


def _unlinked_sorted(a: Sequence, b: Sequence) -> bool:
    """``unlinked`` on two strictly increasing tuples of any ordered values."""
    if set(a) & set(b):
        return False
    if len(a) == 1:
        return True
    g = gap_index(a, b[0])
    return all(gap_index(a, x) == g for x in b[1:])


def separates(separator: Sequence[Angle], left: Sequence[Angle],
              right: Sequence[Angle]) -> bool:
    """True iff left and right lie in different gaps of the separator.

    Requires left != right and each of them unlinked with the separator, so
    that "the gap containing the set" is well defined.  A singleton
    separator has a connected complement and never separates anything.
    """
    sep = as_angle_tuple(sorted(separator))
    lt = as_angle_tuple(sorted(left))
    rt = as_angle_tuple(sorted(right))
    if lt == rt:
        raise ValueError("the two sets to separate must be distinct")
    if len(sep) == 1:
        return False
    gl = {gap_index(sep, x) for x in lt}
    gr = {gap_index(sep, x) for x in rt}
    if len(gl) != 1 or len(gr) != 1:
        raise ValueError("separates() needs each set inside a single gap "
                         "of the separator (sets must be unlinked with it)")
    return gl != gr


def validate_portrait(p: Portrait) -> ValidationResult:
    """Check the four portrait conditions, collecting all violations.

    Later conditions that cannot be evaluated after an earlier failure
    (rotation numbers while P1 fails, separation while P2 fails) are
    skipped and recorded in ``notes``.

    The portrait's sets are canonical, so P2 and P4 run on the ranks of its
    angles, as ``enumerate_portraits`` does.  Once P2 holds, a fixed set
    separates two rotating sets exactly when they lie in different gaps of
    it, so P4 compares each rotating set's gap signature (its gap in every
    fixed set) instead of testing separation pair by pair.
    """
    d = p.degree
    violations: list[Violation] = []
    notes: list[str] = []

    classified: list[Optional[RotationSet]] = [
        RotationSet.from_angles(s, d) for s in p.sets]
    for idx, rs in enumerate(classified, start=1):
        if rs is None:
            violations.append(Violation(
                "P1", (idx, p.sets[idx - 1]),
                f"set {idx} {_angles_text(p.sets[idx - 1])} is not a "
                f"degree-{d} rotation set"))

    values = sorted(set().union(*p.sets))
    rank = {a: r for r, a in enumerate(values)}
    ranked = [tuple(rank[a] for a in s) for s in p.sets]
    for (i, a), (j, b) in combinations(enumerate(ranked, start=1), 2):
        if _unlinked_sorted(a, b):
            continue
        shared = tuple(values[r] for r in sorted(set(a) & set(b)))
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
        return ValidationResult(tuple(violations), tuple(notes))

    # the fixed angles are i/(d-1): a is one exactly when its denominator
    # divides d-1, and then i = a*(d-1)
    fixed_members = [(i, rs) for i, rs in enumerate(classified, start=1)
                     if rs.is_fixed]
    union = {a for _, rs in fixed_members for a in rs.angles}
    covered = {a.numerator * ((d - 1) // a.denominator) for a in union
               if (d - 1) % a.denominator == 0}
    missing = tuple(Fraction(i, d - 1) for i in range(d - 1) if i not in covered)
    extra = tuple(sorted(a for a in union if (d - 1) % a.denominator))
    if missing:
        violations.append(Violation(
            "P3-missing", missing,
            f"fixed angles {_angles_text(missing)} belong to no "
            f"rotation-number-zero set"))
    if extra:
        violations.append(Violation(
            "P3-extra", extra,
            f"rotation-number-zero sets contain non-fixed angles "
            f"{_angles_text(extra)}"))

    if any(v.code.startswith("P2") for v in violations):
        notes.append("P4 skipped: separation is ill-defined while P2 fails")
    else:
        blocks = [ranked[i - 1] for i, _ in fixed_members]
        signature = {i: tuple(gap_index(b, ranked[i - 1][0]) for b in blocks)
                     for i, rs in enumerate(classified, start=1) if not rs.is_fixed}
        for i, j in combinations(signature, 2):
            if signature[i] == signature[j]:
                violations.append(Violation(
                    "P4", (i, j),
                    f"rotating sets {i} and {j} are separated by no "
                    f"rotation-number-zero set"))

    return ValidationResult(tuple(violations), tuple(notes), tuple(classified))


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
    signature.  Angles are replaced by their ranks among all the angles
    involved, which keeps their order, so the gap tests and the final sort
    compare integers.
    """
    d = check_degree(degree)
    pool = [rs.angles for rs in enumerate_rotation_sets(
        d, (d - 1) * max_period, max_period) if not rs.is_fixed]
    fixed = fixed_angles(d)
    values = sorted(set(fixed).union(*pool))
    rank = {a: r for r, a in enumerate(values)}
    sets = [tuple(rank[a] for a in s) for s in pool]

    found: list[tuple[tuple[int, ...], ...]] = []
    for cover in _noncrossing_partitions([rank[a] for a in fixed]):
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
    return [Portrait(d, tuple(tuple(values[r] for r in s) for s in f))
            for f in found]
