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
of stopping at the first.  Portrait enumeration is in ``enumeration``, and
``portrait.enumerate_portraits`` resolves to it on first use.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, NamedTuple, Optional, Sequence

from .angles import Angle, _increasing, _typed, check_degree, format_angle
from .errors import CapacityError, InvalidPortraitError, MalformedSetError
from .rotation import RotationSet, _numerators, _shift

# A valid degree-d portrait lists all d-1 fixed angles.  A portrait listing
# fewer is refused outright once d-1 also exceeds this bound, before
# validation would materialise d-1 fixed angles.
_DEGREE_CEILING = 2 ** 16
_last: tuple = (None, None)     # the portrait _validate last kept, and its result


def _capacity_fault(d: int, sets: Sequence[Sequence]) -> Optional[str]:
    """Why the rule above refuses degree d with these sets, or None."""
    listed = sum(map(len, sets))
    if d - 1 > max(listed, _DEGREE_CEILING):
        return (f"degree {d} has {d - 1} fixed angles, more than the {listed} "
                f"angles listed")
    return None


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
        family = []
        # types first (sorting a str among Fractions is a TypeError); sort on failure
        for s in map(_typed, sets):
            try:
                family.append(_increasing(s))
            except MalformedSetError:
                family.append(_increasing(tuple(sorted(s))))
        if not family:
            raise ValueError("a portrait needs at least one angle set")
        least = [s[0].as_integer_ratio() for s in family]   # increasing: in order
        if any(xn * yd >= yn * xd for (xn, xd), (yn, yd) in zip(least, least[1:])):
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


def _noncrossing(keys: Sequence[Sequence]) -> bool:
    """True iff the strictly increasing tuples ``keys`` are pairwise unlinked
    (disjoint, each inside one gap of the other), in one walk of the circle.

    Merged and sorted, a repeated value is an angle two sets share.  The walk
    keeps a stack of the sets it has entered and not yet left (a set is left
    at its last point).  Two disjoint sets cross iff their points alternate
    a..b..a..b, and that is iff the walk reaches a point of a set that it
    has entered before, while that set lies below the top of the stack.
    """
    left = list(map(len, keys))
    stack: list[int] = []
    previous = None
    for x, j in sorted((x, j) for j, xs in enumerate(keys) for x in xs):
        if x == previous:
            return False
        previous = x
        if not stack or stack[-1] != j:
            if left[j] < len(keys[j]):
                return False
            stack.append(j)
        left[j] -= 1
        if not left[j]:
            stack.pop()
    return True


def validate_portrait(p: Portrait) -> ValidationResult:
    """Check the four portrait conditions, collecting all violations.

    Later conditions that cannot be evaluated after an earlier failure
    (rotation numbers while P1 fails, separation while P2 fails) are
    skipped and recorded in ``notes``.

    The portrait must be canonical, as ``Portrait.create`` makes it: a raw
    ``Portrait(...)`` whose degree is not an integer >= 2 raises ValueError,
    and one with an angle neither an int nor a Fraction, an empty set, a set
    not strictly increasing in [0, 1) or its family out of sorted order
    raises MalformedSetError.  P2 and P4 then run on its angles as integer
    numerators over the common denominator of its sets, which also classify
    each set.  One walk around the circle over the sets' merged, sorted
    numerators decides P2 in O(N log N) for N angles; the pairwise loop runs
    only after it has found a shared angle or a crossing, to name the
    offending pairs, and only over the sets that share a point or hold two
    or more.  Once P2 holds, a fixed set separates two rotating sets
    exactly when they lie in different gaps of it, so P4 groups the rotating
    sets by gap signature (their gap in every fixed set) and visits only the
    pairs within a group, each a P4 failure.  Once P1 holds, a degree whose
    d-1 fixed angles outnumber both the listed angles and 2**16 raises
    CapacityError before P3 would list the missing ones.
    """
    return _validate(p)[0]


def _validate(p: Portrait) -> tuple[ValidationResult, int, tuple]:
    """``validate_portrait`` and (q, numerators over q), kept for the last
    portrait object whose family and sets are tuples, so it cannot change."""
    global _last
    if (last := _last)[0] is p:     # one read: another thread may replace it
        return last[1]
    d = check_degree(p.degree)
    violations: list[Violation] = []
    notes: list[str] = []

    # types first (a float has no denominator), then per set the canonical
    # form on the numerators, which sort as angles do (a set failing the
    # divisor test has none, so its angles are compared as they are), and
    # its classification
    for s in p.sets:
        _typed(s)
    q, xsets = _numerators(d, p.sets)
    classified: list[Optional[RotationSet]] = []
    for idx, (s, xs) in enumerate(zip(p.sets, xsets), start=1):
        ys, top = (s, 1) if xs is None else (xs, q)
        if not ys:
            raise MalformedSetError(f"set {idx} is empty")
        if ys[0] < 0 or ys[-1] >= top or any(a >= b for a, b in zip(ys, ys[1:])):
            raise MalformedSetError(
                f"set {idx} {_angles_text(s)} is not strictly increasing in [0, 1)")
        m = None if xs is None else _shift(d, q, xs)
        if m is None:
            violations.append(Violation(
                "P1", (idx, s),
                f"set {idx} {_angles_text(s)} is not a degree-{d} rotation set"))
        classified.append(None if m is None else RotationSet(d, s, m))
    # when a set has none, all compare as angle tuples (P1 fails anyway)
    keys = list(p.sets) if None in xsets else xsets
    if any(a > b for a, b in zip(keys, keys[1:])):
        raise MalformedSetError("the portrait's sets are not in sorted order")

    # one walk around the circle decides P2; a failure is named pair by pair
    # among the sets that can fail: those sharing a point, and those of two
    # or more points, as a disjoint pair crosses unless b lies in one gap of
    # a (a singleton's one gap is the whole circle but its point)
    if not _noncrossing(keys):
        held = Counter(chain.from_iterable(keys))
        suspects = [(i, a) for i, a in enumerate(keys, 1) if len(a) > 1 or held[a[0]] > 1]
        for (i, a), (j, b) in combinations(suspects, 2):
            if not set(a).isdisjoint(b):
                shared = tuple(sorted(set(p.sets[i - 1]).intersection(p.sets[j - 1])))
                violations.append(Violation(
                    "P2-not-disjoint", (i, j, shared),
                    f"sets {i} and {j} share angles {_angles_text(shared)}"))
            elif len(a) > 1 and len({_gaps((a,), y) for y in b}) > 1:
                violations.append(Violation(
                    "P2-linked", (i, j),
                    f"sets {i} and {j} cross (neither lies in one gap of the other)"))

    if None in classified:
        notes.append("P3 and P4 skipped: rotation numbers unavailable while P1 fails")
    else:
        # P3 would spell out O(d) missing fixed angles: refuse a degree that
        # cannot be valid by parse_portrait's rule instead
        if fault := _capacity_fault(d, p.sets):
            raise CapacityError(fault)

        # a shift-0 set has d*a = a, so each of its angles x/q is a fixed
        # angle i/(d-1), i = x*(d-1)/q: P3 can only find fixed angles missing
        fixed_members = [i for i, rs in enumerate(classified, start=1) if rs.is_fixed]
        covered = {x * (d - 1) // q for i in fixed_members for x in xsets[i - 1]}
        missing = tuple(Fraction(i, d - 1) for i in range(d - 1) if i not in covered)
        if missing:
            violations.append(Violation(
                "P3-missing", missing,
                f"fixed angles {_angles_text(missing)} belong to no "
                f"rotation-number-zero set"))

        if any(v.code.startswith("P2") for v in violations):
            notes.append("P4 skipped: separation is ill-defined while P2 fails")
        else:
            blocks = [xsets[i - 1] for i in fixed_members]
            groups: dict[tuple[int, ...], list[int]] = {}
            for i, rs in enumerate(classified, start=1):
                if not rs.is_fixed:
                    groups.setdefault(_gaps(blocks, xsets[i - 1][0]), []).append(i)
            for i, j in sorted(pair for group in groups.values()
                               for pair in combinations(group, 2)):
                violations.append(Violation(
                    "P4", (i, j),
                    f"rotating sets {i} and {j} are separated by no "
                    f"rotation-number-zero set"))

    found = (ValidationResult(tuple(violations), tuple(notes),
                              None if None in classified else tuple(classified)), q, xsets)
    if type(p.sets) is tuple and all(type(s) is tuple for s in p.sets):
        _last = p, found
    return found


def _matches(p: Portrait, d: int, found: list) -> bool:
    """True iff degree d and ``found``, sets of numerators ys over r, are p's:
    each y*q/r is whole, and the sets it gives are p's numerators over q."""
    last = _last
    q, xsets = last[1][1:] if last[0] is p else _numerators(p.degree, p.sets)
    return (d == p.degree and not any(y * q % r for r, ys in found for y in ys)
            and sorted(tuple(y * q // r for y in ys) for r, ys in found) == list(xsets))


def _gaps(blocks: Sequence[Sequence], x) -> tuple[int, ...]:
    """The gap of each of ``blocks`` that holds the point x.  Blocks and x
    are values of one order, each block increasing; gap i of a block opens
    at (and holds) its point i.  P4 passes the fixed sets and a rotating
    set's first point (its signature), P2's naming loop one set and each
    point of another, and enumeration a cover's fixed-angle numerators and
    an arc's starting fixed angle (that arc's gap vector)."""
    return tuple([(bisect_right(b, x) - 1) % len(b) for b in blocks])


def __getattr__(name: str):     # PEP 562: enumerate_portraits, from enumeration
    if name != "enumerate_portraits":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .enumeration import enumerate_portraits
    return enumerate_portraits
