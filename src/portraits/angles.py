"""Exact rational angles on the unit circle.

An angle is a ``fractions.Fraction`` reduced into ``[0, 1)``.  All circle
arithmetic is exact; Python integers never overflow, so denominators can
grow as far as an enumeration needs them to.

``Fraction`` is the public angle type, but the hot loops (rotation-set
classification, the validator's P2 and P4, the region partition, the vertex
dynamics and the tree checks) run on integers: ``_scaled`` writes a tuple of
angles as numerators over their least common denominator q, on which order,
sums and the covering map are plain integer operations (x/q < y/q iff
x < y, and d*(x/q) mod 1 is (d*x mod q)/q).  Fractions are built again only
where a value is reported.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import MalformedAngleError, MalformedSetError

Angle = Fraction


def check_degree(degree: int) -> int:
    """Validate a covering-map degree (an integer >= 2) and return it."""
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 2:
        raise ValueError(f"degree must be an integer >= 2, got {degree!r}")
    return degree


def normalize_angle(p: int, q: int) -> Angle:
    """Reduce p/q modulo 1 into [0, 1)."""
    if q == 0:
        raise MalformedAngleError("angle denominator must be positive, got 0")
    if q < 0:
        raise MalformedAngleError(f"angle denominator must be positive, got {q}")
    return Fraction(p, q) % 1


def fixed_angles(degree: int) -> tuple[Angle, ...]:
    """The d-1 angles fixed by the degree-d covering map, in increasing order.

    These are 0, 1/(d-1), ..., (d-2)/(d-1): multiplying by d moves a point by
    (d-1)*theta, which is a full number of turns exactly on this grid.
    """
    d = check_degree(degree)
    return tuple(Fraction(i, d - 1) for i in range(d - 1))


def _scaled(angles: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(q, numerators): the least common denominator of ``angles`` and each
    angle as a numerator over it, in the given order."""
    q = lcm(*(a.denominator for a in angles))
    return q, [a.numerator * (q // a.denominator) for a in angles]


def gap_index(points: Sequence[Angle], theta: Angle) -> int:
    """Index of the gap of ``points`` containing ``theta``.

    ``points`` must be strictly increasing in [0, 1); gap i is the open arc
    from points[i] counterclockwise to the next point (gap len(points)-1
    wraps past 1).  ``theta`` must not itself be one of the points.
    """
    i = bisect_right(points, theta) - 1
    if i >= 0 and points[i] == theta:
        raise ValueError(f"{theta} is an endpoint, not interior to any gap")
    return i if i >= 0 else len(points) - 1


def arc_start_gap(points: Sequence[Angle], start: Angle) -> int:
    """Gap of ``points`` containing the arc that begins at ``start``.

    Unlike :func:`gap_index` the arc's start is allowed to be one of the
    points, in which case the arc lies in the gap that opens there.
    """
    i = bisect_right(points, start) - 1
    if i >= 0 and points[i] == start:
        return i
    return i if i >= 0 else len(points) - 1


def as_angle_tuple(angles: Iterable[Angle]) -> tuple[Angle, ...]:
    """Validate a strictly increasing tuple of angles in [0, 1)."""
    out = tuple(angles)
    if not out:
        raise MalformedSetError("angle set is empty")
    for a in out:
        if not 0 <= a < 1:
            raise MalformedSetError(f"angle {a} outside [0, 1)")
    for x, y in zip(out, out[1:]):
        if not x < y:
            raise MalformedSetError(
                f"angles must be strictly increasing, got {x} before {y}")
    return out


def parse_angle(text: str) -> Angle:
    """Parse an angle token: ``p/q`` (reduced modulo 1) or the literal ``0``."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            p, q = int(num), int(den)
        except ValueError:
            raise MalformedAngleError(f"bad fraction {text!r}") from None
        return normalize_angle(p, q)
    if s == "0":
        return Fraction(0)
    raise MalformedAngleError(f"bad fraction {text!r} (expected p/q or 0)")


def format_angle(theta: Angle) -> str:
    """Render an angle as a fully reduced ``p/q`` (zero prints as ``0/1``)."""
    return f"{theta.numerator}/{theta.denominator}"
