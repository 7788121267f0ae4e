"""Exact rational angles on the unit circle.

An angle is a ``fractions.Fraction`` reduced into ``[0, 1)``.  All circle
arithmetic is exact; Python integers never overflow, so denominators can
grow as far as an enumeration needs them to.

``Fraction`` is the public angle type, but the hot loops run on integers:
an angle x/q is the numerator x over a common denominator q, on which
order, sums and the covering map are plain integer operations (x/q < y/q
iff x < y, and d*(x/q) mod 1 is (d*x mod q)/q).  Validation writes a
portrait's sets that way once (``rotation._numerators``), for its own
classification, for P2 and P4 (one walk around the circle over the merged
numerators), for P3's fixed indices, for the builder's partition and for
the round trip, which compares recovery's sets (numerators over d - 1 and
d**p - 1) with them.  ``Portrait.create`` checks each set's and the
family's order on integer pairs.  In ``enumeration``, rotation-set
generation writes numerators over d**p - 1, and portrait enumeration ranks
its candidate sets by numerators over their lcm, orders families by set
rank and finds each arc's gap vector by bisection (``enumeration._gaps``);
the SVG renderer makes each arc midpoint one integer ratio, and the angled
tree stores integer gaps.
Fractions are built again only where a value is reported.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import MalformedAngleError, MalformedSetError

Angle = Fraction


def check_degree(degree: int) -> int:
    """Validate a covering-map degree (an integer >= 2) and return it."""
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 2:
        raise ValueError(f"degree must be an integer >= 2, got {degree!r}")
    return degree


def normalize_angle(p: int, q: int) -> Angle:
    """Reduce p/q modulo 1 into [0, 1)."""
    if q <= 0:
        raise MalformedAngleError(f"angle denominator must be positive, got {q}")
    return Fraction(p % q, q)


def fixed_angles(degree: int) -> tuple[Angle, ...]:
    """The d-1 angles fixed by the degree-d covering map, in increasing order.

    These are 0, 1/(d-1), ..., (d-2)/(d-1): multiplying by d moves a point by
    (d-1)*theta, which is a full number of turns exactly on this grid.
    """
    d = check_degree(degree)
    return tuple(Fraction(i, d - 1) for i in range(d - 1))


def _typed(angles: Iterable) -> tuple:
    """The angles as a tuple of ints (not bools) and Fractions, which compare."""
    out = tuple(angles)
    for a in out:
        if not isinstance(a, (int, Fraction)) or isinstance(a, bool):
            raise MalformedSetError(f"angle {a!r} is neither an int nor a Fraction")
    return out


def as_angle_tuple(angles: Iterable[Angle]) -> tuple[Angle, ...]:
    """Validate a strictly increasing tuple of int or Fraction angles in [0, 1)."""
    return _increasing(_typed(angles))


def _increasing(out: tuple) -> tuple:
    """``as_angle_tuple`` on a tuple that ``_typed`` has checked."""
    if not out:
        raise MalformedSetError("angle set is empty")
    pairs = [a.as_integer_ratio() for a in out]
    for a, (num, den) in zip(out, pairs):
        if not 0 <= num < den:
            raise MalformedSetError(f"angle {a} outside [0, 1)")
    for x, y, (xn, xd), (yn, yd) in zip(out, out[1:], pairs, pairs[1:]):
        if not xn * yd < yn * xd:
            raise MalformedSetError(
                f"angles must be strictly increasing, got {x} before {y}")
    return out


def _decimal(text: str) -> int:
    """An optional sign and ASCII digits as an int; ValueError for anything
    else ``int`` would take, such as underscores, spaces or other digits."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def parse_angle(text: str) -> Angle:
    """Parse an angle token: ``p/q`` (reduced modulo 1) or the literal ``0``.
    p and q are ASCII decimals, each with an optional sign."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            p, q = _decimal(num), _decimal(den)
        except ValueError:
            raise MalformedAngleError(f"bad fraction {text!r}") from None
        return normalize_angle(p, q)
    if s == "0":
        return Fraction(0)
    raise MalformedAngleError(f"bad fraction {text!r} (expected p/q or 0)")


def format_angle(theta: Angle) -> str:
    """Render an angle as a fully reduced ``p/q`` (zero prints as ``0/1``)."""
    return "%d/%d" % theta.as_integer_ratio()
