"""Portrait text format.

Grammar (UTF-8, lines starting with ``#`` and blank lines ignored)::

    degree <int>            exactly once, first
    set <frac> [<frac> ...] one line per member set, at least one line

Fractions are ``p/q`` (reduced modulo 1 on input) or the literal ``0``.
The degree, p and q are ASCII decimals, each with an optional sign.
Printing always emits fully reduced ``p/q`` in canonical order, so
parse -> print -> parse is the identity on normalized files.
"""

from __future__ import annotations

from .angles import _decimal, format_angle, parse_angle
from .errors import MalformedAngleError, PortraitParseError
from .portrait import Portrait, _capacity_fault


def parse_portrait(text: str) -> Portrait:
    """Parse portrait text; raises PortraitParseError with a line number."""
    degree = None
    degree_line = None
    sets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "degree":
            if degree is not None:
                raise PortraitParseError(
                    lineno, f"degree already given on line {degree_line}")
            if len(tokens) != 2:
                raise PortraitParseError(lineno, "expected: degree <int>")
            try:
                degree = _decimal(tokens[1])
            except ValueError:
                raise PortraitParseError(
                    lineno, f"degree must be an integer, got {tokens[1]!r}") from None
            if degree < 2:
                raise PortraitParseError(lineno, f"degree must be >= 2, got {degree}")
            degree_line = lineno
        elif keyword == "set":
            if degree is None:
                raise PortraitParseError(lineno, "set line before the degree line")
            if len(tokens) == 1:
                raise PortraitParseError(lineno, "empty set line")
            angles = []
            for tok in tokens[1:]:
                try:
                    angles.append(parse_angle(tok))
                except MalformedAngleError as exc:
                    raise PortraitParseError(lineno, str(exc)) from None
            if len({a.as_integer_ratio() for a in angles}) != len(angles):
                raise PortraitParseError(lineno, "duplicate angle in one set")
            sets.append(angles)
        else:
            raise PortraitParseError(lineno, f"unknown directive {keyword!r}")
    if degree is None:
        raise PortraitParseError(1, "missing degree line")
    if not sets:
        raise PortraitParseError(1, "portrait has no set lines")
    if fault := _capacity_fault(degree, sets):
        raise PortraitParseError(degree_line, fault)
    return Portrait.create(degree, sets)


def format_portrait(p: Portrait) -> str:
    """Canonical text for a portrait (sets in stored order, angles reduced)."""
    return f"degree {p.degree}\n" + "".join(map(_set_line, p.sets))


def _set_line(s) -> str:
    """One set's line of the portrait text, its newline included."""
    return "set " + " ".join(map(format_angle, s)) + "\n"
