"""One SHA-256 over the output of every portrait of a fixed enumeration.

The portraits are those ``enumerate_portraits`` lists at (degree, period)
(2, 8), (3, 5), (4, 4), (5, 3) and (6, 2), 9,778 in all, in that order.
For each one the digest takes the portrait text, the text report, the JSON
report as the command line writes it and the SVG.  The committed value is
``tests/data/enumeration_digest.txt``; a change that does not mean to
change an output byte leaves it alone.  Check it, or regenerate it from the
current ``src/`` after an intended output change::

    PYTHONPATH=src python tests/enumeration_digest.py
    PYTHONPATH=src python tests/enumeration_digest.py --write

Every portrait must also build, pass every tree check and round-trip: the
first one that does not is printed, and the script exits 1 before it
compares or writes the digest.  Checking exits 1 on a mismatch as well.

``--frontier`` runs the same checks over the 93,566 portraits of (7, 2)
and (6, 3), the largest enumerations the command line lists in seconds,
and prints one SHA-256 over their text reports, which the CI pins::

    PYTHONPATH=src python tests/enumeration_digest.py --frontier
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from portraits import (analyze, enumerate_portraits, format_portrait,
                       render_report, render_svg, report_data)

DIGEST = Path(__file__).parent / "data" / "enumeration_digest.txt"
ENUMERATION = ((2, 8), (3, 5), (4, 4), (5, 3), (6, 2))


FRONTIER = ((7, 2), (6, 3))


def outputs(p, an) -> tuple[str, ...]:
    """The portrait text, the text report, the JSON report as the command
    line writes it, and the SVG."""
    return (format_portrait(p), render_report(an),
            json.dumps(report_data(an), indent=2) + "\n",
            render_svg(an.ct, an.regions))


def digest(enumeration=ENUMERATION, texts=outputs) -> tuple[int, str]:
    """(number of portraits, hex digest of their ``texts``) over the
    enumeration; exits 1 at the first portrait that raises, fails a check
    or fails its round trip."""
    h = hashlib.sha256()
    count = 0
    for degree, period in enumeration:
        for p in enumerate_portraits(degree, period):
            try:
                an = analyze(p)
                failure = (None if an.all_ok and an.recovered == p
                           else "fails its checks or its round trip")
            except Exception as exc:
                failure = f"raises {type(exc).__name__}: {exc}"
            if failure:
                print(f"portrait {count + 1} of the enumeration {failure}:\n"
                      f"{format_portrait(p)}", file=sys.stderr)
                sys.exit(1)
            for text in texts(p, an):
                h.update(text.encode("utf-8"))
            count += 1
    return count, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {DIGEST.name} instead of checking it")
    parser.add_argument("--frontier", action="store_true",
                        help="print the digest of the text reports at (7, 2) "
                             "and (6, 3) instead of checking the committed one")
    args = parser.parse_args(argv)
    if args.frontier:
        count, actual = digest(FRONTIER, lambda p, an: (render_report(an),))
        print(f"{actual} over {count} portraits")
        return 0
    count, actual = digest()
    if args.write:
        DIGEST.write_text(actual + "\n", encoding="utf-8")
        print(f"wrote {actual} over {count} portraits to {DIGEST}")
        return 0
    expected = DIGEST.read_text(encoding="utf-8").strip()
    if actual != expected:
        print(f"digest over {count} portraits is {actual}, "
              f"expected {expected} ({DIGEST})", file=sys.stderr)
        return 1
    print(f"digest ok: {actual} over {count} portraits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
