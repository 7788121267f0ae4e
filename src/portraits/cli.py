"""Command-line interface.

Subcommands::

    validate <file>                       exit 0 iff the portrait is valid
    build <file> [--svg P] [--report P] [--json P]
                                          construct, check, round-trip
    roundtrip <file>                      print the recovered portrait
    enumerate --degree D --max-period P [--max-cardinality N | --portraits]

Exit status: 0 pass, 1 validation or check failure, 2 parse/usage error or
a file that cannot be read or written.  Only ``main`` maps errors to these:
an ``InvalidPortraitError`` prints its violations, any other
``PortraitsError`` prints ``error: ...``, and other ``ValueError``s exit 2.
Each subcommand imports the modules it runs, when it runs.
"""

from __future__ import annotations

import argparse
import sys

from .angles import _decimal, format_angle
from .errors import InvalidPortraitError, PortraitParseError, PortraitsError
from .fileio import _set_line, format_portrait, parse_portrait
from .portrait import validate_portrait


def _integer(text: str) -> int:
    try:
        return _decimal(text)   # ASCII decimals only, as the file's degree line
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _read_portrait(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return parse_portrait(text)
    except PortraitParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_validate(args) -> int:
    p = _read_portrait(args.file)
    result = validate_portrait(p)
    if result.ok:
        print("ok")
        return 0
    for v in result.violations:
        print(f"{v.code}: {v.message}")
    for note in result.notes:
        print(f"note: {note}")
    return 1


def _cmd_build(args) -> int:
    p = _read_portrait(args.file)
    validate_portrait(p).valid_sets()   # raises before the pipeline loads
    from . import render, report
    an = report.analyze(p)
    text = report.render_report(an)
    if args.report:
        _write(args.report, text)
    else:
        print(text, end="")
    if args.json:
        _write(args.json, report._json(an))
    if args.svg:
        _write(args.svg, render.render_svg(an.ct, an.regions))
    return 0 if an.all_ok else 1


def _cmd_roundtrip(args) -> int:
    from . import builder, recovery
    p = _read_portrait(args.file)
    recovered = recovery.recover_portrait(builder.construct_tree(p))
    print(format_portrait(recovered), end="")
    return 0 if recovered == p else 1


def _cmd_enumerate(args) -> int:
    from .enumeration import deployment_vector, enumerate_portraits, enumerate_rotation_sets
    degree, period = args.degree, args.max_period
    if args.portraits:
        portraits = enumerate_portraits(degree, period)
        # the enumeration shares each set tuple among its portraits, so each
        # set's line is formatted once, keyed by the tuple's id
        lines: dict[int, str] = {}
        write = sys.stdout.write
        for i, p in enumerate(portraits, start=1):
            text = [f"# portrait {i}\ndegree {degree}\n"]
            for s in p.sets:
                if (line := lines.get(id(s))) is None:
                    line = lines[id(s)] = _set_line(s)
                text.append(line)
            text.append("\n")
            write("".join(text))
        print(f"# total: {len(portraits)} portraits")
        return 0
    max_card = (args.max_cardinality if args.max_cardinality is not None
                else (degree - 1) * period)
    sets = enumerate_rotation_sets(degree, max_card, period)
    for rs in sets:
        angles = " ".join(format_angle(a) for a in rs.angles)
        dep = ",".join(str(c) for c in deployment_vector(rs))
        print(f"n={rs.cardinality} m={rs.shift} deployment={dep} angles {angles}")
    print(f"# total: {len(sets)} rotation sets")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="portraits",
        description="Validate fixed point portraits, build their invariant "
                    "trees, and certify the recovery round trip.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check the portrait conditions")
    v.add_argument("file")
    v.set_defaults(func=_cmd_validate)

    b = sub.add_parser("build", help="construct the tree, run every check")
    b.add_argument("file")
    b.add_argument("--svg", metavar="PATH", help="write an SVG diagram")
    b.add_argument("--report", metavar="PATH", help="write the text report")
    b.add_argument("--json", metavar="PATH", help="write the report as JSON")
    b.set_defaults(func=_cmd_build)

    r = sub.add_parser("roundtrip", help="print the portrait recovered from the tree")
    r.add_argument("file")
    r.set_defaults(func=_cmd_roundtrip)

    e = sub.add_parser("enumerate", help="list rotation sets or valid portraits")
    e.add_argument("--degree", type=_integer, required=True)
    e.add_argument("--max-period", type=_integer, required=True)
    listing = e.add_mutually_exclusive_group()
    listing.add_argument("--max-cardinality", type=_integer, default=None)
    listing.add_argument("--portraits", action="store_true",
                         help="assemble and list every valid portrait instead")
    e.set_defaults(func=_cmd_enumerate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidPortraitError as exc:
        for v in exc.violations:
            print(f"{v.code}: {v.message}")
        return 1
    except PortraitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
