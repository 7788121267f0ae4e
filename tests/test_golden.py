"""Byte-for-byte gate on the text report, the JSON report and the SVG.

``tests/data/golden_reports.json`` maps each portrait's text form to the
SHA-256 digests of ``render_report``, of the JSON report as the command
line writes it, and of ``render_svg``.  It covers the five gallery
portraits of ``demos/05_svg_gallery.py``, every portrait that
``enumerate_portraits(d, 3)`` lists for d = 2, 3, 4 (period 3 includes
every portrait of period 1 and 2), and ``long_period_portraits``: one
closed-form rotating set of each period 9..16 at degree 2 and two of each
period 6..10 at degree 3, far longer cycles than the enumerations reach.
The digests were frozen before the pipeline was reworked to validate and
partition once, and those of the long-period portraits before the
renderer, the report and recovery were reworked to read each angle once;
any change to the output bytes fails here.  To regenerate after an intended change::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from fractions import Fraction as F
from functools import cache
from pathlib import Path

from portraits import (Portrait, analyze, enumerate_portraits,
                       format_portrait, generate_rotation_set, render_report,
                       render_svg, report_data)

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"

GALLERY = [
    Portrait.create(5, [[F(0), F(3, 4)], [F(1, 8), F(5, 8)], [F(1, 4)], [F(1, 2)]]),
    Portrait.create(2, [[F(0)], [F(1, 3), F(2, 3)]]),
    Portrait.create(2, [[F(0)], [F(1, 7), F(2, 7), F(4, 7)]]),
    Portrait.create(3, [[F(0)], [F(1, 2)], [F(1, 8), F(1, 4), F(3, 8), F(3, 4)]]),
    Portrait.create(4, [[F(0), F(1, 3), F(2, 3)], [F(1, 15), F(4, 15)],
                        [F(11, 15), F(14, 15)]]),
]


def long_period_portraits() -> list[Portrait]:
    """{0} with the rotation-number-1/p set of one cycle, p = 9..16, at
    degree 2; {0}, {1/2} with each of two deployments, p = 6..10, at degree 3."""
    out = [Portrait.create(2, [[F(0)], generate_rotation_set(2, p, 1, (p,)).angles])
           for p in range(9, 17)]
    out += [Portrait.create(3, [[F(0)], [F(1, 2)],
                                generate_rotation_set(3, p, 1, dep).angles])
            for p in range(6, 11) for dep in ((1, p - 1), (p // 2, p - p // 2))]
    return out


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_portraits() -> list[Portrait]:
    out = list(GALLERY)
    for d in (2, 3, 4):
        out.extend(enumerate_portraits(d, 3))
    return out + long_period_portraits()


@cache
def goldens() -> tuple[Portrait, ...]:
    """The 457 distinct portraits of the golden file, for other tests."""
    return tuple(dict.fromkeys(golden_portraits()))


def digests() -> dict[str, list[str]]:
    table = {}
    for p in golden_portraits():
        an = analyze(p)
        table[format_portrait(p)] = [
            sha(render_report(an)),
            sha(json.dumps(report_data(an), indent=2) + "\n"),
            sha(render_svg(an.ct, an.regions)),
        ]
    return table


def test_reports_match_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = digests()
    assert sorted(actual) == sorted(expected)
    differing = [text for text in expected if actual[text] != expected[text]]
    assert not differing, f"{len(differing)} portraits differ, first:\n{differing[0]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
