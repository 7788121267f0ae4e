"""Properties of drawn valid portraits, up to degree 8 and period 12.

A portrait is drawn as the enumeration builds one: a noncrossing cover of
the d-1 fixed angles, then at most one single-cycle rotating set for each
class of elementary arcs that share a gap vector (``portrait._gaps`` of the
cover's blocks at the arc's fixed angle), its angles written down by
Goldberg's closed form (``rotation._closed_form``) from a sorted block
sequence over the class's arcs.  Arc i opens at the fixed angle i/(d-1),
which is block i's floor, so every angle of the set lies in the class's
arcs: in one gap of every fixed set, and apart from every other class.
"""

import json
from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from portraits import (analyze, format_portrait, parse_portrait, report_data,
                       validate_portrait)
from portraits.portrait import Portrait, _gaps
from portraits.report import _json
from portraits.rotation import _closed_form


def noncrossing_cover(draw, items):
    """A noncrossing partition of ``items``: the block of the first item, then
    a partition drawn the same way of each run of items between its members."""
    if not items:
        return []
    picks = draw(st.lists(st.booleans(), min_size=len(items) - 1,
                          max_size=len(items) - 1))
    members = [0] + [i for i, pick in enumerate(picks, start=1) if pick]
    cover = [[items[i] for i in members]]
    for start, stop in zip(members, members[1:] + [len(items)]):
        cover += noncrossing_cover(draw, items[start + 1:stop])
    return cover


@st.composite
def valid_portraits(draw):
    d = draw(st.integers(2, 8))
    cover = noncrossing_cover(draw, list(range(d - 1)))
    classes: dict[tuple, list[int]] = {}
    for arc in range(d - 1):
        classes.setdefault(_gaps(cover, arc), []).append(arc)
    sets = [[F(i, d - 1) for i in block] for block in cover]
    for arcs in classes.values():
        if not draw(st.booleans()):
            continue
        p = draw(st.integers(2, 12))
        r = draw(st.sampled_from([r for r in range(1, p) if gcd(r, p) == 1]))
        blocks = sorted(draw(st.lists(st.sampled_from(arcs), min_size=p, max_size=p)))
        q, xs = _closed_form(d, r, blocks)
        sets.append([F(x, q) for x in xs])
    return Portrait.create(d, sets)


@settings(max_examples=150, deadline=None)
@given(valid_portraits())
def test_drawn_portraits_build_check_and_round_trip(p):
    assert validate_portrait(p).ok, p
    an = analyze(p)
    assert an.all_ok, p
    rotating = sum(rs.cardinality for rs in an.sets if not rs.is_fixed)
    assert len(an.regions) == rotating + p.degree - p.k == 1 + sum(
        len(angles) - 1 for angles in p.sets)
    assert an.fixed_points == p.degree
    assert parse_portrait(format_portrait(p)) == p
    data = report_data(an)
    assert _json(data) == json.dumps(data, indent=2) + "\n"
