"""Properties of drawn valid portraits, up to degree 8 and period 12.

A portrait is drawn as the enumeration builds one: a noncrossing cover of
the d-1 fixed angles, then at most one single-cycle rotating set for each
class of elementary arcs that share a gap vector (``enumeration._gaps`` of
the cover's blocks at the arc's fixed angle), its angles written down by
Goldberg's closed form (``rotation._closed_form``) from a sorted block
sequence over the class's arcs.  Arc i opens at the fixed angle i/(d-1),
which is block i's floor, so every angle of the set lies in the class's
arcs: in one gap of every fixed set, and apart from every other class.

Two edits of a drawn portrait must fail validation: a second single-cycle
set drawn over the arcs of an occupied class shares an angle with its
first set, crosses it, or lies in the same gap of every fixed set (``P4``
or a ``P2`` code); and an angle of a rotating set moved to another point
of its arc, short of the next angle of the portrait, leaves a set that is
no rotation set (``P1``).
"""

import json
from fractions import Fraction as F
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from portraits import (analyze, fixed_angles, format_portrait, parse_portrait,
                       report_data, validate_portrait)
from portraits.enumeration import _gaps
from portraits.portrait import Portrait
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


def single_cycle(draw, d, arcs):
    """A single-cycle rotating set of period 2..12 whose blocks are ``arcs``."""
    p = draw(st.integers(2, 12))
    r = draw(st.sampled_from([r for r in range(1, p) if gcd(r, p) == 1]))
    blocks = sorted(draw(st.lists(st.sampled_from(arcs), min_size=p, max_size=p)))
    q, xs = _closed_form(d, r, blocks)
    return [F(x, q) for x in xs]


@st.composite
def drawn_portraits(draw):
    """A valid portrait, and the arcs of each class it holds a rotating set in."""
    d = draw(st.integers(2, 8))
    cover = noncrossing_cover(draw, list(range(d - 1)))
    classes: dict[tuple, list[int]] = {}
    for arc in range(d - 1):
        classes.setdefault(_gaps(cover, arc), []).append(arc)
    sets = [[F(i, d - 1) for i in block] for block in cover]
    occupied = [arcs for arcs in classes.values() if draw(st.booleans())]
    sets += [single_cycle(draw, d, arcs) for arcs in occupied]
    return Portrait.create(d, sets), occupied


@settings(max_examples=100, deadline=None)
@given(drawn_portraits(), st.data())
def test_edits_of_drawn_portraits_fail_validation(drawn, data):
    p, occupied = drawn
    assume(occupied)
    d = p.degree
    extra = single_cycle(data.draw, d, data.draw(st.sampled_from(occupied)))
    codes = validate_portrait(Portrait.create(d, [*p.sets, extra])).codes
    assert codes and set(codes) <= {"P4", "P2-not-disjoint", "P2-linked"}, (p, extra)

    s = data.draw(st.sampled_from([s for s in p.sets if s[0] not in fixed_angles(d)]))
    k = data.draw(st.integers(0, len(s) - 1))
    # halfway to the next angle of the portrait, at most the next fixed angle
    after = [x for t in p.sets for x in t if x > s[k]]
    moved = [*s[:k], (s[k] + min(after, default=F(1))) / 2, *s[k + 1:]]
    edited = [moved if t is s else t for t in p.sets]
    codes = validate_portrait(Portrait.create(d, edited)).codes
    assert codes == ("P1",), (p, s, k)


@settings(max_examples=150, deadline=None)
@given(drawn_portraits())
def test_drawn_portraits_build_check_and_round_trip(drawn):
    p, _ = drawn
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
