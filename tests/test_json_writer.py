"""``report._json`` writes the bytes of ``json.dumps(report_data(an),
indent=2) + "\\n"`` without loading ``json``.  The standard library is the
oracle: on every golden portrait, on analyses edited to fail, and on
arbitrary nested data whose strings need every kind of escape."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portraits import (TreeViolation, analyze, parse_portrait, render_report,
                       report_data)
from portraits.report import _emit, _json

from test_golden import goldens

DEGREE5 = "degree 5\nset 0 3/4\nset 1/8 5/8\nset 1/4\nset 1/2\n"


def dumps(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def test_matches_json_on_every_golden_portrait():
    for p in goldens():
        an = analyze(p)
        assert _json(an) == dumps(report_data(an)), p


@pytest.mark.parametrize("edit", [
    {"expanding": False, "expanding_witness": ("v1", "w1")},
    {"recovered": parse_portrait("degree 2\nset 0\nset 1/3 2/3\n"),
     "round_trip_ok": False},
    {"axiom_violations": (TreeViolation("x", "x"),),
     "degree_angle_violations": (TreeViolation("y", "y"),),
     "normalization_violations": (TreeViolation("z", "z"),)},
], ids=["expanding", "round-trip", "checks"])
def test_matches_json_on_failing_analyses(edit):
    an = analyze(parse_portrait(DEGREE5))._replace(**edit)
    assert _json(an) == dumps(report_data(an))


def test_failed_checks_carry_their_violations_and_witness():
    # no valid portrait fails a check, so the analysis is edited to fail;
    # the JSON then holds each violation's code and detail and the
    # witness edge, as the text report prints them
    an = analyze(parse_portrait(DEGREE5))
    assert report_data(an)["checks"] == {
        "tree_axioms": True, "degree_angle": True,
        "julia_normalization": True, "expanding": True}
    disconnected = TreeViolation("not-connected", "the graph is disconnected")
    julia = [TreeViolation("julia-angle", f"angle 1/4 at v{j} between edges to "
                                          "w1 and w2 is not a multiple of 1/3")
             for j in (1, 2)]
    failing = an._replace(axiom_violations=(disconnected,),
                          normalization_violations=tuple(julia),
                          expanding=False, expanding_witness=("v1", "w1"))
    assert report_data(failing)["checks"] == {
        "tree_axioms": False,
        "tree_axioms_violations": [{"code": "not-connected",
                                    "detail": "the graph is disconnected"}],
        "degree_angle": True,
        "julia_normalization": False,
        "julia_normalization_violations": [{"code": v.code, "detail": v.detail}
                                           for v in julia],
        "expanding": False,
        "expanding_witness": ["v1", "w1"],
    }
    assert _json(failing) == dumps(report_data(failing))
    text = render_report(failing)
    assert "\ntree axioms: FAIL not-connected: the graph is disconnected\n" in text
    assert "; ".join(f"{v.code}: {v.detail}" for v in julia) in text
    assert "\nexpanding: FAIL at edge ('v1', 'w1')\n" in text


def test_recovered_lines_are_the_input_text():
    # a round trip that holds keeps the input portrait, whose lines the
    # JSON repeats; a differing recovered portrait is formatted itself
    an = analyze(parse_portrait(DEGREE5))
    assert an.recovered is an.portrait
    assert report_data(an)["recovered"] == [
        "degree 5", "set 0/1 3/4", "set 1/8 5/8", "set 1/4", "set 1/2"]
    other = an._replace(recovered=parse_portrait("degree 2\nset 0\nset 1/3 2/3\n"))
    assert report_data(other)["recovered"] == ["degree 2", "set 0/1", "set 1/3 2/3"]


# quotes, backslashes, control and non-printable characters, non-ASCII,
# astral characters and lone surrogates, beside plain ASCII
CHARACTERS = st.one_of(st.sampled_from('"\\\x00\x1f\x7f  a/1'),
                       st.characters(categories=["Cs"]),
                       st.characters(exclude_categories=()))
TEXT = st.text(CHARACTERS, max_size=8)
SCALARS = st.one_of(TEXT, st.integers(), st.booleans(), st.none())
DATA = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=25)


@settings(max_examples=300)
@given(DATA)
def test_matches_json_on_nested_data(data):
    out = []
    _emit(data, "\n", out)
    assert "".join(out) == json.dumps(data, indent=2)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a"}])
def test_other_values_are_refused(value):
    # the writer takes what report_data makes; nothing else is written
    with pytest.raises((TypeError, AttributeError)):
        _emit(value, "\n", [])
