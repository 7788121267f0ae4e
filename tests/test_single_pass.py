"""Each fact once: one ``analyze`` or ``construct_tree`` validates once,
classifies each member set once and partitions the disk once, one
``analyze`` constructs the tree through exactly one call of the public
``construct_tree`` and classifies the tree's vertices once
(``construct_tree`` never does), and the reports and the command line add
no second pass: ``build`` writes its text and JSON reports from one
``report_data``, which spells each angle once.  ``analyze`` calls none of
the four public tree checks, each of which would survey and classify the
tree again.

The tree checks read a tree through one survey (``tree._survey``), an
O(|V|) sweep that records its forest, each vertex's angle function and
each vertex's germs: ``analyze`` makes exactly one and hands it to the
checks and to recovery, ``roundtrip`` makes one in recovery, and
``construct_tree`` makes none.

Validation classifies each member set with one call of the shift kernel
``rotation._shift``, and nothing else calls it: recovery rebuilds its
rotating sets by Goldberg's closed form, which needs no classification.
Validation is counted at ``portrait._validate``, which
``validate_portrait``, ``construct_tree`` and ``analyze`` all go through.
It remembers its result for the last portrait object whose family and
sets are tuples, so ``validate_portrait(p)`` followed by ``analyze(p)``
classifies each set once; a portrait whose sets can change in place, or
an input that raises, is not remembered.

No pass is quadratic in the number of sets or in a vertex's degree: wide
portraits, whose one region vertex has an edge per set, go through
validation, ``analyze`` and every report in time roughly linear in their
size.
"""

import sys
import time
from fractions import Fraction as F

import pytest

import portraits.cli
import portraits.portrait
from portraits import (MalformedSetError, Portrait, analyze, construct_tree,
                       enumerate_portraits, fixed_angles, render_report,
                       render_svg, report_data, validate_portrait)

from conftest import BASILICA_SETS, DEGREE5_SETS

CHECKS = ("check_tree_axioms", "check_degree_angle", "check_julia_normalization",
          "check_expanding")
PORTRAITS = ([Portrait.create(5, DEGREE5_SETS), Portrait.create(2, BASILICA_SETS)]
             + enumerate_portraits(3, 2))


def binders(name):
    """Every ``portraits`` module that binds ``name``."""
    return [module for key, module in sorted(sys.modules.items())
            if key.startswith("portraits.") and hasattr(module, name)]


def count_calls(monkeypatch, owners, name, wrap=lambda f: f):
    """Count calls of ``name`` through every owner that binds it."""
    calls = []
    original = getattr(owners[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, wrap(counted))
    return calls


@pytest.fixture
def counts(monkeypatch):
    # each test starts with nothing remembered, whatever ran before it
    monkeypatch.setattr(portraits.portrait, "_last", (None, None))
    return {
        "shift": count_calls(monkeypatch, binders("_shift"), "_shift"),
        "validate": count_calls(monkeypatch, binders("_validate"), "_validate"),
        "partition": count_calls(monkeypatch, binders("_partition"), "_partition"),
        "classify": count_calls(monkeypatch, binders("classify_vertices"),
                                "classify_vertices"),
        "survey": count_calls(monkeypatch, binders("_survey"), "_survey"),
        "construct": count_calls(monkeypatch, binders("construct_tree"),
                                 "construct_tree"),
        **{name: count_calls(monkeypatch, binders(name), name) for name in CHECKS},
    }


@pytest.mark.parametrize("p", PORTRAITS, ids=lambda p: f"d{p.degree}k{p.k}")
def test_analyze_computes_each_fact_once(counts, p):
    an = analyze(p)
    assert an.all_ok
    assert counts["construct"] == [(p,)]
    assert an.sets is an.ct.sets
    assert len(counts["shift"]) == p.k
    assert len(counts["validate"]) == 1
    assert len(counts["partition"]) == 1
    assert len(counts["classify"]) == 1
    assert counts["survey"] == [(an.ct.tree,)]
    # the checks' private forms share that survey and classification
    assert not any(counts[name] for name in CHECKS)
    assert an.regions == an.ct.regions

    for key in counts:
        counts[key].clear()
    render_report(an)
    report_data(an)
    assert all(not calls for calls in counts.values())


@pytest.mark.parametrize("p", PORTRAITS, ids=lambda p: f"d{p.degree}k{p.k}")
def test_construct_tree_validates_and_partitions_once(counts, p):
    ct = construct_tree(p)
    assert len(counts["shift"]) == p.k
    assert len(counts["validate"]) == 1
    assert len(counts["partition"]) == 1
    assert not counts["classify"]
    assert not counts["survey"]
    assert ct.regions == analyze(p).regions


@pytest.mark.parametrize("command, expected, classifications, validations", [
    # build validates before it loads the report modules, and analyze's
    # construct_tree gets that result back from the memo: each set is
    # still classified once
    ("build", "round trip: ok", 1, 2),   # one analyze
    ("roundtrip", "set 1/8 5/8", 0, 1),  # construct_tree and recovery only
], ids=["build", "roundtrip"])
def test_cli_build_validates_once(counts, tmp_path, capsys, command, expected,
                                  classifications, validations):
    path = tmp_path / "d5.txt"
    path.write_text("degree 5\nset 0 3/4\nset 1/8 5/8\nset 1/4\nset 1/2\n")
    argv = [command, str(path)]
    if command == "build":
        argv += ["--svg", str(tmp_path / "t.svg")]
    assert portraits.cli.main(argv) == 0
    assert expected in capsys.readouterr().out
    assert len(counts["validate"]) == validations
    assert len(counts["partition"]) == 1
    assert len(counts["classify"]) == classifications
    assert len(counts["survey"]) == 1
    assert len(counts["shift"]) == 4


def test_cli_build_formats_each_fact_once(monkeypatch, tmp_path):
    # the text report and the JSON are written from one report_data, which
    # spells the degree-5 portrait's 6 angles and its 6 arcs' 12 ends once;
    # the SVG spells none
    angles = count_calls(monkeypatch, binders("format_angle"), "format_angle")
    data = count_calls(monkeypatch, binders("report_data"), "report_data")
    path = tmp_path / "d5.txt"
    path.write_text("degree 5\nset 0 3/4\nset 1/8 5/8\nset 1/4\nset 1/2\n")
    assert portraits.cli.main(["build", str(path), *(
        f"--{kind}={tmp_path / kind}" for kind in ("report", "json", "svg"))]) == 0
    assert "round trip: ok" in (tmp_path / "report").read_text()
    assert len(data) == 1
    assert len(angles) == 6 + 12


def test_validate_then_analyze_classifies_each_set_once(counts):
    p = Portrait.create(5, DEGREE5_SETS)
    assert validate_portrait(p).ok
    assert analyze(p).all_ok
    assert len(counts["validate"]) == 2
    assert len(counts["shift"]) == p.k


@pytest.mark.parametrize("family", [list, tuple])
def test_sets_that_can_change_are_validated_again(counts, family):
    p = Portrait.create(2, BASILICA_SETS)
    assert validate_portrait(p) == validate_portrait(p)
    assert len(counts["shift"]) == p.k
    # sets built by hand as lists can be edited in place
    raw = Portrait(2, family([[F(0)], [F(1, 3), F(2, 3)]]))
    assert validate_portrait(raw).ok
    raw.sets[1][0] = F(1, 5)
    assert validate_portrait(raw).codes == ("P1",)
    assert len(counts["shift"]) == p.k + 2 + 1


def test_an_input_that_raises_is_not_remembered():
    p = Portrait.create(2, BASILICA_SETS)
    assert validate_portrait(p).ok
    bad = Portrait(2, ((F(2, 3), F(1, 3)),))
    for _ in range(2):
        with pytest.raises(MalformedSetError, match="not strictly increasing"):
            validate_portrait(bad)
        with pytest.raises(MalformedSetError, match="not strictly increasing"):
            analyze(bad)
    assert validate_portrait(p).ok and analyze(p).all_ok


@pytest.mark.parametrize("n", [1000, 4000, 16000])
def test_wide_portraits_run_in_linear_time(n):
    # degree n+1 with its n fixed angles as singletons: one region vertex
    # with n edges.  About 0.1 ms per set on a 2-vCPU host with Python
    # 3.11.7; pairwise passes took 1.7 s at n = 1,000.
    p = Portrait.create(n + 1, [[a] for a in fixed_angles(n + 1)])
    start = time.perf_counter()
    assert validate_portrait(p).ok
    an = analyze(p)
    assert an.all_ok
    render_report(an)
    report_data(an)
    render_svg(an.ct, an.regions)
    assert time.perf_counter() - start < n * 0.0005
