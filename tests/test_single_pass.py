"""Each fact once: one ``analyze`` or ``construct_tree`` validates once,
classifies each member set once and partitions the disk once, one
``analyze`` constructs the tree through exactly one call of the public
``construct_tree`` and classifies the tree's vertices once
(``construct_tree`` never does), and the reports and the command line add
no second pass.

Each public reader of germs builds one ``image_germs`` forest of the tree,
an O(|V|) pass that answers every vertex: ``analyze`` makes exactly two,
one in the degree-angle check and one in recovery, and ``construct_tree``
makes none.

Validation classifies each member set with one call of the shift kernel
``rotation._shift``, and nothing else calls it: recovery rebuilds its
rotating sets by Goldberg's closed form, which needs no classification.
Validation is counted at ``portrait._validate``, which
``validate_portrait``, ``construct_tree`` and ``analyze`` all go through.

No pass is quadratic in the number of sets or in a vertex's degree: wide
portraits, whose one region vertex has an edge per set, go through
validation, ``analyze`` and every report in time roughly linear in their
size.
"""

import sys
import time

import pytest

import portraits.cli
import portraits.portrait
from portraits import (Portrait, analyze, construct_tree, enumerate_portraits,
                       fixed_angles, render_report, render_svg, report_data,
                       validate_portrait)

from conftest import BASILICA_SETS, DEGREE5_SETS

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
    return {
        "shift": count_calls(monkeypatch, binders("_shift"), "_shift"),
        "validate": count_calls(monkeypatch, binders("_validate"), "_validate"),
        "partition": count_calls(monkeypatch, binders("_partition"), "_partition"),
        "classify": count_calls(monkeypatch, binders("classify_vertices"),
                                "classify_vertices"),
        "germs": count_calls(monkeypatch, binders("image_germs"), "image_germs"),
        "construct": count_calls(monkeypatch, binders("construct_tree"),
                                 "construct_tree"),
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
    assert counts["germs"] == [(an.ct.tree,)] * 2
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
    assert not counts["germs"]
    assert ct.regions == analyze(p).regions


@pytest.mark.parametrize("command, expected, classifications, germ_passes", [
    ("build", "round trip: ok", 1, 2),   # one analyze
    ("roundtrip", "set 1/8 5/8", 0, 1),  # construct_tree and recovery only
], ids=["build", "roundtrip"])
def test_cli_build_validates_once(counts, tmp_path, capsys, command, expected,
                                  classifications, germ_passes):
    path = tmp_path / "d5.txt"
    path.write_text("degree 5\nset 0 3/4\nset 1/8 5/8\nset 1/4\nset 1/2\n")
    argv = [command, str(path)]
    if command == "build":
        argv += ["--svg", str(tmp_path / "t.svg")]
    assert portraits.cli.main(argv) == 0
    assert expected in capsys.readouterr().out
    assert len(counts["validate"]) == 1
    assert len(counts["partition"]) == 1
    assert len(counts["classify"]) == classifications
    assert len(counts["germs"]) == germ_passes
    assert len(counts["shift"]) == 4


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
