"""Each fact once: one ``analyze`` or ``construct_tree`` validates once,
classifies each member set once and partitions the disk once, and the
reports and the command line add no second pass.

``classify_rotation_set`` is not counted: recovery confirms every set it
rebuilds with it.
"""

import pytest

import portraits.builder
import portraits.cli
import portraits.portrait
import portraits.report
from portraits import (Portrait, RotationSet, analyze, construct_tree,
                       enumerate_portraits, render_report, report_data)

from conftest import BASILICA_SETS, DEGREE5_SETS

PORTRAITS = ([Portrait.create(5, DEGREE5_SETS), Portrait.create(2, BASILICA_SETS)]
             + enumerate_portraits(3, 2))


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
        "from_angles": count_calls(monkeypatch, [RotationSet], "from_angles",
                                   staticmethod),
        "validate": count_calls(
            monkeypatch, [portraits.portrait, portraits.builder, portraits.report,
                          portraits.cli],
            "validate_portrait"),
        "partition": count_calls(monkeypatch, [portraits.builder], "_partition"),
    }


@pytest.mark.parametrize("p", PORTRAITS, ids=lambda p: f"d{p.degree}k{p.k}")
def test_analyze_computes_each_fact_once(counts, p):
    an = analyze(p)
    assert an.all_ok
    assert len(counts["from_angles"]) == p.k
    assert len(counts["validate"]) == 1
    assert len(counts["partition"]) == 1
    assert an.regions == an.ct.regions

    for key in counts:
        counts[key].clear()
    render_report(an)
    report_data(an)
    assert all(not calls for calls in counts.values())


@pytest.mark.parametrize("p", PORTRAITS, ids=lambda p: f"d{p.degree}k{p.k}")
def test_construct_tree_validates_and_partitions_once(counts, p):
    ct = construct_tree(p)
    assert len(counts["from_angles"]) == p.k
    assert len(counts["validate"]) == 1
    assert len(counts["partition"]) == 1
    assert ct.regions == analyze(p).regions


@pytest.mark.parametrize("command, expected", [
    ("build", "round trip: ok"),
    ("roundtrip", "set 1/8 5/8"),
], ids=["build", "roundtrip"])
def test_cli_build_validates_once(counts, tmp_path, capsys, command, expected):
    path = tmp_path / "d5.txt"
    path.write_text("degree 5\nset 0 3/4\nset 1/8 5/8\nset 1/4\nset 1/2\n")
    argv = [command, str(path)]
    if command == "build":
        argv += ["--svg", str(tmp_path / "t.svg")]
    assert portraits.cli.main(argv) == 0
    assert expected in capsys.readouterr().out
    assert len(counts["validate"]) == 1
    assert len(counts["partition"]) == 1
    assert len(counts["from_angles"]) == 4
