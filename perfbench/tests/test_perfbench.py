"""Tests of the benchmark's own input generators and frozen data.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import portraits  # noqa: E402

import inputs  # noqa: E402
from run import tail_rank  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_generators_are_deterministic(seed):
    census = inputs.census_inputs()
    assert inputs.long_period_inputs(seed) == inputs.long_period_inputs(seed)
    assert inputs.cli_inputs(seed, census) == inputs.cli_inputs(seed, census)
    assert (inputs.seeded_order(census, seed, "census")
            == inputs.seeded_order(census, seed, "census"))


def test_seed_never_changes_the_periods():
    shapes = {tuple(sorted((it["degree"], it["period"])
                           for it in inputs.long_period_inputs(seed)))
              for seed in range(5)}
    assert len(shapes) == 1
    texts = {tuple(it["text"] for it in inputs.long_period_inputs(seed))
             for seed in range(5)}
    assert len(texts) > 1


@pytest.mark.parametrize("degree,max_period", [(2, 6), (3, 4), (4, 3)])
def test_closed_form_matches_enumeration(degree, max_period):
    listed = portraits.enumerate_rotation_sets(degree, (degree - 1) * max_period, max_period)
    for rs in listed:
        dep = portraits.deployment_vector(rs)
        assert inputs.closed_form_set(degree, rs.cardinality, rs.shift, dep) == list(rs.angles)
    built = set()
    for n in range(1, (degree - 1) * max_period + 1):
        for m in range(n):
            if n // gcd(m, n) > max_period:
                continue
            for dep in inputs.deployments(degree, n):
                angles = inputs.confirmed_set(degree, n, m, dep)
                if angles is not None:
                    built.add(tuple(angles))
    assert built == {rs.angles for rs in listed}


def test_frozen_census_reenumerates():
    frozen = {}
    for item in inputs.census_inputs():
        frozen.setdefault(item["census"], []).append(item["text"])
    for (d, p), texts in frozen.items():
        again = [inputs.portrait_text(q.degree, q.sets)
                 for q in portraits.enumerate_portraits(d, p)]
        assert again == texts
        assert again == [portraits.format_portrait(q)
                         for q in portraits.enumerate_portraits(d, p)]


@pytest.mark.parametrize("seed", range(4))
def test_mutated_cli_inputs_fail_p1(seed):
    bad = [it for it in inputs.cli_inputs(seed, inputs.census_inputs()) if not it["valid"]]
    assert len(bad) == round(inputs.CLI_INVOCATIONS * inputs.CLI_MUTATED_SHARE)
    for item in bad:
        d, sets = inputs.parse_sets(item["text"])
        moved = Fraction(item["moved"])
        (home,) = [s for s in sets if moved in s]
        assert (d * moved) % 1 not in home
        result = portraits.validate_portrait(portraits.parse_portrait(item["text"]))
        assert "P1" in result.codes


def test_every_census_portrait_can_be_mutated():
    rng = random.Random(3)
    for item in inputs.census_inputs():
        bad = inputs.mutate(item["text"], rng)
        p = portraits.parse_portrait(bad["text"])
        assert portraits.format_portrait(p) == bad["text"]
        assert "P1" in portraits.validate_portrait(p).codes


def test_probe_portrait_is_valid():
    item = inputs.probe_input()
    p = portraits.parse_portrait(item["text"])
    assert p.degree == 46 and p.k == 46
    assert portraits.validate_portrait(p).ok


def test_tail_percentile():
    assert tail_rank(944) == (98, 926)
    assert tail_rank(80) == (87, 70)
    assert tail_rank(14) == (100, 14)
    assert tail_rank(3) == (100, 3)
