"""The result records are immutable values: equal by fields, hashed as the
tuple of their fields, unhashable while they hold a dict, closed to
assignment, and printed as ``Name(field=value, ...)``."""

from fractions import Fraction as F

import pytest

from portraits import (Analysis, ConstructedTree, Portrait, RotationSet,
                       Sector, TreeViolation, VertexClass, Violation, analyze,
                       construct_tree)

from conftest import BASILICA_SETS


# (record, its fields as a plain tuple, a record differing in one field)
_SETS = ((F(0),), (F(1, 3), F(2, 3)))
CASES = [
    (Portrait.create(2, BASILICA_SETS), (2, _SETS), Portrait(3, _SETS)),
    (RotationSet(2, (F(1, 3), F(2, 3)), 1), (2, (F(1, 3), F(2, 3)), 1),
     RotationSet(2, (F(1, 3), F(2, 3)), 0)),
    (Violation("P1", ((F(1, 8),),), "not a rotation set"),
     ("P1", ((F(1, 8),),), "not a rotation set"),
     Violation("P1", ((F(1, 8),),), "other prose")),
    (Sector("J1", 2), ("J1", 2), Sector("J1", 0)),
    (TreeViolation("tau", "edge a-b collapses"), ("tau", "edge a-b collapses"),
     TreeViolation("structure", "edge a-b collapses")),
    (VertexClass("julia", 0, 0, 1), ("julia", 0, 0, 1),
     VertexClass("fatou", 0, 0, 1)),
]


@pytest.mark.parametrize("record, fields, other", CASES,
                         ids=[type(case[0]).__name__ for case in CASES])
def test_equality_and_hash_follow_the_fields(record, fields, other):
    twin = type(record)(*fields)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(fields)
    assert record != other
    assert len({record, twin, other}) == 2


def test_records_holding_a_dict_are_unhashable():
    ct = construct_tree(Portrait.create(2, BASILICA_SETS))
    an = analyze(Portrait.create(2, BASILICA_SETS))
    for record in (ct.tree, ct, an):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)


def test_construction_and_analysis_fields():
    # set j is vertex vj and region i is vertex wi, so the construction
    # carries the classified sets and no label maps; every portrait that
    # reaches an Analysis is valid, so it keeps no validation result
    assert ConstructedTree._fields == ("tree", "sets", "marked_sector", "regions")
    assert "validation" not in Analysis._fields
    ct = construct_tree(Portrait.create(2, BASILICA_SETS))
    assert ct.sets == (RotationSet(2, (F(0),), 0),
                       RotationSet(2, (F(1, 3), F(2, 3)), 1))


def test_fields_cannot_be_assigned():
    p = Portrait.create(2, BASILICA_SETS)
    with pytest.raises(AttributeError):
        p.degree = 3
    with pytest.raises(AttributeError):
        Sector("J1", 2).index = 0
    assert p.degree == 2


def test_repr_lists_the_fields():
    assert repr(Sector("J1", 2)) == "Sector(vertex='J1', index=2)"
    assert repr(Portrait.create(2, BASILICA_SETS)) == (
        "Portrait(degree=2, sets=((Fraction(0, 1),), "
        "(Fraction(1, 3), Fraction(2, 3))))")
