import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from portraits import (MalformedAngleError, MalformedSetError, Portrait,
                       as_angle_tuple, classify_rotation_set, fixed_angles,
                       format_angle, normalize_angle, parse_angle,
                       validate_portrait)

from test_rotation import map_angle


def small_angles(max_den=12):
    out = set()
    for q in range(1, max_den + 1):
        for p in range(q):
            out.add(F(p, q))
    return sorted(out)


angles_strategy = st.fractions(min_value=0, max_value=1, max_denominator=64).filter(
    lambda f: f < 1)


class TestNormalize:
    def test_reduces_and_wraps(self):
        assert normalize_angle(10, 8) == F(1, 4)
        assert normalize_angle(0, 1) == F(0)
        assert normalize_angle(7, 4) == F(3, 4)

    def test_negative_numerator_wraps(self):
        assert normalize_angle(-1, 4) == F(3, 4)

    def test_matches_fraction_mod_one(self):
        # the expression normalize_angle used before it built one Fraction
        for q in (1, 2, 3, 4, 6, 7, 12, 10 ** 30 + 1):
            for p in (-3 * q - 1, -q, -q + 1, -1, 0, 1, q - 1, q, q + 1, 5 * q + 2):
                assert normalize_angle(p, q) == F(p, q) % 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(MalformedAngleError):
            normalize_angle(1, 0)
        with pytest.raises(MalformedAngleError):
            normalize_angle(1, -4)

    @given(st.integers(-1000, 1000), st.integers(1, 1000))
    def test_always_reduced_in_range(self, p, q):
        a = normalize_angle(p, q)
        assert 0 <= a < 1
        # Fraction keeps gcd(num, den) == 1 by construction
        assert normalize_angle(a.numerator, a.denominator) == a


class TestMapAngle:
    """The Fraction covering map that the test oracles use."""

    def test_examples(self):
        assert map_angle(F(1, 8), 5) == F(5, 8)
        assert map_angle(F(5, 8), 5) == F(1, 8)
        assert map_angle(F(1, 3), 2) == F(2, 3)

    @given(angles_strategy, st.integers(2, 6))
    def test_preimages(self, theta, d):
        # the d preimages of theta are (theta + i)/d, all distinct
        pre = {F(theta + i, d) for i in range(d)}
        assert len(pre) == d
        assert all(map_angle(x, d) == theta for x in pre)


class TestFixedAngles:
    def test_examples(self):
        assert fixed_angles(5) == (F(0), F(1, 4), F(1, 2), F(3, 4))
        assert fixed_angles(2) == (F(0),)
        assert fixed_angles(3) == (F(0), F(1, 2))

    def test_characterization_exhaustive(self):
        # denominators up to 64, degrees up to 6: fixed iff map_angle fixes
        grid = small_angles(64)
        for d in range(2, 7):
            fixed = set(fixed_angles(d))
            for theta in grid:
                assert (theta in fixed) == (map_angle(theta, d) == theta)


class TestText:
    def test_parse(self):
        assert parse_angle("3/4") == F(3, 4)
        assert parse_angle("10/8") == F(1, 4)
        assert parse_angle("0") == F(0)

    def test_parse_rejects_junk(self):
        # int() would take the last five: underscores, full-width and
        # Arabic-Indic digits, and spaces inside the token
        for bad in ("1", "3/0", "x/4", "3/-4", "", "1.5",
                    "1_0/3", "1/1_0", "３/４", "٣/٤", "3 /4"):
            with pytest.raises(MalformedAngleError):
                parse_angle(bad)

    def test_format_is_reduced_pair(self):
        assert format_angle(F(0)) == "0/1"
        assert format_angle(F(2, 8)) == "1/4"

    @given(angles_strategy)
    def test_format_parse_round_trip(self, a):
        assert parse_angle(format_angle(a)) == a


class TestAngleTuple:
    @pytest.mark.parametrize("bad", [0.5, "1/2", True, False, None, 1j])
    def test_only_ints_and_fractions_are_angles(self, bad):
        # refused where the set is made, naming the value, not later by
        # validation or classification with an AttributeError, nor by
        # sorting it beside a Fraction with a bare TypeError
        calls = [lambda: as_angle_tuple([bad]), lambda: Portrait.create(2, [[bad]]),
                 lambda: Portrait.create(2, [[F(1, 3), bad]]),
                 lambda: classify_rotation_set([bad], 2)]
        for call in calls:
            with pytest.raises(MalformedSetError, match=re.escape(repr(bad))):
                call()

    def test_integer_zero_is_an_angle(self):
        p = Portrait.create(2, [[0], [F(1, 3), F(2, 3)]])
        assert p.sets == ((0,), (F(1, 3), F(2, 3)))
        assert validate_portrait(p).ok
        assert format_angle(0) == "0/1"
        assert as_angle_tuple((0, F(1, 3), F(1, 2))) == (0, F(1, 3), F(1, 2))

    @pytest.mark.parametrize("angles, message", [
        ((F(1, 3), F(1)), "angle 1 outside [0, 1)"),
        ((F(-1, 3),), "angle -1/3 outside [0, 1)"),
        ((1,), "angle 1 outside [0, 1)"),
        ((F(1, 2), F(1, 3)), "strictly increasing, got 1/2 before 1/3"),
        ((F(1, 3), F(2, 6)), "strictly increasing, got 1/3 before 1/3"),
        ((0, F(0)), "strictly increasing, got 0 before 0"),
    ])
    def test_range_and_order(self, angles, message):
        with pytest.raises(MalformedSetError, match=re.escape(message)):
            as_angle_tuple(angles)
