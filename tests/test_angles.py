from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from portraits import (MalformedAngleError, fixed_angles, format_angle,
                       normalize_angle, parse_angle)

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
        for bad in ("1", "3/0", "x/4", "3/-4", "", "1.5"):
            with pytest.raises(MalformedAngleError):
                parse_angle(bad)

    def test_format_is_reduced_pair(self):
        assert format_angle(F(0)) == "0/1"
        assert format_angle(F(2, 8)) == "1/4"

    @given(angles_strategy)
    def test_format_parse_round_trip(self, a):
        assert parse_angle(format_angle(a)) == a
