from fractions import Fraction as F

import pytest

from portraits import (Portrait, PortraitParseError, enumerate_portraits,
                       format_portrait, parse_portrait)

from conftest import DEGREE5_SETS

DEGREE5_TEXT = """\
# a degree-5 example
degree 5
set 0 3/4
set 1/8 5/8

set 1/4
set 1/2
"""


class TestParse:
    def test_degree5(self):
        p = parse_portrait(DEGREE5_TEXT)
        assert p == Portrait.create(5, DEGREE5_SETS)

    def test_angles_reduced_on_input(self):
        p = parse_portrait("degree 5\nset 0 6/8\nset 9/8 5/8\nset 2/8\nset 4/8\n")
        assert p == Portrait.create(5, DEGREE5_SETS)

    def test_degree_must_come_first(self):
        with pytest.raises(PortraitParseError) as exc:
            parse_portrait("set 1/8\ndegree 5\n")
        assert exc.value.line == 1

    def test_degree_below_two(self):
        with pytest.raises(PortraitParseError) as exc:
            parse_portrait("degree 1\nset 0\n")
        assert exc.value.line == 1 and "degree" in str(exc.value)

    @pytest.mark.parametrize("line, message", [
        ("degree", "expected: degree <int>"),
        ("degree 3 4", "expected: degree <int>"),
        ("degree three", "degree must be an integer, got 'three'"),
        # int() takes these; the format takes ASCII decimals only
        ("degree 1_6", "degree must be an integer, got '1_6'"),
        ("degree ２", "degree must be an integer, got '２'"),
        ("degree ٣", "degree must be an integer, got '٣'"),
    ])
    def test_malformed_degree_line(self, line, message):
        with pytest.raises(PortraitParseError, match=f"^line 2: {message}$"):
            parse_portrait(f"# a comment\n{line}\nset 0\n")

    def test_duplicate_degree_line(self):
        with pytest.raises(PortraitParseError) as exc:
            parse_portrait("degree 2\ndegree 2\nset 0\n")
        assert exc.value.line == 2

    def test_bad_fraction_with_line_number(self):
        with pytest.raises(PortraitParseError) as exc:
            parse_portrait("degree 2\nset 0\nset x/3\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("token", ["1_0/3", "1/1_0", "３/４", "٣/٤"])
    def test_fraction_takes_ascii_decimals_only(self, token):
        with pytest.raises(PortraitParseError,
                           match=f"^line 3: bad fraction '{token}'$"):
            parse_portrait(f"degree 2\nset 0\nset {token}\n")

    def test_signs_are_kept(self):
        assert parse_portrait("degree +2\nset -1/3 +1/3\n") == Portrait.create(
            2, [[F(1, 3), F(2, 3)]])

    def test_empty_set_line(self):
        with pytest.raises(PortraitParseError) as exc:
            parse_portrait("degree 2\nset\n")
        assert exc.value.line == 2

    def test_duplicate_angle_in_line(self):
        with pytest.raises(PortraitParseError) as exc:
            parse_portrait("degree 2\nset 1/3 2/6\n")
        assert exc.value.line == 2

    def test_missing_pieces(self):
        with pytest.raises(PortraitParseError):
            parse_portrait("# nothing here\n")
        with pytest.raises(PortraitParseError):
            parse_portrait("degree 2\n")

    def test_degree_ceiling(self):
        # refused only when d - 1 exceeds both the angles listed and 2**16
        with pytest.raises(PortraitParseError) as exc:
            parse_portrait("# huge\ndegree 65538\nset 0\n")
        assert exc.value.line == 2 and "65537 fixed angles" in str(exc.value)
        assert parse_portrait("degree 65537\nset 0\n").degree == 65537
        assert parse_portrait("degree 5\nset 1/8 5/8\n").degree == 5

    def test_unknown_directive(self):
        with pytest.raises(PortraitParseError) as exc:
            parse_portrait("degree 2\nangles 0\n")
        assert exc.value.line == 2


class TestFormat:
    def test_normalized_output(self):
        p = parse_portrait(DEGREE5_TEXT)
        assert format_portrait(p) == (
            "degree 5\nset 0/1 3/4\nset 1/8 5/8\nset 1/4\nset 1/2\n")

    def test_parse_print_parse_identity(self):
        for d in (2, 3):
            for p in enumerate_portraits(d, 3):
                assert parse_portrait(format_portrait(p)) == p

    def test_print_parse_on_unnormalized_input(self):
        text = "degree 2\nset 2/6 4/6\nset 0\n"
        p = parse_portrait(text)
        assert parse_portrait(format_portrait(p)) == p
