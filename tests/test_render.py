import math
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

import portraits.render
from portraits import Portrait, construct_tree, enumerate_portraits, render_svg

from test_golden import long_period_portraits


def render(p):
    ct = construct_tree(p)
    return render_svg(ct, ct.regions)


def fraction_arc_midpoint(arc):
    """Oracle: the midpoint the renderer took with Fraction arithmetic
    before it wrote each midpoint as one integer ratio."""
    span = (arc.end - arc.start) % 1
    if span == 0:
        span = 1
    return float((arc.start + span / 2) % 1)


def cos_arguments(monkeypatch, ct):
    """Every argument ``render_svg`` hands to ``math.cos``, in call order."""
    seen = []

    def cos(x):
        seen.append(x)
        return math.cos(x)

    monkeypatch.setattr(portraits.render, "math", SimpleNamespace(
        cos=cos, sin=math.sin, pi=math.pi, lcm=math.lcm, hypot=math.hypot))
    render_svg(ct, ct.regions)
    return seen


class TestArcMidpoints:
    @pytest.mark.parametrize("degree", [None, 2, 3, 4, "long period"])
    def test_floats_match_fraction_oracle(self, monkeypatch, degree):
        # bit for bit, over the single-angle portrait, a period-3 census or
        # the golden long-period portraits (periods 6..16): circle points
        # first, then each region's arc midpoints
        family = ([Portrait.create(2, [[F(0)]])] if degree is None
                  else long_period_portraits() if degree == "long period"
                  else enumerate_portraits(degree, 3))
        for portrait in family:
            ct = construct_tree(portrait)
            anchors = [2 * math.pi * float(a)
                       for rs in ct.sets for a in rs.angles]
            midpoints = [2 * math.pi * fraction_arc_midpoint(arc)
                         for r in ct.regions for arc in r.arcs]
            assert cos_arguments(monkeypatch, ct) == anchors + midpoints


class TestSvg:
    def test_degree5_element_counts(self, degree5_portrait):
        svg = render(degree5_portrait)
        # two 2-point stars contribute two dashed spokes each; the two
        # singletons are point stars with no spokes
        assert svg.count('class="star"') == 4
        assert svg.count('class="fatou"') == 3
        assert svg.count('class="julia"') == 4
        assert svg.count('class="edge"') == 6
        assert svg.count('class="tau"') == 2  # the interchanged pair

    def test_single_angle_portrait(self):
        svg = render(Portrait.create(2, [[F(0)]]))
        assert svg.count('class="star"') == 0
        assert svg.count('class="julia"') == 1
        assert svg.count('class="fatou"') == 1
        assert svg.count('class="edge"') == 1

    def test_basilica_swap_arrows(self, basilica):
        svg = render(basilica)
        assert svg.count('class="tau"') == 2
        assert svg.count('class="fatou"') == 2

    def test_deterministic_bytes(self, degree5_portrait):
        assert render(degree5_portrait) == render(degree5_portrait)

    def test_well_formed_xml(self, degree5_portrait):
        import xml.etree.ElementTree as ET
        ET.fromstring(render(degree5_portrait))
