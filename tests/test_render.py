from fractions import Fraction as F

from portraits import Portrait, construct_tree, render_svg


def render(p):
    ct = construct_tree(p)
    return render_svg(ct, ct.regions)


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
