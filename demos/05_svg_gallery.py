"""Render a small gallery of portrait diagrams into demos/output/.

Each diagram shows the unit circle, the dashed stars joining every set to
its barycenter, the solid tree with local degrees, and dotted arrows for the
vertices the dynamics moves.
"""

from fractions import Fraction as F
from pathlib import Path

from portraits import Portrait, construct_tree, render_svg

GALLERY = {
    "degree5_example": Portrait.create(
        5, [[F(0), F(3, 4)], [F(1, 8), F(5, 8)], [F(1, 4)], [F(1, 2)]]),
    "basilica": Portrait.create(2, [[F(0)], [F(1, 3), F(2, 3)]]),
    "rabbit_like": Portrait.create(2, [[F(0)], [F(1, 7), F(2, 7), F(4, 7)]]),
    "degree3_wrapped": Portrait.create(
        3, [[F(0)], [F(1, 2)], [F(1, 8), F(1, 4), F(3, 8), F(3, 4)]]),
    "degree4_two_rotators": Portrait.create(
        4, [[F(0), F(1, 3), F(2, 3)], [F(1, 15), F(4, 15)], [F(11, 15), F(14, 15)]]),
}

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)
for name, portrait in GALLERY.items():
    ct = construct_tree(portrait)
    svg = render_svg(ct, ct.regions)
    path = out_dir / f"{name}.svg"
    path.write_text(svg, encoding="utf-8")
    print(f"wrote {path} ({len(svg)} bytes)")
