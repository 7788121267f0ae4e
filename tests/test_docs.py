"""The README's Python examples run, and ``__all__`` is pinned, names only
real objects, and documents each of its classes and functions."""

import inspect
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS)
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_star_import_resolves_every_name():
    exec("from portraits import *", {})


def test_public_api_is_pinned():
    # a name joins or leaves the API only together with an edit here
    import portraits
    assert sorted(portraits.__all__) == [
        "Analysis", "Angle", "AngledTree", "CapacityError", "ConstructedTree",
        "ElementaryArc", "InvalidPortraitError", "InvariantViolationError",
        "MalformedAngleError", "MalformedSetError", "Portrait",
        "PortraitParseError", "PortraitsError", "Region", "RotationSet",
        "Sector", "TreeViolation", "ValidationResult", "VertexClass",
        "Violation", "analyze", "as_angle_tuple", "boundary_walk",
        "check_degree", "check_degree_angle", "check_expanding",
        "check_julia_normalization", "check_tree_axioms",
        "classify_rotation_set", "classify_vertices", "construct_tree",
        "count_fixed_points", "deployment_vector", "enumerate_portraits",
        "enumerate_rotation_sets", "fixed_angles", "format_angle",
        "format_portrait", "generate_rotation_set", "image_germs",
        "normalize_angle", "parse_angle", "parse_portrait", "recover_portrait",
        "render_report", "render_svg", "report_data", "validate_portrait",
    ]


def test_every_public_class_and_function_has_its_own_docstring():
    # a class's docstring is read from its own namespace, not inherited; a
    # NamedTuple without one gets a generated "Name(field, ...)"
    import portraits
    undocumented = []
    for name in portraits.__all__:
        obj = getattr(portraits, name)
        assert inspect.isclass(obj) or inspect.isfunction(obj), name
        doc = vars(obj).get("__doc__") if inspect.isclass(obj) else obj.__doc__
        if not doc or doc.startswith(obj.__name__ + "("):
            undocumented.append(name)
    assert not undocumented
