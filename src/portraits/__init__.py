"""Exact combinatorics of circle rotation sets and their invariant trees.

The pipeline: validate a fixed point portrait (a degree together with a
pairwise-unlinked family of rotation sets covering the fixed angles),
construct the planar tree the portrait induces, check every tree axiom,
and recover the portrait back from the tree alone - certifying the round
trip.  All circle arithmetic is exact rational arithmetic.

Importing the package loads no submodule: each public name, and each
submodule but ``cli`` as ``portraits.<module>``, loads on first use (PEP 562).
"""

import importlib

__version__ = "1.0.0"

# the module that defines each public name (__all__); a submodule is its own home
_HOME = {name: module for module, names in {
    "angles": "Angle as_angle_tuple check_degree fixed_angles format_angle "
              "normalize_angle parse_angle",
    "builder": "ConstructedTree ElementaryArc Region construct_tree",
    "enumeration": "deployment_vector enumerate_portraits enumerate_rotation_sets "
                   "generate_rotation_set",
    "errors": "CapacityError InvalidPortraitError InvariantViolationError "
              "MalformedAngleError MalformedSetError PortraitParseError PortraitsError",
    "fileio": "format_portrait parse_portrait",
    "portrait": "Portrait ValidationResult Violation validate_portrait",
    "recovery": "Sector boundary_walk recover_portrait",
    "render": "render_svg",
    "report": "Analysis analyze render_report report_data",
    "rotation": "RotationSet classify_rotation_set",
    "tree": "AngledTree TreeViolation VertexClass check_degree_angle check_expanding "
            "check_julia_normalization check_tree_axioms classify_vertices "
            "count_fixed_points image_germs",
}.items() for name in (module, *names.split())}
__all__ = sorted(name for name, home in _HOME.items() if name != home)


def __getattr__(name: str):
    """``name`` from the module that defines it, imported on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    return module if _HOME[name] == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
