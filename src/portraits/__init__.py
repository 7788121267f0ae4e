"""Exact combinatorics of circle rotation sets and their invariant trees.

The pipeline: validate a fixed point portrait (a degree together with a
pairwise-unlinked family of rotation sets covering the fixed angles),
construct the planar tree the portrait induces, check every tree axiom,
and recover the portrait back from the tree alone - certifying the round
trip.  All circle arithmetic is exact rational arithmetic.
"""

from .angles import (Angle, as_angle_tuple, check_degree, fixed_angles,
                     format_angle, normalize_angle, parse_angle)
from .builder import (ConstructedTree, ElementaryArc, Region, construct_tree,
                      critical_capacities)
from .errors import (CapacityError, InternalContradictionError,
                     InvalidPortraitError, InvariantViolationError,
                     MalformedAngleError, MalformedSetError,
                     PortraitParseError, PortraitsError)
from .fileio import format_portrait, parse_portrait
from .portrait import (Portrait, ValidationResult, Violation,
                       enumerate_portraits, separates, unlinked,
                       validate_portrait)
from .recovery import Sector, boundary_walk, recover_portrait
from .render import render_svg
from .report import Analysis, analyze, render_report, report_data
from .rotation import (RotationSet, classify_rotation_set, deployment_vector,
                       enumerate_rotation_sets, generate_rotation_set)
from .tree import (AngledTree, TreeViolation, VertexClass, check_degree_angle,
                   check_expanding, check_julia_normalization,
                   check_tree_axioms, classify_vertices, count_fixed_points,
                   image_germs)

__version__ = "1.0.0"

__all__ = [
    "Angle", "AngledTree", "Analysis", "CapacityError", "ConstructedTree",
    "ElementaryArc", "InternalContradictionError", "InvalidPortraitError",
    "InvariantViolationError", "MalformedAngleError", "MalformedSetError",
    "Portrait", "PortraitParseError", "PortraitsError", "Region",
    "RotationSet", "Sector", "TreeViolation", "ValidationResult",
    "VertexClass", "Violation",
    "analyze", "as_angle_tuple", "boundary_walk", "check_degree",
    "check_degree_angle", "check_expanding", "check_julia_normalization",
    "check_tree_axioms", "classify_rotation_set", "classify_vertices",
    "construct_tree", "count_fixed_points", "critical_capacities",
    "deployment_vector", "enumerate_portraits", "enumerate_rotation_sets",
    "fixed_angles", "format_angle", "format_portrait", "generate_rotation_set",
    "image_germs", "normalize_angle", "parse_angle", "parse_portrait",
    "recover_portrait", "render_report", "render_svg", "report_data",
    "separates", "unlinked", "validate_portrait",
]
