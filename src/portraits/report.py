"""Full analysis of one portrait and the line-oriented report over it.

``analyze`` runs the whole pipeline - validation, regions, tree assembly,
dynamics, every tree check, and the recovery round trip - and keeps each
result, so the report and the CLI's exit status are pure functions of the
portrait.  It validates once, partitions the disk once and takes the germs
at each vertex once; the reports read the classified sets and the regions
from the ``Analysis``.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Optional

from .angles import format_angle
from .builder import ConstructedTree, Region, _construct
from .fileio import format_portrait
from .portrait import Portrait, ValidationResult, _validate
from .recovery import _recover
from .rotation import RotationSet
from .tree import (TreeViolation, VertexClass, _degree_angle, check_expanding,
                   check_julia_normalization, check_tree_axioms,
                   classify_vertices, count_fixed_points, image_germs)


class Analysis(NamedTuple):
    portrait: Portrait
    validation: ValidationResult
    ct: ConstructedTree
    classes: dict[str, VertexClass]
    axiom_violations: tuple[TreeViolation, ...]
    degree_angle_violations: tuple[TreeViolation, ...]
    normalization_violations: tuple[TreeViolation, ...]
    expanding: bool
    expanding_witness: Optional[tuple[str, str]]
    fixed_points: int
    recovered: Portrait
    round_trip_ok: bool

    @property
    def sets(self) -> tuple[RotationSet, ...]:
        return self.validation.sets

    @property
    def regions(self) -> tuple[Region, ...]:
        return self.ct.regions

    @property
    def all_ok(self) -> bool:
        return (self.validation.ok and not self.axiom_violations
                and not self.degree_angle_violations
                and not self.normalization_violations
                and self.expanding and self.round_trip_ok)


def analyze(p: Portrait) -> Analysis:
    """Run construction, checks and recovery on a valid portrait.

    Raises InvalidPortraitError, carrying the violations, when the portrait
    fails validation.
    """
    validation, xsets = _validate(p)
    ct = _construct(validation.valid_sets(), xsets)
    t = ct.tree
    classes = classify_vertices(t)
    expanding, witness = check_expanding(t, classes)
    germs_at = cache(lambda v: image_germs(t, v))
    recovered = _recover(ct, germs_at)
    return Analysis(
        portrait=p,
        validation=validation,
        ct=ct,
        classes=classes,
        axiom_violations=check_tree_axioms(t),
        degree_angle_violations=_degree_angle(t, germs_at),
        normalization_violations=check_julia_normalization(t, classes),
        expanding=expanding,
        expanding_witness=witness,
        fixed_points=count_fixed_points(t),
        recovered=recovered,
        round_trip_ok=(recovered == p),
    )


def _arc_text(arc) -> str:
    return f"({format_angle(arc.start)},{format_angle(arc.end)})"


def render_report(an: Analysis) -> str:
    """Human-readable report; line-oriented with stable ordering."""
    p = an.portrait
    t = an.ct.tree
    lines = [f"degree: {p.degree}", f"sets: {p.k}"]
    for j, rs in enumerate(an.sets, start=1):
        angles = " ".join(format_angle(a) for a in rs.angles)
        lines.append(f"  T{j}: {angles} | rotation {rs.shift}/{rs.cardinality}")
    lines.append("validation: ok")

    lines.append(f"regions: {len(an.regions)}")
    for r in an.regions:
        arcs = " ".join(_arc_text(a) for a in r.arcs)
        boundary = " ".join(f"T{j}" for j in r.boundary_sets)
        lines.append(f"  R{r.index}: arcs {arcs} | boundary {boundary} | cc {r.cc}")
    caps = [r.cc for r in an.regions]
    lines.append(f"capacity sum: {sum(caps)} (degree - 1 = {p.degree - 1})")

    julia = sorted(v for v in t.vertices if an.classes[v].kind == "julia")
    fatou = sorted(v for v in t.vertices if an.classes[v].kind == "fatou")
    lines.append(f"vertices: {len(t.vertices)} ({len(julia)} julia, {len(fatou)} fatou)")
    for v in t.vertices:
        order = " ".join(t.circular_order[v])
        lines.append(
            f"  {v}: {an.classes[v].kind} delta {t.delta[v]} tau {t.tau[v]} "
            f"| order [{order}] | step 1/{t.degree_of(v)}")
    lines.append(f"edges: {len(t.edges)}")
    for a, b in t.edges:
        pos_a = t.circular_order[a].index(b)
        pos_b = t.circular_order[b].index(a)
        lines.append(f"  {a}-{b}: slot {pos_a} of {t.degree_of(a)} at {a}, "
                     f"slot {pos_b} of {t.degree_of(b)} at {b}")
    lines.append(f"total degree: {t.total_degree()}")
    fixed_julia = sum(1 for v in julia if t.tau[v] == v)
    fixed_fatou = sum(1 for v in fatou if t.tau[v] == v)
    lines.append(
        f"fixed points: {an.fixed_points} (julia {fixed_julia}, fatou {fixed_fatou})")

    def verdict(violations) -> str:
        return "ok" if not violations else "FAIL " + "; ".join(
            f"{v.code}: {v.detail}" for v in violations)

    lines.append(f"tree axioms: {verdict(an.axiom_violations)}")
    lines.append(f"degree-angle: {verdict(an.degree_angle_violations)}")
    lines.append(f"julia normalization: {verdict(an.normalization_violations)}")
    if an.expanding:
        lines.append("expanding: ok")
    else:
        lines.append(f"expanding: FAIL at edge {an.expanding_witness}")
    lines.append(f"round trip: {'ok' if an.round_trip_ok else 'FAIL'}")
    if not an.round_trip_ok:
        lines.append("recovered portrait:")
        lines.extend("  " + s for s in format_portrait(an.recovered).splitlines())
    return "\n".join(lines) + "\n"


def report_data(an: Analysis) -> dict:
    """The same content as the text report, as JSON-ready data."""
    p = an.portrait
    t = an.ct.tree
    return {
        "degree": p.degree,
        "sets": [{
            "name": f"T{j}",
            "angles": [format_angle(a) for a in rs.angles],
            "shift": rs.shift,
            "cardinality": rs.cardinality,
        } for j, rs in enumerate(an.sets, start=1)],
        "validation": {"ok": an.validation.ok,
                       "codes": list(an.validation.codes)},
        "regions": [{
            "name": f"R{r.index}",
            "arcs": [[format_angle(a.start), format_angle(a.end)] for a in r.arcs],
            "boundary_sets": [f"T{j}" for j in r.boundary_sets],
            "cc": r.cc,
        } for r in an.regions],
        "vertices": [{
            "name": v,
            "kind": an.classes[v].kind,
            "delta": t.delta[v],
            "tau": t.tau[v],
            "order": list(t.circular_order[v]),
        } for v in t.vertices],
        "edges": [list(e) for e in t.edges],
        "total_degree": t.total_degree(),
        "fixed_points": an.fixed_points,
        "checks": {
            "tree_axioms": not an.axiom_violations,
            "degree_angle": not an.degree_angle_violations,
            "julia_normalization": not an.normalization_violations,
            "expanding": an.expanding,
        },
        "round_trip_ok": an.round_trip_ok,
        "recovered": format_portrait(an.recovered).splitlines(),
    }
