"""Full analysis of one portrait and the line-oriented report over it.

``analyze`` runs the whole pipeline - validation, regions, tree assembly,
dynamics, every tree check, and the recovery round trip - and keeps each
result, so the report and the CLI's exit status are pure functions of the
portrait.  The reports read the classified sets and the regions that the
construction carries; a round trip that holds on integers keeps the input
portrait as ``Analysis.recovered``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .angles import format_angle
from .builder import ConstructedTree, Region, construct_tree
from .fileio import format_portrait
from .portrait import Portrait, _matches
from .recovery import _portrait, _recover
from .rotation import RotationSet
from .tree import (TreeViolation, VertexClass, _axioms, _degree_angle, _expanding,
                   _normalization, _survey, classify_vertices, count_fixed_points)


class Analysis(NamedTuple):
    portrait: Portrait
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
        return self.ct.sets

    @property
    def regions(self) -> tuple[Region, ...]:
        return self.ct.regions

    @property
    def all_ok(self) -> bool:
        return (not self.axiom_violations and not self.degree_angle_violations
                and not self.normalization_violations
                and self.expanding and self.round_trip_ok)


def analyze(p: Portrait) -> Analysis:
    """Run construction, checks and recovery on a valid portrait.

    Raises InvalidPortraitError, carrying the violations, when the portrait
    fails validation.  The checks and recovery read one ``tree._survey``.
    """
    ct = construct_tree(p)
    t, s = ct.tree, _survey(ct.tree)
    classes = classify_vertices(t)
    expanding, witness = _expanding(t, classes)
    d, found = _recover(ct, s)
    same = _matches(p, d, found)
    return Analysis(
        portrait=p,
        ct=ct,
        classes=classes,
        axiom_violations=_axioms(t, s),
        degree_angle_violations=_degree_angle(t, s),
        normalization_violations=_normalization(t, s, classes),
        expanding=expanding,
        expanding_witness=witness,
        fixed_points=count_fixed_points(t),
        recovered=p if same else _portrait(d, found),
        round_trip_ok=same,
    )


def render_report(an: Analysis) -> str:
    """Human-readable report; line-oriented with stable ordering."""
    p = an.portrait
    t = an.ct.tree
    lines = [f"degree: {p.degree}", f"sets: {p.k}"]
    for j, rs in enumerate(an.sets, start=1):
        angles = " ".join([format_angle(a) for a in rs.angles])
        lines.append(f"  T{j}: {angles} | rotation {rs.shift}/{rs.cardinality}")
    lines.append("validation: ok")

    lines.append(f"regions: {len(an.regions)}")
    for r in an.regions:
        arcs = " ".join([f"({format_angle(a.start)},{format_angle(a.end)})"
                         for a in r.arcs])
        boundary = " ".join([f"T{j}" for j in r.boundary_sets])
        lines.append(f"  R{r.index}: arcs {arcs} | boundary {boundary} | cc {r.cc}")
    caps = [r.cc for r in an.regions]
    lines.append(f"capacity sum: {sum(caps)} (degree - 1 = {p.degree - 1})")

    order, delta, tau = t.circular_order, t.delta, t.tau
    kinds = {v: an.classes[v].kind for v in t.vertices}
    julia = [v for v, kind in kinds.items() if kind == "julia"]
    fatou = [v for v, kind in kinds.items() if kind == "fatou"]
    lines.append(f"vertices: {len(t.vertices)} ({len(julia)} julia, {len(fatou)} fatou)")
    lines += [f"  {v}: {kinds[v]} delta {delta[v]} tau {tau[v]} "
              f"| order [{' '.join(order[v])}] | step 1/{len(order[v])}"
              for v in t.vertices]
    lines.append(f"edges: {len(t.edges)}")
    # one position map per vertex: an index into a hub's order per edge
    # would cost O(degree) each
    slot = {v: dict(zip(nbrs, range(len(nbrs)))) for v, nbrs in order.items()}
    lines += [f"  {a}-{b}: slot {slot[a][b]} of {len(order[a])} at {a}, "
              f"slot {slot[b][a]} of {len(order[b])} at {b}" for a, b in t.edges]
    lines.append(f"total degree: {t.total_degree()}")
    fixed_julia = len([v for v in julia if tau[v] == v])
    fixed_fatou = len([v for v in fatou if tau[v] == v])
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
    """The same content as the text report, as JSON-ready data.

    ``checks`` holds each check's verdict.  A failed check also carries what
    the text report prints for it: ``<check>_violations``, each violation's
    code and detail, or ``expanding_witness``, the edge as a list.  Those
    keys are present only on failure, so a passing report has none.
    """
    p = an.portrait
    t = an.ct.tree
    texts = [[format_angle(a) for a in rs.angles] for rs in an.sets]
    checks: dict = {}
    for name, violations in (("tree_axioms", an.axiom_violations),
                             ("degree_angle", an.degree_angle_violations),
                             ("julia_normalization", an.normalization_violations)):
        checks[name] = not violations
        if violations:
            checks[name + "_violations"] = [v._asdict() for v in violations]
    checks["expanding"] = an.expanding
    if not an.expanding:
        checks["expanding_witness"] = list(an.expanding_witness)
    return {
        "degree": p.degree,
        "sets": [{
            "name": f"T{j}",
            "angles": angles,
            "shift": rs.shift,
            "cardinality": rs.cardinality,
        } for j, (rs, angles) in enumerate(zip(an.sets, texts), start=1)],
        "validation": {"ok": True, "codes": []},
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
        "checks": checks,
        "round_trip_ok": an.round_trip_ok,
        # the sets are p's, in p's order: format_portrait(p) without a second pass
        "recovered": ([f"degree {p.degree}", *("set " + " ".join(a) for a in texts)]
                      if an.recovered is p else format_portrait(an.recovered).splitlines()),
    }


def _json(an: Analysis) -> str:
    """``json.dumps(report_data(an), indent=2) + "\\n"``, byte for byte; ``json``
    (whose indenting encoder is pure Python) is imported only to escape a string."""
    out: list[str] = []
    _emit(report_data(an), "\n", out)
    return "".join(out) + "\n"


def _plain(s: str) -> bool:
    """True iff ``json`` writes ``s`` unescaped: printable ASCII, no ``"`` or ``\\``."""
    return s.isascii() and s.isprintable() and '"' not in s and "\\" not in s


def _string(s: str) -> str:
    if _plain(s):
        return f'"{s}"'
    from json.encoder import encode_basestring_ascii    # json.dumps's escapes
    return encode_basestring_ascii(s)


def _emit(value, newline: str, out: list[str]) -> None:
    """Append ``value`` (dicts with str keys, lists, str, int, bool, None) as
    ``json.dumps(indent=2)`` writes it; ``newline`` opens its nested lines."""
    if isinstance(value, str):
        out.append(_string(value))
    elif not isinstance(value, (dict, list)):   # int.__repr__ refuses a non-int
        out.append("null" if value is None else "true" if value is True
                   else "false" if value is False else int.__repr__(value))
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner, sep = newline + "  ", "{"
        for key, item in value.items():
            out.append(f"{sep}{inner}{_string(key)}: ")
            _emit(item, inner, out)
            sep = ","
        out.append(newline + "}")
    else:
        inner, sep = newline + "  ", "["
        try:
            flat = _plain("".join(value))   # a list of plain strings: one join
        except TypeError:                   # some item is not a string
            flat = False
        if flat:
            out.append(f'[{inner}"' + f'",{inner}"'.join(value) + f'"{newline}]')
            return
        for item in value:
            out.append(sep + inner)
            _emit(item, inner, out)
            sep = ","
        out.append(newline + "]")
