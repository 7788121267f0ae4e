"""Angled trees with vertex dynamics and local degrees, plus all axiom checks.

The angle function is stored as a circular edge order per vertex together
with the consecutive gap angles; the pairwise angle between two incident
edges is the sum of the gaps walked counterclockwise from one to the other.
Additivity then holds by construction, and skew-symmetry reduces to the gap
total being a whole number of turns.

The tree is integer-valued: each vertex carries its gaps as numerators
over its own denominator L (one L per tree, the lcm of the vertex degrees,
can grow exponentially), so angles are residues mod L, and angles over
different denominators L and M are compared by cross-multiplying.  A
``Fraction`` is built only by ``angle_between`` and for violation details.

One sweep, ``_survey``, reads the maps once: one breadth-first forest, and
each vertex's angle function and germs (the first steps of its edges'
images), or the violation refusing them.  ``check_tree_axioms`` reports
the refusals; the other readers raise ``InvariantViolationError`` with one
when they reach it, or name a missing map entry (``tau(v) is not
defined``).  Every public check takes the tree alone; ``report.analyze``
hands one survey and one ``classify_vertices`` to their private forms.  No
check is quadratic in a vertex's degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations, filterfalse, permutations
from typing import Callable, NamedTuple, Optional

from .errors import InvariantViolationError

_UNDEFINED = "{}({}) is not defined"


class AngledTree(NamedTuple):
    """A finite tree with circular edge orders, gap angles, dynamics and degrees.

    ``circular_order[v]`` lists v's neighbors counterclockwise (the tree is
    simple, so a neighbor identifies an edge).  ``gap_angles[v]`` is a pair
    (L, gaps) of integers: gaps[i] / L is the angle from edge i to edge i+1
    (cyclically); a one-edge vertex carries one full-turn gap, (L, (L,)).
    ``tau`` is the vertex dynamics and ``delta`` the local degree function.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    circular_order: dict[str, tuple[str, ...]]
    gap_angles: dict[str, tuple[int, tuple[int, ...]]]
    tau: dict[str, str]
    delta: dict[str, int]

    def degree_of(self, v: str) -> int:
        if v not in self.circular_order:
            raise InvariantViolationError(_UNDEFINED.format("circular_order", v))
        return len(self.circular_order[v])

    def angle_between(self, v: str, a: str, b: str) -> Fraction:
        """Angle at v from the edge toward a to the edge toward b, mod 1."""
        L, slot, prefix = _ok(_angle_function(self, v))
        for u in filterfalse(slot.__contains__, (a, b)):
            raise InvariantViolationError(f"{u} is not a neighbor of {v}")
        return Fraction((prefix[slot[b]] - prefix[slot[a]]) % L, L)

    def total_degree(self) -> int:
        """1 + sum of (delta(v) - 1) over all vertices."""
        try:
            return sum(map(self.delta.__getitem__, self.vertices), 1 - len(self.vertices))
        except KeyError as e:
            raise InvariantViolationError(_UNDEFINED.format("delta", e.args[0])) from None


class TreeViolation(NamedTuple):
    """One failed tree condition: ``code`` names the condition (for example
    ``structure``, ``not-connected`` or ``julia-angle``) and ``detail`` says
    where it fails, naming the vertices, edges or angles at fault."""

    code: str
    detail: str


class VertexClass(NamedTuple):
    """Orbit bookkeeping for one vertex under the vertex dynamics."""

    kind: str        # "fatou" | "julia"
    cycle_id: int
    preperiod: int
    period: int

    @property
    def is_periodic(self) -> bool:
        return self.preperiod == 0


class _Survey(NamedTuple):
    forest: dict[str, tuple[str, int, str]]
    angles: dict[str, tuple]     # per vertex, _angle_function's value or refusal
    germs: dict[str, tuple]      # per vertex, _germs' value or refusal


def _complete(t: AngledTree, name: str) -> dict:
    """The map ``name`` of t; raises naming the first vertex it lacks."""
    entries = getattr(t, name)
    for v in filterfalse(entries.__contains__, t.vertices):
        raise InvariantViolationError(_UNDEFINED.format(name, v))
    return entries


def _ok(entry: tuple) -> tuple:
    """A survey entry, or InvariantViolationError with its refusal's detail."""
    if type(entry) is TreeViolation:
        raise InvariantViolationError(entry.detail)
    return entry


def _angle_function(t: AngledTree, v: str) -> tuple:
    """(L, slot, prefix): v's gap denominator, each neighbor's slot in v's
    order, and the gaps before each edge, so the angle from slot i to slot j
    is (prefix[j] - prefix[i]) mod L.  Or the violation refusing v: a missing
    order or gaps, a denominator <= 0, a gap count other than v's degree, a
    repeated neighbor, or gaps that are not a positive whole turn."""
    order, entry = t.circular_order.get(v), t.gap_angles.get(v)
    if order is None or entry is None:
        name = "circular_order" if order is None else "gap_angles"
        return TreeViolation("structure", _UNDEFINED.format(name, v))
    L, gaps = entry
    if len(order) == 1 == len(gaps) and 0 < L <= gaps[0] and not gaps[0] % L:
        return L, {order[0]: 0}, [0]        # one edge, and one whole-turn gap
    slot = dict(zip(order, range(len(order))))
    fault = (f"gap denominator at {v} is {L} <= 0" if L <= 0
             else f"gap count at {v} differs from degree" if len(gaps) != len(order)
             else f"repeated neighbor at {v}" if len(slot) != len(order) else None)
    if fault:
        return TreeViolation("structure", fault)
    prefix = [0, *accumulate(gaps)]
    total = prefix.pop()
    if total % L or total < L:
        return TreeViolation("angle-total", f"gaps at {v} sum to {Fraction(total, L)}, "
                                            f"not a positive whole turn")
    return L, slot, prefix


def _germs(t: AngledTree, angles: dict, forest: dict, v: str) -> tuple:
    """The germs at v, or the violation refusing them.  The germ of edge v-u
    is the first step from x = tau(v) toward y = tau(u) in the forest: the
    ancestor of y one level below x if its parent is x, else x's parent."""
    tau, order = t.tau, t.circular_order
    if v not in tau or v not in order:
        name = "tau" if v not in tau else "circular_order"
        return TreeViolation("germs", _UNDEFINED.format(name, v))
    x = tau[v]
    if x not in angles:
        return TreeViolation("germs", f"tau({v}) = {x} not a vertex")
    up, depth, root = forest[x]
    germs = []
    for u in order[v]:
        y = tau.get(u)
        fault = (_UNDEFINED.format("tau", u) if y is None
                 else f"edge {v}-{u} collapses under tau" if y == x
                 else f"tau({u}) = {y} not a vertex" if y not in angles
                 else f"no path from {x} to {y}; tree is disconnected"
                 if forest[y][2] != root else None)
        if fault:
            return TreeViolation("germs", fault)
        for _ in range(forest[y][1] - depth - 1):
            y = forest[y][0]
        germs.append(y if forest[y][0] == x else up)
    return tuple(germs)


def _survey(t: AngledTree) -> _Survey:
    """Each vertex's angle function, its (parent, depth, root) in one forest
    over the edges listed at both ends, rooted in t.vertices order, and germs."""
    angles = {v: _angle_function(t, v) for v in t.vertices}
    order, forest = t.circular_order, {}
    for r in t.vertices:
        if r not in forest:
            forest[r], queue = (r, 0, r), [r]
            for y in queue:
                depth = forest[y][1] + 1
                for z in order.get(y, ()):
                    if z not in forest and y in order.get(z, ()):
                        forest[z] = (y, depth, r)
                        queue.append(z)
    germs = {v: _germs(t, angles, forest, v) for v in t.vertices}
    return _Survey(forest, angles, germs)


def check_tree_axioms(t: AngledTree) -> tuple[TreeViolation, ...]:
    """Verify every structural axiom, reporting each failure with a witness.

    Checks: distinct vertex labels and map domains that agree with them
    (reported alone when they fail), edges match the circular orders, the
    graph is a connected tree, every vertex has an angle function, every
    gap angle is positive and no proper partial sum integral (no angle
    vanishes), tau never collapses an edge, the local degrees are >= 1 with
    total degree >= 2, and a critical vertex exists.
    """
    return _axioms(t, _survey(t))


def _axioms(t: AngledTree, s: _Survey) -> tuple[TreeViolation, ...]:
    out = [TreeViolation("structure", "duplicate vertex labels")] * (
        len(s.angles) != len(t.vertices))
    out += [TreeViolation("structure", f"{name} keys differ from vertices")
            for name in ("circular_order", "gap_angles", "tau", "delta")
            if getattr(t, name).keys() != s.angles.keys()][:1]
    if out:
        return tuple(out)
    incident = {(a, b) for a, b in t.edges} | {(b, a) for a, b in t.edges}
    listed = {}
    for v in t.vertices:
        entry, order = s.angles[v], t.circular_order[v]
        for u in order:
            if (v, u) not in incident:
                out.append(TreeViolation("structure", f"order at {v} lists non-edge {u}"))
        if type(entry) is TreeViolation and entry.code == "structure":
            out.append(entry)
        listed[v] = entry[1] if type(entry) is tuple else set(order)
    for a, b in t.edges:
        if a == b:
            out.append(TreeViolation("structure", f"loop edge at {a}"))
        elif b not in listed.get(a, ()) or a not in listed.get(b, ()):
            out.append(TreeViolation("structure", f"edge {a}-{b} missing from an order"))
    if out:
        return tuple(out)

    if len(t.edges) != len(t.vertices) - 1:
        out.append(TreeViolation(
            "not-a-tree", f"{len(t.vertices)} vertices but {len(t.edges)} edges"))
    if len({r for _, _, r in s.forest.values()}) != 1:
        out.append(TreeViolation("not-connected", "the graph is disconnected"))
    for v in t.vertices:
        entry, (L, gaps) = s.angles[v], t.gap_angles[v]
        if min(gaps, default=1) <= 0:
            out += [TreeViolation("angle-gap", f"gap {i} at {v} is {Fraction(x, L)} <= 0")
                    for i, x in enumerate(gaps) if x <= 0]
        elif type(entry) is tuple and entry[2][-1] < L:
            continue    # positive gaps within one turn: no angle vanishes
        if type(entry) is TreeViolation:
            out.append(entry)
            continue
        # a distinct pair subtends angle 0 iff their prefixes agree mod L
        first: dict[int, int] = {}
        out += [TreeViolation("angle-zero",
                              f"distinct edges {first[r]} and {i} at {v} subtend angle 0")
                for i, r in enumerate(x % L for x in entry[2])
                if first.setdefault(r, i) != i]

    tau, delta = t.tau, t.delta
    out += [TreeViolation("tau-collapse",
                          f"edge {a}-{b} has tau({a}) = tau({b}) = {tau[a]}")
            for a, b in t.edges if tau[a] == tau[b]]
    for v in t.vertices:
        if tau[v] not in s.angles:
            out.append(TreeViolation("tau-range", f"tau({v}) = {tau[v]} not a vertex"))
        if delta[v] < 1:
            out.append(TreeViolation("delta-range", f"delta({v}) = {delta[v]} < 1"))
    if (total_degree := t.total_degree()) < 2:
        out.append(TreeViolation("degree-too-small", f"total degree {total_degree} < 2"))
    if not any(delta[v] > 1 for v in t.vertices):
        out.append(TreeViolation("no-critical-vertex", "every vertex has delta 1"))
    return tuple(out)


def image_germs(t: AngledTree) -> Callable[[str], tuple[str, ...]]:
    """germs_at(v): the germ of each edge at v, in v's circular order: the
    neighbor of tau(v) that the image of the edge leaves along, read off the
    survey (``_germs``); a refusal raises when reached."""
    s = _survey(t)
    return lambda v: _ok(s.germs[v] if v in s.germs else _germs(t, s.angles, s.forest, v))


def check_degree_angle(t: AngledTree) -> tuple[TreeViolation, ...]:
    """Verify that tau multiplies angles at v by delta(v).

    The angle between two image edges is measured at tau(v) between their
    germs (``image_germs``), zero for a shared germ.  With L and M the
    denominators at v and at tau(v), the image angle lhs/M must equal
    (delta * ang mod L)/L.  Both are differences of prefix sums, P at v and
    Q at tau(v), in [0, L*M), so edges i and j pass iff their residues
    Q[germ]*L - delta*P*M agree mod L*M.  Every vertex needs an order and a
    delta; at v with two or more edges, a refusal of its germs, then of the
    angle functions at v and tau(v), raises.
    """
    return _degree_angle(t, _survey(t))


def _degree_angle(t: AngledTree, s: _Survey) -> tuple[TreeViolation, ...]:
    out: list[TreeViolation] = []
    order, tau, delta = _complete(t, "circular_order"), t.tau, _complete(t, "delta")
    for v in t.vertices:
        if len(nbrs := order[v]) < 2:
            continue
        germs = _ok(s.germs[v])
        (L, _, P), (M, slot, Q) = _ok(s.angles[v]), _ok(s.angles[tau[v]])
        LM, dM = L * M, delta[v] * M
        residues = [(Q[slot[g]] * L - dM * p) % LM for p, g in zip(P, germs)]
        if len(set(residues)) == 1:
            continue
        for i, j in permutations(range(len(nbrs)), 2):
            if residues[i] != residues[j]:
                lhs = (Q[slot[germs[j]]] - Q[slot[germs[i]]]) % M
                ang = (P[j] - P[i]) % L
                rhs = delta[v] * ang % L
                out.append(TreeViolation(
                    "degree-angle",
                    f"at {v}: edges to {nbrs[i]},{nbrs[j]} subtend "
                    f"{Fraction(ang, L)}, images subtend {Fraction(lhs, M)} "
                    f"!= delta*angle = {Fraction(rhs, L)}"))
    return tuple(out)


def classify_vertices(t: AngledTree) -> dict[str, VertexClass]:
    """Follow every orbit to its cycle; Fatou iff the cycle holds a critical vertex.

    One walk per unclassified vertex, in ``t.vertices`` order, follows tau
    until it reaches a classified vertex or closes a cycle on its own path.
    A new cycle takes the next ``cycle_id``; the walk's tail is then filled
    backwards, each vertex one step further from its cycle than its image.
    Every vertex is stepped from once, so the cost is O(|V|).  A vertex
    without a tau or a delta is named, as is an image that is not a vertex.
    """
    classes: dict[str, VertexClass] = {}
    tau, delta = _complete(t, "tau"), _complete(t, "delta")
    cycles = 0
    for v in filterfalse(classes.__contains__, t.vertices):   # not yet walked
        position: dict[str, int] = {}
        x = v
        while x not in classes and x not in position:
            position[x] = len(position)
            y = tau[x]
            if y not in tau:
                raise InvariantViolationError(f"tau({x}) = {y} not a vertex")
            x = y
        walk = list(position)
        if x in position:
            cycle = walk[position[x]:]
            del walk[position[x]:]
            kind = "fatou" if any(delta[c] > 1 for c in cycle) else "julia"
            for c in cycle:
                classes[c] = VertexClass(kind, cycles, 0, len(cycle))
            cycles += 1
        for y in reversed(walk):
            kind, cid, preperiod, period = classes[tau[y]]
            classes[y] = VertexClass(kind, cid, preperiod + 1, period)
    return {v: classes[v] for v in t.vertices}


def check_expanding(t: AngledTree) -> tuple[bool, Optional[tuple[str, str]]]:
    """Expansion check: every edge between Julia vertices must eventually
    have its endpoints pushed to tree distance > 1, that is, to distinct
    vertices that are not neighbors.  Returns (True, None) or (False, edge).
    """
    return _expanding(t, classify_vertices(t))


def _expanding(t: AngledTree, classes: dict) -> tuple[bool, Optional[tuple[str, str]]]:
    # until it separates, a pair orbit stays among the pairs (x, x) and
    # (x, y) with y listed at x; past that many steps it has repeated a
    # pair, so it cycles without ever separating
    order, tau = _complete(t, "circular_order"), _complete(t, "tau")
    bound = len(t.vertices) + sum(map(len, order.values()))
    for a, b in t.edges:
        if classes[a].kind != "julia" or classes[b].kind != "julia":
            continue
        x, y = a, b
        for _ in range(bound):
            x, y = tau[x], tau[y]
            if x != y and y not in order[x]:
                break
        else:
            return False, (a, b)
    return True, None


def check_julia_normalization(t: AngledTree) -> tuple[TreeViolation, ...]:
    """At periodic Julia vertices with m edges, angles must be multiples of 1/m.

    Angles at non-periodic Julia vertices are unconstrained.  The angle from
    edge i to edge j is a multiple of 1/m iff the residues prefix[i]*m and
    prefix[j]*m agree mod L; the pairs whose residues differ are the
    violations.  A refusal of the angle function at such a vertex raises.
    """
    return _normalization(t, _survey(t), classify_vertices(t))


def _normalization(t: AngledTree, s: _Survey, classes: dict) -> tuple[TreeViolation, ...]:
    out: list[TreeViolation] = []
    for v in t.vertices:
        if classes[v].kind != "julia" or not classes[v].is_periodic:
            continue
        L, _, prefix = _ok(s.angles[v])
        m = len(nbrs := t.circular_order[v])
        residues = [x * m % L for x in prefix]
        if len(set(residues)) == 1:
            continue
        for i, j in combinations(range(m), 2):
            if residues[i] != residues[j]:
                out.append(TreeViolation(
                    "julia-angle",
                    f"angle {Fraction((prefix[j] - prefix[i]) % L, L)} at {v} "
                    f"between edges to {nbrs[i]} and {nbrs[j]} is not a "
                    f"multiple of 1/{m}"))
    return tuple(out)


def count_fixed_points(t: AngledTree) -> int:
    """Number of vertices fixed by the vertex dynamics."""
    tau = _complete(t, "tau")
    return sum(1 for v in t.vertices if tau[v] == v)
