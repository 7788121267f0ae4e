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

The image of an edge is the tree path between the images of its ends; its
germ, the path's first step, is read off one breadth-first forest per tree
(``image_germs``), which also gives ``check_tree_axioms`` its connectivity.

No check is quadratic in a vertex's degree: the degree-angle and
normalization checks decide each vertex in one pass over its edges, and
run their pairwise loops only where that pass fails, to name violations.
Each reads a vertex once, through ``_vertex`` (denominator, gap total,
edge slots, prefix sums), and so does ``angle_between``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations, permutations
from typing import Callable, NamedTuple, Optional

from .errors import InvariantViolationError


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
        return len(self.circular_order[v])

    def angle_between(self, v: str, a: str, b: str) -> Fraction:
        """Angle at v from the edge toward a to the edge toward b, mod 1."""
        vertex = _vertex(self, v)
        return Fraction(_angle(vertex, a, b), vertex[0])

    def total_degree(self) -> int:
        """1 + sum of (delta(v) - 1) over all vertices."""
        return 1 + sum(self.delta[v] - 1 for v in self.vertices)


class TreeViolation(NamedTuple):
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


def _vertex(t: AngledTree, v: str) -> tuple[int, int, dict[str, int], list[int]]:
    """(L, total, slot, prefix): v's gap denominator and total, each neighbor's
    slot in v's order, and prefix[i], the gaps before edge i.  A denominator
    <= 0 or a gap count other than v's degree raises InvariantViolationError."""
    L, gaps = t.gap_angles[v]
    order = t.circular_order[v]
    if L <= 0:
        raise InvariantViolationError(f"gap denominator at {v} is {L} <= 0")
    if len(gaps) != len(order):
        raise InvariantViolationError(f"gap count at {v} differs from degree")
    prefix = list(accumulate(gaps, initial=0))
    return L, prefix.pop(), {u: i for i, u in enumerate(order)}, prefix


def _angle(vertex: tuple, a: str, b: str) -> int:
    """The angle mod L from edge a to edge b at a ``_vertex``: the gaps from
    slot i to slot j sum to prefix[j] - prefix[i], plus the total on a wrap."""
    L, total, slot, prefix = vertex
    i, j = slot[a], slot[b]
    return (prefix[j] - prefix[i] + (total if j < i else 0)) % L


def _forest(t: AngledTree) -> dict[str, tuple[str, int, str]]:
    """(parent, depth, root) of each vertex in one breadth-first forest over
    the edges listed at both ends, rooted in ``t.vertices`` order; a root is
    its own parent."""
    order = t.circular_order
    forest: dict[str, tuple[str, int, str]] = {}
    for r in t.vertices:
        if r not in forest:
            forest[r] = (r, 0, r)
            queue = [r]
            for y in queue:
                depth = forest[y][1] + 1
                for z in order.get(y, ()):
                    if z not in forest and y in order.get(z, ()):
                        forest[z] = (y, depth, r)
                        queue.append(z)
    return forest


def check_tree_axioms(t: AngledTree) -> tuple[TreeViolation, ...]:
    """Verify every structural axiom, reporting each failure with a witness.

    Checks: map domains agree with the vertex set, edges match the circular
    orders, the graph is a connected tree, gap denominators are positive,
    every gap angle is positive with integral total and no proper partial sum
    integral (so the pairwise angle vanishes only on equal edges), tau never
    collapses an edge, the local degrees are >= 1 with total degree >= 2, and
    a critical vertex exists.

    Every clause is one linear pass.  The orders' entries are looked up in
    the set of edges, both ways round, and each edge in the set of neighbors
    listed at its ends, so a hub costs no more than its degree.  Each
    vertex's angles are one prefix walk.
    """
    out: list[TreeViolation] = []
    vset = set(t.vertices)
    if len(vset) != len(t.vertices):
        out.append(TreeViolation("structure", "duplicate vertex labels"))
    for name, mapping in (("circular_order", t.circular_order),
                          ("gap_angles", t.gap_angles),
                          ("tau", t.tau), ("delta", t.delta)):
        if set(mapping) != vset:
            out.append(TreeViolation("structure", f"{name} keys differ from vertices"))
            return tuple(out)

    incident = {(a, b) for a, b in t.edges} | {(b, a) for a, b in t.edges}
    listed: dict[str, set[str]] = {}
    for v in t.vertices:
        order = t.circular_order[v]
        listed[v] = set(order)
        if len(listed[v]) != len(order):
            out.append(TreeViolation("structure", f"repeated neighbor at {v}"))
        for u in order:
            if (v, u) not in incident:
                out.append(TreeViolation("structure", f"order at {v} lists non-edge {u}"))
        L, gaps = t.gap_angles[v]
        if L <= 0:
            out.append(TreeViolation("structure", f"gap denominator at {v} is {L} <= 0"))
        if len(gaps) != len(order):
            out.append(TreeViolation("structure", f"gap count at {v} differs from degree"))
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
    if len({r for _, _, r in _forest(t).values()}) != 1:
        out.append(TreeViolation("not-connected", "the graph is disconnected"))

    for v in t.vertices:
        L, nums = t.gap_angles[v]
        for i, x in enumerate(nums):
            if x <= 0:
                out.append(TreeViolation("angle-gap",
                                         f"gap {i} at {v} is {Fraction(x, L)} <= 0"))
        total = sum(nums)
        if total % L or total < L:
            out.append(TreeViolation(
                "angle-total",
                f"gaps at {v} sum to {Fraction(total, L)}, not a positive whole turn"))
            continue
        # the angle between edges i and j is (prefix[j] - prefix[i]) mod 1,
        # so it vanishes on a distinct pair iff two prefixes agree mod 1
        prefix = 0
        residues = {prefix: 0}
        for i, x in enumerate(nums[:-1]):
            prefix = (prefix + x) % L
            if prefix in residues:
                out.append(TreeViolation(
                    "angle-zero",
                    f"distinct edges {residues[prefix]} and {i + 1} at {v} "
                    f"subtend angle 0"))
            else:
                residues[prefix] = i + 1

    for a, b in t.edges:
        if t.tau[a] == t.tau[b]:
            out.append(TreeViolation(
                "tau-collapse", f"edge {a}-{b} has tau({a}) = tau({b}) = {t.tau[a]}"))
    for v in t.vertices:
        if t.tau[v] not in vset:
            out.append(TreeViolation("tau-range", f"tau({v}) = {t.tau[v]} not a vertex"))
        if t.delta[v] < 1:
            out.append(TreeViolation("delta-range", f"delta({v}) = {t.delta[v]} < 1"))

    total_degree = t.total_degree()
    if total_degree < 2:
        out.append(TreeViolation("degree-too-small", f"total degree {total_degree} < 2"))
    if not any(t.delta[v] > 1 for v in t.vertices):
        out.append(TreeViolation("no-critical-vertex", "every vertex has delta 1"))
    return tuple(out)


def image_germs(t: AngledTree) -> Callable[[str], tuple[str, ...]]:
    """germs_at(v): the germ of each edge at v, in v's circular order: the
    neighbor of tau(v) that the image of the edge leaves along.

    One breadth-first forest serves every vertex.  The germ of edge v-u is
    the first step from x = tau(v) toward y = tau(u): the ancestor of y one
    level below x if its parent is x, else x's parent.  A collapsed or
    disconnected edge, a tau outside the vertex set, or a neighbor of v
    without a tau, raises ``InvariantViolationError`` when reached.
    """
    forest = _forest(t)
    order, tau = t.circular_order, t.tau

    def germs_at(v: str) -> tuple[str, ...]:
        x = tau[v]
        if x not in forest:
            raise InvariantViolationError(f"tau({v}) = {x} not a vertex")
        up, depth, root = forest[x]
        germs = []
        for u in order[v]:
            try:
                y = tau[u]
            except KeyError:
                raise InvariantViolationError(f"tau({u}) is not defined") from None
            if y == x:
                raise InvariantViolationError(f"edge {v}-{u} collapses under tau")
            if y not in forest:
                raise InvariantViolationError(f"tau({u}) = {y} not a vertex")
            if forest[y][2] != root:
                raise InvariantViolationError(
                    f"no path from {x} to {y}; tree is disconnected")
            for _ in range(forest[y][1] - depth - 1):
                y = forest[y][0]
            germs.append(y if forest[y][0] == x else up)
        return tuple(germs)

    return germs_at


def check_degree_angle(t: AngledTree) -> tuple[TreeViolation, ...]:
    """Verify that tau multiplies angles at v by delta(v).

    The angle between two image edges is measured at tau(v) between their
    germs (``image_germs``); distinct edges may share their germ, in which
    case that angle is zero.  With L and M the denominators at v and at
    tau(v), the image angle lhs/M must equal (delta * ang mod L)/L.

    One pass over v's edges decides every ordered pair at once.  When the
    gap totals at v and at tau(v) are whole turns, the angles are
    differences of prefix sums P at v and Q at tau(v), and both sides of
    the test lie in [0, L*M), so edges i and j pass iff
    Q[germ_i]*L - delta*P_i*M and Q[germ_j]*L - delta*P_j*M agree mod L*M.
    Every pair passes iff that residue takes one value over v's edges.  The
    pairwise loop names the violations in order where that pass fails.
    Both read one ``_vertex`` entry per vertex, v's then tau(v)'s, once v's
    germs are read: its errors raise there, as does a tau off the tree.
    """
    out: list[TreeViolation] = []
    order, tau, delta = t.circular_order, t.tau, t.delta
    germs_at = image_germs(t)
    inner = [v for v in t.vertices if len(order[v]) >= 2]
    sums: dict[str, tuple[int, int, dict[str, int], list[int]]] = {}
    for v in inner:
        nbrs = order[v]
        germs = germs_at(v)
        for x in (v, tau[v]):
            if x not in sums:
                sums[x] = _vertex(t, x)
        at_v, at_image = sums[v], sums[tau[v]]
        (L, total, _, P), (M, image_total, slot, Q) = at_v, at_image
        if not (total % L or image_total % M):
            LM, dM = L * M, delta[v] * M
            if len({(Q[slot[g]] * L - dM * p) % LM for p, g in zip(P, germs)}) == 1:
                continue
        for i, j in permutations(range(len(nbrs)), 2):
            lhs = _angle(at_image, germs[i], germs[j])
            ang = _angle(at_v, nbrs[i], nbrs[j])
            rhs = delta[v] * ang % L
            if lhs * L != rhs * M:
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
    whose image is not a vertex raises ``InvariantViolationError`` naming it.
    """
    classes: dict[str, VertexClass] = {}
    tau, delta = t.tau, t.delta
    cycles = 0
    for v in t.vertices:
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


def check_expanding(t: AngledTree,
                    classes: Optional[dict[str, VertexClass]] = None
                    ) -> tuple[bool, Optional[tuple[str, str]]]:
    """Expansion check: every edge between Julia vertices must eventually
    have its endpoints pushed to tree distance > 1, that is, to distinct
    vertices that are not neighbors.

    The pair orbit lives among at most |V|^2 vertex pairs, so not separating
    within |V|^2 steps is conclusive.  Returns (True, None) or (False, edge).
    """
    if classes is None:
        classes = classify_vertices(t)

    bound = len(t.vertices) ** 2
    order, tau = t.circular_order, t.tau
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


def check_julia_normalization(t: AngledTree,
                              classes: Optional[dict[str, VertexClass]] = None
                              ) -> tuple[TreeViolation, ...]:
    """At periodic Julia vertices with m edges, angles must be multiples of 1/m.

    Angles at non-periodic Julia vertices are unconstrained.

    One pass over the prefix sums decides each vertex: every pair passes
    when every prefix and the total are multiples of 1/m, as every gap then
    is (and, on a whole-turn total, only then).  The pairwise loop names
    the violations where that fails.  ``_vertex``'s errors at a periodic
    Julia vertex raise, as does, without ``classes``, a tau off the tree.
    """
    if classes is None:
        classes = classify_vertices(t)
    out: list[TreeViolation] = []
    for v in t.vertices:
        if classes[v].kind != "julia" or not classes[v].is_periodic:
            continue
        nbrs = t.circular_order[v]
        m = len(nbrs)
        vertex = L, total, _, prefix = _vertex(t, v)
        if not (total * m % L or any(x * m % L for x in prefix)):
            continue
        for i, j in combinations(range(m), 2):
            ang = _angle(vertex, nbrs[i], nbrs[j])
            if ang * m % L:
                out.append(TreeViolation(
                    "julia-angle",
                    f"angle {Fraction(ang, L)} at {v} between edges to "
                    f"{nbrs[i]} and {nbrs[j]} is not a multiple of 1/{m}"))
    return tuple(out)


def count_fixed_points(t: AngledTree) -> int:
    """Number of vertices fixed by the vertex dynamics."""
    return sum(1 for v in t.vertices if t.tau[v] == v)
