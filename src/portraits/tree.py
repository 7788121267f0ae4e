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

Every angle is read through ``_vertex``, which refuses a vertex with no
angle function; on the rest, the angle from slot i to slot j is
(prefix[j] - prefix[i]) mod L.  No check is quadratic in a vertex's
degree: the degree-angle and normalization checks compute one residue per
edge, a vertex passes iff its residues agree, and the pairs whose
residues differ are the violations.
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
        L, slot, prefix = _vertex(self, v)
        return Fraction((prefix[slot[b]] - prefix[slot[a]]) % L, L)

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


def _vertex(t: AngledTree, v: str) -> tuple[int, dict[str, int], list[int]]:
    """(L, slot, prefix): v's gap denominator, each neighbor's slot in v's
    order, and prefix[i], the gaps before edge i.  A vertex with no angle
    function raises InvariantViolationError with ``check_tree_axioms``'s
    detail: a denominator <= 0, a gap count other than v's degree, a
    repeated neighbor, or gaps not summing to a positive whole turn."""
    L, gaps = t.gap_angles[v]
    order = t.circular_order[v]
    if L <= 0:
        raise InvariantViolationError(f"gap denominator at {v} is {L} <= 0")
    if len(gaps) != len(order):
        raise InvariantViolationError(f"gap count at {v} differs from degree")
    slot = {u: i for i, u in enumerate(order)}
    if len(slot) != len(order):
        raise InvariantViolationError(f"repeated neighbor at {v}")
    prefix = list(accumulate(gaps, initial=0))
    total = prefix.pop()
    if total % L or total < L:
        raise InvariantViolationError(
            f"gaps at {v} sum to {Fraction(total, L)}, not a positive whole turn")
    return L, slot, prefix


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

    The angles are differences of prefix sums P at v and Q at tau(v), and
    both sides lie in [0, L*M), so edges i and j pass iff their residues
    Q[germ]*L - delta*P*M agree mod L*M: v passes iff its edges' residues
    take one value, and the ordered pairs whose residues differ are the
    violations.  ``_vertex`` reads v, then tau(v), once v's germs are read:
    its refusals raise there, as does a tau off the tree.
    """
    out: list[TreeViolation] = []
    order, tau, delta = t.circular_order, t.tau, t.delta
    germs_at = image_germs(t)
    inner = [v for v in t.vertices if len(order[v]) >= 2]
    sums: dict[str, tuple[int, dict[str, int], list[int]]] = {}
    for v in inner:
        germs = germs_at(v)
        for x in (v, tau[v]):
            if x not in sums:
                sums[x] = _vertex(t, x)
        (L, _, P), (M, slot, Q) = sums[v], sums[tau[v]]
        LM, dM = L * M, delta[v] * M
        residues = [(Q[slot[g]] * L - dM * p) % LM for p, g in zip(P, germs)]
        if len(set(residues)) == 1:
            continue
        nbrs = order[v]
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
    vertices that are not neighbors.  Returns (True, None) or (False, edge).
    """
    if classes is None:
        classes = classify_vertices(t)

    # until it separates, a pair orbit stays among the pairs (x, x) and
    # (x, y) with y listed at x; past that many steps it has repeated a
    # pair, so it cycles without ever separating
    order, tau = t.circular_order, t.tau
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


def check_julia_normalization(t: AngledTree,
                              classes: Optional[dict[str, VertexClass]] = None
                              ) -> tuple[TreeViolation, ...]:
    """At periodic Julia vertices with m edges, angles must be multiples of 1/m.

    Angles at non-periodic Julia vertices are unconstrained.

    The angle from edge i to edge j is a multiple of 1/m iff the residues
    prefix[i]*m and prefix[j]*m agree mod L.  One residue per edge decides
    each vertex: it passes iff they take one value, and otherwise the pairs
    whose residues differ are the violations.  ``_vertex``'s refusals at a
    periodic Julia vertex raise, as does, without ``classes``, a tau off
    the tree.
    """
    if classes is None:
        classes = classify_vertices(t)
    out: list[TreeViolation] = []
    for v in t.vertices:
        if classes[v].kind != "julia" or not classes[v].is_periodic:
            continue
        nbrs = t.circular_order[v]
        m = len(nbrs)
        L, _, prefix = _vertex(t, v)
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
    return sum(1 for v in t.vertices if t.tau[v] == v)
