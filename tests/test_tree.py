import inspect
import random
import re
import time
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from portraits import (AngledTree, InvariantViolationError, Portrait,
                       TreeViolation, VertexClass, boundary_walk,
                       check_degree_angle, check_expanding,
                       check_julia_normalization, check_tree_axioms,
                       classify_vertices, construct_tree, count_fixed_points,
                       enumerate_portraits, generate_rotation_set, image_germs,
                       recover_portrait, tree)

from conftest import census, path_germ, tree_path


def _scaled(gaps):
    """(L, numerators): the least common denominator of the ``Fraction``
    gaps and each gap as a numerator over it, in the given order."""
    L = lcm(*(g.denominator for g in gaps))
    return L, tuple(g.numerator * (L // g.denominator) for g in gaps)


def make_tree(vertices, edges, order, gaps, tau, delta):
    """An ``AngledTree`` from gaps given as ``Fraction``s."""
    return AngledTree(tuple(vertices), tuple(sorted(edges)),
                      {v: tuple(n) for v, n in order.items()},
                      {v: _scaled(g) for v, g in gaps.items()}, dict(tau),
                      dict(delta))


def fraction_gaps(t, v):
    """The gaps at v as ``Fraction``s."""
    L, gaps = t.gap_angles[v]
    return [F(x, L) for x in gaps]


def walked_angle(t, v, a, b):
    """Oracle: sum the gaps at v one by one from the edge toward a to b."""
    order = t.circular_order[v]
    gaps = fraction_gaps(t, v)
    i, j = order.index(a), order.index(b)
    total = F(0)
    k = i
    while k != j:
        total += gaps[k]
        k = (k + 1) % len(order)
    return total % 1


def fraction_angle_axioms(t):
    """Oracle: the angle-gap, angle-total and angle-zero checks of
    ``check_tree_axioms`` on Fractions, as they ran before integer residues."""
    out = []
    for v in t.vertices:
        gaps = fraction_gaps(t, v)
        for i, g in enumerate(gaps):
            if g <= 0:
                out.append(TreeViolation("angle-gap", f"gap {i} at {v} is {g} <= 0"))
        total = sum(gaps)
        if total.denominator != 1 or total < 1:
            out.append(TreeViolation(
                "angle-total", f"gaps at {v} sum to {total}, not a positive whole turn"))
            continue
        prefix = F(0)
        residues = {prefix: 0}
        for i, g in enumerate(gaps[:-1]):
            prefix = (prefix + g) % 1
            if prefix in residues:
                out.append(TreeViolation(
                    "angle-zero",
                    f"distinct edges {residues[prefix]} and {i + 1} at {v} "
                    f"subtend angle 0"))
            else:
                residues[prefix] = i + 1
    return tuple(out)


def whole_turn(t, v):
    """Oracle: the refusal of a vertex whose gaps do not sum to a positive
    whole turn, which has no angle function, in ``check_tree_axioms``'s words."""
    total = sum(fraction_gaps(t, v))
    if total.denominator != 1 or total < 1:
        raise InvariantViolationError(
            f"gaps at {v} sum to {total}, not a positive whole turn")


def fraction_degree_angle(t):
    """Oracle: ``check_degree_angle`` on Fractions, every angle walked gap by
    gap once v's germs are found and v and tau(v) have angle functions."""
    out = []
    for v in t.vertices:
        nbrs = t.circular_order[v]
        if len(nbrs) < 2:
            continue
        germs = [path_germ(t, v, u) for u in nbrs]
        whole_turn(t, v)
        whole_turn(t, t.tau[v])
        for i in range(len(nbrs)):
            for j in range(len(nbrs)):
                if i == j:
                    continue
                lhs = (F(0) if germs[i] == germs[j]
                       else walked_angle(t, t.tau[v], germs[i], germs[j]))
                ang = walked_angle(t, v, nbrs[i], nbrs[j])
                rhs = (t.delta[v] * ang) % 1
                if lhs != rhs:
                    out.append(TreeViolation(
                        "degree-angle",
                        f"at {v}: edges to {nbrs[i]},{nbrs[j]} subtend {ang}, "
                        f"images subtend {lhs} != delta*angle = {rhs}"))
    return tuple(out)


def fraction_julia_normalization(t, classes):
    """Oracle: ``check_julia_normalization`` on Fractions."""
    out = []
    for v in t.vertices:
        if classes[v].kind != "julia" or not classes[v].is_periodic:
            continue
        nbrs = t.circular_order[v]
        m = len(nbrs)
        whole_turn(t, v)
        for i in range(m):
            for j in range(i + 1, m):
                ang = walked_angle(t, v, nbrs[i], nbrs[j])
                if (ang * m).denominator != 1:
                    out.append(TreeViolation(
                        "julia-angle",
                        f"angle {ang} at {v} between edges to {nbrs[i]} and "
                        f"{nbrs[j]} is not a multiple of 1/{m}"))
    return tuple(out)


def walked_classes(t):
    """Oracle: ``classify_vertices`` as it ran before the one-pass walk.
    |V| steps of tau from every vertex land on its cycle, cycles numbered
    as found; a second walk from every vertex counts its steps to the cycle."""
    tau, delta = t.tau, t.delta
    cycles = []
    cycle_of = {}
    for v in t.vertices:
        x = v
        for _ in range(len(t.vertices)):
            x = tau[x]
        if x not in cycle_of:
            cycle = [x]
            while (y := tau[cycle[-1]]) != x:
                cycle.append(y)
            for c in cycle:
                cycle_of[c] = len(cycles)
            cycles.append(cycle)
    classes = {}
    for v in t.vertices:
        preperiod, x = 0, v
        while x not in cycle_of:
            preperiod, x = preperiod + 1, tau[x]
        cycle = cycles[cycle_of[x]]
        kind = "fatou" if any(delta[c] > 1 for c in cycle) else "julia"
        classes[v] = VertexClass(kind, cycle_of[x], preperiod, len(cycle))
    return classes


def functional_graph(vertices, tau, delta):
    """An ``AngledTree`` holding only what classification reads: the
    vertices, tau and delta (no edges, orders or gaps)."""
    return AngledTree(tuple(vertices), (), {}, {}, dict(tau), dict(delta))


def random_functional_graph(rng):
    """A random self-map of up to 60 vertices, listed in shuffled order.
    Half are uniform random maps; the other half lay down a few cycles
    (fixed points among them) and hang each remaining vertex off a random
    placed one or off the last one placed, which grows long tails."""
    n = rng.randint(1, 60)
    vertices = [f"x{i}" for i in range(n)]
    if rng.random() < 0.5:
        tau = {v: rng.choice(vertices) for v in vertices}
    else:
        tau = {}
        placed = 0
        while placed < n and (not placed or rng.random() < 0.5):
            length = min(n - placed, rng.choice([1, 1, 2, 3, rng.randint(1, n)]))
            cycle = vertices[placed:placed + length]
            tau.update(zip(cycle, cycle[1:] + cycle[:1]))
            placed += length
        for i in range(placed, n):
            tau[vertices[i]] = vertices[i - 1 if rng.random() < 0.85
                                        else rng.randrange(i)]
    delta = {v: rng.choice([1, 1, 1, 2]) for v in vertices}
    rng.shuffle(vertices)
    return functional_graph(vertices, tau, delta)


def random_tree(rng):
    """A small tree with random circular orders, non-uniform gap angles
    (summing to one turn, two turns, or a non-whole amount, some gaps zero),
    random local degrees and a random tau that collapses no edge."""
    n = rng.randint(2, 7)
    vertices = [f"x{i}" for i in range(n)]
    edges = [(vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]
    order = {v: [] for v in vertices}
    for a, b in edges:
        order[a].append(b)
        order[b].append(a)
    gaps = {}
    for v in vertices:
        rng.shuffle(order[v])
        raw = [F(rng.randint(0, 6), rng.randint(1, 12)) for _ in order[v]]
        if sum(raw) == 0:
            raw[0] = F(1, 5)
        target = rng.choice([F(1), F(1), F(2), sum(raw)])
        gaps[v] = [g * target / sum(raw) for g in raw]
    delta = {v: rng.choice([1, 1, 2, 3]) for v in vertices}
    tau = {v: v for v in vertices}
    for _ in range(50):
        guess = {v: rng.choice(vertices) for v in vertices}
        if all(guess[a] != guess[b] for a, b in edges):
            tau = guess
            break
    return make_tree(vertices, [tuple(sorted(e)) for e in edges], order, gaps,
                     tau, delta)


def outcome(check, *args):
    """What a check returns, or the message of the ``InvariantViolationError``
    that stops it."""
    try:
        return check(*args)
    except InvariantViolationError as e:
        return str(e)


def check_against_fraction_oracles(t):
    """Every integer angle check equals its Fraction oracle, details and
    refusals included.  Returns the findings, a refusal as its message."""
    found = tuple(v for v in check_tree_axioms(t) if v.code.startswith("angle-"))
    assert found == fraction_angle_axioms(t)
    degree_angle = outcome(check_degree_angle, t)
    assert degree_angle == outcome(fraction_degree_angle, t)
    normalization = outcome(check_julia_normalization, t)
    assert normalization == outcome(fraction_julia_normalization, t, walked_classes(t))
    for result in (degree_angle, normalization):
        found += (result,) if isinstance(result, str) else result
    return found


def long_period_trees():
    """The trees of the fixed singletons plus one single-orbit rotating set
    at each period 8..16 of degree 2 and 6..10 of degree 3, with a
    seeded rotation number: a hub of up to 16 edges, up to 240 ordered
    pairs for the degree-angle check."""
    rng = random.Random(20261019)
    trees = []
    for d, periods in ((2, range(8, 17)), (3, range(6, 11))):
        for n in periods:
            m = rng.choice([m for m in range(1, n) if gcd(m, n) == 1])
            deployments = [(n,)] if d == 2 else [(a, n - a) for a in range(n + 1)]
            rs = next(rs for dep in deployments
                      if (rs := generate_rotation_set(d, n, m, dep)) is not None)
            fixed = [[F(i, d - 1)] for i in range(d - 1)]
            trees.append(construct_tree(Portrait.create(d, fixed + [rs.angles])).tree)
    return trees


def edited(t, rng):
    """(kind, tree) with one field of t edited at one vertex v: a gap +-1,
    or one unit moved between two gaps (which keeps the total), v's
    denominator or gaps or both scaled, tau(v) redirected, or v's circular
    order shuffled."""
    v = rng.choice(t.vertices)
    L, gaps = t.gap_angles[v]
    kind = rng.choice(["gap", "scale", "tau", "order"])
    if kind == "gap":
        gaps = list(gaps)
        i = rng.randrange(len(gaps))
        if len(gaps) > 1 and rng.random() < 0.5:
            gaps[i] += 1
            gaps[(i + rng.randrange(1, len(gaps))) % len(gaps)] -= 1
        else:
            gaps[i] += rng.choice((-1, 1))
        return kind, t._replace(gap_angles={**t.gap_angles, v: (L, tuple(gaps))})
    if kind == "scale":
        c = rng.randint(2, 4)
        a, b = rng.choice(((c, c), (c, 1), (1, c)))
        scaled = (L * a, tuple(x * b for x in gaps))
        return kind, t._replace(gap_angles={**t.gap_angles, v: scaled})
    if kind == "tau":
        return kind, t._replace(tau={**t.tau, v: rng.choice(t.vertices)})
    order = list(t.circular_order[v])
    rng.shuffle(order)
    return kind, t._replace(circular_order={**t.circular_order, v: tuple(order)})


def germ_outcome(germs):
    """The germs at a vertex, or the message of the error that stops them."""
    try:
        return tuple(germs())
    except InvariantViolationError as e:
        return str(e)


def disconnected_tree(tau=None):
    """Two separate edges a-b and c-d; tau is the identity unless given."""
    return make_tree(["a", "b", "c", "d"], [("a", "b"), ("c", "d")],
                     {"a": ["b"], "b": ["a"], "c": ["d"], "d": ["c"]},
                     {v: [F(1)] for v in "abcd"},
                     tau or {v: v for v in "abcd"},
                     {"a": 2, "b": 1, "c": 1, "d": 1})


def two_vertex_tree(tau_collapses=False, critical=True):
    tau = {"a": "a", "b": "a"} if tau_collapses else {"a": "a", "b": "b"}
    delta = {"a": 2 if critical else 1, "b": 1}
    return make_tree(["a", "b"], [("a", "b")],
                     {"a": ["b"], "b": ["a"]},
                     {"a": [F(1)], "b": [F(1)]}, tau, delta)


class TestAxioms:
    def test_constructed_tree_passes(self, degree5_portrait):
        assert check_tree_axioms(construct_tree(degree5_portrait).tree) == ()

    def test_collapsed_edge_reported(self):
        t = two_vertex_tree(tau_collapses=True)
        codes = {v.code for v in check_tree_axioms(t)}
        assert "tau-collapse" in codes

    def test_all_delta_one_reported(self):
        t = two_vertex_tree(critical=False)
        codes = {v.code for v in check_tree_axioms(t)}
        assert "degree-too-small" in codes and "no-critical-vertex" in codes

    def test_disconnected_reported(self):
        codes = {v.code for v in check_tree_axioms(disconnected_tree())}
        assert "not-a-tree" in codes and "not-connected" in codes

    def test_empty_tree_reported(self):
        # no vertices: no root, so not connected
        assert check_tree_axioms(AngledTree((), (), {}, {}, {}, {})) == (
            TreeViolation("not-a-tree", "0 vertices but 0 edges"),
            TreeViolation("not-connected", "the graph is disconnected"),
            TreeViolation("degree-too-small", "total degree 1 < 2"),
            TreeViolation("no-critical-vertex", "every vertex has delta 1"))

    def test_zero_angle_between_distinct_edges_reported(self):
        # four edges spaced by a half turn twice: edges 0 and 2 subtend 0
        t = make_tree(
            ["c", "p", "q", "r", "s"],
            [("c", "p"), ("c", "q"), ("c", "r"), ("c", "s")],
            {"c": ["p", "q", "r", "s"], "p": ["c"], "q": ["c"],
             "r": ["c"], "s": ["c"]},
            {"c": [F(1, 2), F(1, 2), F(1, 2), F(1, 2)],
             "p": [F(1)], "q": [F(1)], "r": [F(1)], "s": [F(1)]},
            {v: v for v in "cpqrs"},
            {"c": 2, "p": 1, "q": 1, "r": 1, "s": 1})
        codes = {v.code for v in check_tree_axioms(t)}
        assert "angle-zero" in codes

    def test_nonpositive_denominator_reported(self):
        t = two_vertex_tree()
        for L in (0, -2):
            bad = t._replace(gap_angles={**t.gap_angles, "a": (L, (L,))})
            assert check_tree_axioms(bad) == (
                TreeViolation("structure", f"gap denominator at a is {L} <= 0"),)

    @pytest.mark.parametrize("edit, expected", [
        (dict(vertices=("a", "b", "a")), [("structure", "duplicate vertex labels")]),
        (dict(tau={"a": "a"}), [("structure", "tau keys differ from vertices")]),
        (dict(circular_order={"a": ("b", "b"), "b": ("a",)},
              gap_angles={"a": (2, (1, 1)), "b": (1, (1,))}),
         [("structure", "repeated neighbor at a")]),
        (dict(circular_order={"a": ("b", "a"), "b": ("a",)},
              gap_angles={"a": (2, (1, 1)), "b": (1, (1,))}),
         [("structure", "order at a lists non-edge a")]),
        (dict(edges=(("a", "a"), ("a", "b"))), [("structure", "loop edge at a")]),
        (dict(circular_order={"a": ("b",), "b": ()},
              gap_angles={"a": (1, (1,)), "b": (1, ())}),
         [("structure", "edge a-b missing from an order")]),
        # a delta of 0 also lowers the total degree
        (dict(delta={"a": 2, "b": 0}), [("delta-range", "delta(b) = 0 < 1"),
                                        ("degree-too-small", "total degree 1 < 2")]),
    ], ids=["duplicate", "keys", "repeated", "non-edge", "loop", "missing",
            "delta-range"])
    def test_each_clause_names_its_witness(self, edit, expected):
        found = check_tree_axioms(two_vertex_tree()._replace(**edit))
        assert found == tuple(TreeViolation(*v) for v in expected)

    def test_non_integral_total_reported(self):
        t = make_tree(["a", "b"], [("a", "b")],
                      {"a": ["b"], "b": ["a"]},
                      {"a": [F(1, 2)], "b": [F(1)]},
                      {"a": "a", "b": "b"}, {"a": 2, "b": 1})
        codes = {v.code for v in check_tree_axioms(t)}
        assert "angle-total" in codes


def germ(t, v, u):
    return image_germs(t)(v)[t.circular_order[v].index(u)]


class TestImagePaths:
    def test_degree5_stretched_edge(self, degree5_portrait):
        t = construct_tree(degree5_portrait).tree
        # w1 <-> w2 under tau, so the edge w1-v1 images onto a 3-edge path
        assert tree_path(t, t.tau["w1"], t.tau["v1"]) == ("w2", "v2", "w1", "v1")
        assert germ(t, "w1", "v1") == "v2"

    def test_fixed_edge_maps_to_itself(self, degree5_portrait):
        t = construct_tree(degree5_portrait).tree
        assert germ(t, "v1", "w3") == "w3"

    def test_basilica_edge(self, basilica):
        t = construct_tree(basilica).tree
        assert germ(t, "v2", "w1") == "w2"

    def test_germs_match_path_oracle_over_census(self):
        vertices = 0
        for d in (2, 3, 4):
            for p in enumerate_portraits(d, 3):
                t = construct_tree(p).tree
                germs_at = image_germs(t)
                for v in t.vertices:
                    assert germs_at(v) == tuple(
                        path_germ(t, v, u) for u in t.circular_order[v])
                    vertices += 1
        assert vertices > 1000


class TestImageGermErrors:
    """``image_germs`` fails where the path oracle fails, with its message."""

    def test_collapse_in_degree_angle_check(self):
        t = two_vertex_tree(tau_collapses=True)
        with pytest.raises(InvariantViolationError, match="^edge b-a collapses under tau$"):
            image_germs(t)("b")
        # check_degree_angle skips one-edge vertices: collapse at a two-edge one
        t = make_tree(["c", "p", "q"], [("c", "p"), ("c", "q")],
                      {"c": ["p", "q"], "p": ["c"], "q": ["c"]},
                      {"c": [F(1, 2), F(1, 2)], "p": [F(1)], "q": [F(1)]},
                      {"c": "c", "p": "c", "q": "q"}, {"c": 2, "p": 1, "q": 1})
        with pytest.raises(InvariantViolationError, match="^edge c-p collapses under tau$"):
            check_degree_angle(t)

    def test_tau_across_components(self):
        t = disconnected_tree({"a": "a", "b": "c", "c": "c", "d": "d"})
        with pytest.raises(InvariantViolationError,
                           match="^no path from a to c; tree is disconnected$"):
            image_germs(t)("a")

    def test_random_graphs_match_path_oracle(self):
        rng = random.Random(20261018)
        kinds = set()
        for n in range(200):
            t = random_tree(rng)
            t = t._replace(tau={v: rng.choice(t.vertices) for v in t.vertices})
            if n % 2:                           # cut an edge: a forest
                a, b = rng.choice(t.edges)
                order = dict(t.circular_order)
                order[a] = tuple(x for x in order[a] if x != b)
                order[b] = tuple(x for x in order[b] if x != a)
                t = t._replace(circular_order=order)
            germs_at = image_germs(t)
            for v in t.vertices:
                found = germ_outcome(lambda: germs_at(v))
                assert found == germ_outcome(
                    lambda: (path_germ(t, v, u) for u in t.circular_order[v]))
                kinds.add("germs" if isinstance(found, tuple) else found.split()[-1])
        assert kinds == {"germs", "tau", "disconnected"}

    def test_one_way_order_entries(self):
        # one neighbor inserted into, or removed from, one circular order:
        # the germs stay in the image vertex's order, or InvariantViolationError
        rng = random.Random(20261019)
        kinds = set()
        for n in range(300):
            t = random_tree(rng)
            if n % 2:
                t = t._replace(tau={v: rng.choice(t.vertices) for v in t.vertices})
            v = rng.choice(t.vertices)
            order = t.circular_order[v]
            others = [u for u in t.vertices if u != v and u not in order]
            if others and (n % 3 or len(order) == 1):
                i = rng.randrange(len(order) + 1)
                new = order[:i] + (rng.choice(others),) + order[i:]
            else:
                i = rng.randrange(len(order))
                new = order[:i] + order[i + 1:]
            t = t._replace(circular_order={**t.circular_order, v: new})
            germs_at = image_germs(t)
            for x in t.vertices:
                found = germ_outcome(lambda: germs_at(x))
                if isinstance(found, tuple):
                    assert len(found) == len(t.circular_order[x])
                    assert set(found) <= set(t.circular_order[t.tau[x]])
                kinds.add("germs" if isinstance(found, tuple) else found.split()[-1])
            try:
                check_degree_angle(t)
            except InvariantViolationError:
                pass
        assert kinds == {"germs", "tau", "disconnected"}


class TestAngleBetween:
    def test_prefix_sums_match_gap_walk_over_census(self):
        pairs = 0
        for d in (2, 3):
            for p in enumerate_portraits(d, 3):
                t = construct_tree(p).tree
                for v in t.vertices:
                    nbrs = t.circular_order[v]
                    for a in nbrs:
                        for b in nbrs:
                            assert t.angle_between(v, a, b) == walked_angle(t, v, a, b)
                            pairs += 1
        assert pairs > 1000

    def test_wrapping_walk_adds_the_whole_total(self):
        # gaps summing to two turns: a walk that wraps adds a whole turn,
        # which the prefix difference mod 1 drops
        gaps = {"c": [F(1, 5), F(1, 3), F(22, 15)], "p": [F(1)], "q": [F(1)],
                "r": [F(1)]}
        t = make_tree(["c", "p", "q", "r"], [("c", "p"), ("c", "q"), ("c", "r")],
                      {"c": ["p", "q", "r"], "p": ["c"], "q": ["c"], "r": ["c"]},
                      gaps, {v: v for v in "cpqr"}, {"c": 2, "p": 1, "q": 1, "r": 1})
        for a in "pqr":
            for b in "pqr":
                assert t.angle_between("c", a, b) == walked_angle(t, "c", a, b)
        # gaps summing to 77/60 of a turn define no angle function
        t = make_tree(t.vertices, t.edges, t.circular_order,
                      {**gaps, "c": [F(1, 5), F(1, 3), F(3, 4)]}, t.tau, t.delta)
        message = "gaps at c sum to 77/60, not a positive whole turn"
        assert TreeViolation("angle-total", message) in check_tree_axioms(t)
        with pytest.raises(InvariantViolationError, match=f"^{message}$"):
            t.angle_between("c", "r", "p")


class TestFractionOracles:
    def test_census_trees(self):
        for d in (2, 3, 4):
            for p in enumerate_portraits(d, 3):
                assert check_against_fraction_oracles(construct_tree(p).tree) == ()

    def test_random_trees(self):
        # each vertex's denominator is its own: scaling one vertex's gaps
        # and denominator by a common factor changes no finding.  A check
        # that reads a vertex whose gaps are not a whole turn refuses it,
        # naming it as its angle-total violation does
        rng = random.Random(20261018)
        codes, refusals = set(), 0
        for _ in range(400):
            t = random_tree(rng)
            found = check_against_fraction_oracles(t)
            scaled = {v: (L * c, tuple(x * c for x in gaps))
                      for v, (L, gaps) in t.gap_angles.items()
                      for c in [rng.randint(1, 4)]}
            assert check_against_fraction_oracles(t._replace(gap_angles=scaled)) == found
            refused = {v for v in found if isinstance(v, str)}
            assert refused <= {v.detail for v in found
                               if isinstance(v, TreeViolation) and v.code == "angle-total"}
            refusals += len(refused)
            codes.update(v.code for v in found if isinstance(v, TreeViolation))
        assert codes == {"angle-gap", "angle-total", "angle-zero", "degree-angle",
                         "julia-angle"}
        assert refusals > 200

    def test_mixed_denominators_at_one_vertex(self):
        # gaps over 5, 3 and 15 at c: L = 15 at c, M = 1 at the leaves
        t = make_tree(["c", "p", "q", "r"], [("c", "p"), ("c", "q"), ("c", "r")],
                      {"c": ["p", "q", "r"], "p": ["c"], "q": ["c"], "r": ["c"]},
                      {"c": [F(1, 5), F(1, 3), F(7, 15)], "p": [F(1)], "q": [F(1)],
                       "r": [F(1)]},
                      {"c": "c", "p": "q", "q": "r", "r": "p"},
                      {"c": 1, "p": 1, "q": 1, "r": 2})
        found = check_against_fraction_oracles(t)
        assert [v.detail for v in found if v.code == "julia-angle"] == [
            "angle 1/5 at c between edges to p and q is not a multiple of 1/3",
            "angle 8/15 at c between edges to p and r is not a multiple of 1/3"]
        assert found[1].detail == ("at c: edges to p,r subtend 8/15, images "
                                   "subtend 4/5 != delta*angle = 8/15")


class TestLinearPassesMatchPairwiseOracles:
    """The one-pass decisions of ``check_degree_angle`` and
    ``check_julia_normalization`` agree with the pairwise ``Fraction``
    oracles, details, order and raised messages included, on edited trees.
    Moving a unit between two gaps keeps a whole-turn total but moves the
    angles, and a shuffle or a tau redirect moves the germs: each can fail
    the one pass, so the pairwise loop names the pairs.  A gap +-1 or a
    denominator scaled alone leaves a total that is not a whole turn, and a
    check that reads that vertex refuses it."""

    def test_edited_census_and_long_period_trees(self):
        rng = random.Random(20261019)
        trees = [ct.tree for _, _, ct in census()]
        jobs = trees + [t for t in long_period_trees() for _ in range(12)]
        found = {}
        for t in jobs:
            kind, e = edited(t, rng)
            degree_angle = outcome(check_degree_angle, e)
            assert degree_angle == outcome(fraction_degree_angle, e)
            normalization = outcome(check_julia_normalization, e)
            assert normalization == outcome(
                lambda: fraction_julia_normalization(e, walked_classes(e)))
            for result in (degree_angle, normalization):
                shape = ("error" if isinstance(result, str)
                         else "fail" if result else "pass")
                found.setdefault(kind, set()).add(shape)
        assert len(jobs) == 944 + 12 * 14
        assert found == {"gap": {"pass", "fail", "error"},
                         "scale": {"pass", "error"},
                         "tau": {"pass", "fail", "error"},
                         "order": {"pass", "fail"}}


class TestMalformedTrees:
    """Trees that ``check_tree_axioms`` reports as malformed make the other
    checks raise ``InvariantViolationError`` naming the vertex, not a bare
    error."""

    def constructed(self):
        sets = [[F(0)], [F(1, 2)], [F(1, 4), F(3, 4)]]
        return construct_tree(Portrait.create(3, sets))

    def tree(self):
        return self.constructed().tree

    def test_tau_outside_the_vertices(self):
        t = self.tree()
        t = t._replace(tau={**t.tau, "v1": "zz"})
        assert check_tree_axioms(t) == (
            TreeViolation("tau-range", "tau(v1) = zz not a vertex"),)
        # germs_at(v1) reads v1's own image before those of its edges
        for check in (classify_vertices, check_julia_normalization, check_expanding,
                      check_degree_angle, lambda t: image_germs(t)("v1")):
            with pytest.raises(InvariantViolationError,
                               match=r"^tau\(v1\) = zz not a vertex$"):
                check(t)

    def test_every_reader_takes_the_tree_alone(self):
        # no reader accepts a classification, which could vouch for a tree
        # other than the one it is given
        functions = [f for name, f in vars(tree).items() if not name.startswith("_")
                     and inspect.isfunction(f) and f.__module__ == tree.__name__]
        assert len(functions) == 7
        assert all(list(inspect.signature(f).parameters) == ["t"] for f in functions)
        t = self.tree()
        for check in (check_julia_normalization, check_expanding):
            with pytest.raises(TypeError):
                check(t, classify_vertices(t))

    @pytest.mark.parametrize("edit, messages", [
        (lambda ct: ct._replace(marked_sector=("zz", 0)),
         ["marked sector 0 at zz is not one of its 0 sectors"] * 2),
        (lambda ct: ct._replace(tree=ct.tree._replace(
            tau={v: x for v, x in ct.tree.tau.items() if v != "v1"})),
         ["tau(v1) is not defined", None]),
        (lambda ct: ct._replace(tree=ct.tree._replace(circular_order={
            v: o for v, o in ct.tree.circular_order.items() if v != "w1"})),
         ["no path from v1 to w2; tree is disconnected",
          "the order at v1 lists w1, but the order at w1 does not list v1"]),
        (lambda ct: ct._replace(tree=ct.tree._replace(circular_order={
            **ct.tree.circular_order, "v3": ct.tree.circular_order["v3"] + ("zz",)})),
         ["tau(zz) is not defined",
          "the order at v3 lists zz, but the order at zz does not list v3"]),
    ], ids=["marked-sector-off-the-tree", "tau-missing", "order-missing",
            "order-lists-a-non-vertex"])
    def test_recovery_names_a_missing_entry(self, edit, messages):
        # recovery and the boundary walk raise at the lookup that fails;
        # the walk reads no tau, so a missing one does not stop it
        ct = edit(self.constructed())
        for run, message in zip((recover_portrait, boundary_walk), messages):
            if message is None:
                run(ct)
                continue
            with pytest.raises(InvariantViolationError, match=f"^{re.escape(message)}$"):
                run(ct)

    def test_zero_gap_denominator(self):
        t = self.tree()
        t = t._replace(gap_angles={**t.gap_angles, "w1": (0, (1, 1))})
        assert check_tree_axioms(t) == (
            TreeViolation("structure", "gap denominator at w1 is 0 <= 0"),)
        with pytest.raises(InvariantViolationError,
                           match="^gap denominator at w1 is 0 <= 0$"):
            check_degree_angle(t)

    def test_first_fault_in_vertex_order_is_named(self):
        # the inner vertices are v2, w1, w2, and tau(w1) = w2: with both w1
        # and w2 broken, w1 is named whatever the string hash seed
        t = self.tree()
        t = t._replace(gap_angles={**t.gap_angles, "w1": (0, (1, 1)),
                                   "w2": (2, (1, 1, 0))})
        with pytest.raises(InvariantViolationError,
                           match="^gap denominator at w1 is 0 <= 0$"):
            check_degree_angle(t)

    def test_collapse_named_before_gaps_at_the_same_vertex(self):
        t = self.tree()
        t = t._replace(tau={**t.tau, "w1": "v2"},
                       gap_angles={**t.gap_angles, "v2": (0, (1, 1))})
        with pytest.raises(InvariantViolationError,
                           match="^edge v2-w1 collapses under tau$"):
            check_degree_angle(t)

    @pytest.mark.parametrize("at_v2, violation", [
        (dict(circular_order=("w2", "w1", "w2"), gap_angles=(3, (1, 1, 1))),
         ("structure", "repeated neighbor at v2")),
        (dict(gap_angles=(60, (30, 47))),
         ("angle-total", "gaps at v2 sum to 77/60, not a positive whole turn")),
    ], ids=["repeated-neighbor", "non-whole-total"])
    def test_vertex_without_an_angle_function(self, at_v2, violation):
        # v2 is a periodic Julia vertex with two edges, the first inner one
        t = self.tree()
        t = t._replace(**{field: {**getattr(t, field), "v2": value}
                          for field, value in at_v2.items()})
        assert check_tree_axioms(t) == (TreeViolation(*violation),)
        for check in (lambda t: t.angle_between("v2", "w2", "w2"),
                      check_degree_angle, check_julia_normalization):
            with pytest.raises(InvariantViolationError,
                               match=f"^{re.escape(violation[1])}$"):
                check(t)

    def test_gap_count_differs_from_degree(self):
        # v2 is a periodic Julia vertex with two edges
        t = self.tree()
        t = t._replace(gap_angles={**t.gap_angles, "v2": (2, (1, 1, 0))})
        assert check_tree_axioms(t) == (
            TreeViolation("structure", "gap count at v2 differs from degree"),)
        for check in (check_degree_angle, check_julia_normalization):
            with pytest.raises(InvariantViolationError,
                               match="^gap count at v2 differs from degree$"):
                check(t)

    @pytest.mark.parametrize("gaps_at_v3, violations, refusal", [
        ((0, (1,)), [("structure", "gap denominator at v3 is 0 <= 0")],
         "gap denominator at v3 is 0 <= 0"),
        ((-2, (-2,)), [("structure", "gap denominator at v3 is -2 <= 0")],
         "gap denominator at v3 is -2 <= 0"),
        ((1, (1, 0)), [("structure", "gap count at v3 differs from degree")],
         "gap count at v3 differs from degree"),
        ((1, ()), [("structure", "gap count at v3 differs from degree")],
         "gap count at v3 differs from degree"),
        ((2, (1,)), [("angle-total", "gaps at v3 sum to 1/2, not a positive whole turn")],
         "gaps at v3 sum to 1/2, not a positive whole turn"),
        ((3, (4,)), [("angle-total", "gaps at v3 sum to 4/3, not a positive whole turn")],
         "gaps at v3 sum to 4/3, not a positive whole turn"),
        ((1, (0,)), [("angle-gap", "gap 0 at v3 is 0 <= 0"),
                     ("angle-total", "gaps at v3 sum to 0, not a positive whole turn")],
         "gaps at v3 sum to 0, not a positive whole turn"),
        ((2, (-2,)), [("angle-gap", "gap 0 at v3 is -1 <= 0"),
                      ("angle-total", "gaps at v3 sum to -1, not a positive whole turn")],
         "gaps at v3 sum to -1, not a positive whole turn"),
        (None, [("structure", "gap_angles keys differ from vertices")],
         "gap_angles(v3) is not defined"),
    ], ids=["zero-denominator", "negative-denominator", "two-gaps", "no-gap",
            "half-turn", "four-thirds", "zero-gap", "negative-turn", "missing-gaps"])
    def test_one_edge_vertex_refusals(self, gaps_at_v3, violations, refusal):
        # v3 is a periodic Julia vertex with one edge, to w2; its one gap
        # takes the shortcut only when it is a positive whole turn
        t = self.tree()
        gap_angles = {v: g for v, g in t.gap_angles.items() if v != "v3"}
        if gaps_at_v3 is not None:
            gap_angles["v3"] = gaps_at_v3
        t = t._replace(gap_angles=gap_angles)
        assert check_tree_axioms(t) == tuple(TreeViolation(*v) for v in violations)
        for check in (lambda t: t.angle_between("v3", "w2", "w2"),
                      check_julia_normalization):
            with pytest.raises(InvariantViolationError,
                               match=f"^{re.escape(refusal)}$"):
                check(t)

    @pytest.mark.parametrize("gaps_at_v3", [(1, (1,)), (3, (3,)), (1, (2,)), (2, (6,))],
                             ids=["one-turn", "one-turn-over-3", "two-turns", "three-turns"])
    def test_one_edge_vertex_with_a_whole_turn(self, gaps_at_v3):
        # any positive whole turn is an angle function at one edge, as the
        # general rule (gaps summing to a positive whole turn) admits it
        t = self.tree()
        t = t._replace(gap_angles={**t.gap_angles, "v3": gaps_at_v3})
        assert check_tree_axioms(t) == ()
        assert t.angle_between("v3", "w2", "w2") == 0
        assert check_julia_normalization(t) == ()
        with pytest.raises(InvariantViolationError, match="^w1 is not a neighbor of v3$"):
            t.angle_between("v3", "w2", "w1")


def seven_tree():
    """The degree-2 tree of {0} {1/7 2/7 4/7}: v2 has the three edges to
    w1, w2 and w3."""
    return construct_tree(Portrait.create(2, [[F(0)], [F(1, 7), F(2, 7), F(4, 7)]]))


EDIT_KINDS = ("tau", "delta", "circular_order", "gap_angles", "append",
              "marked", "off")


def edit_entries(ct, rng):
    """(kind, ct) with one field edited at a random vertex v: v's tau,
    delta, order or gap entry deleted, an unknown neighbor appended to v's
    order, the marked sector moved off the tree or to any slot of v, in
    range or not, or tau(v) sent off the tree."""
    t = ct.tree
    v = rng.choice(t.vertices)
    kind = rng.choice(EDIT_KINDS)
    if kind in ("tau", "delta", "circular_order", "gap_angles"):
        entries = dict(getattr(t, kind))
        del entries[v]
        return kind, ct._replace(tree=t._replace(**{kind: entries}))
    if kind == "append":
        order = {**t.circular_order, v: t.circular_order[v] + ("zz",)}
        return kind, ct._replace(tree=t._replace(circular_order=order))
    if kind == "marked":
        slot = rng.randrange(-1, len(t.circular_order[v]) + 1)
        return kind, ct._replace(marked_sector=rng.choice([("zz", 0), (v, slot)]))
    return kind, ct._replace(tree=t._replace(tau={**t.tau, v: "zz"}))


def read_everything(ct):
    """What every public reader of the tree, recovery and the boundary walk
    return, or the message of the ``InvariantViolationError`` that stops
    each; any other error propagates."""
    t = ct.tree
    found = [outcome(read, t) for read in (
        check_tree_axioms, classify_vertices, check_degree_angle,
        check_julia_normalization, check_expanding, count_fixed_points,
        AngledTree.total_degree)]
    found += [outcome(recover_portrait, ct), outcome(boundary_walk, ct)]
    germs_at = image_germs(t)
    for v in t.vertices:
        found += [outcome(germs_at, v), outcome(t.degree_of, v)]
        if nbrs := t.circular_order.get(v):
            found.append(outcome(t.angle_between, v, nbrs[0], nbrs[-1]))
    return found


class TestMissingEntries:
    """A reader that meets a missing map entry, or a vertex or neighbor not
    on the tree, raises ``InvariantViolationError`` naming it, never a bare
    ``KeyError``."""

    @pytest.mark.parametrize("args, message", [
        (("v2", "zz", "w1"), "zz is not a neighbor of v2"),
        (("v2", "w1", "zz"), "zz is not a neighbor of v2"),
        (("v2", "v1", "w1"), "v1 is not a neighbor of v2"),
        (("zz", "w1", "w2"), "circular_order(zz) is not defined"),
    ], ids=["first-off", "second-off", "a-vertex-but-no-neighbor", "vertex-off"])
    def test_angle_between_off_the_tree(self, args, message):
        t = seven_tree().tree
        assert set(t.circular_order["v2"]) == {"w1", "w2", "w3"}
        with pytest.raises(InvariantViolationError, match=f"^{re.escape(message)}$"):
            t.angle_between(*args)

    def test_missing_tau_is_named(self):
        # w3 is a vertex: its image is missing, not off the tree
        ct = seven_tree()
        t = ct.tree._replace(tau={v: x for v, x in ct.tree.tau.items() if v != "w3"})
        for read in (classify_vertices, check_expanding, check_julia_normalization,
                     check_degree_angle, count_fixed_points,
                     lambda t: image_germs(t)("w3"),
                     lambda t: recover_portrait(ct._replace(tree=t))):
            with pytest.raises(InvariantViolationError,
                               match=r"^tau\(w3\) is not defined$"):
                read(t)
        assert check_tree_axioms(t) == (
            TreeViolation("structure", "tau keys differ from vertices"),)

    @pytest.mark.parametrize("name", ["delta", "circular_order", "gap_angles"])
    def test_missing_entry_is_named(self, name):
        t = seven_tree().tree
        t = t._replace(**{name: {v: x for v, x in getattr(t, name).items() if v != "w1"}})
        message = f"^{name}\\(w1\\) is not defined$"
        readers = {"delta": (AngledTree.total_degree, classify_vertices, check_degree_angle),
                   "circular_order": (lambda t: t.degree_of("w1"), check_expanding,
                                      check_degree_angle, lambda t: image_germs(t)("w1")),
                   "gap_angles": (lambda t: t.angle_between("w1", "v1", "v2"),
                                  check_degree_angle)}[name]
        for read in readers:
            with pytest.raises(InvariantViolationError, match=message):
                read(t)

    def test_single_field_edits_never_raise_key_error(self):
        # 6,000 seeded edits of the census trees, each read by every public
        # reader: each returns, or refuses the tree naming what is wrong
        rng = random.Random(20261020)
        trees = [ct for _, _, ct in census()]
        shapes: dict[str, set] = {}
        undefined = set()
        for _ in range(6000):
            kind, ct = edit_entries(rng.choice(trees), rng)
            for result in read_everything(ct):
                refused = isinstance(result, str)
                shapes.setdefault(kind, set()).add("refused" if refused else "returned")
                if refused and result.endswith(" is not defined"):
                    undefined.add(kind)
        assert shapes == dict.fromkeys(EDIT_KINDS, {"refused", "returned"})
        # each deletion is named as such by some reader
        assert undefined >= {"tau", "delta", "circular_order", "gap_angles"}


class TestDegreeAngle:
    def test_constructed_trees_pass(self):
        for d in (2, 3):
            for p in enumerate_portraits(d, 3):
                assert check_degree_angle(construct_tree(p).tree) == ()

    def test_critical_vertex_germs_coincide(self, degree5_portrait):
        # at the interchanged critical vertex the two image germs coincide,
        # so the image angle 0 matches delta * (1/2) mod 1
        t = construct_tree(degree5_portrait).tree
        assert t.delta["w1"] == 2
        assert t.angle_between("w1", "v1", "v2") == F(1, 2)
        assert set(image_germs(t)("w1")) == {"v2"}

    def test_violation_detected(self):
        # critical fixed vertex with two edges a quarter turn apart:
        # images coincide with the edges, so 2 * 1/4 != 1/4
        t = make_tree(["c", "p", "q"], [("c", "p"), ("c", "q")],
                      {"c": ["p", "q"], "p": ["c"], "q": ["c"]},
                      {"c": [F(1, 4), F(3, 4)], "p": [F(1)], "q": [F(1)]},
                      {v: v for v in "cpq"}, {"c": 2, "p": 1, "q": 1})
        assert check_tree_axioms(t) == ()
        violations = check_degree_angle(t)
        assert violations and all(v.code == "degree-angle" for v in violations)
        assert [v.detail for v in violations] == [
            "at c: edges to p,q subtend 1/4, images subtend 1/4 != delta*angle = 1/2",
            "at c: edges to q,p subtend 3/4, images subtend 3/4 != delta*angle = 1/2"]


class TestClassification:
    def test_degree5(self, degree5_portrait):
        t = construct_tree(degree5_portrait).tree
        classes = classify_vertices(t)
        for v in t.vertices:
            expected = "julia" if v.startswith("v") else "fatou"
            assert classes[v].kind == expected

    def test_basilica_cycle(self, basilica):
        t = construct_tree(basilica).tree
        classes = classify_vertices(t)
        assert classes["w1"].kind == classes["w2"].kind == "fatou"
        assert classes["w1"].period == 2
        assert classes["w1"].cycle_id == classes["w2"].cycle_id

    def test_fixed_noncritical_vertex_is_julia(self):
        t = two_vertex_tree()
        classes = classify_vertices(t)
        assert classes["b"].kind == "julia"
        assert classes["a"].kind == "fatou"

    def test_matches_walk_oracle_over_census(self):
        assert len(census()) == 944
        for _, _, ct in census():
            classes = classify_vertices(ct.tree)
            assert list(classes.items()) == list(walked_classes(ct.tree).items())

    def test_matches_walk_oracle_on_random_functional_graphs(self):
        rng = random.Random(20261018)
        cycle_counts, fixed, longest_tail, kinds = set(), 0, 0, set()
        for _ in range(600):
            t = random_functional_graph(rng)
            classes = classify_vertices(t)
            assert list(classes.items()) == list(walked_classes(t).items())
            cycle_counts.add(len({c.cycle_id for c in classes.values()}))
            fixed += sum(1 for v in t.vertices if t.tau[v] == v)
            longest_tail = max(longest_tail, *(c.preperiod for c in classes.values()))
            kinds.update(c.kind for c in classes.values())
        assert max(cycle_counts) >= 4 and fixed > 300 and longest_tail >= 30
        assert kinds == {"fatou", "julia"}

    def test_long_chain_is_linear(self):
        # c0 is a critical fixed end and tau slides every c_i to c_{i-1};
        # listed from the far end, the first walk crosses the whole chain
        n = 5000
        vertices = [f"c{i}" for i in reversed(range(n))]
        tau = {f"c{i}": f"c{max(i - 1, 0)}" for i in range(n)}
        delta = {v: 1 for v in vertices} | {"c0": 2}
        t = functional_graph(vertices, tau, delta)
        started = time.perf_counter()
        classes = classify_vertices(t)
        elapsed = time.perf_counter() - started
        assert classes["c4999"] == VertexClass("fatou", 0, n - 1, 1)
        assert all(c.kind == "fatou" and c.cycle_id == 0 for c in classes.values())
        assert list(classes) == vertices
        assert elapsed < 0.5


class TestExpanding:
    def test_degree5_vacuous(self, degree5_portrait):
        t = construct_tree(degree5_portrait).tree
        ok, witness = check_expanding(t)
        assert ok and witness is None

    def test_frozen_julia_edge_fails(self):
        # two fixed non-critical vertices joined by an edge never separate;
        # park the critical vertex elsewhere so both stay julia
        t = make_tree(
            ["a", "b", "c"], [("a", "b"), ("b", "c")],
            {"a": ["b"], "b": ["a", "c"], "c": ["b"]},
            {"a": [F(1)], "b": [F(1, 2), F(1, 2)], "c": [F(1)]},
            {"a": "a", "b": "b", "c": "c"},
            {"a": 1, "b": 1, "c": 2})
        ok, witness = check_expanding(t)
        assert not ok and witness == ("a", "b")

    def test_frozen_path_stops_at_the_pair_count(self):
        # tau fixes every vertex of a 3,000-vertex path and none is critical,
        # so every edge is a frozen Julia edge; the first is the witness
        # after |V| + 2|E| steps, not |V|^2
        n = 3000
        vertices = [f"x{i}" for i in range(n)]
        order = {v: [u for u in vertices[max(i - 1, 0):i + 2] if u != v]
                 for i, v in enumerate(vertices)}
        t = make_tree(vertices, list(zip(vertices, vertices[1:])), order,
                      {v: [F(1, len(nbrs))] * len(nbrs) for v, nbrs in order.items()},
                      {v: v for v in vertices}, {v: 1 for v in vertices})
        started = time.perf_counter()
        assert check_expanding(t) == (False, ("x0", "x1"))
        assert time.perf_counter() - started < 0.5

    def test_edge_separating_at_the_second_step_expands(self):
        # the path a-b-c-d-e, nothing critical, tau a->b->c->e->d->a: edge
        # a-b goes to b-c, still adjacent, and only then to c-e, which is
        # not; a step bound of one would call this tree non-expanding
        vertices = "abcde"
        order = {v: [u for u in vertices[max(i - 1, 0):i + 2] if u != v]
                 for i, v in enumerate(vertices)}
        tau = dict(zip("abcde", "bceda"))
        t = make_tree(vertices, list(zip(vertices, vertices[1:])), order,
                      {v: [F(1, len(nbrs))] * len(nbrs) for v, nbrs in order.items()},
                      tau, {v: 1 for v in vertices})
        assert {c.kind for c in classify_vertices(t).values()} == {"julia"}
        assert tau["b"] in order[tau["a"]] and tau[tau["b"]] not in order[tau[tau["a"]]]
        assert check_expanding(t) == (True, None)

    def test_components_count_as_separated(self):
        # tau sends the Julia edge c-d to b and d, which lie in different
        # components: separated, with no path to measure
        t = disconnected_tree({"a": "a", "b": "b", "c": "b", "d": "d"})
        assert check_expanding(t) == (True, None)
        assert "not-connected" in {v.code for v in check_tree_axioms(t)}

    def test_census_expands(self):
        for d in (2, 3):
            for p in enumerate_portraits(d, 3):
                ok, _ = check_expanding(construct_tree(p).tree)
                assert ok


class TestJuliaNormalization:
    def test_constructed_trees_pass(self, degree5_portrait):
        t = construct_tree(degree5_portrait).tree
        assert check_julia_normalization(t) == ()

    def test_bad_angle_detected(self):
        # julia vertex with 2 edges at a third of a turn: not a multiple of 1/2
        t = make_tree(
            ["j", "a", "b"], [("a", "j"), ("b", "j")],
            {"j": ["a", "b"], "a": ["j"], "b": ["j"]},
            {"j": [F(1, 3), F(2, 3)], "a": [F(1)], "b": [F(1)]},
            {"j": "j", "a": "a", "b": "b"},
            {"j": 1, "a": 2, "b": 1})
        violations = check_julia_normalization(t)
        assert violations and violations[0].code == "julia-angle"
        assert [v.detail for v in violations] == [
            "angle 1/3 at j between edges to a and b is not a multiple of 1/2"]

    def test_single_edge_vacuous(self):
        t = two_vertex_tree()
        assert check_julia_normalization(t) == ()


class TestFixedPoints:
    def test_degree5(self, degree5_portrait):
        assert count_fixed_points(construct_tree(degree5_portrait).tree) == 5

    def test_basilica(self, basilica):
        assert count_fixed_points(construct_tree(basilica).tree) == 2

    def test_single_angle_portrait(self):
        t = construct_tree(Portrait.create(2, [[F(0)]])).tree
        assert count_fixed_points(t) == 2

    def test_census_counts(self):
        for d in (2, 3):
            for p in enumerate_portraits(d, 3):
                t = construct_tree(p).tree
                classes = classify_vertices(t)
                assert t.total_degree() == d
                assert count_fixed_points(t) == d
                julia_fixed = sum(1 for v in t.vertices
                                  if t.tau[v] == v and classes[v].kind == "julia")
                assert julia_fixed == p.k
