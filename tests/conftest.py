from collections import deque
from fractions import Fraction as F
from functools import cache

import pytest

from portraits import (InvariantViolationError, Portrait, construct_tree,
                       enumerate_portraits, fixed_angles, validate_portrait)

# The running examples: a degree-5 portrait with one rotating pair, and the
# degree-2 portrait whose rotating set is the period-2 orbit of 1/3.
DEGREE5_SETS = [[F(0), F(3, 4)], [F(1, 8), F(5, 8)], [F(1, 4)], [F(1, 2)]]
BASILICA_SETS = [[F(0)], [F(1, 3), F(2, 3)]]


def tree_path(t, x, y):
    """Oracle: the path from x to y by breadth-first search, read back
    through the parent links (a tree makes it unique)."""
    if x == y:
        return (x,)
    parent = {x: None}
    queue = deque([x])
    while queue:
        v = queue.popleft()
        for u in t.circular_order[v]:
            if u not in parent:
                parent[u] = v
                if u == y:
                    path = [y]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                queue.append(u)
    raise InvariantViolationError(f"no path from {x} to {y}; tree is disconnected")


def path_germ(t, v, u):
    """Oracle: the germ of edge v-u, the second vertex of the path from
    tau(v) to tau(u) that the edge's image runs along."""
    a, b = t.tau[v], t.tau[u]
    if a == b:
        raise InvariantViolationError(f"edge {v}-{u} collapses under tau")
    return tree_path(t, a, b)[1]


@cache
def census():
    """(portrait, validated sets, constructed tree) for the 944 portraits of
    the benchmark censuses (2,6), (3,4), (4,3) and (5,2), built once and
    shared by the builder and tree tests."""
    return tuple((p, validate_portrait(p).valid_sets(), construct_tree(p))
                 for d, n in ((2, 6), (3, 4), (4, 3), (5, 2))
                 for p in enumerate_portraits(d, n))


def orbit(seed, degree):
    """The sorted forward orbit of a periodic angle."""
    out = [seed]
    while (nxt := degree * out[-1] % 1) != seed:
        out.append(nxt)
    return tuple(sorted(out))


@cache
def wide_rotating(d):
    """Degree d: one fixed set of all d-1 fixed angles and, inside each arc
    between consecutive ones, the period-2 set of rotation number 1/2 whose
    block sequence is (b, b): the base-d expansions 0.(b, b+1) and
    0.(b+1, b) repeated.  Valid, with d-1 rotating sets."""
    q = d * d - 1
    return Portrait.create(d, [fixed_angles(d)] + [
        [F(b * (d + 1) + 1, q), F(b * (d + 1) + d, q)] for b in range(d - 1)])


@pytest.fixture
def degree5_portrait():
    return Portrait.create(5, DEGREE5_SETS)


@pytest.fixture
def basilica():
    return Portrait.create(2, BASILICA_SETS)
