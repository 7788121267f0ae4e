"""Rotation-set generation and deployment, and both enumerations: nothing a
portrait's build runs, so only ``portraits enumerate`` and callers load it.

The enumerations' pool of rotating sets is built from cycles (Goldberg,
Part I): a set of rotation number r/p is a union of at most d-1 single
cycles of that rotation number, and every single-cycle deployment is
realised, so the closed form runs once per cycle and never fails: the
cycles of period p are the sorted p-sequences of blocks.  In a
g-cycle set index i lies on cycle i mod g, so its cycles alternate pairwise
around the circle: each gap of one holds one point of the other.
Conversely, pairwise alternating cycles keep one order between consecutive
points of any one of them (else two points of one would share a gap of
another), so their union reads (C_1 ... C_g)**p, ordered by least points,
and rotates by g*r.  The rotating sets are thus the cliques of the
alternation graph.  Alternating cycles alternate block by block too, so
each sorted 2p-sequence s of blocks proposes one pair: its even positions
s[::2], and its odd ones s[1::2].

Every proposed pair (a, b) of distinct cycles alternates, so none is tested.
Their blocks satisfy alpha_i <= gamma_i <= alpha_{i+1}; let w(j) = [j + r >=
p].  Point i of a is 0.(alpha_j + w(j)) in base d, j running over i, i+r,
i+2r, ... mod p, and point i of b is 0.(gamma_j + w(j)) over the same j.  So
x_i < y_i: the digits compare termwise <=, and one is smaller because a != b
and r is coprime to p.  And y_i < x_{i+1} for i < p-1: gamma_j + w(j) <=
alpha_{j+1} + w(j+1) until j = p-1, which the orbit reaches only through
j = p-1-r, where w steps from 0 to 1; the first digit that differs favours
x_{i+1}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, product, repeat
from math import comb, gcd, lcm
from typing import Optional, Sequence

from .angles import check_degree, fixed_angles
from .errors import CapacityError
from .portrait import Portrait, _signature
from .rotation import RotationSet, _closed_form

# Most (cardinality, shift, deployment) candidates one enumeration may try;
# larger requests fail at once instead of silently consuming hours.
_CANDIDATE_CEILING = 4_000_000


def _check_int(name: str, value) -> int:
    """Refuse a non-integer count (a bool included) with a ValueError naming it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def deployment_vector(rs: RotationSet) -> tuple[int, ...]:
    """Counts of the set's angles in the d-1 half-open arcs between fixed angles.

    Entry i counts angles in [i/(d-1), (i+1)/(d-1)); for degree 2 the single
    entry counts everything.
    """
    counts = [0] * (rs.degree - 1)
    for a in rs.angles:
        counts[int(a * (rs.degree - 1))] += 1
    return tuple(counts)


def generate_rotation_set(degree: int, cardinality: int, shift: int,
                          deployment: Sequence[int]) -> Optional[RotationSet]:
    """The unique rotation set with the given shift, cardinality and deployment.

    Goldberg's closed form (``rotation._closed_form``, O(n) steps), read off
    the deployment expanded once into its block sequence, gives the only
    candidate as numerators x_i over q = d**p - 1.  It is returned if it is
    strictly increasing in [0, 1); otherwise no rotation set has these data
    and the result is None (so whenever the deployment does not sum to the
    cardinality).  A cardinality, shift or deployment entry that is not an
    ``int`` (a bool included) raises ValueError.  Nothing else needs
    checking: as p*m = 0 mod n, d*x_i = x_((i+m) mod n) + k_i*q, so the set
    rotates by m; and (d-1)*theta_i = k_i + theta_((i+m) mod n) - theta_i
    has floor b_i, as that difference of increasing angles is negative iff
    i + m wraps past n.
    """
    d = check_degree(degree)
    n = _check_int("cardinality", cardinality)
    if n < 1:
        raise ValueError(f"cardinality must be >= 1, got {n}")
    _check_int("shift", shift)
    if not 0 <= shift < n:
        raise ValueError(f"shift must satisfy 0 <= shift < {n}, got {shift}")
    dep = tuple(deployment)
    if not all(isinstance(c, int) and not isinstance(c, bool) for c in dep):
        raise ValueError(f"deployment entries must be integers, got {dep!r}")
    if len(dep) != d - 1:
        raise ValueError(f"deployment needs {d - 1} entries, got {len(dep)}")
    if any(c < 0 for c in dep):
        raise ValueError("deployment entries must be non-negative")
    if sum(dep) != n:
        return None
    found = _closed_form(d, shift, [b for b, c in enumerate(dep) for _ in range(c)])
    if found is None:
        return None
    q, xs = found
    return RotationSet(d, tuple(Fraction(x, q) for x in xs), shift)


def _totient(n: int) -> int:
    """Euler's phi: how many r in range(n) have gcd(r, n) == 1."""
    phi, rest, f = n, n, 2
    while f * f <= rest:
        if rest % f == 0:
            phi -= phi // f
            while rest % f == 0:
                rest //= f
        f += 1
    return phi - phi // rest if rest > 1 else phi


def _candidate_count(d: int, max_cardinality: int, max_period: int) -> int:
    """phi(p) * C(gp+d-2, d-2) summed over each period p and g <= d-1 with
    gp <= max_cardinality, which bounds an enumeration's work: per rotation
    number, the cycles (g = 1), the proposed pairs (g = 2) and the g-cycle
    sets, whose deployments differ; for p = 1, the fixed sets and the
    Catalan(d-1) covers.  Counting stops once the total passes the ceiling."""
    count = 0
    for p in range(1, min(max_period, max_cardinality) + 1):
        phi = _totient(p)
        for g in range(1, min(d - 1, max_cardinality // p) + 1):
            count += phi * comb(g * p + d - 2, d - 2)
            if count > _CANDIDATE_CEILING:
                return count
    return count


def _cliques(d: int, p: int, r: int, most: int, big: int) -> list:
    """``_pool``'s entries of rotation number r/p with at most ``most``
    cycles, grown as cliques of alternating cycles (module docstring).  A
    single cycle is its own set; a larger clique interleaves its cycles'
    numerators and joins their supports, each union carried down from the
    clique it grew from."""
    q = d ** p - 1
    cycles = sorted((_closed_form(d, r, blocks)[1], blocks)
                    for blocks in combinations_with_replacement(range(d - 1), p))
    xs = [tuple(x * (big // q) for x in c) for c, _ in cycles]
    angles = [tuple(Fraction(x, q) for x in c) for c, _ in cycles]
    supports = [frozenset(blocks) for _, blocks in cycles]
    # later[i]: bitset of the cycles after cycle i (by least point) that
    # alternate with it; each sorted 2p-sequence proposes its even positions
    # and its odd ones
    later = [0] * len(cycles)
    if most > 1:
        index = {blocks: i for i, (_, blocks) in enumerate(cycles)}
        for s in combinations_with_replacement(range(d - 1), 2 * p):
            i, j = index[s[::2]], index[s[1::2]]
            if i != j:
                later[i] |= 1 << j
    found = [*zip(repeat(r), supports, xs, angles)]  # the single cycles
    stack = [((i,), later[i], supports[i]) for i in range(len(cycles))]
    while stack:
        members, common, support = stack.pop()
        rest = common if len(members) < most else 0
        while rest:
            j = rest.bit_length() - 1
            rest ^= 1 << j
            grown = members + (j,)
            grown_support = support | supports[j]
            found.append((len(grown) * r, grown_support,
                          tuple(chain.from_iterable(zip(*(xs[i] for i in grown)))),
                          tuple(chain.from_iterable(zip(*(angles[i] for i in grown))))))
            stack.append((grown, common & later[j], grown_support))
    return found


def _pool(d: int, max_cardinality: int, max_period: int) -> tuple[int, list]:
    """(big, entries): the (shift, support, xs, angles) of every degree-d
    rotating set with cardinality <= max_cardinality and period
    2..max_period, its angles both the numerators xs over
    big = lcm(d**p - 1 : p <= min(max_period, max_cardinality)) and
    ``Fraction``s, each built once per cycle point.  A set's support is the
    frozenset of blocks its angles occupy.  A single-cycle set is the
    cycle's own support and tuples, not a copy.

    The bounds must be integers >= 1 (max_period is checked first), and a
    request whose ``_candidate_count`` passes the ceiling raises
    CapacityError before any set is built.
    """
    if _check_int("max_period", max_period) < 1:
        raise ValueError(f"max_period must be >= 1, got {max_period}")
    if _check_int("max_cardinality", max_cardinality) < 1:
        raise ValueError(f"max_cardinality must be >= 1, got {max_cardinality}")
    if _candidate_count(d, max_cardinality, max_period) > _CANDIDATE_CEILING:
        raise CapacityError(
            f"degree-{d} rotation sets with cardinality <= {max_cardinality} and "
            f"period <= {max_period} need over {_CANDIDATE_CEILING} candidates")
    top = min(max_period, max_cardinality)
    big = lcm(*(d ** p - 1 for p in range(1, top + 1)))
    return big, [entry for p in range(2, top + 1) for r in range(1, p)
                 if gcd(r, p) == 1
                 for entry in _cliques(d, p, r, min(d - 1, max_cardinality // p), big)]


def enumerate_rotation_sets(degree: int, max_cardinality: int, max_period: int) -> list[RotationSet]:
    """Every degree-d rotation set with cardinality and element period bounded.

    The fixed sets are the nonempty subsets of the d-1 fixed angles with at
    most max_cardinality elements.  The rotating sets come from ``_pool``,
    as the cliques of pairwise alternating single cycles of one rotation
    number (module docstring).  The work is bounded first; a bound past the
    ceiling raises CapacityError before any set is built.  Both bounds must
    be integers >= 1, else ValueError.

    The result is sorted lexicographically by angle tuple, compared as
    integer numerators over lcm(d**p - 1) of the periods p involved.
    """
    d = check_degree(degree)
    big, pool = _pool(d, max_cardinality, max_period)
    fixed = fixed_angles(d)
    pool += [(0, None, tuple(i * (big // (d - 1)) for i in c), tuple(fixed[i] for i in c))
             for g in range(1, min(d - 1, max_cardinality) + 1)
             for c in combinations(range(d - 1), g)]
    pool.sort(key=lambda entry: entry[2])
    return [RotationSet(d, angles, m) for m, _, _, angles in pool]


def _noncrossing_partitions(items: Sequence) -> list[tuple[tuple, ...]]:
    """Partitions of increasing ``items`` into blocks that do not cross.

    Read around the circle, these are the pairwise unlinked covers; there
    are Catalan(len(items)) of them.  The block of the first item either
    holds it alone, or continues at some items[j]: the items in between
    then form a noncrossing partition of their own, and the first item
    joins the block of items[j] in one of items[j:].  Blocks come out
    increasing, the first item's block first.
    """
    n = len(items)
    over = {(lo, lo): [()] for lo in range(n + 1)}  # over[lo, hi]: those of items[lo:hi]
    for lo in reversed(range(n)):
        head = (items[lo],)
        for hi in range(lo + 1, n + 1) if lo else [n]:  # lo = 0 needs only hi = n
            out = [(head,) + rest for rest in over[lo + 1, hi]]
            for j in range(lo + 1, hi):
                for outer in over[j, hi]:
                    joined = (head + outer[0],)
                    out.extend(joined + inner + outer[1:] for inner in over[lo + 1, j])
            over[lo, hi] = out
    return over[0, n]


def enumerate_portraits(degree: int, max_period: int) -> list[Portrait]:
    """Every valid portrait whose sets have element period <= max_period.

    The family of fixed sets is an exact, pairwise-unlinked cover of the
    fixed angles, i.e. a noncrossing set partition of them, and those are
    generated directly.  Output is sorted by (number of sets, sets).
    ``max_period`` must be an integer >= 1, else ValueError.

    Given a cover, P4 is a test of gap signatures.  A block separates two
    sets unlinked with it exactly when they lie in different gaps of it (a
    singleton block has one gap and never separates).  Call the tuple of a
    set's gap indices in the cover's blocks its signature: two rotating
    sets are separated by some block exactly when their signatures differ.
    Separation also implies P2 between them: sets in different gaps of a
    block lie in disjoint arcs, so each fits in one gap of the other.  The
    rotating sets that may join a cover are the pool sets unlinked with
    every block, and a valid portrait takes at most one of them per
    signature.

    Both tests depend on a rotating set only through its support, the arcs
    between consecutive fixed angles (its deployment blocks) that it
    occupies: it holds no fixed angle, so each of its angles lies inside one
    such arc, and a cover block's gaps are unions of whole arcs.  The pool
    is grouped by the support each entry carries, and each cover tests each
    of the at most 2**(d-1) - 1 supports once.

    The pool (``_pool``) holds the rotating sets, as cliques of
    alternating single cycles, with numerators over q = lcm(d**p - 1 : p <=
    max_period), which keep the angles' order; the covers supply the fixed
    sets.  Families are ordered by set rank: each candidate set (pool set
    or block) is ranked once in numerator order, a family is the sorted
    tuple of its sets' ranks, both sorts compare these flat integer tuples,
    and each portrait reads its angle tuples by rank.
    """
    d = check_degree(degree)
    _check_int("max_period", max_period)  # before a str or None is multiplied
    q, pool = _pool(d, (d - 1) * max_period, max_period)
    fixed = tuple(i * (q // (d - 1)) for i in range(d - 1))
    fixed_angle = dict(zip(fixed, fixed_angles(d)))
    # rank each pool set and block (every subset of the fixed angles) by numerators
    sets = {b: tuple(map(fixed_angle.__getitem__, b))
            for g in range(1, d) for b in combinations(fixed, g)}
    sets.update((s, set_angles) for _, _, s, set_angles in pool)
    rank = {s: r for r, s in enumerate(sorted(sets))}
    angles = list(map(sets.__getitem__, rank))
    by_support: dict[frozenset[int], list[int]] = {}
    for _, support, s, _ in pool:
        by_support.setdefault(support, []).append(rank[s])
    arcs = {support: [fixed[b] for b in support] for support in by_support}

    found: list[tuple[int, ...]] = []
    for cover in _noncrossing_partitions(fixed):
        ranks = tuple(map(rank.__getitem__, cover))
        # per signature: none of its sets (None: rank 0 is the block {0}) or one
        by_signature: dict[tuple[int, ...], list] = {}
        for support, members in by_support.items():
            if (sig := _signature(cover, arcs[support])) is not None:
                by_signature.setdefault(sig, [None]).extend(members)
        for choice in product(*by_signature.values()):
            found.append(tuple(sorted(ranks + tuple(filter(None, choice)))))

    # families are distinct, so a stable sort by size after the full sort
    # gives the (size, sets) order; canonical, they need no Portrait.create
    found.sort()
    found.sort(key=len)
    return [tuple.__new__(Portrait, (d, tuple(map(angles.__getitem__, f)))) for f in found]
