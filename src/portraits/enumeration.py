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

from bisect import bisect_right
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, product, repeat
from math import comb, gcd, lcm, prod
from typing import Optional, Sequence

from .angles import check_degree, fixed_angles
from .errors import CapacityError
from .portrait import Portrait
from .rotation import RotationSet, _closed_form

# Most sets, proposed pairs, cover steps or portraits one enumeration may
# make; larger requests fail at once instead of silently consuming hours.
_CANDIDATE_CEILING = 4_000_000


def _check_int(name: str, value) -> int:
    """Refuse a non-integer count (a bool included) with a ValueError naming it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _check_count(what: str, count: int) -> None:
    """Raise CapacityError, naming ``what`` and its count, past the ceiling."""
    if count > _CANDIDATE_CEILING:
        raise CapacityError(f"{what} {count}, over the ceiling of {_CANDIDATE_CEILING}")


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


def _cycle_sets(d: int, p: int, g: int) -> int:
    """N(d, p, g): how many degree-d rotating sets of g cycles one rotation
    number r/p (gcd(r, p) = 1) has; at p = 1, the C(d-1, g) fixed sets.

    Such a set is read off its sorted gp-sequence s of blocks, and its
    cycles are the strided subsequences s[i::g] (module docstring), which
    differ pairwise.  Conversely, any two s[i::g] and s[j::g], i < j,
    interleave into a sorted 2p-sequence, a proposed pair, so they
    alternate when they differ.  The sets are thus the sorted gp-sequences
    whose g strided subsequences differ pairwise.  As s is sorted, s[i::g]
    <= s[i+1::g] termwise, so they differ pairwise iff the g-1 neighbours
    do.  Forcing k chosen neighbour pairs equal leaves g-k runs of equal
    subsequences, and keeping only the first of each run maps such s one
    to one onto the sorted (g-k)p-sequences (repeating each kept
    subsequence over its run maps back, sorted), of which there are
    C((g-k)p + d-2, d-2).  By inclusion-exclusion over the forced pairs,

        N(d, p, g) = sum over k < g of (-1)**k C(g-1, k) C((g-k)p + d-2, d-2).
    """
    return sum((-1) ** k * comb(g - 1, k) * comb((g - k) * p + d - 2, d - 2) for k in range(g))


def _pool_count(d: int, max_cardinality: int, max_period: int) -> int:
    """What ``_pool`` makes: its sets, phi(p) N(d, p, g) per period p and
    g <= min(d-1, max_cardinality / p) (p = 1 gives the fixed sets), and
    the phi(p) C(2p + d-2, d-2) pairs it proposes at each period p >= 2
    where two cycles fit.  Counting stops once the total passes the
    ceiling."""
    count = 0
    for p in range(1, min(max_period, max_cardinality) + 1):
        phi, most = _totient(p), min(d - 1, max_cardinality // p)
        count += (p > 1 and most > 1) * phi * comb(2 * p + d - 2, d - 2)  # proposals
        for g in range(1, most + 1):
            count += phi * _cycle_sets(d, p, g)
            if count > _CANDIDATE_CEILING:
                return count
    return count


def _cliques(d: int, p: int, r: int, most: int, big: int) -> list:
    """``_pool``'s entries of rotation number r/p with at most ``most``
    cycles, grown as cliques of alternating cycles (module docstring).  A
    single cycle is its own set.  A clique of g cycles, in order of least
    point, is (C_1 ... C_g)**p: cycle k fills positions k, k + g, k + 2g,
    ..., so one strided slice assignment per cycle interleaves its
    numerators and one its ``Fraction``s.  Each support bitmask (bit b for
    block b) is OR-ed down from the clique it grew from."""
    q = d ** p - 1
    cycles = sorted((_closed_form(d, r, blocks)[1], blocks)
                    for blocks in combinations_with_replacement(range(d - 1), p))
    scale = big // q
    xs = [tuple([x * scale for x in c]) for c, _ in cycles]
    angles = [tuple([Fraction(x, q) for x in c]) for c, _ in cycles]
    supports = [sum({1 << b for b in blocks}) for _, blocks in cycles]
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
        g = len(members) + 1
        rest = common if g <= most else 0
        while rest:
            j = rest.bit_length() - 1
            rest ^= 1 << j
            grown = members + (j,)
            grown_support = support | supports[j]
            grown_xs, grown_angles = [0] * (g * p), [0] * (g * p)
            for k, i in enumerate(grown):
                grown_xs[k::g] = xs[i]
                grown_angles[k::g] = angles[i]
            found.append((g * r, grown_support, tuple(grown_xs), tuple(grown_angles)))
            stack.append((grown, common & later[j], grown_support))
    return found


def _pool(d: int, max_cardinality: int, max_period: int) -> tuple[int, list]:
    """(big, entries): the (shift, support, xs, angles) of every degree-d
    rotation set with cardinality <= max_cardinality and period <=
    max_period, sorted once by xs, the angles as numerators over
    big = lcm(d**p - 1 : p <= min(max_period, max_cardinality)).  Both
    enumerations read this one list: a set's position in it is its rank.

    The fixed sets, with shift 0 and support None, are the nonempty sets of
    at most max_cardinality of the d-1 fixed angles.  The rotating sets are
    ``_cliques``' entries, their angles built once per cycle point, and
    their support the bitmask of the blocks their angles occupy, bit b for
    block b.  A single-cycle set is the cycle's own support and tuples, not
    a copy.

    The bounds must be integers >= 1 (max_period is checked first), and a
    request whose ``_pool_count`` passes the ceiling raises CapacityError
    before any set is built.
    """
    if _check_int("max_period", max_period) < 1:
        raise ValueError(f"max_period must be >= 1, got {max_period}")
    if _check_int("max_cardinality", max_cardinality) < 1:
        raise ValueError(f"max_cardinality must be >= 1, got {max_cardinality}")
    _check_count(f"degree-{d} rotation sets with cardinality <= {max_cardinality} and "
                 f"period <= {max_period}, with their proposed pairs, number at least",
                 _pool_count(d, max_cardinality, max_period))
    top = min(max_period, max_cardinality)
    big = lcm(*(d ** p - 1 for p in range(1, top + 1)))
    fixed = [*zip(range(0, big, big // (d - 1)), fixed_angles(d))]
    pool = [(0, None, *zip(*c)) for g in range(1, min(d - 1, max_cardinality) + 1)
            for c in combinations(fixed, g)]
    pool += [entry for p in range(2, top + 1) for r in range(1, p) if gcd(r, p) == 1
             for entry in _cliques(d, p, r, min(d - 1, max_cardinality // p), big)]
    return big, sorted(pool, key=lambda entry: entry[2])


def enumerate_rotation_sets(degree: int, max_cardinality: int, max_period: int) -> list[RotationSet]:
    """Every degree-d rotation set with cardinality and element period bounded.

    The fixed sets are the nonempty subsets of the d-1 fixed angles with at
    most max_cardinality elements.  The rotating sets are the cliques of
    pairwise alternating single cycles of one rotation number (module
    docstring).  Both come from ``_pool``, which first counts the sets and
    the pairs it will propose, exactly, and raises CapacityError before any
    set is built when that count passes the ceiling.  Both bounds must be
    integers >= 1, else ValueError.

    The result is sorted lexicographically by angle tuple, compared as
    integer numerators over lcm(d**p - 1) of the periods p involved.
    """
    return [RotationSet(degree, angles, m) for m, _, _, angles
            in _pool(check_degree(degree), max_cardinality, max_period)[1]]


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


def _gaps(blocks: Sequence[Sequence], x) -> tuple[int, ...]:
    """The gap of each of ``blocks`` that holds the point x.  Blocks and x
    are values of one order, each block increasing; gap i of a block opens
    at (and holds) its point i.  ``enumerate_portraits`` passes a cover's
    fixed-angle numerators and an arc's starting fixed angle: that arc's
    gap vector."""
    return tuple([(bisect_right(b, x) - 1) % len(b) for b in blocks])


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
    is grouped by the support each entry carries, the bitmask of its arcs
    (bit b for the arc from fixed angle b).  Each cover takes once the gap
    vector of every arc, the gap of each of its blocks that holds the arc,
    and for each arc the mask of the arcs sharing its vector: a support
    fits one gap of every block exactly when it lies inside the mask of its
    lowest arc, and that arc's vector is its signature.  With no pool
    (max_period 1) nothing is looked up.

    Families are ordered by set rank, a set's position in ``_pool``'s one
    sorted list of rotating and fixed sets: a family is the sorted tuple of
    its sets' ranks, both sorts compare these flat integer tuples, and each
    portrait reads its angle tuples by rank.  A first pass records each
    cover's ranks and signature classes; a cover with classes of sizes
    c_1, ..., c_k makes (1 + c_1) ... (1 + c_k) portraits, one per choice
    of no set or one from each class.  The second pass builds each family
    once, as the list of the cover's ranks and the chosen ranks, sorted.

    Three counts are checked against the ceiling, each raising
    CapacityError that names it: before the pool is built, Catalan(d-1)
    covers times d-1 gap vectors plus, with a pool, at most one class per
    each of the 2**(d-1) - 1 supports; ``_pool``'s own count; and, before
    any family is built, the number of portraits.
    """
    d = check_degree(degree)
    _check_int("max_period", max_period)  # before a str or None is multiplied
    # the cover bound grows with n = d-1, and Catalan(n) >= 2**n from n = 7
    # on, so n capped at the ceiling's bit length refuses what the uncapped
    # bound would, without computing a huge Catalan number
    n = min(d - 1, _CANDIDATE_CEILING.bit_length())
    _check_count(f"degree-{d} portraits with period <= {max_period} have a cover bound of "
                 f"at least", comb(2 * n, n) // (n + 1) * (n + (2 ** n - 1) * (max_period > 1)))
    q, pool = _pool(d, (d - 1) * max_period, max_period)
    fixed = tuple(range(0, q, q // (d - 1)))
    by_support: dict[Optional[int], list[int]] = {}
    for r, (_, support, _, _) in enumerate(pool):
        by_support.setdefault(support, []).append(r)
    rank = {pool[r][2]: r for r in by_support.pop(None)}  # the fixed sets, support None
    # per support: its lowest arc, its bitmask and its sets' ranks
    groups = [((s & -s).bit_length() - 1, s, members) for s, members in by_support.items()]
    arcs = fixed if groups else ()   # none without a pool

    covers = []
    for cover in _noncrossing_partitions(fixed):
        # each arc's gap vector, and per arc the bitmask of the arcs sharing it
        vectors = [_gaps(cover, a) for a in arcs]
        masks = [sum(1 << b for b, w in enumerate(vectors) if w == v) for v in vectors]
        # per signature, by its mask: the ranks of its sets
        by_signature: dict[int, list[int]] = {}
        for low, support, members in groups:
            if not support & ~(mask := masks[low]):
                by_signature.setdefault(mask, []).extend(members)
        covers.append(([*map(rank.__getitem__, cover)], [*by_signature.values()]))
    _check_count(f"degree-{d} portraits with period <= {max_period} number",
                 sum(prod(len(c) + 1 for c in classes) for _, classes in covers))

    # each family once: the cover's ranks and one rank from each chosen class
    found: list[tuple[int, ...]] = []
    for ranks, classes in covers:
        for some in chain.from_iterable(combinations(classes, k) for k in range(len(classes) + 1)):
            for choice in product(*some):
                family = [*ranks, *choice]
                family.sort()
                found.append(tuple(family))

    # families are distinct, so a stable sort by size after the full sort
    # gives the (size, sets) order; canonical, they need no Portrait.create
    found.sort()
    found.sort(key=len)
    angles = [entry[3] for entry in pool]
    return [tuple.__new__(Portrait, (d, tuple(map(angles.__getitem__, f)))) for f in found]
