"""Degree-d rotation sets: classification, deployment, enumeration, generation.

A rotation set is a finite angle set that the d-fold covering map permutes
like a rigid rotation: in the increasing indexing, every element moves
forward by the same shift m.  The residue m/n is its rotation number; m and
n need not be coprime, so the pair (shift, cardinality) is kept verbatim
rather than reduced.

The shift m, the cardinality n and the deployment determine a rotation set,
and Goldberg (*Fixed points of polynomial maps I: rotation subsets of the
circles*, 1992) writes its angles down directly.  With b_i the deployment
block of the i-th smallest angle (it lies in [b_i/(d-1), (b_i+1)/(d-1))),
let k_i = b_i + [i + m >= n] and p = n / gcd(m, n); then

    theta_i = sum_{j<p} k_{(i+jm) mod n} * d**(p-1-j) / (d**p - 1).

Here k_i is the integer d*theta_i - theta_{(i+m) mod n}; it exceeds the
block floor((d-1)*theta_i) by one exactly when the index wraps past n.
Written as numerators x_i = (d**p - 1)*theta_i, that definition of k_i is
the recurrence

    x_{(i+m) mod n} = d*x_i - k_i*(d**p - 1),

so the indices split into g = gcd(m, n) cycles r, r+m, r+2m, ... of length
p.  One Horner sum over its digits gives the first numerator of a cycle,
and the recurrence walks the rest: all n numerators in O(n) steps rather
than one p-term sum each.  That kernel, ``_closed_form``, is the only one.
It reads the deployment as the formula does, as the sorted block sequence
b_0 <= ... <= b_(n-1): generation expands its d-1 counts into it once,
recovery appends a block per sector, and the enumerations list cycles.

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

Classification runs on integers.  The covering map's n-th iterate fixes
every angle of an n-element rotation set, so every denominator divides
d**n - 1; a set failing that is refused before anything is multiplied out.
The angles are then numerators x over their common denominator q, and the
image of x/q is (d*x mod q)/q.  One kernel, ``_shift``, serves
``classify_rotation_set`` and the validator; generation needs none.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, repeat
from math import comb, gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .angles import Angle, as_angle_tuple, check_degree, fixed_angles
from .errors import CapacityError

# Most (cardinality, shift, deployment) candidates one enumeration may try;
# larger requests fail at once instead of silently consuming hours.
_CANDIDATE_CEILING = 4_000_000


class RotationSet(NamedTuple):
    """A degree-d rotation set with its shift recorded.

    ``angles`` is strictly increasing in [0, 1) and the covering map sends
    angles[i] to angles[(i + shift) % n] for every i.
    """

    degree: int
    angles: tuple[Angle, ...]
    shift: int

    @property
    def cardinality(self) -> int:
        return len(self.angles)

    @property
    def rotation_number(self) -> Fraction:
        """The residue shift/cardinality as an exact value."""
        return Fraction(self.shift, self.cardinality)

    @property
    def is_fixed(self) -> bool:
        """True when the rotation number is zero, i.e. every angle is fixed."""
        return self.shift == 0

    @property
    def period(self) -> int:
        """Exact period of each element under the covering map."""
        return self.cardinality // gcd(self.shift, self.cardinality)


def _numerators(d: int, sets: Sequence[Sequence[Angle]]) -> tuple[int, tuple]:
    """(q, xsets): each set as numerators over q, the common denominator of
    the sets whose denominators all divide d**n - 1 (n the set's size).  A
    set failing that cannot be a rotation set; it gets None, and its
    denominators are never multiplied out.  Each angle's pair is read once."""
    pairs = [[a.as_integer_ratio() for a in s] for s in sets]
    periodic = [not any((pow(d, len(s), den) - 1) % den for _, den in s) for s in pairs]
    q = lcm(*(den for s, ok in zip(pairs, periodic) if ok for _, den in s))
    return q, tuple(tuple(x * (q // den) for x, den in s) if ok else None
                    for s, ok in zip(pairs, periodic))


def _shift(d: int, q: int, xs: Sequence[int]) -> Optional[int]:
    """The shift m with d*xs[i] = xs[(i+m) % n] (mod q) for every i, or
    None; ``xs`` are strictly increasing numerators over q."""
    index = {x: i for i, x in enumerate(xs)}
    images = [index.get(d * x % q) for x in xs]
    m = images[0]
    if m is None or images != [*range(m, len(xs)), *range(m)]:
        return None
    return m


def classify_rotation_set(angles: Sequence[Angle], degree: int) -> Optional[tuple[int, int]]:
    """Find the unique shift m with f_d(theta_i) = theta_((i+m) mod n).

    Returns (m, n) with 0 <= m < n, or None when no shift works.  The input
    must be strictly increasing in [0, 1); anything else raises
    MalformedSetError.
    """
    d = check_degree(degree)
    th = as_angle_tuple(angles)
    q, (xs,) = _numerators(d, [th])
    m = None if xs is None else _shift(d, q, xs)
    return None if m is None else (m, len(th))


def deployment_vector(rs: RotationSet) -> tuple[int, ...]:
    """Counts of the set's angles in the d-1 half-open arcs between fixed angles.

    Entry i counts angles in [i/(d-1), (i+1)/(d-1)); for degree 2 the single
    entry counts everything.
    """
    counts = [0] * (rs.degree - 1)
    for a in rs.angles:
        counts[int(a * (rs.degree - 1))] += 1
    return tuple(counts)


def _check_int(name: str, value) -> int:
    """Refuse a non-integer count (a bool included) with a ValueError naming it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _closed_form(d: int, m: int,
                 blocks: Sequence[int]) -> Optional[tuple[int, list[int]]]:
    """(q, xs): Goldberg's closed form as numerators xs over q = d**p - 1,
    walked cycle by cycle as in the module docstring, or None unless they
    are strictly increasing in [0, q).  ``blocks`` is the non-decreasing
    block sequence b_0 <= ... <= b_(n-1) of the n angles, and 0 <= m < n."""
    n = len(blocks)
    k = [*blocks[:n - m], *(b + 1 for b in blocks[n - m:])]
    g = gcd(m, n)
    p = n // g
    q = d ** p - 1
    xs = [0] * n
    for r in range(g):
        cycle = [(r + j * m) % n for j in range(p)]
        x = 0
        for i in cycle:
            x = x * d + k[i]
        for i in cycle:
            xs[i] = x
            x = d * x - k[i] * q
    if xs[-1] >= q or any(a >= b for a, b in zip(xs, xs[1:])):
        return None
    return q, xs


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


def generate_rotation_set(degree: int, cardinality: int, shift: int,
                          deployment: Sequence[int]) -> Optional[RotationSet]:
    """The unique rotation set with the given shift, cardinality and deployment.

    Goldberg's closed form (module docstring), read off the deployment
    expanded once into its block sequence, gives the only candidate as
    numerators x_i over q = d**p - 1.  One Horner sum seeds each of the
    gcd(m, n) cycles i, i+m, i+2m, ... and x_{i+m} = d*x_i - k_i*q walks
    the rest, so it takes O(n) steps.  The candidate is returned if it is
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
