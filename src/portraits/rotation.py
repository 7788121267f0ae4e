"""Degree-d rotation sets: classification, deployment, enumeration, generation.

A rotation set is a finite angle set that the d-fold covering map permutes
like a rigid rotation: in the increasing indexing, every element moves
forward by the same shift m.  The residue m/n is its rotation number; m and
n need not be coprime, so the pair (shift, cardinality) is kept verbatim
rather than reduced.

The shift m, the cardinality n and the deployment determine a rotation set,
and Goldberg (*Fixed points of polynomial maps I: rotation subsets of the
circles*, 1992) writes its angles down directly.  With b_i the deployment
block of the i-th smallest angle, let k_i = b_i + [i + m >= n] and
p = n / gcd(m, n); then

    theta_i = sum_{j<p} k_{(i+jm) mod n} * d**(p-1-j) / (d**p - 1).

Here k_i is the integer d*theta_i - theta_{(i+m) mod n}; it exceeds the
block floor((d-1)*theta_i) by one exactly when the index wraps past n.
Generation and enumeration both rest on this formula.

Classification runs on integers.  The covering map's n-th iterate fixes
every angle of an n-element rotation set, so every denominator divides
d**n - 1; a set failing that is refused before anything is multiplied out.
The angles are then numerators x over their common denominator q, and the
image of x/q is (d*x mod q)/q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Optional, Sequence

from .angles import Angle, _scaled, as_angle_tuple, check_degree
from .errors import CapacityError

# Most (cardinality, shift, deployment) candidates one enumeration may try;
# larger requests fail at once instead of silently consuming hours.
_CANDIDATE_CEILING = 4_000_000


@dataclass(frozen=True)
class RotationSet:
    """A degree-d rotation set with its shift recorded.

    ``angles`` is strictly increasing in [0, 1) and the covering map sends
    angles[i] to angles[(i + shift) % n] for every i.
    """

    degree: int
    angles: tuple[Angle, ...]
    shift: int

    @classmethod
    def from_angles(cls, angles: Sequence[Angle], degree: int) -> Optional["RotationSet"]:
        """Classify an angle set; None when it is not a rotation set."""
        found = classify_rotation_set(angles, degree)
        if found is None:
            return None
        return cls(degree, tuple(angles), found[0])

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


def classify_rotation_set(angles: Sequence[Angle], degree: int) -> Optional[tuple[int, int]]:
    """Find the unique shift m with f_d(theta_i) = theta_((i+m) mod n).

    Returns (m, n) with 0 <= m < n, or None when no shift works.  The input
    must be strictly increasing in [0, 1); anything else raises
    MalformedSetError.
    """
    d = check_degree(degree)
    th = as_angle_tuple(angles)
    n = len(th)
    # f**n fixes every angle of a rotation set, so each denominator divides
    # d**n - 1; testing that first bounds the common denominator below
    if any((pow(d, n, a.denominator) - 1) % a.denominator for a in th):
        return None
    q, xs = _scaled(th)
    index = {x: i for i, x in enumerate(xs)}
    m = index.get(d * xs[0] % q)
    if m is None:
        return None
    for i, x in enumerate(xs):
        if index.get(d * x % q) != (i + m) % n:
            return None
    return m, n


def deployment_vector(rs: RotationSet) -> tuple[int, ...]:
    """Counts of the set's angles in the d-1 half-open arcs between fixed angles.

    Entry i counts angles in [i/(d-1), (i+1)/(d-1)); for degree 2 the single
    entry counts everything.
    """
    counts = [0] * (rs.degree - 1)
    for a in rs.angles:
        counts[int(a * (rs.degree - 1))] += 1
    return tuple(counts)


def _shapes(d: int, max_cardinality: int, max_period: int):
    """Each (n, m) with n <= max_cardinality, g = gcd(m, n) <= d-1 and
    n/g <= max_period, walked as (period, g, reduced shift)."""
    for p in range(1, min(max_period, max_cardinality) + 1):
        for g in range(1, min(d - 1, max_cardinality // p) + 1):
            for r in range(p):
                if gcd(r, p) == 1:
                    yield g * p, g * r


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
    """How many (n, m, deployment) triples ``_shapes`` leads to, counted per
    (period p, g) as phi(p) reduced shifts times C(gp+d-2, d-2) deployments.
    Counting stops as soon as the total passes the ceiling."""
    count = 0
    for p in range(1, min(max_period, max_cardinality) + 1):
        phi = _totient(p)
        for g in range(1, min(d - 1, max_cardinality // p) + 1):
            count += phi * comb(g * p + d - 2, d - 2)
            if count > _CANDIDATE_CEILING:
                return count
    return count


def _deployments(n: int, blocks: int):
    """Every blocks-tuple of non-negative integers summing to n, by an
    odometer rather than recursion, so a large degree cannot exhaust the stack."""
    counts = [0] * (blocks - 1) + [n]
    while True:
        yield tuple(counts)
        i = blocks - 2
        while i >= 0 and counts[-1] == 0:
            counts[-1], counts[i] = counts[i], 0
            i -= 1
        if i < 0:
            return
        counts[i], counts[-1] = counts[i] + 1, counts[-1] - 1


def enumerate_rotation_sets(degree: int, max_cardinality: int, max_period: int) -> list[RotationSet]:
    """Every degree-d rotation set with cardinality and element period bounded.

    A rotation set of shift m and cardinality n is a union of g = gcd(m, n)
    orbits of exact period n/g, and g <= d-1 (Goldberg, Part I).  Every such
    (n, m) is tried with every deployment through Goldberg's closed form
    (``generate_rotation_set``).  The candidate triples are counted first,
    by Euler's phi rather than by walking the shifts; more than the ceiling
    raise CapacityError before any set is built.

    The result is sorted lexicographically by angle tuple.
    """
    d = check_degree(degree)
    if max_cardinality < 1:
        raise ValueError(f"max_cardinality must be >= 1, got {max_cardinality}")
    if max_period < 1:
        raise ValueError(f"max_period must be >= 1, got {max_period}")

    if _candidate_count(d, max_cardinality, max_period) > _CANDIDATE_CEILING:
        raise CapacityError(
            f"degree-{d} rotation sets with cardinality <= {max_cardinality} and "
            f"period <= {max_period} need over {_CANDIDATE_CEILING} candidates")
    found = (generate_rotation_set(d, n, m, dep)
             for n, m in _shapes(d, max_cardinality, max_period)
             for dep in _deployments(n, d - 1))
    return sorted((rs for rs in found if rs is not None), key=lambda rs: rs.angles)


def generate_rotation_set(degree: int, cardinality: int, shift: int,
                          deployment: Sequence[int]) -> Optional[RotationSet]:
    """The unique rotation set with the given shift, cardinality and deployment.

    Goldberg's closed form (module docstring) gives the only candidate in
    O(n * p) steps.  It is returned if it is strictly increasing in [0, 1),
    rotates by ``shift`` and has ``deployment``; otherwise no rotation set has
    these data and the result is None (so whenever the deployment does not
    sum to the cardinality).
    """
    d = check_degree(degree)
    n = cardinality
    if n < 1:
        raise ValueError(f"cardinality must be >= 1, got {n}")
    if not 0 <= shift < n:
        raise ValueError(f"shift must satisfy 0 <= shift < {n}, got {shift}")
    dep = tuple(int(c) for c in deployment)
    if len(dep) != d - 1:
        raise ValueError(f"deployment needs {d - 1} entries, got {len(dep)}")
    if any(c < 0 for c in dep):
        raise ValueError("deployment entries must be non-negative")
    if sum(dep) != n:
        return None

    blocks = [b for b, c in enumerate(dep) for _ in range(c)]
    digits = [blocks[i] + (i + shift >= n) for i in range(n)]
    p = n // gcd(shift, n)
    q = d ** p - 1
    powers = [d ** (p - 1 - j) for j in range(p)]
    numerators = [sum(digits[(i + j * shift) % n] * w for j, w in enumerate(powers))
                  for i in range(n)]
    if numerators[-1] >= q or any(a >= b for a, b in zip(numerators, numerators[1:])):
        return None
    rs = RotationSet(d, tuple(Fraction(x, q) for x in numerators), shift)
    if classify_rotation_set(rs.angles, d) != (shift, n) or deployment_vector(rs) != dep:
        return None
    return rs
