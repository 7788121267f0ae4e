"""Degree-d rotation sets: classification and Goldberg's closed form.

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
b_0 <= ... <= b_(n-1): recovery appends a block per sector, and in
``enumeration`` (which building a portrait never loads) generation expands
its d-1 counts into it once and the enumerations list cycles.

Classification runs on integers.  The covering map's n-th iterate fixes
every angle of an n-element rotation set, so every denominator divides
d**n - 1; a set failing that is refused before anything is multiplied out.
The angles are then numerators x over their common denominator q, and the
image of x/q is (d*x mod q)/q.  One kernel, ``_shift``, serves
``classify_rotation_set`` and the validator; generation needs none.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .angles import Angle, as_angle_tuple, check_degree


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
