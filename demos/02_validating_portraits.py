"""What makes a family of rotation sets a valid fixed point portrait.

A portrait must pass four conditions: every set rotates (P1), the sets are
pairwise disjoint and unlinked (P2), the rotation-number-zero sets cover the
fixed angles exactly (P3), and any two rotating sets are separated by a
zero set (P4).  This script trips each condition on purpose.
"""

from fractions import Fraction as F

from portraits import Portrait, validate_portrait


def show(label, portrait):
    result = validate_portrait(portrait)
    print(f"{label}: {'ok' if result.ok else 'INVALID'}")
    for v in result.violations:
        print(f"    {v.code}: {v.message}")
    for n in result.notes:
        print(f"    note: {n}")


# the good one: a degree-5 portrait with one rotating pair
good = Portrait.create(5, [[F(0), F(3, 4)], [F(1, 8), F(5, 8)],
                           [F(1, 4)], [F(1, 2)]])
show("degree-5 example", good)

# P1: {1/8, 1/4} is not permuted by multiplication by 5
show("\nnon-rotating member", Portrait.create(5, [[F(1, 8), F(1, 4)]]))

# P2: {0, 1/2} and {1/4, 3/4} interleave, so their hulls cross
show("\ncrossing chords", Portrait.create(5, [[F(0), F(1, 2)], [F(1, 4), F(3, 4)]]))

# P3: nothing covers the fixed angles 0, 1/4, 1/2, 3/4
show("\nuncovered fixed angles", Portrait.create(5, [[F(1, 8), F(5, 8)]]))

# P4: two rotating pairs, but the zero sets are singletons and a singleton
# never separates anything
show("\nunseparated rotating pairs",
     Portrait.create(3, [[F(0)], [F(1, 2)],
                         [F(1, 8), F(3, 8)], [F(5, 8), F(7, 8)]]))
# joined into the chord {0, 1/2}, the zero set puts the pairs in different gaps
show("separated rotating pairs",
     Portrait.create(3, [[F(0), F(1, 2)],
                         [F(1, 8), F(3, 8)], [F(5, 8), F(7, 8)]]))
