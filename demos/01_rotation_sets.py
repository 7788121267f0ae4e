"""Rotation sets of the d-fold circle map, hands on.

Multiplying by d permutes certain finite angle sets like a rigid rotation.
This script classifies a few sets, reads off their deployment vectors, runs
the exhaustive enumerator, and regenerates a set from its three determinants
alone.
"""

from fractions import Fraction as F

from portraits import (classify_rotation_set, deployment_vector,
                       enumerate_rotation_sets, format_angle,
                       generate_rotation_set)

# --- classification ---------------------------------------------------------
# {1/8, 5/8} under multiplication by 5: 1/8 -> 5/8 -> 25/8 = 1/8, so the two
# angles trade places: shift 1 of 2, rotation number 1/2.
print("f_5 on 1/8:", 5 * F(1, 8) % 1)
print("f_5 on 5/8:", 5 * F(5, 8) % 1)
print("classify {1/8, 5/8} at degree 5:",
      classify_rotation_set((F(1, 8), F(5, 8)), 5))

# {1/8, 1/4} is not a rotation set: 5 * 1/8 = 5/8 leaves the set.
print("classify {1/8, 1/4} at degree 5:",
      classify_rotation_set((F(1, 8), F(1, 4)), 5))

# --- deployment vectors ------------------------------------------------------
# positions relative to the 4 fixed angles 0, 1/4, 1/2, 3/4 of degree 5
from portraits import RotationSet

angles = (F(1, 8), F(5, 8))
shift, _ = classify_rotation_set(angles, 5)
rs = RotationSet(5, angles, shift)
print("deployment of {1/8, 5/8}:", deployment_vector(rs))

# --- enumeration -------------------------------------------------------------
print("\nall degree-3 rotation sets with element period <= 2:")
for rs in enumerate_rotation_sets(3, 6, 2):
    angles = " ".join(format_angle(a) for a in rs.angles)
    print(f"  n={rs.cardinality} m={rs.shift} "
          f"deployment={deployment_vector(rs)}  {{{angles}}}")

# --- uniqueness --------------------------------------------------------------
# a rotation set is pinned down by (shift, cardinality, deployment); ask for
# those three numbers and the angles come back
again = generate_rotation_set(5, 2, 1, (1, 0, 1, 0))
print("\nregenerated from (m=1, n=2, deployment=(1,0,1,0)):",
      [format_angle(a) for a in again.angles])

# an inconsistent request (deployment sums to 3, not 2) finds nothing
print("inconsistent request:", generate_rotation_set(5, 2, 1, (3, 0, 0, 0)))
