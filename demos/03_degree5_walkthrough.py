"""From a degree-5 portrait to its tree and back, step by step.

The construction: sort all angles, cut the circle into elementary arcs,
group arcs into disk regions (same gap of every member set), hang one
interior vertex per region, join it to the sets on its boundary, and endow
the result with circular orders, angles, local degrees and dynamics.  The
recovery: walk counterclockwise around the tree, label the fixed sectors
with the fixed angles, and rebuild each rotating set from its sector data.
"""

from fractions import Fraction as F

from portraits import (Portrait, boundary_walk, check_degree_angle,
                       check_expanding, check_tree_axioms, classify_vertices,
                       construct_tree, count_fixed_points, format_angle,
                       recover_portrait)

portrait = Portrait.create(5, [[F(0), F(3, 4)], [F(1, 8), F(5, 8)],
                               [F(1, 4)], [F(1, 2)]])
print("portrait: degree 5 with sets", [
    "{" + " ".join(format_angle(a) for a in s) + "}" for s in portrait.sets])

# one call validates the portrait and builds everything below
ct = construct_tree(portrait)

# step 1: the six support angles cut the circle into six arcs
arcs = sorted((a for r in ct.regions for a in r.arcs), key=lambda a: a.start)
print("\nelementary arcs:",
      [f"({format_angle(a.start)},{format_angle(a.end)})" for a in arcs])

# step 2: arcs that no chord system separates merge into regions
for r in ct.regions:
    pieces = " ".join(f"({format_angle(a.start)},{format_angle(a.end)})"
                      for a in r.arcs)
    print(f"region R{r.index}: arcs {pieces} | boundary sets "
          f"{r.boundary_sets} | capacity {r.cc}")

# step 3: the tree; local degree at a region vertex is capacity + 1, which
# makes the total degree come out at 5
t = ct.tree
print("\nvertices:", t.vertices)
print("edges:", t.edges)
print("local degrees:", t.delta)
print("dynamics:", {v: t.tau[v] for v in t.vertices if t.tau[v] != v},
      "(all other vertices fixed)")
print("total degree:", t.total_degree())
print("fixed vertices:", count_fixed_points(t))

# step 4: every axiom holds
classes = classify_vertices(t)
print("\nkinds:", {v: classes[v].kind for v in t.vertices})
print("tree axioms:", "ok" if not check_tree_axioms(t) else "FAIL")
print("degree-angle:", "ok" if not check_degree_angle(t) else "FAIL")
print("expanding:", "ok" if check_expanding(t, classes)[0] else "FAIL")

# step 5: the boundary walk visits all 12 sectors, the set-vertex sectors in
# the circle order of their rays
walk = boundary_walk(ct)
print("\nwalk:", " -> ".join(f"{s.vertex}[{s.index}]" for s in walk))

# step 6: recovery uses only the tree and the marked sector
recovered = recover_portrait(ct)
print("\nrecovered:", [
    "{" + " ".join(format_angle(a) for a in s) + "}" for s in recovered.sets])
print("round trip exact:", recovered == portrait)
