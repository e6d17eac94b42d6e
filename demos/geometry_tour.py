"""Tour of the convex-geometry kernel.

Walks through the pieces the learner is built from: supported hyperplanes
through small point sets, each a halfspace and its opposite, affine spans,
hull facets, feasibility of halfspace intersections, and small
infeasibility witnesses.
"""

import numpy as np

from ppmlearn import (
    AffineSubspace,
    Halfspace,
    affine_span,
    helly_witness,
    hull_facet_halfspaces,
    region_feasible,
    supporting_hyperplanes,
)

print("== supported halfspace pairs ==")
# one row (W, w0) per point subset, given as row indices into the points
W, w0 = supporting_hyperplanes([(1.0, 0.0), (0.0, 1.0)], [[0, 1]])
h = Halfspace(W[0], w0[0])
h_op = h.opposite()
print(f"through (1,0) and (0,1): {h}")
print(f"its opposite:            {h_op}")
print(f"both contain the midpoint on their shared hyperplane: "
      f"{h.contains([0.5, 0.5])}, {h_op.contains([0.5, 0.5])}")

# an underdetermined set: one point in R^3 still gets a deterministic plane
W, w0 = supporting_hyperplanes([(3.0, -1.0, 2.0)], [[0]])
h1 = Halfspace(W[0], w0[0])
print(f"single point in R^3 -> {h1}")

print()
print("== affine spans ==")
line = affine_span([(0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2.0, 2.0, 0.0)], 3)
print(f"three collinear points span a k={line.k} subspace")
print(f"(5,5,0) on the line: {line.contains([5.0, 5.0, 0.0])}, "
      f"(5,5,1) off it: {line.contains([5.0, 5.0, 1.0])}")

print()
print("== hull facets ==")
rng = np.random.default_rng(7)
pts = rng.standard_normal((8, 2))
aff = affine_span(pts, 2)
facets = hull_facet_halfspaces(pts, aff)
print(f"8 random points -> {len(facets)} facet halfspaces; every point is "
      f"inside all of them: "
      f"{all(bool(np.all(f.contains_many(pts))) for f in facets)}")

print()
print("== feasibility and witnesses ==")
box = [Halfspace([1.0, 0.0], 0.0), Halfspace([-1.0, 0.0], -1.0),
       Halfspace([0.0, 1.0], 0.0), Halfspace([0.0, -1.0], -1.0)]
feasible, witness = region_feasible(box, AffineSubspace.full_space(2))
print(f"unit box feasible: {feasible}, witness {witness}")

# a halfspace far to the right of the hull cannot meet it; Helly promises a
# small sub-collection already showing that
target = Halfspace([1.0, 0.0], float(pts[:, 0].max()) + 1.0)
wit = helly_witness(facets, aff, target, 2)
print(f"separating witness uses {len(wit.indices)} of {len(facets)} facets "
      f"(indices {wit.indices})")
sub = [m for m in wit.members if isinstance(m, Halfspace)]
feasible, _ = region_feasible(sub + [target], AffineSubspace.full_space(2))
print(f"witness intersection with the target is empty: {not feasible}")
