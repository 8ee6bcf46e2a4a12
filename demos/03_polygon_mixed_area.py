"""Mixed areas, coherent subdivisions, and the cell certificate idea.

The mixed area of two polygons is what the area of a Minkowski sum
gains over the summands. A random lifting subdivides the sum into
cells; the mixed cells (edge plus edge) carry exactly that gain, and
each one is certified by an exact strict margin.
"""

from fractions import Fraction

from lamanmv import (
    RationalPolytope,
    minkowski_sum,
    mixed_volume,
    mv_inclusion_exclusion,
    volume_exact,
)

P = RationalPolytope.from_points([(0, 0), (3, 0), (0, 2), (3, 2)])
Q = RationalPolytope.from_points([(1, 0), (0, Fraction(3, 2)), (3, 3)])

S = minkowski_sum(P, Q)
print("area(P) =", volume_exact(P), " area(Q) =", volume_exact(Q))
print("area(P+Q) =", volume_exact(S), "with", S.nvertices, "vertices")
print("mixed area by the area identity:", volume_exact(S) - volume_exact(P) - volume_exact(Q))
print("mixed area by inclusion-exclusion:", mv_inclusion_exclusion([P, Q]))

res = mixed_volume([P, Q], seed=0)
print("mixed area by cell enumeration:", res.value)
for rec in res.cells:
    print("  mixed cell with |det| =", abs(rec.det))
