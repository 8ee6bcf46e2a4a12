"""From edge lengths to sparse polynomial systems.

Each edge becomes a quadratic distance equation; four pinning equations
remove translations and rotations. Substituting s_i for x_i^2 + y_i^2
raises the degree product but shrinks the Newton polytopes, which is
the whole point: solution counts are bounded by mixed volumes of those
polytopes, not by degrees.
"""

from lamanmv import (
    Framework,
    bezout,
    build_soe,
    build_subsoe,
    newton_polytopes,
    triangle,
    witness_check,
)

fw = Framework.make(triangle(), {(1, 2): 3, (1, 3): 4, (2, 3): 5})

soe = build_soe(fw)
print("Distance system:", len(soe.polys), "equations in", soe.nvars, "unknowns")
print("  degrees:", [p.total_degree() for p in soe.polys])
print("  degree product:", bezout(soe))

sub = build_subsoe(fw)
print("Substituted system:", len(sub.polys), "equations in", sub.nvars, "unknowns")
print("  degree product:", bezout(sub))

print("\nNewton polytope vertex counts (distance system):",
      [p.nvertices for p in newton_polytopes(soe)])

# The distance system is degenerate for root counting: an explicit
# face direction admits a solution with all coordinates nonzero, so the
# mixed volume is a strict upper bound on the embedding count.
print("\nDegeneracy witness verifies exactly:", witness_check(soe))
