"""The closed-form bound 4^(n-2) for the distance system.

The degree product bounds the mixed volume from above. For the lower
bound no enumeration is needed: ordering the quadratics along an
orientation with two incoming edges per free vertex exposes one huge
mixed cell (edge matrix diag(1,1,1,1,2,..,2)), and an explicit lifting
certifies it. The two bounds meet, for every minimally rigid graph,
whatever the (positive) edge lengths.
"""

import time

from lamanmv import (
    Framework,
    build_soe,
    certify_general_bound,
    desargues_graph,
    henneberg_apply,
    k33_graph,
    orient_two_in,
    random_henneberg_sequence,
    triangle,
)


def distance_system(g):
    """The distance system of g with unit lengths."""
    return build_soe(Framework.make(g, {e: 1 for e in g.edges}))


print("Orientation of the triangle pinned at (1,2):",
      orient_two_in(triangle(), (1, 2)).heads)

for name, g in (("triangle", triangle()),
                ("prism", desargues_graph()),
                ("bipartite 3x3", k33_graph())):
    res = certify_general_bound(distance_system(g))
    print(f"{name}: mixed volume {res.value} = 4^{g.n - 2}, "
          f"cell determinant {abs(res.cells[0].det)}")

print("\nScaling with the vertex count (certificate only, no search):")
for n in range(4, 11):
    g = henneberg_apply(random_henneberg_sequence(n, seed=n, step2_probability=0.5))
    t0 = time.perf_counter()
    res = certify_general_bound(distance_system(g))
    print(f"  n={n:2d}: {int(res.value):>8} in {time.perf_counter() - t0:.3f}s")
