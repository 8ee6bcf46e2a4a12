"""Realizing every embedding the bound allows.

Each degree-2 vertex addition intersects two circles, so a framework
built that way has at most 2^(n-2) embeddings (the pinned base edge
kills translations and rotations; mirror images count separately).
Choosing every new pair of lengths larger than everything before makes
all intersections real, so the bound is attained exactly.
"""

from lamanmv import (
    enumerate_h1,
    mv_for_graph,
    random_henneberg_sequence,
    tight_lengths,
)
from lamanmv.polysys import FORM_SUBSOE

for n in range(3, 9):
    seq = random_henneberg_sequence(n, seed=n)
    fw = tight_lengths(seq)
    embs = list(enumerate_h1(fw, seq))
    worst = max(e.residual for e in embs)
    print(f"n={n}: {len(embs):3d} embeddings = 2^{n - 2}, "
          f"max relative residual {worst:.1e}")

seq = random_henneberg_sequence(5, seed=4)
fw = tight_lengths(seq)
embs = list(enumerate_h1(fw, seq))
print("\nEvery edge length is met to a relative 1e-9:",
      all(e.residual <= 1e-9 for e in embs))
print("Count equals the substituted-system bound:",
      len(embs) == mv_for_graph(fw, FORM_SUBSOE, seed=0).value)

one = embs[0]
print("\nOne of the", len(embs), "placements (vertex: x, y):")
for v, (x, y) in sorted(one.points.items()):
    print(f"  {v}: {x:10.4f} {y:10.4f}")
