"""Deciding minimal rigidity and recovering construction sequences.

A graph on n vertices with 2n-3 edges is minimally rigid in the plane
(for generic edge lengths) exactly when no vertex subset spans too many
edges. The fast check is a pebble game; failures come with an explicit
violating subset.
"""

from lamanmv import (
    Graph,
    StepII,
    all_laman_graphs,
    check_laman,
    classify,
    desargues_graph,
    henneberg_apply,
    henneberg_decompose,
    k33_graph,
    triangle,
)

print("Triangle:", check_laman(triangle()))

k4 = Graph.make(4, [(a, b) for a in range(1, 5) for b in range(a + 1, 5)])
out = check_laman(k4)
print("K4 is overbraced; witness subset:", out["witness"])

print("Complete bipartite 3x3:", check_laman(k33_graph())["laman"])
print("Triangular prism:", check_laman(desargues_graph())["laman"])

print("\nCatalog sizes up to isomorphism, grown from the single edge by Henneberg steps:")
for n in range(3, 9):
    graphs = all_laman_graphs(n)
    kinds = [classify(g) for g in graphs]
    print(f"  n={n}: {len(graphs)} graphs, {kinds.count('HennebergII')} need an edge swap")

print("\nA construction sequence for the 3x3 bipartite graph:")
dec = henneberg_decompose(k33_graph())
for i, step in enumerate(dec.sequence.steps):
    if isinstance(step, StepII):
        print(f"  vertex {i+4}: degree-3 addition onto {step.a},{step.b},{step.c}, "
              f"removing {step.removed}")
    else:
        print(f"  vertex {i+4}: degree-2 addition onto {step.a},{step.b}")
replay = henneberg_apply(dec.sequence)
print("Replay matches original:", replay.relabel(dec.relabeling).edges == k33_graph().edges)
