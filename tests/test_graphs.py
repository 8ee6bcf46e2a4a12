import gc
import itertools
import random
import time
import weakref

import pytest
import reference_henneberg
from reference_henneberg import laman_oracle

from lamanmv import graphs, polysys
from lamanmv.errors import CapabilityError, InputError, SequenceError
from lamanmv.graphs import (
    HENNEBERG_I,
    HENNEBERG_II,
    Framework,
    Graph,
    HennebergSequence,
    StepI,
    StepII,
    _peel_search,
    all_laman_graphs,
    canonical_form,
    check_laman,
    classify,
    desargues_graph,
    h1_decomposition,
    henneberg_apply,
    henneberg_decompose,
    k33_graph,
    orient_two_in,
    random_henneberg_sequence,
    triangle,
)


def k4():
    return Graph.make(4, [(a, b) for a in range(1, 5) for b in range(a + 1, 5)])


def test_triangle_is_laman():
    assert check_laman(triangle()) == {"laman": True, "witness": None}


def test_k33_and_desargues_are_laman():
    assert check_laman(k33_graph())["laman"]
    assert check_laman(desargues_graph())["laman"]


def test_k4_witness_is_whole_vertex_set():
    out = check_laman(k4())
    assert not out["laman"]
    assert out["witness"] == [1, 2, 3, 4]


def test_graph_facts_are_kept_per_graph_and_handed_out_as_copies():
    g = k4()
    out = check_laman(g)
    out["laman"] = True
    out["witness"].append(9)
    assert check_laman(g) == {"laman": False, "witness": [1, 2, 3, 4]}
    seq = random_henneberg_sequence(7, seed=3)
    h = henneberg_apply(seq)
    h1_decomposition(h).relabeling.clear()
    henneberg_decompose(h).relabeling.clear()
    assert len(h1_decomposition(h).relabeling) == len(henneberg_decompose(h).relabeling) == 7
    for make in (k4, k33_graph, lambda: henneberg_apply(seq)):
        a, b = make(), make()
        assert check_laman(a) == check_laman(b)
        # The memos stay out of equality, hashing and repr.
        assert (a, hash(a), repr(a)) == (b, hash(b), repr(b))
    # No cache outside the graph keeps it alive.
    ref = weakref.ref(h)
    del h
    gc.collect()
    assert ref() is None


def test_witness_actually_violates():
    g = Graph.make(5, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5)])
    out = check_laman(g)
    assert not out["laman"]
    sub = set(out["witness"])
    spanned = sum(1 for a, b in g.edges if a in sub and b in sub)
    assert spanned > 2 * len(sub) - 3


def test_malformed_graph_rejected():
    with pytest.raises(InputError):
        Graph.make(3, [(1, 4)])
    with pytest.raises(InputError):
        Graph.make(3, [(2, 2)])
    with pytest.raises(InputError):
        Graph.make(3, [(1, 2), (2, 1)])


def test_oracle_matches_examples():
    assert laman_oracle(triangle())
    assert laman_oracle(desargues_graph())
    assert not laman_oracle(Graph.make(4, [(1, 2), (2, 3), (3, 4)]))


def test_oracle_cap():
    g = Graph.make(13, [(i, i + 1) for i in range(1, 13)])
    with pytest.raises(CapabilityError):
        laman_oracle(g)


def test_apply_base_triangle():
    assert henneberg_apply(HennebergSequence(())).edges == triangle().edges


def test_apply_single_step1():
    g = henneberg_apply(HennebergSequence((StepI(1, 3),)))
    assert g.sorted_edges() == [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]


def test_apply_step2_removes_edge():
    seq = HennebergSequence((StepI(1, 3), StepII(1, 2, 4, removed=(1, 2))))
    g = henneberg_apply(seq)
    assert g.n == 5
    assert (1, 2) not in g.edges
    assert len(g.edges) == 2 * 5 - 3
    assert check_laman(g)["laman"]


def test_apply_step1_then_step2_reaches_six_vertices():
    seq = HennebergSequence(
        (
            StepI(1, 3),
            StepI(3, 4),
            StepII(3, 5, 2, removed=(3, 5)),
        )
    )
    g = henneberg_apply(seq)
    assert g.n == 6 and len(g.edges) == 9
    assert check_laman(g)["laman"]


def test_apply_rejects_missing_vertex():
    with pytest.raises(SequenceError, match=r"^step 1 references missing vertex 9$"):
        henneberg_apply(HennebergSequence((StepI(1, 9),)))


def test_apply_rejects_missing_removed_edge():
    with pytest.raises(SequenceError, match=r"^step 2 removes non-existent edge \(1, 2\)$"):
        henneberg_apply(HennebergSequence((StepII(1, 2, 3, removed=(1, 2)), StepII(1, 2, 4, removed=(1, 2)))))


def test_apply_reports_a_missing_anchor_before_a_missing_edge():
    # Step 2's anchor 9 does not exist and neither does its removed edge
    # (1, 2), which step 1 took away: the anchor is reported.
    steps = (StepII(1, 2, 3, removed=(1, 2)), StepII(1, 2, 9, removed=(1, 2)))
    with pytest.raises(SequenceError, match=r"^step 2 references missing vertex 9$"):
        henneberg_apply(HennebergSequence(steps))


def test_apply_rejects_an_unknown_step_type():
    with pytest.raises(SequenceError, match=r"^unknown step type tuple$"):
        henneberg_apply(HennebergSequence((StepI(1, 2), (1, 2))))


def test_every_prefix_is_laman():
    seq = random_henneberg_sequence(8, seed=3, step2_probability=0.5)
    for t in range(len(seq.steps) + 1):
        prefix = HennebergSequence(seq.steps[:t])
        assert check_laman(henneberg_apply(prefix))["laman"]


def test_random_sequence_matches_replaying_reference():
    for n, seed, p in itertools.product((3, 4, 5, 12, 40), range(6), (0, 0.5, 0.9)):
        expected = reference_henneberg.random_henneberg_sequence(n, seed, p)
        assert random_henneberg_sequence(n, seed, p) == expected


def test_random_sequence_is_not_replayed_per_step():
    # Replaying the sequence at every step took seconds at n = 3,000.
    start = time.process_time()
    seq = random_henneberg_sequence(3000, seed=1, step2_probability=0.5)
    assert time.process_time() - start < 1
    assert len(henneberg_apply(seq).edges) == 2 * 3000 - 3


def test_degree2_peel_is_linear():
    # Recounting every degree at each peel took 1.5 s at n = 2,000.
    g = henneberg_apply(random_henneberg_sequence(2000, seed=1))
    assert check_laman(g)["laman"]  # the verdict's game, outside the timing
    start = time.process_time()
    peels = _peel_search(g)
    assert time.process_time() - start < 0.3
    assert len(peels) == 1997 and all(kind == "I" for kind, *_ in peels)


def test_peel_tests_joins_on_the_carried_pebbles():
    # A whole pebble game on a relabelled copy per join candidate took
    # 8.1 s at n = 4,000.
    g = henneberg_apply(random_henneberg_sequence(4000, seed=5, step2_probability=0.3))
    start = time.process_time()
    dec = henneberg_decompose(g)
    assert time.process_time() - start < 1.5
    assert not dec.sequence.is_step1_only()
    assert henneberg_apply(dec.sequence).relabel(dec.relabeling).edges == g.edges


def test_decompose_triangle_empty():
    dec = henneberg_decompose(triangle())
    assert dec.sequence.steps == ()


def test_decompose_roundtrip_random_step1():
    for seed in range(5):
        seq = random_henneberg_sequence(7, seed=seed)
        g = henneberg_apply(seq)
        dec = henneberg_decompose(g)
        assert all(isinstance(s, StepI) for s in dec.sequence.steps)
        replay = henneberg_apply(dec.sequence)
        assert canonical_form(replay) == canonical_form(g)
        # the relabeling is an explicit isomorphism
        assert replay.relabel(dec.relabeling).edges == g.edges


def test_decompose_k33_contains_step2():
    dec = henneberg_decompose(k33_graph())
    assert any(isinstance(s, StepII) for s in dec.sequence.steps)
    replay = henneberg_apply(dec.sequence)
    assert replay.relabel(dec.relabeling).edges == k33_graph().edges


def test_decompose_rejects_non_laman():
    g = k4()
    fw = Framework.make(g, dict.fromkeys(g.edges, 1))
    # A failed memo is not kept: the second call raises as the first did.
    for _ in range(2):
        for call in (lambda: henneberg_decompose(g), lambda: h1_decomposition(g),
                     lambda: polysys.build_subsoe(fw)):
            with pytest.raises(InputError, match="graph is not Laman"):
                call()


def _greedy_degree2_peel(g):
    """True iff peeling any degree-2 vertex, again and again, leaves three.

    Removing any degree-2 vertex of a degree-2-constructible graph leaves
    a degree-2-constructible graph, so this needs no backtracking.
    """
    edges, vertices = set(g.edges), set(range(1, g.n + 1))
    while len(vertices) > 3:
        v = next((v for v in sorted(vertices) if sum(v in e for e in edges) == 2), None)
        if v is None:
            return False
        edges = {e for e in edges if v not in e}
        vertices.remove(v)
    return True


def test_classify():
    assert classify(triangle()) == HENNEBERG_I
    assert classify(desargues_graph()) == HENNEBERG_II
    assert classify(k33_graph()) == HENNEBERG_II
    assert classify(Graph.make(2, [(1, 2)])) is None  # below the triangle
    graphs = [g for n in range(3, 7) for g in all_laman_graphs(n)]
    graphs += [
        henneberg_apply(random_henneberg_sequence(4 + seed % 6, seed, step2_probability=0.5))
        for seed in range(300)
    ]
    assert len(graphs) == 318
    classes = []
    for g in graphs:
        peels = reference_henneberg.peel_search(set(g.edges), set(range(1, g.n + 1)), True)
        cls = classify(g)
        assert cls == (HENNEBERG_I if peels is not None else HENNEBERG_II)
        assert (cls == HENNEBERG_I) == _greedy_degree2_peel(g)
        # The class is read off the one peel's sequence, which is the
        # degree-2 decomposition exactly when it has no degree-3 step.
        general = henneberg_decompose(g)
        assert (cls == HENNEBERG_I) == general.sequence.is_step1_only()
        assert general == (h1_decomposition(g) or general)
        classes.append(cls)
    assert min(classes.count(HENNEBERG_I), classes.count(HENNEBERG_II)) >= 30


def test_first_henneberg2_graphs_arise_on_six_vertices():
    for n in range(3, 6):
        for g in all_laman_graphs(n):
            assert classify(g) == HENNEBERG_I
    classes = [classify(g) for g in all_laman_graphs(6)]
    assert classes.count(HENNEBERG_II) == 2


# The one n = 8 catalog graph whose greedy peel rejects neighbour joins.
JOINS8 = Graph.make(8, [(1, 2), (1, 5), (1, 6), (1, 7), (1, 8), (2, 3), (2, 4),
                        (3, 5), (3, 7), (4, 6), (4, 8), (5, 7), (6, 8)])


def _shuffled(g, rng):
    return g.relabel(dict(zip(range(1, g.n + 1), rng.sample(range(1, g.n + 1), g.n))))


def test_greedy_peel_matches_backtracking_reference(monkeypatch):
    # Laman's theorem: the first candidate the backtracking search tries
    # always succeeds, so the greedy peel returns the same records. A
    # rejected join has already moved pebbles of the carried state when
    # the next pair is tried; the reference plays a fresh game per pair.
    rejected = 0

    def counted(out, u, v, insert=graphs._insert_edge):
        nonlocal rejected
        witness = insert(out, u, v)
        rejected += witness is not None
        return witness

    monkeypatch.setattr(graphs, "_insert_edge", counted)
    rng = random.Random(15)
    small = [g for n in range(3, 8) for g in all_laman_graphs(n)]
    for seed in range(300):
        g = henneberg_apply(random_henneberg_sequence(4 + seed % 10, seed, step2_probability=rng.random()))
        small.append(_shuffled(g, rng))
    small += [JOINS8] + [_shuffled(JOINS8, rng) for _ in range(4)]
    large = [
        henneberg_apply(random_henneberg_sequence(n, seed, step2_probability=0.3))
        for n in (30, 60, 100)
        for seed in range(10)
    ]
    no_h1 = with_step2 = 0
    for g in small + large:
        args = (set(g.edges), set(range(1, g.n + 1)))
        peels = _peel_search(g)
        assert peels == reference_henneberg.peel_search(*args, False)
        step1_only = all(kind == "I" for kind, *_ in peels)
        with_step2 += not step1_only
        # The degree-2-only reference backtracks over removal orders, so
        # it decides the class on the small graphs only.
        if g.n < 15:
            assert reference_henneberg.peel_search(*args, True) == (peels if step1_only else None)
            no_h1 += not step1_only
    assert no_h1 >= 30 and with_step2 >= 60 and rejected >= 10


def test_canonical_form_splits_like_the_degree_class_reference():
    rng = random.Random(16)
    graphs = [g for n in range(2, 8) for g in all_laman_graphs(n)]
    for _ in range(500):
        n = rng.randint(1, 7)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        graphs.append(Graph.make(n, rng.sample(pairs, rng.randint(0, len(pairs)))))
    for n in range(3, 7):
        graphs.append(Graph.make(n, [(v, v % n + 1) for v in range(1, n + 1)]))
        graphs.append(Graph.make(n, itertools.combinations(range(1, n + 1), 2)))
    graphs += [k33_graph(), desargues_graph()]
    # Refinement leaves C3 + C4 one cell, which is not an orbit: the form
    # must try every vertex of it, whichever cycle gets the low labels.
    graphs.append(Graph.make(7, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7)]))
    graphs.append(Graph.make(7, [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7), (5, 7)]))
    graphs += [g.relabel(dict(zip(range(1, g.n + 1), rng.sample(range(1, g.n + 1), g.n)))) for g in graphs]
    forms = {(g.n, canonical_form(g), reference_henneberg.canonical_form(g)) for g in graphs}
    # Two graphs share a form exactly when they share a reference form.
    assert len({(n, new) for n, new, _ in forms}) == len(forms) == len({(n, ref) for n, _, ref in forms})
    assert len(forms) > 200


def test_catalog_growth_matches_brute_force():
    for n in range(1, 7):
        grown = {reference_henneberg.canonical_form(g) for g in all_laman_graphs(n)}
        assert len(grown) == len(all_laman_graphs(n))
        assert grown == reference_henneberg.brute_force_catalog(n)


def test_catalog_counts():
    # OEIS A227117.
    assert [len(all_laman_graphs(n)) for n in range(3, 10)] == [1, 1, 3, 13, 70, 608, 7222]
    assert all(check_laman(g)["laman"] for g in all_laman_graphs(9))


def test_catalog_class_split():
    # Degree-2-built graphs against the rest, for the n = 8 and n = 9 tables.
    for n, split in ((8, (499, 109)), (9, (5500, 1722))):
        classes = [classify(g) for g in all_laman_graphs(n)]
        assert (classes.count(HENNEBERG_I), classes.count(HENNEBERG_II)) == split


def test_catalog_cap():
    with pytest.raises(CapabilityError):
        all_laman_graphs(10)


def test_orientation_triangle():
    o = orient_two_in(triangle(), (1, 2))
    assert o.heads == {(1, 3): 3, (2, 3): 3}


def test_orientation_invariants_random():
    rng = random.Random(9)
    for seed in range(6):
        seq = random_henneberg_sequence(rng.randint(4, 8), seed=seed, step2_probability=0.4)
        g = henneberg_apply(seq)
        base = rng.choice(sorted(g.edges))
        o = orient_two_in(g, base)
        assert o.check(g)
        indeg = o.in_degrees(g)
        hist = {v: indeg[v] for v in range(1, g.n + 1)}
        for v in range(1, g.n + 1):
            assert hist[v] == (0 if v in base else 2)


def test_orientation_every_base_of_desargues_and_k33():
    for g in (desargues_graph(), k33_graph()):
        for base in sorted(g.edges):
            assert orient_two_in(g, base).check(g)


def test_orientation_rejects_non_edge():
    with pytest.raises(InputError):
        orient_two_in(triangle(), (1, 5))


def test_orientation_every_base_of_the_catalog():
    for n in range(4, 7):
        for g in all_laman_graphs(n):
            for base in sorted(g.edges):
                assert orient_two_in(g, base).check(g)


def test_orientation_rejects_non_laman_graphs():
    rejected = [k4()]  # too many edges
    for g in all_laman_graphs(5):
        missing = sorted(set(itertools.combinations(range(1, 6), 2)) - g.edges)
        for e in sorted(g.edges):
            # Independent, one edge short.
            rejected.append(Graph.make(5, g.edges - {e}))
            # 2n-3 edges with an overbraced subset.
            for f in missing:
                h = Graph.make(5, (g.edges - {e}) | {f})
                if not check_laman(h)["laman"]:
                    rejected.append(h)
    assert sum(len(h.edges) == 7 for h in rejected) > 10
    for h in rejected:
        for base in sorted(h.edges):
            with pytest.raises(InputError, match="graph is not Laman"):
                orient_two_in(h, base)


def test_orientation_needs_no_construction_sequence(monkeypatch):
    def no_peeling(*args, **kwargs):
        raise AssertionError("orientation ran a peel search")

    monkeypatch.setattr(graphs, "_peel_search", no_peeling)
    heavy = henneberg_apply(random_henneberg_sequence(20, seed=1, step2_probability=0.9))
    for g in (k33_graph(), heavy):
        for base in sorted(g.edges):
            assert orient_two_in(g, base).check(g)
