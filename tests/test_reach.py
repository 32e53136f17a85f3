import random

import pytest

from tempspan import generate, reach, solver
from tempspan import tempgraph as tg
from tempspan.reach import NONSTRICT, STRICT
from tempspan.reductions import SatInstance, sat_to_spanner_instance


def test_chain_arrivals():
    g = tg.build(3, [(0, 1, 2), (1, 2, 5)])
    prof = reach.earliest_arrival(g, 0, 0, STRICT)
    assert prof.arrival == (0, 2, 5)


def test_strictness_boundary():
    g = tg.build(3, [(0, 1, 3), (1, 2, 3)])
    assert reach.earliest_arrival(g, 0, 0, STRICT).arrival[2] is None
    assert reach.earliest_arrival(g, 0, 0, NONSTRICT).arrival[2] == 3


def test_start_parameter_allows_equal_first_label():
    g = tg.build(2, [(0, 1, 3)])
    assert reach.earliest_arrival(g, 0, 3, STRICT).arrival[1] == 3
    assert reach.earliest_arrival(g, 0, 4, STRICT).arrival[1] is None


def test_reduction_graph_start_at_three_reaches_dummy_clause():
    # In the pre-relabel graph, v starting at time 3 reaches the dummy-clause
    # vertex via labels 3, 4, 6, 7.
    out = sat_to_spanner_instance(SatInstance(1, ((1, 1, 1),)))
    v = out.vertex_by_role["v"]
    cx = out.vertex_by_role["cx:0"]
    prof = reach.earliest_arrival(out.pre_relabel, v, 3, STRICT)
    assert prof.arrival[cx] == 7


def test_reach_matrix_trivial():
    assert reach.reach_matrix(tg.build(1, []), STRICT) == [[True]]
    g = tg.build(2, [(0, 1, 1)])
    assert reach.reach_matrix(g, STRICT) == [[True, True], [True, True]]


def test_is_tc_edge_cases():
    assert not reach.is_tc(tg.build(2, []), STRICT)
    assert reach.is_tc(tg.build(1, []), STRICT)
    assert reach.is_tc(tg.build(1, []), NONSTRICT)


def test_reach_monotone_under_edge_addition():
    for seed in range(20):
        g = generate.random_happy_tc(5, seed, edge_prob=0.4)
        if g.m < 2:
            continue
        smaller = list(range(g.m - 1))
        before = reach.reach_masks(g, STRICT, kept=smaller)
        after = reach.reach_masks(g, STRICT)
        for b, a in zip(before, after):
            assert b & a == b  # no reachability is ever lost


def test_strictness_collapses_on_proper_graphs():
    for seed in range(15):
        g = generate.random_happy_tc(6, seed)
        assert reach.reach_matrix(g, STRICT) == reach.reach_matrix(g, NONSTRICT)


def test_foremost_out_tree_star():
    n = 5
    g = tg.build(n, [(0, v, v) for v in range(1, n)])
    tree = reach.foremost_out_tree(g, 0, STRICT)
    assert tree.tree_edges == frozenset(range(n - 1))


def test_foremost_out_tree_chain():
    g = tg.build(3, [(0, 1, 1), (1, 2, 2)])
    assert reach.foremost_out_tree(g, 0, STRICT).tree_edges == frozenset({0, 1})


def test_foremost_out_tree_unreachable():
    g = tg.build(3, [(0, 1, 2), (1, 2, 1)])
    with pytest.raises(reach.RootNotSpanning):
        reach.foremost_out_tree(g, 0, STRICT)


def test_foremost_restriction_preserves_root_reach():
    for seed in range(25):
        g = generate.random_happy_tc(6, seed)
        for root in range(g.vertex_count):
            tree = reach.foremost_out_tree(g, root, STRICT)
            assert len(tree.tree_edges) == g.vertex_count - 1
            prof = reach.earliest_arrival(g, root, 0, STRICT, kept=tree.tree_edges)
            assert None not in prof.arrival


def _figure_tree():
    # A 17-vertex out-tree in the shape of the template-compatibility figure,
    # with labels nudged apart so that the graph is happy.
    edges = [
        (0, 1, 1),  # root - placeholder image
        (1, 2, 3),
        (2, 8, 4),
        (2, 9, 5),
        (0, 3, 4),
        (3, 5, 6),
        (3, 10, 5),
        (3, 11, 10),
        (3, 4, 7),
        (4, 6, 8),
        (6, 12, 9),
        (6, 13, 10),
        (6, 14, 11),
        (5, 7, 7),
        (7, 15, 8),
        (7, 16, 9),
    ]
    return tg.build(17, edges)


def test_verify_out_tree_accepts_figure_shape():
    g = _figure_tree()
    assert tg.classify(g).happy
    assert reach.verify_out_tree(g, range(g.m), 0)


def test_verify_out_tree_rejects_broken_monotonicity():
    g = _figure_tree()
    swapped = [
        tg.TimeEdge(e.u, e.v, {1: 3, 3: 1}.get(e.t, e.t)) for e in g.edges
    ]
    h = tg.build(17, swapped)
    assert not reach.verify_out_tree(h, range(h.m), 0)


def test_verify_out_tree_rejects_wrong_size():
    g = _figure_tree()
    assert not reach.verify_out_tree(g, range(g.m - 1), 0)
    assert not reach.verify_out_tree(g, [], 0)


def test_verify_out_tree_rejects_negative_edge_index():
    g = tg.build(3, [(0, 1, 1), (1, 2, 2)])
    with pytest.raises(ValueError, match="edge index -2 out of range"):
        reach.verify_out_tree(g, [-2, -1], 0)


def test_verify_out_tree_rejects_out_of_range_root():
    g = tg.build(3, [(0, 1, 1), (1, 2, 2)])
    with pytest.raises(ValueError, match="source 5 out of range"):
        reach.verify_out_tree(g, [0, 1], 5)


def test_single_pass_relaxation_count(monkeypatch):
    # The sweep reads each edge's drop flag once: one pass over the edges.
    g = generate.random_happy_tc(7, 3)
    assert tg.classify(g).happy
    reads = []

    class CountingFlags(bytearray):
        def __getitem__(self, i):
            reads.append(i)
            return super().__getitem__(i)

    real = reach._drop_flags
    monkeypatch.setattr(reach, "_drop_flags", lambda g, kept: CountingFlags(real(g, kept)))
    reach.earliest_arrival(g, 0, 0, STRICT)
    assert len(reads) == g.m


def _multilabel_graph(seed):
    """A small non-proper multi-label graph: few labels, so groups share them."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    keys = {
        (u, v, rng.randint(1, 5))
        for u, v in (sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(n, 3 * n)))
    }
    return tg.build(n, sorted(keys))


def _naive_arrival(g, source, start, strict, kept):
    """Fixpoint over (vertex, earliest label the next edge may carry) states."""
    gap = 1 if strict else 0
    states = {(source, start)}
    arrival = [None] * g.vertex_count
    arrival[source] = start
    grown = True
    while grown:
        grown = False
        for i in kept:
            e = g.edges[i]
            for a, b in ((e.u, e.v), (e.v, e.u)):
                if any(x == a and d <= e.t for x, d in states) and (b, e.t + gap) not in states:
                    states.add((b, e.t + gap))
                    grown = True
                    if b != source and (arrival[b] is None or e.t < arrival[b]):
                        arrival[b] = e.t
    return arrival


def test_sweep_modes_agree_with_naive_fixpoint():
    sizes = set()
    for seed in range(60):
        g = _multilabel_graph(seed)
        sizes.update(len(group) for _, group in g.label_groups)
        rng = random.Random(seed)
        for s in (STRICT, NONSTRICT):
            for kept in (None, [i for i in range(g.m) if rng.random() < 0.7]):
                edges = range(g.m) if kept is None else kept
                masks = reach.reach_masks(g, s, kept=kept)
                for u in range(g.vertex_count):
                    arrival = reach.earliest_arrival(g, u, 0, s, kept=kept).arrival
                    assert list(arrival) == _naive_arrival(g, u, 0, s is STRICT, edges)
                    for v in range(g.vertex_count):
                        assert bool(masks[v] >> u & 1) == (arrival[v] is not None)
                    start = rng.randint(1, 6)
                    late = reach.earliest_arrival(g, u, start, s, kept=kept).arrival
                    assert list(late) == _naive_arrival(g, u, start, s is STRICT, edges)
    assert 1 in sizes and max(sizes) > 1  # both one-edge and multi-edge groups occur


def test_two_source_forced_edges_match_single_removals():
    checked = 0
    for seed in range(80):
        g = _multilabel_graph(seed)
        for s in (STRICT, NONSTRICT):
            full = [_naive_arrival(g, x, 0, s is STRICT, range(g.m)) for x in range(g.vertex_count)]
            spanning = [x for x in range(g.vertex_count) if None not in full[x]]
            if len(spanning) < 2:
                continue
            req = solver.TwoSource(spanning[0], spanning[-1])
            forced = solver.forced_edges(g, s, req)
            for i in range(g.m):
                rest = [j for j in range(g.m) if j != i]
                holds = solver.requirement_holds(g, s, req, kept=rest)
                naive = all(
                    None not in _naive_arrival(g, x, 0, s is STRICT, rest) for x in (req.s1, req.s2)
                )
                assert holds == naive == (i not in forced)
            checked += 1
    assert checked >= 10


def test_resumed_mask_sweep_matches_full_sweep():
    resumed = 0
    for seed in range(60):
        g = _multilabel_graph(seed)
        rng = random.Random(seed)
        groups = len(g.label_groups)
        for s in (STRICT, NONSTRICT):
            removed = bytearray(rng.random() < 0.3 for _ in range(g.m))
            start = [1 << v for v in range(g.vertex_count)]
            cps = [start]
            full = reach._mask_sweep(g, s, removed, start, 0, cps)
            assert full == reach._mask_sweep(g, s, removed)
            assert len(cps) == groups + 1 and cps[-1] == full
            for lo in range(groups + 1):
                suffix = []
                assert reach._mask_sweep(g, s, removed, cps[lo], lo, suffix) == full
                assert cps[: lo + 1] + suffix == cps
                resumed += 1
            assert cps[0] == start  # the sweep copies the masks it starts from
    assert resumed > 500


@pytest.mark.parametrize(
    "call",
    [
        lambda g: reach.earliest_arrival(g, -1),
        lambda g: reach.reaches_all(g, -1),
        lambda g: reach.foremost_out_tree(g, 7),
    ],
    ids=["earliest_arrival", "reaches_all", "foremost_out_tree"],
)
def test_single_source_rejects_out_of_range_vertex(call):
    g = tg.build(3, [(0, 1, 1), (1, 2, 2)])
    with pytest.raises(ValueError):
        call(g)


@pytest.mark.parametrize("bad", [5, 2, -1])
def test_kept_rejects_out_of_range_index(bad):
    g = tg.build(3, [(0, 1, 1), (1, 2, 2)])
    with pytest.raises(ValueError):
        reach.reach_masks(g, STRICT, kept=[0, bad])
    with pytest.raises(ValueError):
        reach.earliest_arrival(g, 0, kept=[bad])
