import random
from itertools import combinations

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


def test_reach_masks_trivial():
    assert reach.reach_masks(tg.build(1, []), STRICT) == [0b1]
    g = tg.build(2, [(0, 1, 1)])
    assert reach.reach_masks(g, STRICT) == [0b11, 0b11]
    # Bit u of entry v: u reaches v.  On the chain 0-1-2 with rising labels
    # 2 reaches 1 but not 0.
    g = tg.build(3, [(0, 1, 1), (1, 2, 2)])
    assert reach.reach_masks(g, STRICT) == [0b011, 0b111, 0b111]


def test_earliest_arrival_rejects_a_negative_start():
    with pytest.raises(ValueError, match="start must be non-negative"):
        reach.earliest_arrival(tg.build(2, [(0, 1, 1)]), 0, start=-1)


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
        assert reach.reach_masks(g, STRICT) == reach.reach_masks(g, NONSTRICT)


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


def _dfs_out_tree(g, candidate_edges, root):
    """The out-tree definition walked directly: exactly n - 1 distinct edges,
    and a root DFS that enters each vertex over a label above the one it
    arrived by reaches every vertex."""
    idxs = set(candidate_edges)
    n = g.vertex_count
    if len(idxs) != n - 1:
        return False
    adj = {v: [] for v in range(n)}
    for i in idxs:
        adj[g.us[i]].append((g.vs[i], g.ts[i]))
        adj[g.vs[i]].append((g.us[i], g.ts[i]))
    seen = {root}
    stack = [(root, 0)]
    while stack:
        v, in_label = stack.pop()
        for w, t in adj[v]:
            if w not in seen and t > in_label:
                seen.add(w)
                stack.append((w, t))
    return len(seen) == n


def test_verify_out_tree_matches_a_root_dfs():
    # Candidate sets per graph and root: random (n-1)-subsets, the foremost
    # tree with one edge swapped for another, and that tree one edge short
    # or one edge over.  Multi-label graphs bring adjacent edges with equal
    # labels and parallel pairs.
    graphs = [generate.random_happy_tc(n, seed, 0.6) for n in (4, 5, 6, 7) for seed in range(8)]
    graphs += [_multilabel_graph(seed) for seed in range(60)]
    rng = random.Random(0)
    seen = {"sets": 0, "trees": 0, "equal": 0, "parallel": 0, "size": 0}
    for g in graphs:
        n = g.vertex_count
        for root in range(n):
            cands = [rng.sample(range(g.m), min(n - 1, g.m)) for _ in range(4)]
            if reach.reaches_all(g, root):
                tree = sorted(reach.foremost_out_tree(g, root).tree_edges)
                outside = [i for i in range(g.m) if i not in tree]
                cands += [tree, tree[1:], tree + outside[:1]]
                for _ in range(4):
                    if outside:
                        swapped = tree.copy()
                        swapped[rng.randrange(n - 1)] = rng.choice(outside)
                        cands.append(swapped)
            for cand in cands:
                want = _dfs_out_tree(g, cand, root)
                assert reach.verify_out_tree(g, cand, root) == want
                ends = [(g.us[i], g.vs[i], g.ts[i]) for i in set(cand)]
                seen["sets"] += 1
                seen["trees"] += want
                seen["size"] += len(set(cand)) != n - 1
                seen["parallel"] += len({frozenset((u, v)) for u, v, _ in ends}) < len(ends)
                seen["equal"] += any(
                    a[2] == b[2] and {a[0], a[1]} & {b[0], b[1]}
                    for a, b in combinations(ends, 2)
                )
    assert seen["sets"] >= 2000 and min(seen.values()) >= 100, seen


def _counted_arrival(monkeypatch, g, source, start, s, kept=None):
    """``earliest_arrival``'s vector and the drop-table reads of its sweep, in order."""
    reads = []

    class CountingFlags(list):
        def __getitem__(self, i):
            reads.append(i)
            return super().__getitem__(i)

    real = reach._drop_flags
    with monkeypatch.context() as mp:
        mp.setattr(reach, "_drop_flags", lambda g, kept: CountingFlags(real(g, kept)))
        arrival = reach.earliest_arrival(g, source, start, s, kept=kept).arrival
    return arrival, reads


def test_single_pass_relaxation_count(monkeypatch):
    # The sweep reads each edge's drop entry once, in scan order, and stops
    # after the group where the last vertex is first reached.
    g = generate.random_happy_tc(7, 3)
    assert tg.classify(g).happy
    arrival, reads = _counted_arrival(monkeypatch, g, 0, 0, STRICT)
    assert None not in arrival
    last = max(arrival)
    assert reads == [i for group in g.label_groups if group[0] <= last for i, _, _ in tg.group_rows(group)]
    assert len(set(reads)) == len(reads) < g.m
    # With a vertex nobody reaches, no group can be skipped.
    h = tg.build(g.vertex_count + 1, g.edges)
    arrival, reads = _counted_arrival(monkeypatch, h, 0, 0, STRICT)
    assert arrival[-1] is None
    assert reads == [i for group in h.label_groups for i, _, _ in tg.group_rows(group)]
    assert len(set(reads)) == h.m


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


def test_sweep_modes_agree_with_naive_fixpoint(monkeypatch):
    sizes = set()
    # Graphs whose table holds both a flat one-edge entry and a multi-edge one.
    mixed = 0
    # Sweeps that stopped early, after a multi-edge group.
    stopped_in_group = {STRICT: 0, NONSTRICT: 0}
    for seed in range(60):
        g = _multilabel_graph(seed)
        rows_of = [tg.group_rows(group) for group in g.label_groups]
        graph_sizes = {len(rows) for rows in rows_of}
        sizes.update(graph_sizes)
        mixed += 1 in graph_sizes and max(graph_sizes) > 1
        group_size = {i: len(rows) for rows in rows_of for i, _, _ in rows}
        rng = random.Random(seed)
        for s in (STRICT, NONSTRICT):
            strict = s is STRICT
            for kept in (None, [i for i in range(g.m) if rng.random() < 0.7]):
                edges = range(g.m) if kept is None else kept
                masks = reach.reach_masks(g, s, kept=kept)
                for u in range(g.vertex_count):
                    naive = _naive_arrival(g, u, 0, strict, edges)
                    arrival, reads = _counted_arrival(monkeypatch, g, u, 0, s, kept)
                    assert list(arrival) == naive
                    assert len(set(reads)) == len(reads)
                    if len(reads) < g.m:
                        assert None not in naive
                        stopped_in_group[s] += group_size[reads[-1]] > 1
                    for v in range(g.vertex_count):
                        assert bool(masks[v] >> u & 1) == (arrival[v] is not None)
                    start = rng.randint(1, 6)
                    late = reach.earliest_arrival(g, u, start, s, kept=kept).arrival
                    assert list(late) == _naive_arrival(g, u, start, strict, edges)
                    assert reach.reaches_all(g, u, s, kept=kept) == (None not in naive)
                    if None in naive:
                        with pytest.raises(reach.RootNotSpanning):
                            reach.foremost_out_tree(g, u, s, kept=kept)
                        continue
                    tree = reach.foremost_out_tree(g, u, s, kept=kept).tree_edges
                    assert len(tree) == g.vertex_count - 1
                    assert reach.earliest_arrival(g, u, 0, s, kept=tree).arrival == arrival
    assert 1 in sizes and max(sizes) > 1  # both one-edge and multi-edge groups occur
    assert mixed >= 1
    assert min(stopped_in_group.values()) >= 1, stopped_in_group


def test_via_edge_follows_the_in_label_rule():
    # v's via edge is kept, carries v's arrival label t and joins v to a
    # vertex reached before t (strict) or by t (non-strict).  Strict: it is
    # the first such edge in index order.  Non-strict: no edge before it
    # joins v to a vertex reached before t, since a pass in index order
    # would have taken that edge first.
    multi = {STRICT: 0, NONSTRICT: 0}
    for seed in range(60):
        g = _multilabel_graph(seed)
        rows_at = {group[0]: tg.group_rows(group) for group in g.label_groups}
        rng = random.Random(seed)
        for s in (STRICT, NONSTRICT):
            for kept in (None, [i for i in range(g.m) if rng.random() < 0.7]):
                alive = set(range(g.m) if kept is None else kept)
                for source in range(g.vertex_count):
                    start = rng.randint(0, 3)
                    arrival, via = reach._arrival_sweep(g, source, start, s, reach._drop_flags(g, kept))
                    # Strict paths leave the source one step early, at start - 1.
                    at = [start - (s is STRICT) if x == source else a for x, a in enumerate(arrival)]
                    for v, t in enumerate(arrival):
                        if v == source or t is None:
                            assert via[v] is None
                            continue
                        multi[s] += len(rows_at[t]) > 1
                        # (edge, other end's arrival) for each kept edge at t
                        # that joins v to a reached vertex.
                        ends = [
                            (i, at[x + y - v])
                            for i, x, y in rows_at[t]
                            if v in (x, y) and i in alive and at[x + y - v] is not None
                        ]
                        before = [i for i, a in ends if a < t]
                        if s is STRICT:
                            assert before[:1] == [via[v]]
                        else:
                            assert via[v] in [i for i, a in ends if a <= t]
                            assert all(i >= via[v] for i in before)
    assert min(multi.values()) >= 100, multi


def test_arrival_sweep_edge_cases(monkeypatch):
    arrival, reads = _counted_arrival(monkeypatch, tg.build(1, []), 0, 4, STRICT)
    assert arrival == (4,) and reads == []
    g = tg.build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 5)])
    for s in (STRICT, NONSTRICT):
        arrival, reads = _counted_arrival(monkeypatch, g, 1, 6, s)
        assert arrival == (None, 6, None) and reads == []
    # 3 reaches only 0: the labels on to 1 and 2 come too early.
    h = tg.build(4, [(1, 2, 1), (0, 1, 2), (0, 3, 3)])
    for s in (STRICT, NONSTRICT):
        for start in (0, 2, 3):
            want = _naive_arrival(h, 3, start, s is STRICT, range(h.m))
            assert None in want
            assert list(reach.earliest_arrival(h, 3, start, s).arrival) == want


def _whole_sweep(g, s, kept=None):
    """The masks of one :func:`reach._mask_sweep` over the whole table."""
    masks = [1 << v for v in range(g.vertex_count)]
    reach._mask_sweep(g.label_groups, s, reach._drop_flags(g, kept), masks)
    return masks


def _counted_masks(monkeypatch, g, s, kept=None):
    """``reach_masks``'s masks and the drop-table reads of its sweep, in order."""
    reads = []

    class CountingFlags(list):
        def __getitem__(self, i):
            reads.append(i)
            return super().__getitem__(i)

    real = reach._drop_flags
    with monkeypatch.context() as mp:
        mp.setattr(reach, "_drop_flags", lambda g, kept: CountingFlags(real(g, kept)))
        masks = reach.reach_masks(g, s, kept=kept)
    return masks, reads


def _scan_order(g):
    return [i for group in g.label_groups for i, _, _ in tg.group_rows(group)]


def test_reach_masks_equal_one_whole_sweep(monkeypatch):
    # The stop between chunks changes no mask, with or without ``kept``;
    # the reads are a prefix of one scan.
    graphs = [_multilabel_graph(seed) for seed in range(60)]
    graphs += [generate.random_happy_tc(n, seed, 0.6) for n in (2, 5, 9) for seed in range(8)]
    stopped = {STRICT: 0, NONSTRICT: 0}
    for k, g in enumerate(graphs):
        rng = random.Random(k)
        order = _scan_order(g)
        for s in (STRICT, NONSTRICT):
            for kept in (None, [i for i in range(g.m) if rng.random() < 0.7]):
                masks, reads = _counted_masks(monkeypatch, g, s, kept)
                assert masks == _whole_sweep(g, s, kept)
                assert reads == order[: len(reads)]
                stopped[s] += len(reads) < g.m
    assert min(stopped.values()) >= 10, stopped


def test_reach_masks_stop_edge_cases(monkeypatch):
    for s in (STRICT, NONSTRICT):
        # No edge, one vertex.
        assert _counted_masks(monkeypatch, tg.build(3, []), s) == ([0b001, 0b010, 0b100], [])
        assert _counted_masks(monkeypatch, tg.build(1, []), s) == ([0b1], [])
        assert not reach.is_tc(tg.build(3, []), s)
    # Full inside a multi-edge group: strict, label 2 joins 2 to both others;
    # non-strict, the path at label 1 already joins all three.  With three
    # labels over five edges a chunk is one group.
    g = tg.build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 2), (0, 1, 3), (1, 2, 3)])
    masks, reads = _counted_masks(monkeypatch, g, STRICT)
    assert masks == [0b111] * 3 and reads == _scan_order(g)[:3]
    h = tg.build(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2), (0, 1, 3), (0, 2, 3)])
    masks, reads = _counted_masks(monkeypatch, h, NONSTRICT)
    assert masks == [0b111] * 3 and reads == _scan_order(h)[:2]
    assert reach.is_tc(g, STRICT) and reach.is_tc(h, NONSTRICT)
    # A vertex nobody reaches: no mask fills, and every group is read.
    iso = tg.build(4, g.edges)
    for s in (STRICT, NONSTRICT):
        masks, reads = _counted_masks(monkeypatch, iso, s)
        assert masks == _whole_sweep(iso, s) and masks[3] == 0b1000
        assert reads == _scan_order(iso)
        assert not reach.is_tc(iso, s)


def test_reach_masks_stop_before_a_late_suffix(monkeypatch):
    # The triangle fills every mask in the first chunk (three one-edge
    # labels over three vertices), so none of the later edges is read.
    suffix = [(u, v, t) for t in range(4, 40) for u, v in [((0, 1), (1, 2), (0, 2))[t % 3]]]
    g = tg.build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3), *suffix])
    for s in (STRICT, NONSTRICT):
        masks, reads = _counted_masks(monkeypatch, g, s)
        assert masks == [0b111] * 3
        assert reads == _scan_order(g)[:3]
    # A larger connected graph: at most one chunk of n edges of the suffix.
    h = generate.random_happy_tc(9, 1, 0.6)
    last = h.lifetime
    rng = random.Random(1)
    late = [(*sorted(rng.sample(range(9), 2)), last + t) for t in range(1, 20 * 9)]
    k = tg.build(9, [*h.edges, *late])
    for s in (STRICT, NONSTRICT):
        masks, reads = _counted_masks(monkeypatch, k, s)
        assert masks == [(1 << 9) - 1] * 9
        assert reads == _scan_order(k)[: len(reads)]
        assert len(reads) < h.m + 9


def test_lane_sweep_runs_one_mask_sweep_per_lane():
    # Each lane drops its own random edge subset; an edge dropped in every
    # lane is written -1, as the solver's drop tables write it.  Lane j of
    # every final mask is the plain sweep's mask over lane j's subset.
    full_drops = 0
    for seed in range(60):
        g = _multilabel_graph(seed)
        n = g.vertex_count
        rng = random.Random(seed)
        count = rng.randint(1, 6)
        lanes = [[-(rng.random() < 0.3) for _ in range(g.m)] for _ in range(count)]
        drop = []
        for i in range(g.m):
            d = 0
            for j, removed in enumerate(lanes):
                if removed[i]:
                    d |= ((1 << n) - 1) << (j * n)
            drop.append(-1 if all(removed[i] for removed in lanes) else d)
        full_drops += -1 in drop
        start = [sum(1 << (v + j * n) for j in range(count)) for v in range(n)]
        for s in (STRICT, NONSTRICT):
            masks = reach._lane_sweep(g, s, drop, start)
            for j, removed in enumerate(lanes):
                plain = [1 << v for v in range(n)]
                reach._mask_sweep(g.label_groups, s, removed, plain)
                assert [(x >> (j * n)) & ((1 << n) - 1) for x in masks] == plain
    assert full_drops >= 10


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
