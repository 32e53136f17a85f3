import inspect
import random
import sys
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tempspan import generate, reach, solver
from tempspan import reductions as red
from tempspan import tempgraph as tg
from tempspan.reach import NONSTRICT, STRICT
from tempspan.solver import ALL_PAIRS, TwoSource


def small_corpus(count=25, n_range=(4, 7)):
    graphs = []
    seed = 0
    while len(graphs) < count:
        seed += 1
        n = n_range[0] + seed % (n_range[1] - n_range[0] + 1)
        d = 1 + seed % 3
        if d >= n:
            continue
        try:
            graphs.append(generate.random_happy_tc_with_cover(n, d, seed))
        except generate.GenerationFailed:
            continue
    return graphs


# ---------------------------------------------------------------------------
# Forced edges and the exact oracle
# ---------------------------------------------------------------------------


def _gossip(g, s, req):
    """The gossip bound of a fresh oracle for the instance."""
    return solver._gossip_bound(solver._SubsetOracle(g, s, req))


def test_forced_edges_chain_all_forced():
    g = tg.build(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
    assert not reach.is_tc(g, STRICT)  # a chain is only one-way connected
    with pytest.raises(solver.RequirementNotSatisfied):
        solver.forced_edges(g, STRICT)


def test_forced_edges_two_vertex():
    g = tg.build(2, [(0, 1, 1)])
    assert solver.forced_edges(g, STRICT) == frozenset({0})
    res = solver.min_spanner_exact(g)
    assert res.size == 1 and res.optimal


def test_forced_edges_subset_of_every_optimum():
    for g in small_corpus(10):
        forced = solver.forced_edges(g, STRICT)
        res = solver.min_spanner_exact(g)
        assert forced <= res.spanner.kept


def test_exact_engines_agree_with_brute():
    for g in small_corpus(20, n_range=(4, 6)):
        brute = solver.min_spanner_brute(g, cap=18)
        bnb = solver.min_spanner_exact(g, engine="bnb")
        flow = solver.min_spanner_exact(g, engine="flow")
        assert brute.size == bnb.size == flow.size
        for res in (brute, bnb, flow):
            assert reach.is_tc(g, STRICT, kept=res.spanner.kept)
            assert res.optimal


def test_exact_local_minimality():
    for g in small_corpus(10):
        res = solver.min_spanner_exact(g)
        forced = solver.forced_edges(g, STRICT)
        for i in res.spanner.kept - forced:
            assert not reach.is_tc(g, STRICT, kept=res.spanner.kept - {i})


def test_budget_decision_mode():
    # m=12 with 3 forced edges and optimum 8: both budgets need a search.
    g = generate.random_happy_tc(6, 0, 0.6)
    opt = solver.min_spanner_exact(g).size
    for engine in ("bnb", "flow"):
        yes = solver.min_spanner_exact(g, budget=opt, engine=engine)
        no = solver.min_spanner_exact(g, budget=opt - 1, engine=engine)
        assert yes.within_budget is True
        assert no.within_budget is False


def test_instance_too_large_guard():
    # 48 removable edges: the index greedy keeps 31, the gossip bound is 28
    # and the block bound 16, and neither a node-limited branch and bound
    # nor the restarts settle the optimum 29.  Only a search beyond the cap
    # could, so every engine refuses.
    g = generate.random_happy_tc(16, 0, 0.4)
    assert len(solver._SubsetOracle(g, STRICT, ALL_PAIRS).removable) == 48
    for engine in solver.ENGINES:
        with pytest.raises(solver.InstanceTooLarge, match="48 removable edges exceed cap 40"):
            solver.min_spanner_exact(g, engine=engine)
    with pytest.raises(solver.InstanceTooLarge, match="exceed cap 47"):
        solver.min_spanner_exact(g, cap=47, engine="bnb")
    with pytest.raises(solver.InstanceTooLarge, match="48 removable edges exceed enumeration cap 18"):
        solver.min_spanner_brute(g)


def _block_sizes(blocks):
    return [len(b) for b in blocks[0]]


def test_conflict_blocks_end_within_the_size_limit():
    # Hiding hubs always finds an unhidden endpoint in an oversized block.
    # Every edge of the dense graph is removable, and hiding ends with every
    # edge a piece of its own; packing pairs them up to blocks of 8 edges
    # (two blocks of 8 would pass the limit), which all drop every edge.
    # On the two sparser graphs the pieces of several edges stay as they
    # are, and the one-edge pieces pack to blocks of up to 8 edges; on the
    # last one a 13-edge block would form if the size limit let it.
    g = generate.random_happy_tc(24, 0, 0.95)
    oracle = solver._SubsetOracle(g, STRICT, ALL_PAIRS)
    _, caps = oracle.blocks
    sizes = _block_sizes(oracle.blocks)
    assert len(oracle.removable) == g.m == 262
    assert sorted(sizes) == [6] + [8] * 32 and caps == sizes
    g = generate.random_happy_tc(18, 0, 0.4)
    oracle = solver._SubsetOracle(g, STRICT, ALL_PAIRS)
    sizes = _block_sizes(oracle.blocks)
    assert sizes == [11, 8, 8, 3, 4, 8, 7, 9] and max(sizes) <= solver._MAX_BLOCK
    assert oracle.blocks[1] == [9, 7, 7, 2, 3, 8, 6, 7]
    g = generate.random_happy_tc(16, 0, 0.6)
    oracle = solver._SubsetOracle(g, STRICT, ALL_PAIRS)
    assert len(oracle.removable) == 60 and _block_sizes(oracle.blocks) == [8, 8, 8, 11, 4, 5, 8, 8]


def _hub_pieces(oracle):
    """The conflict blocks before packing: the components left once hub
    hiding ends, each capped by brute force."""
    g = oracle.g
    removable, hubs = oracle.removable, set()
    while True:
        comp = {i: {i} for i in removable}
        for i, j in combinations(removable, 2):
            if ({g.us[i], g.vs[i]} & {g.us[j], g.vs[j]}) - hubs and comp[i] is not comp[j]:
                comp[i] |= comp[j]
                for k in comp[j]:
                    comp[k] = comp[i]
        pieces = {min(c): sorted(c) for c in comp.values()}
        big = [c for _, c in sorted(pieces.items()) if len(c) > solver._MAX_BLOCK]
        if not big:
            return [(c, _brute_cap(oracle, c)) for c in pieces.values()]
        degree = {}
        for i in big[0]:
            for x in {g.us[i], g.vs[i]} - hubs:
                degree[x] = degree.get(x, 0) + 1
        hubs.add(max(degree, key=lambda x: (degree[x], -x)))


def _brute_cap(oracle, block):
    """The largest feasible removal within ``block``, every subset tried."""
    for size in range(len(block), 0, -1):
        for removal in combinations(block, size):
            if oracle.feasible(reach._drop_flags(oracle.g, set(range(oracle.g.m)) - set(removal))):
                return size
    return 0


@pytest.mark.parametrize("two_source", [False, True], ids=["all-pairs", "two-source"])
@pytest.mark.parametrize("s", [STRICT, NONSTRICT], ids=["strict", "nonstrict"])
def test_packed_blocks_partition_and_bound(s, two_source):
    # The packed blocks partition the removable edges within the size limit,
    # each cap is the brute-force largest removal within its block, and the
    # block bound lies between the bound of the unpacked pieces and the
    # optimum.  Some graphs gain from packing.
    graphs = [_multilabel_graph(seed, (5, 7)) for seed in range(120)]
    graphs += [generate.random_happy_tc(n, seed, 0.5) for n in (6, 7, 8) for seed in range(10)]
    checked = gained = 0
    for g in graphs:
        req = TwoSource(0, g.vertex_count - 1) if two_source else ALL_PAIRS
        oracle = solver._SubsetOracle(g, s, req)
        if not oracle.satisfied or len(oracle.removable) > 16:
            continue
        blocks, caps = oracle.blocks
        assert sorted(i for block in blocks for i in block) == oracle.removable and len(caps) == len(blocks)
        assert blocks == sorted(sorted(block) for block in blocks)
        for block, cap in zip(blocks, caps):
            assert 0 < len(block) <= solver._MAX_BLOCK
            assert cap == _brute_cap(oracle, block)
        bound = solver._block_bound(oracle)
        unpacked = g.m - sum(cap for _, cap in _hub_pieces(oracle))
        assert unpacked <= bound <= solver.min_spanner_brute(g, s, req).size
        gained += unpacked < bound
        checked += 1
    assert checked >= 70 and gained >= 2


def test_packing_raises_the_block_bound():
    # Two graphs of the engine table: without packing their bounds were 7
    # and 6.
    for n, seed, p, bound in ((10, 1, 0.6, 10), (14, 0, 0.6, 7)):
        oracle = solver._SubsetOracle(generate.random_happy_tc(n, seed, p), STRICT, ALL_PAIRS)
        assert solver._block_bound(oracle) == bound


def test_the_schedule_checks_the_fallback_answer(monkeypatch):
    # With no branch-and-bound nodes both graphs reach the engine's own
    # search, here replaced by one that returns the empty edge set.
    monkeypatch.setattr(solver, "_NODE_LIMIT", 0)
    monkeypatch.setattr(solver, "_exact_by_hitting_set", lambda oracle, budget: frozenset())
    monkeypatch.setattr(solver, "_xp_search", lambda oracle, best, goal: (frozenset(), 0))
    with pytest.raises(solver.SolverFailed, match="infeasible edge set"):
        solver.min_spanner_exact(_multilabel_graph(174, (5, 7)), engine="flow")
    with pytest.raises(solver.SolverFailed, match="infeasible edge set"):
        solver.min_spanner_xp_vc(generate.random_happy_tc_with_cover(7, 3, 47))


def test_cap_does_not_refuse_an_answer_that_needs_no_search():
    # 9 removable edges exceed cap 0, but the index greedy spanner keeps
    # 2n - 4 = 8 edges, the optimum: every budget is answered with it, and
    # the "no" answers are proven optimal.
    g = generate.random_happy_tc(6, 0, 0.6)
    oracle = solver._SubsetOracle(g, STRICT, ALL_PAIRS)
    greedy = solver._greedy_local_min(oracle, oracle.removable)
    assert len(oracle.removable) == 9 and len(greedy) == 8
    for budget in (None, 2, 7, 8):
        for engine in solver.ENGINES:
            res = solver.min_spanner_exact(g, budget=budget, cap=0, engine=engine)
            assert res.spanner.kept == greedy and res.optimal and res.lower_bound == 8
            assert res.within_budget is (None if budget is None else budget >= 8)
    # The cap still guards a search: see test_instance_too_large_guard.


@pytest.mark.parametrize("s", [STRICT, NONSTRICT], ids=["strict", "nonstrict"])
def test_greedy_reads_its_first_drop_from_the_forced_set(monkeypatch, s):
    # A pass over the removable edges drops the first one without a sweep
    # and asks the oracle about each other edge once; in any order it keeps
    # what asking the oracle about every edge keeps.
    def per_edge(oracle, order):
        removed = [0] * oracle.g.m
        for i in order:
            removed[i] = -1
            if not oracle.feasible(removed):
                removed[i] = 0
        return frozenset(i for i in range(oracle.g.m) if not removed[i])

    sweeps = []
    real_sweep = reach._mask_sweep
    monkeypatch.setattr(reach, "_mask_sweep", lambda *a: sweeps.append(1) or real_sweep(*a))
    checked = 0
    for seed in range(40):
        g = _multilabel_graph(seed)
        oracle = solver._SubsetOracle(g, s, ALL_PAIRS)
        if not oracle.satisfied or not oracle.removable:
            continue
        removable = oracle.removable
        sweeps.clear()
        kept = solver._greedy_local_min(oracle, removable)
        assert len(sweeps) == len(removable) - 1
        assert kept == per_edge(oracle, removable)
        shuffled = list(range(g.m))
        random.Random(seed).shuffle(shuffled)
        assert solver._greedy_local_min(oracle, shuffled) == per_edge(oracle, shuffled)
        checked += 1
    assert checked >= 10


def test_budget_below_the_gossip_bound_needs_no_search():
    # 58 removable edges exceed cap 0, but only 2 edges are forced: the
    # gossip bound 2n - 4 = 24 alone exceeds budget 23.
    g = generate.random_happy_tc(14, 0, 0.6)
    assert len(solver.forced_edges(g, STRICT)) == 2
    assert _gossip(g, STRICT, ALL_PAIRS) == 24
    res = solver.min_spanner_exact(g, budget=23, cap=0)
    assert res.within_budget is False and not res.optimal


def test_bnb_stops_at_the_gossip_bound():
    # 58 removable edges: the exhausted search took over 90 s, but its first
    # spanner of 2n - 4 edges is optimal.
    g = generate.random_happy_tc(14, 0, 0.6)
    res = solver.min_spanner_exact(g, cap=60, engine="bnb")
    assert res.size == 24 and res.optimal
    assert solver.requirement_holds(g, STRICT, ALL_PAIRS, res.spanner.kept)


def test_bnb_searches_on_when_the_gossip_bound_is_not_met():
    # The bound is 24 here and the optimum 28: the stop must not prune.
    g = red.sat_to_spanner_instance(red.SatInstance(1, ((1, 1, 1),))).graph
    assert _gossip(g, STRICT, ALL_PAIRS) == 24
    res = solver.min_spanner_exact(g, engine="bnb")
    assert res.size == 28 and res.optimal
    assert solver.requirement_holds(g, STRICT, ALL_PAIRS, res.spanner.kept)


@st.composite
def _hub_graphs(draw):
    """A graph on 4 to 7 vertices, temporally connected in both settings:
    every vertex meets a hub once at an early label and once at a later one,
    plus random extra edges.  The hub's labels are distinct or drawn with
    repeats, so the graph may or may not be proper."""
    n = draw(st.integers(4, 7))
    hub = draw(st.integers(0, n - 1))
    others = [v for v in range(n) if v != hub]
    if draw(st.booleans()):
        ins = draw(st.permutations(range(1, n)))
        outs = draw(st.permutations(range(n, 2 * n - 1)))
    else:
        k = draw(st.integers(1, n - 1))
        ins = draw(st.lists(st.integers(1, k), min_size=n - 1, max_size=n - 1))
        outs = draw(st.lists(st.integers(k + 1, 2 * k), min_size=n - 1, max_size=n - 1))
    keys = {(min(hub, v), max(hub, v), t) for v, t in zip(others + others, ins + outs)}
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(sorted)
    for u, v in draw(st.lists(pair, max_size=16 - 2 * n)):
        keys.add((u, v, draw(st.integers(1, 2 * n - 2))))
    return tg.build(n, sorted(keys))


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(_hub_graphs(), st.sampled_from([STRICT, NONSTRICT]))
def test_gossip_bound_never_exceeds_the_optimum(g, s):
    bound = _gossip(g, s, ALL_PAIRS)
    applies = s is STRICT or tg.classify(g).proper
    assert bound == (2 * g.vertex_count - 4 if applies else 0)
    assert bound <= solver.min_spanner_brute(g, s).size


def _draw_requirement(g, data):
    """All pairs, or two distinct sources drawn from ``data``."""
    if data.draw(st.booleans(), label="two_source"):
        pair = st.lists(st.integers(0, g.vertex_count - 1), min_size=2, max_size=2, unique=True)
        return TwoSource(*data.draw(pair, label="sources"))
    return ALL_PAIRS


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(_hub_graphs(), st.sampled_from([STRICT, NONSTRICT]), st.data())
def test_bounds_enclose_the_optimum_on_hub_graphs(g, s, data):
    req = _draw_requirement(g, data)
    oracle = solver._SubsetOracle(g, s, req)
    opt = solver.min_spanner_brute(g, s, req).size
    assert len(oracle.forced) <= opt
    assert solver._gossip_bound(oracle) <= opt
    assert solver._block_bound(oracle) <= opt
    # Goal 0 is never met, so every restart runs.
    best = solver._greedy_restarts(
        oracle, oracle.removable, 0, solver._greedy_local_min(oracle, oracle.removable)
    )
    assert opt <= len(best)
    assert solver.requirement_holds(g, s, req, kept=best)


def _solve(engine, g, s, req, budget=None):
    if engine == "xp":
        return solver.min_spanner_xp_vc(g, budget)
    return solver.min_spanner_exact(g, s, budget=budget, requirement=req, engine=engine)


def _search_refuses(engine, g, s, req, budget):
    """Whether the engine's search, run with no bound to settle it first,
    proves that no spanner keeps at most ``budget`` edges."""
    oracle = solver._SubsetOracle(g, s, req)
    if engine == "flow":
        return solver._exact_by_hitting_set(oracle, budget) is None
    if engine == "xp":
        return solver._xp_search(oracle, frozenset(range(g.m)), budget)[1] > budget
    target = g.m - budget
    removal, stopped = solver._bnb_max_removal(oracle, *oracle.blocks, target)
    assert not stopped
    return len(removal) < target


def _agrees_with_brute(engine, g, s, req):
    """Checks the engine's answers at budgets None, opt, opt - 1 and
    |forced| - 1 against brute force: each is a spanner, right about the
    budget, reports a lower bound no larger than the optimum, and reports
    ``optimal`` exactly when it meets that bound, hence only at the
    optimum's size.  Every "no" keeps no more edges than the index-order
    greedy spanner.  The lower bounds often answer budget opt - 1 with no
    search, so the search is also run alone there.  Returns the number of
    decision answers that report ``optimal``."""
    opt = solver.min_spanner_brute(g, s, req).size
    oracle = solver._SubsetOracle(g, s, req)
    greedy = len(solver._greedy_local_min(oracle, oracle.removable))
    proven = 0
    for budget in (None, opt, opt - 1, len(oracle.forced) - 1):
        res = _solve(engine, g, s, req, budget)
        assert solver.requirement_holds(g, s, req, kept=res.spanner.kept)
        assert res.size >= opt and (res.size == opt or not res.optimal)
        assert res.lower_bound <= opt and res.optimal is (res.size <= res.lower_bound)
        if budget is None:
            assert res.size == opt and res.optimal
        else:
            assert res.within_budget is (budget >= opt)
            if not res.within_budget:
                assert res.size <= greedy
            proven += res.optimal
    assert _search_refuses(engine, g, s, req, opt - 1)
    return proven


@pytest.mark.parametrize("engine", ["flow", "bnb", "auto"])
@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(g=_hub_graphs(), s=st.sampled_from([STRICT, NONSTRICT]), data=st.data())
def test_engines_agree_with_brute_on_hub_graphs(engine, g, s, data):
    # With no branch-and-bound nodes before the fallback, the flow engine's
    # restarts and MILP run on these small graphs too.  The bnb engine,
    # which ``auto`` picks here, has no fallback, so the limit does not
    # apply to it.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_NODE_LIMIT", 0)
        _agrees_with_brute(engine, g, s, _draw_requirement(g, data))


def test_gossip_bound_is_zero_where_it_does_not_apply():
    g = generate.random_happy_tc(6, 0, 0.6)
    assert _gossip(g, STRICT, ALL_PAIRS) == 8
    assert _gossip(g, STRICT, TwoSource(0, 5)) == 0
    # n < 4: a TC triangle keeps 3 edges, more than 2n - 4 = 2.
    triangle = tg.build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3), (0, 1, 4)])
    assert _gossip(triangle, STRICT, ALL_PAIRS) == 0
    # The non-strict star at one label is temporally connected with 3 edges.
    star = tg.build(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    assert _gossip(star, NONSTRICT, ALL_PAIRS) == 0
    assert solver.min_spanner_brute(star, NONSTRICT).size == 3 < 2 * 4 - 4
    assert _gossip(star, STRICT, ALL_PAIRS) == 4


def test_requirement_not_satisfied():
    g = tg.build(3, [(0, 1, 1)])
    with pytest.raises(solver.RequirementNotSatisfied):
        solver.min_spanner_exact(g)


def test_two_source_requirement():
    # 0 and 1 both reach everything, but 3 cannot reach 0; only the
    # two-source requirement is satisfiable.
    g = tg.build(4, [(0, 1, 1), (1, 2, 2), (1, 3, 3), (0, 2, 4)])
    req = TwoSource(0, 1)
    assert solver.requirement_holds(g, STRICT, req)
    assert not solver.requirement_holds(g, STRICT, ALL_PAIRS)
    res = solver.min_spanner_exact(g, requirement=req)
    # brute-force oracle over all subsets
    best = min(
        (
            len(kept)
            for r in range(g.m + 1)
            for kept in combinations(range(g.m), r)
            if solver.requirement_holds(g, STRICT, req, kept=kept)
        ),
    )
    assert res.size == best


def test_two_source_engines_agree():
    for seed, g in enumerate(small_corpus(8, n_range=(4, 6))):
        req = TwoSource(0, g.vertex_count - 1)
        if not solver.requirement_holds(g, STRICT, req):
            continue
        sizes = {
            solver.min_spanner_exact(g, requirement=req, engine=e).size
            for e in ("bnb", "flow")
        }
        assert len(sizes) == 1


def _multilabel_graph(seed, n_range=(4, 6)):
    """A seeded non-proper multi-label graph: few labels, so groups share
    them, and 2n to 4n edges, so that most are temporally connected."""
    rng = random.Random(seed)
    n = rng.randint(*n_range)
    keys = {
        (u, v, rng.randint(1, 4))
        for u, v in (sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(2 * n, 4 * n)))
    }
    return tg.build(n, sorted(keys))


@pytest.mark.parametrize("two_source", [False, True], ids=["all-pairs", "two-source"])
@pytest.mark.parametrize("s", [STRICT, NONSTRICT], ids=["strict", "nonstrict"])
def test_bnb_removes_as_many_edges_as_brute(s, two_source):
    # Branch and bound on its own, without the greedy incumbent and the
    # bounds that the engines' schedule runs first: its removal set is
    # feasible and as large as brute force's, and a lone removable edge is
    # tried and removed.
    graphs = [_multilabel_graph(seed) for seed in range(60)]
    graphs += [generate.random_happy_tc(n, seed, 0.5) for n in (5, 6) for seed in range(10)]
    checked = 0
    for g in graphs:
        req = TwoSource(0, g.vertex_count - 1) if two_source else ALL_PAIRS
        oracle = solver._SubsetOracle(g, s, req)
        if not oracle.feasible(bytearray(g.m)) or len(oracle.removable) > 12:
            continue
        best = g.m - solver.min_spanner_brute(g, s, req).size
        removable = oracle.removable
        for blocks, caps in (([removable], [len(removable)]), oracle.blocks):
            removal, stopped = solver._bnb_max_removal(oracle, blocks, caps, len(removable))
            assert not stopped and len(removal) == best
            assert oracle.feasible(reach._drop_flags(g, set(range(g.m)) - set(removal)))
        for e in removable:
            assert solver._bnb_max_removal(oracle, [[e]], [1], 1) == ([e], False)
        checked += 1
    assert checked >= 40


def _one_query_each(oracle, removed, edges):
    """What ``feasible_each`` answers, asked one plain query per edge."""
    out = []
    for e in edges:
        flags = [-(f != 0) for f in removed]
        flags[e] = -1
        out.append(oracle.feasible(flags))
    return out


def test_feasible_each_matches_one_query_per_edge():
    # Multi-label graphs bring strict snapshot groups and non-strict fixpoint
    # groups; the m = 115 graph asks for up to 115 lanes, which one sweep
    # answers.  The base drop tables drop no edge, or a random fifth of them.
    graphs = [_multilabel_graph(seed, (5, 7)) for seed in range(30)]
    graphs += [generate.random_happy_tc(8, 3, 0.6), generate.random_happy_tc(16, 0, 0.95)]
    rng = random.Random(0)
    wide = checked = 0
    for g in graphs:
        for s in (STRICT, NONSTRICT):
            for req in (ALL_PAIRS, TwoSource(0, g.vertex_count - 1)):
                oracle = solver._SubsetOracle(g, s, req)
                if not oracle.satisfied:
                    continue
                everything = range(g.m)
                answers = _one_query_each(oracle, [0] * g.m, everything)
                assert oracle.forced == {e for e in everything if not answers[e]}
                for removed in ([0] * g.m, [-(rng.random() < 0.2) for _ in range(g.m)]):
                    edges = rng.sample(everything, rng.randint(1, g.m))
                    want = _one_query_each(oracle, removed, edges)
                    assert oracle.feasible_each(removed, edges, 0) == want
                    assert oracle.feasible_each(removed, everything, 0) == _one_query_each(
                        oracle, removed, everything
                    )
                wide += g.m > 64
                checked += 1
    assert checked >= 60 and wide == 4


def test_feasible_each_reads_the_drop_table_of_a_kept_set():
    # ``reach._drop_flags(g, kept)`` builds the table every sweep reads, so
    # a lane probe takes it as it is and leaves it unchanged: its answers,
    # for one edge or for every edge (115 lanes on the largest graph) in one
    # sweep, equal one ``feasible`` query per edge.
    graphs = [_multilabel_graph(seed, (5, 7)) for seed in range(30)]
    graphs.append(generate.random_happy_tc(16, 0, 0.95))
    rng = random.Random(1)
    mixed = 0
    for g in graphs:
        for s in (STRICT, NONSTRICT):
            oracle = solver._SubsetOracle(g, s, ALL_PAIRS)
            kept = [i for i in range(g.m) if rng.random() < 0.9]
            removed = reach._drop_flags(g, kept)
            want = [oracle.feasible(reach._drop_flags(g, set(kept) - {e})) for e in range(g.m)]
            assert oracle.feasible_each(removed, range(g.m), 0) == want
            assert oracle.feasible_each(removed, kept[:1], 0) == [want[kept[0]]]
            assert removed == reach._drop_flags(g, kept)
            mixed += True in want and False in want
    assert mixed >= 20


def _pendant_graph(m, seed):
    """A seeded multi-label graph of exactly ``m`` edges, and the indices of
    12 edges that every all-pairs spanner keeps, on both sides of each
    multiple of 64.

    Core vertex 0 meets core vertices 1..7 at labels 2 and 9, so each core
    vertex reaches 0 by label 2 and hears from it at label 9.  Pendant
    vertex p meets core vertex p - 8 at labels 1 and 10: without the first
    edge it reaches no one, without the second no one but p - 8 reaches it.
    The other edges join core vertices at labels 3..8.
    """
    rng = random.Random(seed)
    pendant = [(v - 8, v, t) for v in range(8, 14) for t in (1, 10)]
    hub = [(0, v, t) for v in range(1, 8) for t in (2, 9)]
    core = [(u, v, t) for u, v in combinations(range(8), 2) for t in range(3, 9)]
    others = hub + rng.sample(core, m - len(pendant) - len(hub))
    rng.shuffle(others)
    at = {i for i in (0, 63, 64, 127, 128) if i < m}
    at |= set(rng.sample(sorted(set(range(m)) - at), len(pendant) - len(at)))
    kept, rest = iter(pendant), iter(others)
    return tg.build(14, [next(kept) if i in at else next(rest) for i in range(m)]), at


@pytest.mark.parametrize("m", [63, 64, 65, 128, 129])
def test_forced_set_asks_64_edges_per_probe(monkeypatch, m):
    # The forced set asks for single edges in probes of at most 64 lanes,
    # each one lane sweep and no plain query; its answers equal one plain
    # query per edge.  All pairs keep every pendant edge.
    probes = []
    sweeps = []
    real_each, real_lane = solver._SubsetOracle.feasible_each, reach._lane_sweep

    def probe(self, removed, edges, pairs):
        probes.append(len(edges))
        return real_each(self, removed, edges, pairs)

    def lane_sweep(g, s, drop, masks):
        sweeps.append(None)
        return real_lane(g, s, drop, masks)

    def feasible(self, removed):
        raise AssertionError("a plain query")

    g, pendant = _pendant_graph(m, m)
    for s in (STRICT, NONSTRICT):
        for req in (ALL_PAIRS, TwoSource(0, 13)):
            oracle = solver._SubsetOracle(g, s, req)
            assert oracle.satisfied
            want = _one_query_each(oracle, [0] * m, range(m))
            probes.clear()
            sweeps.clear()
            with monkeypatch.context() as patch:
                patch.setattr(solver._SubsetOracle, "feasible_each", probe)
                patch.setattr(solver._SubsetOracle, "feasible", feasible)
                patch.setattr(reach, "_lane_sweep", lane_sweep)
                forced = oracle.forced
            assert forced == {e for e in range(m) if not want[e]}
            assert pendant <= forced or req != ALL_PAIRS
            assert probes == [64] * (m // 64) + [m % 64] * (m % 64 > 0)
            assert len(sweeps) == len(probes)


@pytest.mark.parametrize("s", [STRICT, NONSTRICT], ids=["strict", "nonstrict"])
def test_bnb_cut_compares_with_the_incumbent(s):
    # Branch and bound cuts a node whose surviving candidates cannot beat the
    # incumbent.  Compared with the target (m - 7 removals) instead, it would
    # also cut the subtree that raises the incumbent to 8 kept edges, and
    # answer with 9 kept edges and optimal=False.
    g = generate.random_happy_tc(8, 6, 0.5)
    res = solver.min_spanner_exact(g, s, budget=7, requirement=TwoSource(0, 7), engine="bnb")
    assert (res.size, res.optimal, res.within_budget, res.lower_bound) == (8, True, False, 8)


@pytest.mark.parametrize(
    "n, seed, edge_prob, budget, opt",
    [(11, 0, 0.7, 18, 20), (12, 1, 0.5, 20, 22), (12, 3, 0.5, 20, 22)],
)
def test_decision_search_run_to_the_end_proves_its_size(n, seed, edge_prob, budget, opt):
    # The default engine's branch and bound ends without its node limit and
    # above the budget, so it found a largest removal: the "no" carries a
    # spanner proven minimum.
    g = generate.random_happy_tc(n, seed, edge_prob)
    assert solver.min_spanner_exact(g).size == opt
    res = solver.min_spanner_exact(g, budget=budget)
    assert res.within_budget is False and res.optimal is True
    assert res.lower_bound == res.size == opt


def test_node_limited_bnb_over_more_than_64_removable_edges():
    # Every one of the 115 edges is removable, so the first probe of a
    # removal set covers only 64 candidates.  A node-limited search keeps a
    # feasible removal at least as large as the incumbent it started from.
    g = generate.random_happy_tc(16, 0, 0.95)
    oracle = solver._SubsetOracle(g, STRICT, ALL_PAIRS)
    assert len(oracle.removable) == g.m == 115
    kept = solver._greedy_local_min(oracle, oracle.removable)
    incumbent = [i for i in oracle.removable if i not in kept]
    for limit in (1, 50, 500):
        removal, stopped = solver._bnb_max_removal(
            oracle, *oracle.blocks, len(oracle.removable), incumbent, limit
        )
        assert stopped and len(removal) >= len(incumbent)
        assert oracle.feasible(reach._drop_flags(g, set(range(g.m)) - set(removal)))


def test_schedule_search_visits_a_pinned_number_of_nodes(monkeypatch):
    # Answers do not change when a cut of branch and bound gets weaker, or
    # when a probe stops answering its first child's probe too; only node
    # and sweep counts do.  The schedule's search on each of three generator
    # graphs visits exactly the pinned number of nodes: it stops at one node
    # fewer and completes at that many.  The whole solve runs the pinned
    # numbers of lane and plain sweeps; a one-lane probe is a lane sweep.
    calls = []
    sweeps = []
    real, real_lane, real_plain = solver._bnb_max_removal, reach._lane_sweep, reach._mask_sweep

    def bnb(oracle, blocks, caps, stop, incumbent=None, node_limit=None):
        if incumbent is not None:
            calls.append((oracle, blocks, caps, stop, incumbent))
        return real(oracle, blocks, caps, stop, incumbent, node_limit)

    def lane_sweep(g, s, drop, masks):
        sweeps.append("lane")
        return real_lane(g, s, drop, masks)

    def plain_sweep(groups, s, removed, masks):
        sweeps.append("plain")
        return real_plain(groups, s, removed, masks)

    monkeypatch.setattr(solver, "_bnb_max_removal", bnb)
    monkeypatch.setattr(reach, "_lane_sweep", lane_sweep)
    monkeypatch.setattr(reach, "_mask_sweep", plain_sweep)
    pins = (((8, 3, 0.6), 310, 112, 15), ((9, 2, 0.6), 1937, 461, 19), ((12, 0, 0.6), 948, 282, 20))
    for (n, seed, p), nodes, lane_sweeps, plain_sweeps in pins:
        g = generate.random_happy_tc(n, seed, p)
        calls.clear()
        sweeps.clear()
        res = solver.min_spanner_exact(g, engine="bnb")
        assert (sweeps.count("lane"), sweeps.count("plain")) == (lane_sweeps, plain_sweeps)
        (args,) = calls
        assert real(*args, nodes - 1)[1]
        removal, stopped = real(*args, nodes)
        assert not stopped and res.spanner.kept == set(range(args[0].g.m)) - set(removal)


def test_bnb_probes_the_next_64_candidates_past_its_window(monkeypatch):
    # Vertex 0 is the one source.  It reaches h = 1 by e0 at label 1 or by f
    # at label 200, the path h-2-...-80 at labels 2..80, each path vertex
    # also by its own edge from 0 (the B edges), and z = 81 by one edge or by
    # six late ones (the D edges).  Every edge is removable alone, so the
    # root reads its answers from the forced set and probes nothing.  Once
    # e0 is removed, h is reached too late for the path, and every B edge is
    # needed: that removal set's first probe covers 3 D edges and 61 B
    # edges, and its keep chain walks past them into a second probe.  The
    # subtree that removes the first D edge inherits the unprobed
    # candidates, so its first probe reaches past its parent's window.
    path = [(v, v + 1, v + 1) for v in range(1, 80)]
    b_edges = [(0, v, 100 + v) for v in range(2, 81)]
    d_edges = [(0, 81, 300 + i) for i in range(6)]
    edges = [(0, 1, 1), (0, 1, 200), (0, 81, 1)] + path + b_edges + d_edges
    g = tg.build(82, edges)
    index = {key: i for i, key in enumerate(edges)}
    e0, free_b, free_d = 0, [index[e] for e in b_edges], [index[e] for e in d_edges]
    oracle = solver._SubsetOracle(g, STRICT, TwoSource(0, 0))
    assert not oracle.forced
    order = [e0] + free_d[:3] + free_b[:70] + free_d[3:] + free_b[70:]
    probes = []
    real = solver._SubsetOracle.feasible_each

    def probe(self, removed, edges, pairs):
        # The window's edges, one per lane, then its first edge paired with
        # the next ones in the lanes left over.
        assert pairs == min(len(edges) - 1, 64 - len(edges))
        probes.append((frozenset(i for i, d in enumerate(removed) if d), list(edges)))
        return real(self, removed, edges, pairs)

    monkeypatch.setattr(solver._SubsetOracle, "feasible_each", probe)
    removal, stopped = solver._bnb_max_removal(oracle, [order], [len(order)], len(order))
    # Keeping e0 lets every B and D edge go; removing it keeps every B edge.
    assert sorted(removal) == sorted(free_b + free_d) and not stopped
    assert all(removed for removed, _ in probes)
    after_e0 = order[1:]
    assert (frozenset({e0}), after_e0[:64]) in probes
    assert (frozenset({e0}), after_e0[64:]) in probes
    first_child = next(edges for removed, edges in probes if removed == {e0, free_d[0]})
    assert first_child == free_d[1:3] + after_e0[64:]


def test_bnb_first_child_reads_its_answers_from_the_parent_probe(monkeypatch):
    # Vertex 0 is the one source and reaches 1 by x or c1, 2 by e or c2 and
    # 3 by c3 or a kept edge; every edge is removable alone.  Once x is
    # removed, the probe's window is e, c1, c2, c3, and its three spare
    # lanes ask "remove e and c too" for c = c1, c2, c3.  c1 is infeasible without
    # x, so its pair is too and leaves the child's candidates; c2 is
    # feasible alone but not without e; c3 is feasible either way.  The
    # child that removes e reads both of its answers there and makes no
    # probe, and its answer for c3 sends it on to the first largest
    # removal, x, e and c3.
    edges = [(0, 1, 5), (0, 2, 1), (0, 1, 6), (0, 2, 2), (0, 3, 3), (0, 3, 4)]
    x, e, c1, c2, c3 = range(5)
    oracle = solver._SubsetOracle(tg.build(4, edges), STRICT, TwoSource(0, 0))
    assert not oracle.forced
    probes = []
    real = solver._SubsetOracle.feasible_each

    def probe(self, removed, edges, pairs):
        answers = real(self, removed, edges, pairs)
        probes.append((frozenset(i for i, d in enumerate(removed) if d), list(edges), pairs, answers))
        return answers

    monkeypatch.setattr(solver._SubsetOracle, "feasible_each", probe)
    order = [x, e, c1, c2, c3]
    removal, stopped = solver._bnb_max_removal(oracle, [order], [len(order)], len(order))
    assert removal == [x, e, c3] and not stopped
    assert ({x}, [e, c1, c2, c3], 3, [True, False, True, True, False, False, True]) in probes
    assert all(removed != {x, e} for removed, _, _, _ in probes)


def _instances(kind, s, two_source, count):
    """``count`` seeded graphs of ``kind`` meeting the requirement, with 2 to
    12 removable edges."""
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        if kind == "happy":
            try:
                g = generate.random_happy_tc_with_cover(5 + seed % 3, 1 + seed % 3, seed)
            except generate.GenerationFailed:
                continue
        else:
            g = _multilabel_graph(seed)
        req = TwoSource(0, g.vertex_count - 1) if two_source else ALL_PAIRS
        if not solver.requirement_holds(g, s, req):
            continue
        if 2 <= g.m - len(solver.forced_edges(g, s, req)) <= 12:
            out.append((g, req))
    return out


def _in_every_mode(test):
    """Parametrizes ``test`` over the graph kind, the requirement and the
    path semantics."""
    test = pytest.mark.parametrize("s", [STRICT, NONSTRICT], ids=["strict", "nonstrict"])(test)
    test = pytest.mark.parametrize("two_source", [False, True], ids=["all-pairs", "two-source"])(test)
    return pytest.mark.parametrize("kind", ["happy", "multilabel"])(test)


def _agrees_in_every_mode(engine, kind, two_source, s):
    """:func:`_agrees_with_brute` on 8 instances of the mode; two-source
    instances are also checked with both sources at vertex 0."""
    proven = 0
    for g, req in _instances(kind, s, two_source, 8):
        proven += _agrees_with_brute(engine, g, s, req)
        if two_source:
            proven += _agrees_with_brute(engine, g, s, TwoSource(0, 0))
    return proven


@_in_every_mode
def test_bnb_agrees_with_brute_in_every_mode(kind, two_source, s):
    _agrees_in_every_mode("bnb", kind, two_source, s)


@_in_every_mode
def test_lane_probe_answers_each_single_and_pair_as_one_query(kind, two_source, s):
    # The chain's probe shape: a window of k edges, one per lane, then the
    # window's first edge paired with each next one in the lanes left over,
    # up to 64.  Windows draw edges with repeats, so that k = 65 asks for
    # more lanes than graphs of fewer edges have; forced edges in them make
    # single answers False, and every pair with such an edge False too.
    # Last, 80 single lanes and 79 pair lanes go into one sweep, as any
    # number of lanes does.
    rng = random.Random(3)
    false_pairs = 0
    shapes = ((1, 0), (2, 1), (32, 31), (33, 31), (63, 1), (64, 0), (65, 0), (80, 79))
    for g, req in _instances(kind, s, two_source, 3):
        oracle = solver._SubsetOracle(g, s, req)
        for removed in ([0] * g.m, [-(e in oracle.removable and rng.random() < 0.2) for e in range(g.m)]):
            for k, p in shapes:
                window = rng.choices(range(g.m), k=k)
                answers = oracle.feasible_each(removed, window, p)
                lanes = [{c} for c in window] + [{window[0], c} for c in window[1 : 1 + p]]
                assert len(answers) == len(lanes)
                for lane, got in zip(lanes, answers):
                    flags = [-(f != 0) for f in removed]
                    for c in lane:
                        flags[c] = -1
                    assert got == oracle.feasible(flags)
                for b, got in enumerate(answers[k:], 1):
                    false_pairs += not answers[b]
                    assert answers[b] or not got
    assert false_pairs >= 10


@_in_every_mode
def test_flow_agrees_with_brute_in_every_mode(monkeypatch, kind, two_source, s):
    # With no branch-and-bound nodes the restarts and the hitting-set
    # search run on these small graphs.
    monkeypatch.setattr(solver, "_NODE_LIMIT", 0)
    _agrees_in_every_mode("flow", kind, two_source, s)


def test_xp_agrees_with_brute(monkeypatch):
    monkeypatch.setattr(solver, "_NODE_LIMIT", 0)
    assert _agrees_in_every_mode("xp", "happy", False, STRICT) > 0


@pytest.fixture
def milp_calls(monkeypatch):
    """The statuses of the ``scipy.optimize.milp`` calls made during a test."""
    import scipy.optimize

    real = scipy.optimize.milp
    statuses = []

    def spy(**kwargs):
        res = real(**kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(scipy.optimize, "milp", spy)
    return statuses


def _ends_in(statuses, last):
    """Whether a hitting-set search made MILP calls that all solved but the
    last one, which ended with status ``last``: 2 proves that no spanner
    fits, 0 that the last candidate is minimum."""
    return statuses[-1:] == [last] and set(statuses[:-1]) <= {0}


# Multi-label graphs, as (seed, n_range) of ``_multilabel_graph``, whose
# restart incumbent no bound settles: between them the hitting-set search
# confirms it ("cutoff") and beats it ("beaten") in every mode.
_UNSETTLED = [(1, (5, 7)), (14, (5, 7)), (174, (5, 7)), (236, (5, 7)), (336, (5, 7)), (1100, (6, 8))]


@pytest.mark.parametrize("two_source", [False, True], ids=["all-pairs", "two-source"])
@pytest.mark.parametrize("s", [STRICT, NONSTRICT], ids=["strict", "nonstrict"])
def test_flow_takes_each_path_around_the_greedy_incumbent(monkeypatch, milp_calls, two_source, s):
    # With no branch-and-bound nodes, every answer that the index greedy
    # and the bounds leave open goes to the restarts, then to the
    # hitting-set search.
    monkeypatch.setattr(solver, "_NODE_LIMIT", 0)
    instances = _instances("happy", s, two_source, 8) + _instances("multilabel", s, two_source, 8)
    for seed, n_range in _UNSETTLED:
        g = _multilabel_graph(seed, n_range)
        req = TwoSource(0, g.vertex_count - 1) if two_source else ALL_PAIRS
        if solver.requirement_holds(g, s, req):
            instances.append((g, req))
    paths, nos = set(), set()
    for g, req in instances:
        oracle = solver._SubsetOracle(g, s, req)
        removable = oracle.removable
        lower = max(len(oracle.forced), solver._gossip_bound(oracle))
        bound = max(lower, solver._block_bound(oracle))
        index = solver._greedy_local_min(oracle, removable)
        best = solver._greedy_restarts(oracle, removable, bound, index)
        opt = solver.min_spanner_brute(g, s, req).size
        milp_calls.clear()
        res = solver.min_spanner_exact(g, s, requirement=req, engine="flow")
        assert res.size == opt and res.optimal
        assert solver.requirement_holds(g, s, req, kept=res.spanner.kept)
        if len(index) <= lower:
            # The index greedy meets |forced| or the gossip bound: no model.
            paths.add("incumbent")
            assert milp_calls == [] and res.spanner.kept == index
        elif len(index) <= bound:
            paths.add("bound")
            assert milp_calls == [] and res.spanner.kept == index
        elif len(best) <= bound:
            paths.add("restart")
            assert milp_calls == [] and res.spanner.kept == best
        elif len(best) == opt:
            # The search at cutoff |best| - 1 ends in an infeasible model:
            # best is optimal.
            paths.add("cutoff")
            assert _ends_in(milp_calls, 2) and res.spanner.kept == best
        else:
            paths.add("beaten")
            assert _ends_in(milp_calls, 0) and res.size < len(best)
        # Decision mode: the greedy, then the restarts, stop on the first
        # spanner within the budget.
        milp_calls.clear()
        yes = solver.min_spanner_exact(g, s, budget=len(best), requirement=req, engine="flow")
        assert milp_calls == [] and yes.within_budget and yes.spanner.kept == best
        # A budget below a lower bound is answered with no model: the "no"
        # carries the index greedy spanner, optimal if it meets the bound.
        milp_calls.clear()
        no = solver.min_spanner_exact(g, s, budget=bound - 1, requirement=req, engine="flow")
        assert milp_calls == [] and no.within_budget is False
        assert no.spanner.kept == index and no.optimal is (len(index) <= bound)
        nos.add("block" if bound > lower else "early")
        if len(best) == opt > bound:
            # The search refuses budget opt - 1: the "no" carries the
            # incumbent, proven optimal.
            milp_calls.clear()
            no = solver.min_spanner_exact(g, s, budget=opt - 1, requirement=req, engine="flow")
            assert _ends_in(milp_calls, 2) and no.within_budget is False and no.optimal
            assert no.spanner.kept == best
            nos.add("milp")
    assert paths == {"incumbent", "bound", "restart", "cutoff", "beaten"}
    assert nos == {"block", "early", "milp"}


def test_flow_no_answer_after_the_greedy_carries_the_incumbent(monkeypatch, milp_calls):
    # PHI_UNSAT's graph: 26 forced edges, gossip bound 32, block bound 37,
    # and no greedy pass below 38, the optimum.  With no branch-and-bound
    # nodes the hitting-set search refuses budget 37, and the block bound
    # budgets 36 and 31; every answer keeps the index greedy spanner, which
    # only the search proves optimal.
    monkeypatch.setattr(solver, "_NODE_LIMIT", 0)
    g = red.sat_to_spanner_instance(red.SatInstance(1, ((1, 1, 1), (-1, -1, -1)))).graph
    oracle = solver._SubsetOracle(g, STRICT, ALL_PAIRS)
    index = solver._greedy_local_min(oracle, oracle.removable)
    assert len(oracle.forced) == 26 and solver._block_bound(oracle) == 37
    assert solver._greedy_restarts(oracle, oracle.removable, 32, index) == index
    assert len(index) == 38 < g.m
    for budget, searched, optimal in ((37, True, True), (36, False, False), (31, False, False)):
        milp_calls.clear()
        res = solver.min_spanner_exact(g, budget=budget, engine="flow")
        assert (_ends_in(milp_calls, 2) if searched else milp_calls == []) and res.spanner.kept == index
        assert res.size == 38 and res.within_budget is False and res.optimal is optimal
    # At the default limit branch and bound proves 38 with no model.
    monkeypatch.setattr(solver, "_NODE_LIMIT", 2000)
    milp_calls.clear()
    res = solver.min_spanner_exact(g, budget=37, engine="flow")
    assert milp_calls == [] and res.size == 38 and res.optimal and res.within_budget is False


def test_flow_search_keeps_a_forced_set_that_is_a_spanner(monkeypatch, milp_calls):
    # When the forced edges alone meet the requirement, the hitting-set
    # search's first candidate is a spanner: it answers with the forced set,
    # or proves that no spanner fits a smaller budget, without building a
    # model.  With no removable edge the model would have no column at all.
    monkeypatch.setattr(solver, "_NODE_LIMIT", 0)
    path = [(v, v + 1, v + 1) for v in range(79)]
    cases = [(tg.build(80, path + late), STRICT, TwoSource(0, 0)) for late in ([], [(0, 40, 300)])]
    for seed in range(140):
        g = _multilabel_graph(seed)
        for s in (STRICT, NONSTRICT):
            for req in (ALL_PAIRS, TwoSource(0, g.vertex_count - 1)):
                oracle = solver._SubsetOracle(g, s, req)
                if oracle.satisfied and oracle.feasible(reach._drop_flags(g, oracle.forced)):
                    cases.append((g, s, req))
    with_free = sum(len(solver.forced_edges(g, s, req)) < g.m for g, s, req in cases)
    assert with_free >= 10 and len(cases) > with_free
    for g, s, req in cases:
        oracle = solver._SubsetOracle(g, s, req)
        forced = oracle.forced
        assert solver._exact_by_hitting_set(oracle, len(forced)) == forced
        assert solver._exact_by_hitting_set(oracle, len(forced) - 1) is None
        if len(oracle.removable) <= 12:
            _agrees_with_brute("flow", g, s, req)
    assert milp_calls == []


@pytest.mark.parametrize("s", [STRICT, NONSTRICT], ids=["strict", "nonstrict"])
def test_disjoint_cores_are_minimal_and_leave_a_feasible_rest(s):
    # Drawn from every removable edge, in index order and in reverse: each
    # core breaks the requirement and keeping any one of its edges mends
    # it; the cores are disjoint, and the removal set without them is
    # feasible.
    drawn = 0
    for g, req in _instances("multilabel", s, False, 6) + _instances("multilabel", s, True, 6):
        oracle = solver._SubsetOracle(g, s, req)
        removable = oracle.removable

        def breaks(removed):
            return not oracle.feasible(reach._drop_flags(g, set(range(g.m)) - set(removed)))

        for order in (removable, removable[::-1]):
            cores = solver._disjoint_cores(oracle, order)
            assert bool(cores) is breaks(removable)
            taken = [e for core in cores for e in core]
            assert len(taken) == len(set(taken)) and set(taken) <= set(removable)
            for core in cores:
                assert breaks(core) and not any(breaks(set(core) - {e}) for e in core)
            assert not breaks(set(removable) - set(taken))
            drawn += len(cores)
    assert drawn > 12


def test_flow_engine_settles_a_graph_with_no_model(milp_calls):
    # The index greedy keeps 23 edges, the optimum, but the gossip and
    # block bounds are 20: branch and bound, seeded with that spanner,
    # proves it within its node limit, so the MILP never runs.
    g = generate.random_happy_tc(12, 0, 0.6)
    oracle = solver._SubsetOracle(g, STRICT, ALL_PAIRS)
    assert len(solver._greedy_local_min(oracle, oracle.removable)) == 23
    assert solver._block_bound(oracle) == 20
    res = solver.min_spanner_exact(g, engine="flow")
    assert res.size == 23 and res.optimal and milp_calls == []
    assert solver.requirement_holds(g, STRICT, ALL_PAIRS, res.spanner.kept)


@pytest.mark.parametrize("limit", [0, 2000], ids=["no-nodes", "default"])
def test_restarts_and_fallback_run_only_after_a_stopped_search(monkeypatch, milp_calls, limit):
    # Logs whether the main branch and bound (the call given an incumbent)
    # stopped at the node limit, and when the restarts run.  They and the
    # MILP run exactly after a stopped search, and never for the bnb
    # engine, which has no fallback within its cap.
    monkeypatch.setattr(solver, "_NODE_LIMIT", limit)
    log = []
    real_bnb, real_restarts = solver._bnb_max_removal, solver._greedy_restarts

    def bnb(oracle, blocks, caps, stop, incumbent=None, node_limit=None):
        removal, stopped = real_bnb(oracle, blocks, caps, stop, incumbent, node_limit)
        if incumbent is not None:
            log.append("stopped" if stopped else "searched")
        return removal, stopped

    def restarts(*args):
        log.append("restarts")
        return real_restarts(*args)

    monkeypatch.setattr(solver, "_bnb_max_removal", bnb)
    monkeypatch.setattr(solver, "_greedy_restarts", restarts)
    instances = [(g, ALL_PAIRS) for g in (_multilabel_graph(*a) for a in _UNSETTLED)]
    instances += _instances("multilabel", NONSTRICT, True, 8)
    searched = milps = 0
    for g, req in instances:
        for engine in ("bnb", "flow"):
            log.clear()
            milp_calls.clear()
            res = solver.min_spanner_exact(g, NONSTRICT, requirement=req, engine=engine)
            assert res.optimal
            if engine == "bnb" or limit:
                assert "stopped" not in log and "restarts" not in log and milp_calls == []
            elif log:
                assert log[:2] == ["stopped", "restarts"] and len(log) == 2
                milps += len(milp_calls)
            else:  # the greedy or the block bound settled it
                assert milp_calls == []
            searched += "searched" in log
    assert searched and (milps > 0) is (limit == 0)


def test_bnb_no_answer_is_no_larger_than_the_greedy_spanner():
    # The two-source PHI_UNSAT variant at its budget 21: the exhausted
    # decision search of branch and bound cannot reach the budget, and
    # returns a largest removal, 13 edges, keeping 22, the optimum; so does
    # the index-order greedy spanner.  Seeded with the greedy's removal set
    # the search returns that set.
    var = red.sat_two_source_variant(red.sat_to_spanner_instance(red.SatInstance(1, ((1, 1, 1), (-1, -1, -1)))))
    g, req = var.graph, TwoSource(*var.sources)
    assert var.budget == 21 and g.m == 35
    oracle = solver._SubsetOracle(g, STRICT, req)
    removal, stopped = solver._bnb_max_removal(oracle, *oracle.blocks, g.m - 21)
    assert len(removal) == 13 and not stopped
    assert oracle.feasible(reach._drop_flags(g, set(range(g.m)) - set(removal)))
    greedy = solver._greedy_local_min(oracle, oracle.removable)
    assert len(greedy) == 22
    seed = [i for i in oracle.removable if i not in greedy]
    assert solver._bnb_max_removal(oracle, *oracle.blocks, g.m - 21, incumbent=seed) == (seed, False)
    for engine in solver.ENGINES:
        res = solver.min_spanner_exact(g, budget=21, requirement=req, engine=engine)
        assert res.within_budget is False and res.size == 22 == res.lower_bound and res.optimal
        assert res.spanner.kept == greedy


def test_each_solve_reads_the_requirement_once(monkeypatch, milp_calls):
    # Counts oracle constructions, sweeps with no edge dropped (from any
    # start masks) and conflict-block computations.  Each solve builds one
    # oracle, which checks the whole graph once, for its forced set and, in
    # XP, for connectivity, and computes its blocks at most once; the block
    # bound and the searches all read it.  With no branch-and-bound nodes
    # the MILP and the XP search run here.
    monkeypatch.setattr(solver, "_NODE_LIMIT", 0)
    counts = {"oracles": 0, "whole": 0, "blocks": 0, "unions": 0}
    real_init = solver._SubsetOracle.__init__
    real_sweep = reach._mask_sweep
    real_failing = solver._SubsetOracle.failing_sources
    real_blocks = solver._conflict_blocks

    def init(self, *args):
        counts["oracles"] += 1
        real_init(self, *args)

    def sweep(groups, s, removed, masks):
        counts["whole"] += not any(removed)
        return real_sweep(groups, s, removed, masks)

    def failing(self, removed):
        counts["unions"] += 1
        return real_failing(self, removed)

    def blocks(*args):
        counts["blocks"] += 1
        return real_blocks(*args)

    monkeypatch.setattr(solver._SubsetOracle, "__init__", init)
    monkeypatch.setattr(reach, "_mask_sweep", sweep)
    monkeypatch.setattr(solver._SubsetOracle, "failing_sources", failing)
    monkeypatch.setattr(solver, "_conflict_blocks", blocks)

    def counted(call):
        for key in counts:
            counts[key] = 0
        call()
        assert counts["blocks"] <= 1
        return counts["oracles"], counts["whole"]

    # The hitting-set search beats the incumbent after the block bound; the
    # solve's oracle re-checks its answer.
    g = _multilabel_graph(174, (5, 7))
    assert counted(lambda: solver.min_spanner_exact(g, engine="flow")) == (1, 1)
    assert _ends_in(milp_calls, 0) and counts["blocks"] == 1
    assert counted(lambda: solver.forced_edges(g)) == (1, 1)
    assert counted(lambda: solver.min_spanner_brute(g)) == (1, 1)
    # phi-mixed, optimum 54: the conflict-block searches and the main branch
    # and bound read the one oracle.
    g = red.sat_to_spanner_instance(red.SatInstance(2, ((1, -2, 2), (-1, -1, 2)))).graph
    for engine, budget in [("auto", None), ("bnb", None)] + [
        (engine, budget) for engine in solver.ENGINES for budget in (54, 53)
    ]:
        assert counted(lambda: solver.min_spanner_exact(g, budget=budget, engine=engine)) == (1, 1)
    # XP: one oracle, whose forced set the block bound reads, however many
    # candidate unions the search evaluates; each union asks it once.
    g = generate.random_happy_tc_with_cover(7, 3, 47)
    assert counted(lambda: solver.min_spanner_xp_vc(g)) == (1, 1)
    assert counts["unions"] > 1 and counts["blocks"] == 1


def test_search_depth_is_not_bound_by_the_recursion_limit():
    # Branch and bound goes one call deeper per removed edge, and its first
    # dive removes most of this graph's 262 edges, all removable: more than
    # the 100 frames left here.  The search raises the limit for its own
    # run only; the cap then refuses the MILP.
    g = generate.random_happy_tc(24, 0, 0.95)
    old = sys.getrecursionlimit()
    limit = len(inspect.stack(0)) + 100
    sys.setrecursionlimit(limit)
    try:
        with pytest.raises(solver.InstanceTooLarge):
            solver.min_spanner_exact(g, engine="flow", cap=0)
        assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(old)


def test_restarts_run_only_until_the_goal(monkeypatch):
    # The index order keeps 13 edges; a shuffle finds 12 = 2n - 4.  The
    # restarts run shuffles only, and keep the spanner they are given
    # unless one is smaller.
    g = generate.random_happy_tc_with_cover(8, 3, 1)
    oracle = solver._SubsetOracle(g, STRICT, ALL_PAIRS)
    order = list(range(g.m))
    index = solver._greedy_local_min(oracle, order)
    assert len(index) == 13
    passes = []
    real = solver._greedy_local_min
    monkeypatch.setattr(solver, "_greedy_local_min", lambda *a: passes.append(1) or real(*a))
    sizes = {}
    for goal in (12, 0):
        passes.clear()
        sizes[goal] = (len(solver._greedy_restarts(oracle, order, goal, index)), len(passes))
    assert sizes[12][0] == 12 and 0 < sizes[12][1] < solver._RESTARTS
    assert sizes[0] == (12, solver._RESTARTS)
    best = solver._greedy_restarts(oracle, order, 0, index)
    assert solver._greedy_restarts(oracle, order, 0, best) is best


@pytest.mark.parametrize("engine", ["bnb", "flow"])
def test_engines_return_the_forced_set_when_nothing_is_removable(engine):
    for g in (tg.build(1, []), tg.build(2, [(0, 1, 1)])):
        res = solver.min_spanner_exact(g, engine=engine)
        assert res.spanner.kept == frozenset(range(g.m))
        assert res.size == g.m and res.optimal and res.within_budget is None
        for budget in range(g.m + 1):
            res = solver.min_spanner_exact(g, budget=budget, engine=engine)
            assert res.size == g.m and res.optimal
            assert res.within_budget is (g.m <= budget)


@pytest.mark.parametrize("engine", ["auto", "bnb", "flow"])
def test_exact_result_fields_follow_from_kept(engine):
    g = generate.random_happy_tc(6, 0, 0.6)
    oracle = solver._SubsetOracle(g, STRICT, ALL_PAIRS)
    forced = oracle.forced
    greedy = solver._greedy_local_min(oracle, oracle.removable)
    opt = solver.min_spanner_exact(g, engine=engine).size
    assert 0 < len(forced) < opt - 1
    # The index greedy spanner meets the gossip bound 2n - 4 = opt, so it
    # answers every budget, proven optimal, with no search: the "no" at
    # the last budget, below the forced count, too.
    assert solver._gossip_bound(oracle) == opt == len(greedy)
    for budget in (None, opt, opt - 1, len(forced) - 1):
        res = solver.min_spanner_exact(g, budget=budget, engine=engine)
        assert res.spanner.kept == greedy and res.optimal and res.lower_bound == opt
        assert res.within_budget is (None if budget is None else res.size <= budget)
        assert res.size == len(res.spanner.kept)
        assert res.method == ("exact-bnb" if engine == "auto" else f"exact-{engine}")
        assert solver.requirement_holds(g, STRICT, ALL_PAIRS, res.spanner.kept)


def test_two_source_feasibility_matches_single_source_reach():
    checked = 0
    for seed in range(60):
        g = _multilabel_graph(seed, n_range=(3, 6))
        rng = random.Random(seed)
        for s in (STRICT, NONSTRICT):
            for _ in range(4):
                kept = [i for i in range(g.m) if rng.random() < 0.7]
                s1, s2 = rng.randrange(g.vertex_count), rng.randrange(g.vertex_count)
                holds = solver.requirement_holds(g, s, TwoSource(s1, s2), kept=kept)
                both = reach.reaches_all(g, s1, s, kept) and reach.reaches_all(g, s2, s, kept)
                assert holds == both
                checked += holds
    assert checked >= 20  # both answers occur


@pytest.mark.parametrize(
    "call",
    [
        lambda g, req: solver.forced_edges(g, STRICT, req),
        lambda g, req: solver.min_spanner_brute(g, STRICT, req),
        lambda g, req: solver.min_spanner_exact(g, STRICT, requirement=req),
    ],
    ids=["forced_edges", "brute", "exact"],
)
def test_two_source_entry_points_reject_out_of_range_source(call):
    g = tg.build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    for req in (TwoSource(-3, 0), TwoSource(0, 3)):
        with pytest.raises(ValueError, match="out of range"):
            call(g, req)


def test_unknown_engine_rejected_before_solving():
    g = tg.build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    with pytest.raises(ValueError, match="unknown engine 'bogus'"):
        solver.min_spanner_exact(g, budget=0, engine="bogus")
    with pytest.raises(ValueError, match="unknown engine 'cuts'"):
        solver.min_spanner_exact(g, engine="cuts")
    # Checked before the requirement: this graph does not satisfy it.
    with pytest.raises(ValueError, match="unknown engine"):
        solver.min_spanner_exact(tg.build(3, [(0, 1, 1)]), engine="bogus")


def test_brute_rejects_unsatisfied_requirement():
    with pytest.raises(solver.RequirementNotSatisfied):
        solver.min_spanner_brute(tg.build(3, [(0, 1, 1)]))


# ---------------------------------------------------------------------------
# Vertex cover
# ---------------------------------------------------------------------------


def test_min_vertex_cover_trivial():
    assert solver.min_vertex_cover([(0, 1)]) == frozenset({0}) or solver.min_vertex_cover(
        [(0, 1)]
    ) == frozenset({1})
    assert len(solver.min_vertex_cover([(0, 1)])) == 1
    assert len(solver.min_vertex_cover([(0, 1), (1, 2), (0, 2)])) == 2
    assert solver.min_vertex_cover([]) == frozenset()
    for pair, message in (((0, 2), r"edge \(0, 2\) out of range"), ((-1, 1), r"edge \(-1, 1\) out of range")):
        with pytest.raises(ValueError, match=message):
            solver.min_vertex_cover([pair], 2)


def petersen_edges():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return [(min(a, b), max(a, b)) for a, b in outer + inner + spokes]


def test_min_vertex_cover_petersen():
    edges = petersen_edges()
    cover = solver.min_vertex_cover(edges, 10)
    assert all(a in cover or b in cover for a, b in edges)
    assert len(cover) == 6
    # brute-force oracle: no cover of size five exists
    for cand in combinations(range(10), 5):
        cand = set(cand)
        if all(a in cand or b in cand for a, b in edges):
            pytest.fail(f"found a 5-cover {cand}")


# ---------------------------------------------------------------------------
# Candidate out-trees
# ---------------------------------------------------------------------------


def _figure_tree():
    # The compatibility figure: a 17-vertex tree with increasing labels from
    # vertex 0, so its only out-tree from 0 is the whole graph.
    edges = [
        (0, 1, 1),
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


def test_candidate_trees_match_subset_enumeration():
    # Independent oracle: all (n-1)-subsets of edges that verify as out-trees.
    graphs = small_corpus(8, n_range=(4, 6))
    figure = _figure_tree()
    graphs += [generate.random_happy_tc_with_cover(8, 4, 0), figure]
    for g in graphs:
        cover = sorted(solver.min_vertex_cover(tg.underlying_graph(g), g.vertex_count))
        for root in cover:
            mine = solver._candidate_trees(g, root)
            assert mine == sorted(mine)
            brute = {
                frozenset(sub)
                for sub in combinations(range(g.m), g.vertex_count - 1)
                if reach.verify_out_tree(g, sub, root)
            }
            assert len(mine) == len(brute)
            assert {frozenset(i for i in range(g.m) if mask >> i & 1) for mask in mine} == brute
    assert solver._candidate_trees(figure, 0) == [(1 << 16) - 1]


# ---------------------------------------------------------------------------
# Extra-edge selection
# ---------------------------------------------------------------------------


def _extras(g, tree, cover):
    """The XP search's step for one union ``tree``: per non-cover vertex,
    None if it reaches every vertex through the union, else the extra edge
    that :func:`solver._single_edge_fixes` picks for it; None if some vertex
    has none.  Checks that the rule hands back its drop table unchanged."""
    removed = reach._drop_flags(g, tree)
    flags = removed.copy()
    oracle = solver._SubsetOracle(g, STRICT, ALL_PAIRS)
    short = [v for v in oracle.failing_sources(removed) if v not in cover]
    fixes = solver._single_edge_fixes(g, removed, short)
    assert removed == flags
    if fixes is None:
        return None
    extras = dict.fromkeys(v for v in range(g.vertex_count) if v not in cover)
    extras.update(zip(short, fixes))
    return extras


def test_single_edge_fixes_star_needs_none():
    # A happy TC star only exists with a single leaf.
    g = tg.build(2, [(0, 1, 1)])
    assert _extras(g, {0}, [0]) == {1: None}


def test_single_edge_fixes_mixed():
    # Vertex 1 starts the tree and already reaches everything; vertex 2 joins
    # too late and needs its own earlier incident edge.
    g = tg.build(3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])
    tree = frozenset({0, 1})  # star at 0
    assert reach.verify_out_tree(g, tree, 0)
    assert _extras(g, tree, [0, 1]) == {2: 2}
    assert _extras(g, tree, [0]) == {1: None, 2: 2}


def test_single_edge_fixes_infeasible():
    g = tg.build(3, [(0, 1, 3), (0, 2, 1)])
    tree = frozenset({0, 1})
    assert _extras(g, tree, [0]) is None


def test_single_edge_fixes_complete_vs_joint_enumeration():
    # If any one-extra-per-vertex assignment restores every vertex's own
    # reach over the tree union, the per-vertex rule must succeed.
    for g in small_corpus(12, n_range=(4, 6)):
        cover = sorted(solver.min_vertex_cover(tg.underlying_graph(g), g.vertex_count))
        others = [v for v in range(g.vertex_count) if v not in cover]
        if not others or not cover:
            continue
        tree = reach.foremost_out_tree(g, cover[0], STRICT).tree_edges
        got = _extras(g, tree, cover)
        choice_sets = [
            [None] + list(g.incident[v]) for v in others
        ]
        joint_possible = False
        for combo in product(*choice_sets):
            ok = True
            for v, extra in zip(others, combo):
                kept = set(tree) | ({extra} if extra is not None else set())
                if not reach.reaches_all(g, v, STRICT, kept=kept):
                    ok = False
                    break
            if ok:
                joint_possible = True
                break
        assert (got is not None) == joint_possible


# ---------------------------------------------------------------------------
# XP algorithm
# ---------------------------------------------------------------------------


def test_xp_single_edge_star():
    # The only happy TC graphs with vertex cover number one have two vertices.
    g = tg.build(2, [(0, 1, 1)])
    res = solver.min_spanner_xp_vc(g)
    assert res.size == solver.min_spanner_exact(g).size == 1


def test_xp_requires_happy():
    g = tg.build(2, [(0, 1, 1), (0, 1, 2)])
    with pytest.raises(solver.NotHappy):
        solver.min_spanner_xp_vc(g)
    with pytest.raises(solver.NotHappy):
        solver.vc_tree_decompose(tg.Spanner(g, frozenset({0})), [0])


def test_xp_requires_tc():
    g = tg.build(3, [(0, 1, 1), (1, 2, 2)])
    with pytest.raises(solver.NotTemporallyConnected):
        solver.min_spanner_xp_vc(g)


def test_xp_oracle_equivalence_corpus():
    for g in small_corpus(30):
        assert solver.min_spanner_xp_vc(g).size == solver.min_spanner_exact(g).size


def test_xp_budget_mode():
    # m=12 with 3 forced edges and optimum 8: both budgets need a search.
    g = generate.random_happy_tc(6, 0, 0.6)
    opt = solver.min_spanner_exact(g).size
    yes = solver.min_spanner_xp_vc(g, budget=opt)
    assert yes.within_budget is True and yes.size <= opt
    no = solver.min_spanner_xp_vc(g, budget=opt - 1)
    assert no.within_budget is False


def _strict_greedy(g):
    """The greedy spanner that XP starts from."""
    return solver._greedy_local_min(solver._SubsetOracle(g, STRICT, ALL_PAIRS), range(g.m))


def test_xp_queries_keep_every_forced_edge(monkeypatch):
    # The forced set comes from one lane query that drops each edge alone
    # from the whole graph.  Every other query of an XP solve, greedy
    # passes and branch and bound included, keeps every forced edge.
    queries = []
    real, real_each = solver._SubsetOracle.feasible, solver._SubsetOracle.feasible_each

    def feasible(self, removed):
        queries.append({i for i, d in enumerate(removed) if d})
        return real(self, removed)

    def feasible_each(self, removed, edges, pairs):
        dropped = {i for i, d in enumerate(removed) if d}
        if dropped or list(edges) != list(range(self.g.m)):
            queries.extend(dropped | {e} for e in edges)
            queries.extend(dropped | {edges[0], e} for e in edges[1 : 1 + pairs])
        return real_each(self, removed, edges, pairs)

    monkeypatch.setattr(solver._SubsetOracle, "feasible", feasible)
    monkeypatch.setattr(solver._SubsetOracle, "feasible_each", feasible_each)
    graphs = [generate.random_happy_tc_with_cover(8, 3, 1)] + small_corpus(10, (5, 7))
    checked = 0
    for g in graphs:
        forced = solver.forced_edges(g)
        for budget in (None, 2 * g.vertex_count - 4):
            queries.clear()
            solver.min_spanner_xp_vc(g, budget)
            assert all(not forced & dropped for dropped in queries)
            checked += bool(forced) and len(queries) > 1
    assert checked >= 10


def test_xp_answer_at_the_forced_bound_is_optimal():
    # Every one of the 7 edges is forced, one more than 2n - 4 = 6: the
    # forced edges bound every answer, decisions met by the first greedy
    # pass included.
    g = generate.random_happy_tc_with_cover(5, 3, 3)
    assert len(solver.forced_edges(g)) == g.m == 7
    for budget, within in ((None, None), (7, True), (6, False)):
        res = solver.min_spanner_xp_vc(g, budget=budget)
        assert res.size == res.lower_bound == 7 and res.optimal and res.within_budget is within


def test_xp_spanner_at_the_gossip_bound_is_optimal():
    # The greedy spanner keeps 2n - 4 = 8 edges, so no search runs.
    g = generate.random_happy_tc(6, 0, 0.6)
    assert len(_strict_greedy(g)) == 8
    for budget, within in ((None, None), (9, True), (8, True), (7, False)):
        res = solver.min_spanner_xp_vc(g, budget=budget)
        assert res.size == 8 and res.optimal and res.within_budget is within
    # The index-order greedy keeps 13 edges and branch and bound finds
    # 2n - 4 = 12, optimal even when it also decides a budget.  Budget 13 is
    # met by the greedy, whose spanner no bound proves optimal.  Budget 11
    # is below the gossip bound: the "no" carries the greedy spanner.
    g = generate.random_happy_tc_with_cover(8, 3, 1)
    assert len(_strict_greedy(g)) == 13
    for budget, size, within in ((None, 12, None), (13, 13, True), (12, 12, True), (11, 13, False)):
        res = solver.min_spanner_xp_vc(g, budget=budget)
        assert res.size == size and res.optimal is (size == 12) and res.lower_bound == 12
        assert res.within_budget is within
        assert solver.requirement_holds(g, STRICT, ALL_PAIRS, res.spanner.kept)


def test_xp_block_bound_settles_without_a_search(monkeypatch):
    # No greedy pass keeps fewer than 17 edges, above 2n - 4 = 16, and the search
    # takes 11-13 s to prove 17 optimal (2 cores, Python 3.11).  The block bound is 17.
    g = generate.random_happy_tc_with_cover(10, 3, 23)

    def no_search(*args):
        raise AssertionError("the bounds settle this graph")

    monkeypatch.setattr(solver, "_xp_search", no_search)
    # Budget 17 is met by the first greedy pass, before the bound is known.
    for budget, optimal, within in ((None, True, None), (17, False, True), (16, True, False)):
        res = solver.min_spanner_xp_vc(g, budget=budget)
        assert res.size == 17 and res.optimal is optimal and res.within_budget is within


def test_xp_search_evaluates_each_union_at_most_once(monkeypatch):
    # Every full union is evaluated through one failing-sources query; run
    # to the end from the whole edge set, no drop table may come twice.
    g = generate.random_happy_tc_with_cover(8, 3, 1)
    oracle = solver._SubsetOracle(g, STRICT, ALL_PAIRS)
    tables = []
    real = solver._SubsetOracle.failing_sources

    def failing(self, removed):
        tables.append(tuple(removed))
        return real(self, removed)

    monkeypatch.setattr(solver._SubsetOracle, "failing_sources", failing)
    kept, proven = solver._xp_search(oracle, frozenset(range(g.m)), 0)
    assert proven == len(kept) == solver.min_spanner_exact(g).size
    assert len(tables) > 100  # without the dedupe, 175 of 318 repeat
    assert len(set(tables)) == len(tables)


def test_xp_search_matches_exact():
    # The restarts and the block bound settle most XP calls on these graphs
    # before any search, so the search is run directly, from the whole edge
    # set.
    graphs = small_corpus(30)
    graphs += [generate.random_happy_tc_with_cover(*a) for a in ((8, 3, 1), (9, 3, 0), (8, 4, 0), (9, 4, 0))]
    searched = 0
    for g in graphs:
        opt = solver.min_spanner_exact(g).size
        oracle = solver._SubsetOracle(g, STRICT, ALL_PAIRS)
        floor = solver._gossip_bound(oracle)
        everything = frozenset(range(g.m))
        for budget in (None, opt, opt - 1):
            goal = floor if budget is None else max(floor, budget)
            kept, proven = solver._xp_search(oracle, everything, goal)
            assert len(kept) == opt
            assert reach.is_tc(g, STRICT, kept)
            # It ends early, proving nothing, exactly on a spanner smaller
            # than the one it started from and within the goal; run to the
            # end it proves the optimum.
            assert proven == (0 if opt < g.m and opt <= goal else opt)
        searched += opt > floor
    assert searched >= 5  # the full search runs, not only the stop at the floor


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(st.integers(5, 9), st.integers(3, 4), st.integers(0, 10**6))
def test_xp_search_matches_exact_on_cover_graphs(n, d, seed):
    # The search runs from the whole edge set, so the combination and
    # extra-edge stages always run.  With goal 0 it runs to the end and
    # proves the optimum; at goal opt it stops on the first spanner within
    # it, proving nothing, unless no edge can go.  Brute force checks the
    # exact solver where it can.
    try:
        g = generate.random_happy_tc_with_cover(n, d, seed)
    except generate.GenerationFailed:
        assume(False)
    opt = solver.min_spanner_exact(g).size
    oracle = solver._SubsetOracle(g, STRICT, ALL_PAIRS)
    if len(oracle.removable) <= 12:
        assert solver.min_spanner_brute(g).size == opt
    for goal, want in ((0, opt), (opt, 0 if opt < g.m else opt)):
        kept, proven = solver._xp_search(oracle, frozenset(range(g.m)), goal)
        assert len(kept) == opt and proven == want
        assert solver.requirement_holds(g, STRICT, ALL_PAIRS, kept)


@pytest.mark.parametrize("n, d, seed", [(8, 3, 1), (9, 3, 0), (8, 4, 0), (9, 4, 0)])
def test_xp_matches_exact_on_larger_covers(n, d, seed):
    g = generate.random_happy_tc_with_cover(n, d, seed)
    opt = solver.min_spanner_exact(g).size
    res = solver.min_spanner_xp_vc(g)
    assert res.size == opt
    assert solver.requirement_holds(g, STRICT, ALL_PAIRS, res.spanner.kept)
    assert solver.min_spanner_xp_vc(g, budget=opt).within_budget is True
    assert solver.min_spanner_xp_vc(g, budget=opt - 1).within_budget is False


def test_xp_size_invariant_under_edge_order():
    g = generate.random_happy_tc_with_cover(7, 2, 9)
    base = solver.min_spanner_xp_vc(g).size
    reordered = tg.build(g.vertex_count, list(reversed(g.edges)))
    assert solver.min_spanner_xp_vc(reordered).size == base


def test_xp_single_vertex():
    g = tg.build(1, [])
    assert solver.min_spanner_xp_vc(g).size == 0
    for budget, within in ((0, True), (-1, False)):
        res = solver.min_spanner_xp_vc(g, budget=budget)
        assert res.size == 0 and res.within_budget is within


# ---------------------------------------------------------------------------
# VC-tree decomposition
# ---------------------------------------------------------------------------


def test_decompose_single_edge_star():
    g = tg.build(2, [(0, 1, 1)])
    spanner = solver.min_spanner_exact(g).spanner
    decomp = solver.vc_tree_decompose(spanner, [0])
    assert decomp is not None
    assert len(decomp.trees) == 1
    assert decomp.trees[0].root == 0
    assert decomp.extras == ()


def test_decompose_single_vertex():
    # The lone vertex reaches itself through the empty spanner.
    g = tg.build(1, [])
    for cover in ([], [0]):
        decomp = solver.vc_tree_decompose(tg.Spanner(g, frozenset()), cover)
        assert decomp == solver.VcTreeDecomposition(trees=(), extras=())


def test_decompose_optimum_corpus():
    for g in small_corpus(20):
        cover = sorted(solver.min_vertex_cover(tg.underlying_graph(g), g.vertex_count))
        spanner = solver.min_spanner_exact(g).spanner
        decomp = solver.vc_tree_decompose(spanner, cover)
        assert decomp is not None
        assert len(decomp.trees) <= len(cover)
        union = set()
        for tree in decomp.trees:
            assert tree.root in cover
            assert reach.verify_out_tree(g, tree.tree_edges, tree.root)
            union |= tree.tree_edges
        for v, e in decomp.extras:
            assert v not in cover
            assert v in (g.edges[e].u, g.edges[e].v)
            union.add(e)
        assert union == set(spanner.kept)


def test_decompose_rejects_a_spanner_that_is_not_minimum():
    # The whole graph keeps 17 edges where the optimum keeps 12.
    g = generate.random_happy_tc_with_cover(8, 3, 1)
    cover = sorted(solver.min_vertex_cover(tg.underlying_graph(g), g.vertex_count))
    assert solver.min_spanner_exact(g).size == 12 < g.m == 17
    assert solver.vc_tree_decompose(tg.Spanner(g, frozenset(range(g.m))), cover) is None


def test_decompose_rejects_disconnected_spanner():
    g = generate.random_happy_tc_with_cover(5, 2, 4)
    cover = sorted(solver.min_vertex_cover(tg.underlying_graph(g), g.vertex_count))
    with pytest.raises(solver.NotTemporallyConnected):
        solver.vc_tree_decompose(tg.Spanner(g, frozenset()), cover)


def test_decompose_requires_cover():
    g = generate.random_happy_tc_with_cover(5, 2, 4)
    spanner = solver.min_spanner_exact(g).spanner
    with pytest.raises(ValueError):
        solver.vc_tree_decompose(spanner, [])


def test_requirement_holds_rejects_out_of_range_source():
    g = tg.build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    for req in (TwoSource(-3, 0), TwoSource(0, 3)):
        with pytest.raises(ValueError):
            solver.requirement_holds(g, STRICT, req)
