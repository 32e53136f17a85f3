import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
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
    g = generate.random_happy_tc_with_cover(7, 3, 5)
    with pytest.raises(solver.InstanceTooLarge):
        solver.min_spanner_exact(g, cap=0)


def test_cap_does_not_refuse_an_answer_that_needs_no_search():
    # 9 removable edges exceed cap 0, but the 3 forced edges alone exceed
    # budget 2, so the answer is known without a search.
    g = generate.random_happy_tc(6, 0, 0.6)
    res = solver.min_spanner_exact(g, budget=2, cap=0)
    assert res.within_budget is False and res.size == g.m
    with pytest.raises(solver.InstanceTooLarge):
        solver.min_spanner_exact(g, budget=8, cap=0)


def test_budget_below_the_gossip_bound_needs_no_search():
    # 58 removable edges exceed cap 0, but only 2 edges are forced: the
    # gossip bound 2n - 4 = 24 alone exceeds budget 23.
    g = generate.random_happy_tc(14, 0, 0.6)
    assert len(solver.forced_edges(g, STRICT)) == 2
    assert solver._gossip_bound(g, STRICT, ALL_PAIRS) == 24
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
    assert solver._gossip_bound(g, STRICT, ALL_PAIRS) == 24
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
    bound = solver._gossip_bound(g, s, ALL_PAIRS)
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
    forced = solver.forced_edges(g, s, req)
    removable = [i for i in range(g.m) if i not in forced]
    oracle = solver._SubsetOracle(g, s, req)
    opt = solver.min_spanner_brute(g, s, req).size
    assert len(forced) <= opt
    assert solver._gossip_bound(g, s, req) <= opt
    assert solver._block_bound(oracle, removable) <= opt
    # Goal 0 is never met, so every restart runs.
    best = solver._greedy_restarts(oracle, removable, 0)
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
    forced = solver.forced_edges(g, s, req)
    if engine == "flow":
        return solver._exact_by_flow(oracle, forced, budget) is None
    if engine == "xp":
        return solver._xp_search(oracle, budget, 0, frozenset(range(g.m)))[1] > budget
    removable = [i for i in range(g.m) if i not in forced]
    blocks = solver._conflict_blocks(oracle, removable)
    order = sorted(removable, key=lambda i: (blocks[0][i], i))
    target = g.m - budget
    return len(solver._bnb_max_removal(oracle, order, target, blocks)) < target


def _agrees_with_brute(engine, g, s, req):
    """Checks the engine's answers at budgets None, opt, opt - 1 and
    |forced| - 1 against brute force: each is a spanner, right about the
    budget, and reports ``optimal`` only at the optimum's size.  The lower
    bounds often answer budget opt - 1 with no search, so the search is
    also run alone there.  Returns the number of decision answers that
    report ``optimal``."""
    opt = solver.min_spanner_brute(g, s, req).size
    proven = 0
    for budget in (None, opt, opt - 1, len(solver.forced_edges(g, s, req)) - 1):
        res = _solve(engine, g, s, req, budget)
        assert solver.requirement_holds(g, s, req, kept=res.spanner.kept)
        assert res.size >= opt and (res.size == opt or not res.optimal)
        if budget is None:
            assert res.size == opt and res.optimal
        else:
            assert res.within_budget is (budget >= opt)
            proven += res.optimal
    assert _search_refuses(engine, g, s, req, opt - 1)
    return proven


@pytest.mark.parametrize("engine", ["flow", "bnb", "auto"])
@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(g=_hub_graphs(), s=st.sampled_from([STRICT, NONSTRICT]), data=st.data())
def test_engines_agree_with_brute_on_hub_graphs(engine, g, s, data):
    _agrees_with_brute(engine, g, s, _draw_requirement(g, data))


def test_gossip_bound_is_zero_where_it_does_not_apply():
    g = generate.random_happy_tc(6, 0, 0.6)
    assert solver._gossip_bound(g, STRICT, ALL_PAIRS) == 8
    assert solver._gossip_bound(g, STRICT, TwoSource(0, 5)) == 0
    # n < 4: a TC triangle keeps 3 edges, more than 2n - 4 = 2.
    triangle = tg.build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3), (0, 1, 4)])
    assert solver._gossip_bound(triangle, STRICT, ALL_PAIRS) == 0
    # The non-strict star at one label is temporally connected with 3 edges.
    star = tg.build(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    assert solver._gossip_bound(star, NONSTRICT, ALL_PAIRS) == 0
    assert solver.min_spanner_brute(star, NONSTRICT).size == 3 < 2 * 4 - 4
    assert solver._gossip_bound(star, STRICT, ALL_PAIRS) == 4


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
def test_flow_agrees_with_brute_in_every_mode(kind, two_source, s):
    # Non-strict multi-label graphs give the flow model cycles, which its
    # per-pair arc pruning must not cut into.
    _agrees_in_every_mode("flow", kind, two_source, s)


def test_xp_agrees_with_brute():
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


# Multi-label graphs, as (seed, n_range) of ``_multilabel_graph``, whose
# restart incumbent no bound settles: between them the MILP confirms it
# ("cutoff") and beats it ("beaten") in every mode.
_UNSETTLED = [(1, (5, 7)), (14, (5, 7)), (174, (5, 7)), (236, (5, 7)), (336, (5, 7)), (1100, (6, 8))]


@pytest.mark.parametrize("two_source", [False, True], ids=["all-pairs", "two-source"])
@pytest.mark.parametrize("s", [STRICT, NONSTRICT], ids=["strict", "nonstrict"])
def test_flow_takes_each_path_around_the_greedy_incumbent(milp_calls, two_source, s):
    instances = _instances("happy", s, two_source, 8) + _instances("multilabel", s, two_source, 8)
    for seed, n_range in _UNSETTLED:
        g = _multilabel_graph(seed, n_range)
        req = TwoSource(0, g.vertex_count - 1) if two_source else ALL_PAIRS
        if solver.requirement_holds(g, s, req):
            instances.append((g, req))
    paths, nos = set(), set()
    for g, req in instances:
        forced = solver.forced_edges(g, s, req)
        removable = [i for i in range(g.m) if i not in forced]
        oracle = solver._SubsetOracle(g, s, req)
        lower = max(len(forced), solver._gossip_bound(g, s, req))
        block = solver._block_bound(oracle, removable)
        best = solver._greedy_restarts(oracle, removable, lower)
        opt = solver.min_spanner_brute(g, s, req).size
        milp_calls.clear()
        res = solver.min_spanner_exact(g, s, requirement=req, engine="flow")
        assert res.size == opt and res.optimal
        assert solver.requirement_holds(g, s, req, kept=res.spanner.kept)
        if len(best) <= lower:
            # The first greedy pass or a restart meets the bound: no model.
            paths.add("incumbent")
            assert milp_calls == [] and res.spanner.kept == best
        elif len(best) <= block:
            paths.add("bound")
            assert milp_calls == [] and res.spanner.kept == best
        elif len(best) == opt:
            # The MILP at cutoff |best| - 1 is infeasible: best is optimal.
            paths.add("cutoff")
            assert milp_calls == [2] and res.spanner.kept == best
        else:
            paths.add("beaten")
            assert milp_calls == [0] and res.size < len(best)
        # Decision mode: restarts stop on the first spanner within the budget.
        milp_calls.clear()
        yes = solver.min_spanner_exact(g, s, budget=len(best), requirement=req, engine="flow")
        assert milp_calls == [] and yes.within_budget
        assert yes.spanner.kept == solver._greedy_restarts(oracle, removable, len(best))
        # A budget below a lower bound is answered with no model.  Below the
        # block bound the "no" carries the incumbent, optimal if it meets
        # that bound; below |forced| and the gossip bound the greedy does not
        # run and every edge is kept.
        milp_calls.clear()
        no = solver.min_spanner_exact(g, s, budget=max(lower, block) - 1, requirement=req, engine="flow")
        assert milp_calls == [] and no.within_budget is False
        assert no.optimal is (no.size <= max(lower, block))
        if block > lower:
            nos.add("block")
            assert no.spanner.kept == solver._greedy_restarts(oracle, removable, block - 1)
        else:
            nos.add("early")
            assert no.spanner.kept == frozenset(range(g.m))
        if len(best) == opt > max(lower, block):
            # The MILP refuses budget opt - 1: the "no" carries the incumbent,
            # proven optimal.
            milp_calls.clear()
            no = solver.min_spanner_exact(g, s, budget=opt - 1, requirement=req, engine="flow")
            assert milp_calls == [2] and no.within_budget is False and no.optimal
            assert no.spanner.kept == best
            nos.add("milp")
    assert paths == {"incumbent", "bound", "cutoff", "beaten"}
    assert nos == {"block", "early", "milp"}


def test_flow_no_answer_after_the_greedy_carries_the_incumbent(milp_calls):
    # PHI_UNSAT's graph: 26 forced edges, gossip bound 32, block bound 37,
    # and no greedy pass below 38, the optimum.  The MILP refuses budget 37
    # and the block bound budget 36; both answers keep the incumbent, which
    # only the MILP proves optimal.
    g = red.sat_to_spanner_instance(red.SatInstance(1, ((1, 1, 1), (-1, -1, -1)))).graph
    forced = solver.forced_edges(g, STRICT)
    removable = [i for i in range(g.m) if i not in forced]
    best = solver._greedy_restarts(solver._SubsetOracle(g, STRICT, ALL_PAIRS), removable, 32)
    assert len(forced) == 26 and len(best) == 38 < g.m
    for budget, calls, optimal in ((37, [2], True), (36, [], False)):
        milp_calls.clear()
        res = solver.min_spanner_exact(g, budget=budget, engine="flow")
        assert milp_calls == calls and res.spanner.kept == best
        assert res.size == 38 and res.within_budget is False and res.optimal is optimal
    # Below the gossip bound the greedy does not run: every edge is kept.
    res = solver.min_spanner_exact(g, budget=31, engine="flow")
    assert res.spanner.kept == frozenset(range(g.m)) and res.within_budget is False


def test_each_solve_reads_the_requirement_once(monkeypatch, milp_calls):
    # Counts oracle constructions and recordings of the empty set's
    # checkpoints.  ``forced_edges`` and the solve build one oracle each and
    # record its root once; the searches reuse the solve's oracle.
    counts = {"oracles": 0, "roots": 0, "unions": 0}
    real_init = solver._SubsetOracle.__init__
    real_sweep = reach._mask_sweep
    real_incomplete = solver._incomplete_vertices

    def init(self, *args):
        counts["oracles"] += 1
        real_init(self, *args)

    def sweep(g, s, removed, masks=None, lo=0, record=None):
        counts["roots"] += record is not None and not any(removed)
        return real_sweep(g, s, removed, masks, lo, record)

    def incomplete(*args):
        counts["unions"] += 1
        return real_incomplete(*args)

    monkeypatch.setattr(solver._SubsetOracle, "__init__", init)
    monkeypatch.setattr(reach, "_mask_sweep", sweep)
    monkeypatch.setattr(solver, "_incomplete_vertices", incomplete)

    def counted(call):
        for key in counts:
            counts[key] = 0
        call()
        return counts["oracles"], counts["roots"]

    # The MILP beats the incumbent; the solve's oracle re-checks its answer.
    g = _multilabel_graph(174, (5, 7))
    assert counted(lambda: solver.min_spanner_exact(g, engine="flow")) == (2, 2)
    assert milp_calls == [0]
    # phi-mixed at its budget: branch and bound over 6 conflict blocks used
    # to record the root once per search, 8 times in all.
    g = red.sat_to_spanner_instance(red.SatInstance(2, ((1, -2, 2), (-1, -1, 2)))).graph
    assert counted(lambda: solver.min_spanner_exact(g, budget=54)) == (2, 2)
    # XP: its own oracle and the one of ``forced_edges`` in the block bound,
    # however many candidate unions the search evaluates.
    g = generate.random_happy_tc_with_cover(7, 3, 47)
    assert counted(lambda: solver.min_spanner_xp_vc(g))[0] == 2
    assert counts["unions"] > 1
    assert counted(lambda: solver.select_extra_edges(g, range(g.m), [0, 1, 2])) == (1, 0)


def test_restarts_run_only_until_the_goal(monkeypatch):
    # The index order keeps 13 edges; a restart finds 12 = 2n - 4.
    g = generate.random_happy_tc_with_cover(8, 3, 1)
    oracle = solver._SubsetOracle(g, STRICT, ALL_PAIRS)
    order = list(range(g.m))
    passes = []
    real = solver._greedy_local_min
    monkeypatch.setattr(solver, "_greedy_local_min", lambda *a: passes.append(1) or real(*a))
    sizes = {}
    for goal in (13, 12, 0):
        passes.clear()
        sizes[goal] = (len(solver._greedy_restarts(oracle, order, goal)), len(passes))
    assert sizes[13] == (13, 1)
    assert sizes[12][0] == 12 and 1 < sizes[12][1] < 1 + solver._RESTARTS
    assert sizes[0] == (12, 1 + solver._RESTARTS)


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
    forced = solver.forced_edges(g, STRICT)
    opt = solver.min_spanner_exact(g, engine=engine).size
    assert 0 < len(forced) < opt - 1
    # The last budget is below the forced count: the early exit, no search.
    # At budget opt the spanner meets the gossip bound 2n - 4 = opt, so it
    # is proven optimal; the two "no" answers keep every edge.
    assert solver._gossip_bound(g, STRICT, ALL_PAIRS) == opt
    for budget in (None, opt, opt - 1, len(forced) - 1):
        res = solver.min_spanner_exact(g, budget=budget, engine=engine)
        assert res.optimal is (budget in (None, opt))
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


def test_oracle_resumes_from_checkpoints_of_an_earlier_set():
    for seed in range(40):
        g = _multilabel_graph(seed)
        rng = random.Random(seed)
        for s in (STRICT, NONSTRICT):
            for req in (ALL_PAIRS, TwoSource(0, g.vertex_count - 1)):
                oracle = solver._SubsetOracle(g, s, req)
                removed = bytearray(rng.random() < 0.3 for _ in range(g.m))
                cps = [oracle.start]
                oracle.feasible(removed, record=cps)
                # Flip edges of group lo and later only: the prefix stays valid.
                e = rng.randrange(g.m)
                lo = oracle.group_of[e]
                changed = removed.copy()
                for i in range(g.m):
                    if oracle.group_of[i] >= lo and rng.random() < 0.5:
                        changed[i] ^= 1
                fresh = [oracle.start]
                want = oracle.feasible(changed, record=fresh)
                assert want == solver.requirement_holds(
                    g, s, req, kept=[i for i in range(g.m) if not changed[i]]
                )
                suffix = []
                assert oracle.feasible(changed, cps, lo, suffix) == want
                assert cps[: lo + 1] + suffix == fresh


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
            assert {frozenset(solver._mask_indices(mask)) for mask in mine} == brute
    assert solver._candidate_trees(figure, 0) == [(1 << 16) - 1]


# ---------------------------------------------------------------------------
# Extra-edge selection
# ---------------------------------------------------------------------------


def test_select_extra_edges_star_needs_none():
    # A happy TC star only exists with a single leaf.
    g = tg.build(2, [(0, 1, 1)])
    extras = solver.select_extra_edges(g, {0}, [0])
    assert extras == {1: None}


def test_select_extra_edges_mixed():
    # Vertex 1 starts the tree and already reaches everything; vertex 2 joins
    # too late and needs its own earlier incident edge.
    g = tg.build(3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])
    tree = frozenset({0, 1})  # star at 0
    assert reach.verify_out_tree(g, tree, 0)
    extras = solver.select_extra_edges(g, tree, [0, 1])
    assert extras == {2: 2}
    extras = solver.select_extra_edges(g, tree, [0])
    assert extras == {1: None, 2: 2}


def test_select_extra_edges_infeasible():
    g = tg.build(3, [(0, 1, 3), (0, 2, 1)])
    tree = frozenset({0, 1})
    assert solver.select_extra_edges(g, tree, [0]) is None


def test_select_extra_edges_complete_vs_joint_enumeration():
    # If any one-extra-per-vertex assignment restores every vertex's own
    # reach over the tree union, the per-vertex selection must succeed.
    for g in small_corpus(12, n_range=(4, 6)):
        cover = sorted(solver.min_vertex_cover(tg.underlying_graph(g), g.vertex_count))
        others = [v for v in range(g.vertex_count) if v not in cover]
        if not others or not cover:
            continue
        tree = reach.foremost_out_tree(g, cover[0], STRICT).tree_edges
        got = solver.select_extra_edges(g, tree, cover)
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


def test_xp_spanner_at_the_gossip_bound_is_optimal():
    # The greedy spanner keeps 2n - 4 = 8 edges, so no search runs.
    g = generate.random_happy_tc(6, 0, 0.6)
    assert len(_strict_greedy(g)) == 8
    for budget, within in ((None, None), (9, True), (8, True), (7, False)):
        res = solver.min_spanner_xp_vc(g, budget=budget)
        assert res.size == 8 and res.optimal and res.within_budget is within
    # The index-order greedy keeps 13 edges and a restart finds 2n - 4 = 12,
    # optimal even when it also decides a budget.  Budget 13 is met by the
    # first pass, whose spanner no bound proves optimal.
    g = generate.random_happy_tc_with_cover(8, 3, 1)
    assert len(_strict_greedy(g)) == 13
    for budget, size, within in ((None, 12, None), (13, 13, True), (12, 12, True), (11, 12, False)):
        res = solver.min_spanner_xp_vc(g, budget=budget)
        assert res.size == size and res.optimal is (size == 12)
        assert res.within_budget is within
        assert solver.requirement_holds(g, STRICT, ALL_PAIRS, res.spanner.kept)


def test_xp_block_bound_settles_without_a_search(monkeypatch):
    # No greedy pass keeps fewer than 17 edges, above 2n - 4 = 16, and the search
    # took 20 s to prove 17 optimal.  The block bound is 17.
    g = generate.random_happy_tc_with_cover(10, 3, 23)

    def no_search(*args):
        raise AssertionError("the bounds settle this graph")

    monkeypatch.setattr(solver, "_xp_search", no_search)
    # Budget 17 is met by the first greedy pass, before the bound is known.
    for budget, optimal, within in ((None, True, None), (17, False, True), (16, True, False)):
        res = solver.min_spanner_xp_vc(g, budget=budget)
        assert res.size == 17 and res.optimal is optimal and res.within_budget is within


def test_xp_search_matches_exact():
    # The restarts and the block bound settle most XP calls on these graphs
    # before any search, so the search is run directly, from the whole edge
    # set.
    graphs = small_corpus(30)
    graphs += [generate.random_happy_tc_with_cover(*a) for a in ((8, 3, 1), (9, 3, 0), (8, 4, 0), (9, 4, 0))]
    searched = 0
    for g in graphs:
        opt = solver.min_spanner_exact(g).size
        floor = solver._gossip_bound(g, STRICT, ALL_PAIRS)
        oracle = solver._SubsetOracle(g, STRICT, ALL_PAIRS)
        everything = frozenset(range(g.m))
        for budget in (None, opt, opt - 1):
            kept, proven = solver._xp_search(oracle, budget, floor, everything)
            assert len(kept) == opt
            assert reach.is_tc(g, STRICT, kept)
            # It ends early, proving nothing, exactly on a spanner smaller
            # than the one it started from and within max(floor, budget);
            # run to the end it proves the optimum.
            stop = floor if budget is None else max(floor, budget)
            assert proven == (0 if opt < g.m and opt <= stop else opt)
        searched += opt > floor
    assert searched >= 5  # the full search runs, not only the stop at the floor


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
