from itertools import combinations, product

import pytest

from tempspan import reach, reductions as red, solver
from tempspan import tempgraph as tg
from tempspan.reach import NONSTRICT, STRICT
from tempspan.solver import TwoSource

PHI_11 = red.SatInstance(1, ((1, 1, 1),))
PHI_MIXED = red.SatInstance(2, ((1, -2, 2), (-1, -1, 2)))
PHI_UNSAT = red.SatInstance(1, ((1, 1, 1), (-1, -1, -1)))
# Four variables and eight clauses: n=63, m=198, budget 142.
PHI_4V_SAT = red.SatInstance(
    4, ((3, 4, -2), (1, 4, -1), (3, -2, 3), (1, -3, 2), (-3, -1, -4), (2, 4, -1), (-1, -3, 4), (-3, -4, 2))
)
PHI_4V_UNSAT = red.SatInstance(
    4, ((1, 1, 1), (-1, 2, 2), (-2, 3, 3), (-3, 4, 4), (-4, -4, -4), (1, 2, 3), (2, 3, 4), (-1, -2, 4))
)


def test_sat_instance_validation():
    with pytest.raises(ValueError, match="need at least one variable"):
        red.SatInstance(0, ((1, 1, 1),))
    with pytest.raises(ValueError):
        red.SatInstance(1, ())
    with pytest.raises(ValueError, match="does not have width 3"):
        red.SatInstance(1, ((1, 1),))
    with pytest.raises(ValueError):
        red.SatInstance(1, ((1, 1, 2),))
    with pytest.raises(ValueError):
        red.SatInstance(1, ((1, 1, 0),))
    assert not PHI_UNSAT.satisfied_by([True])
    assert PHI_11.satisfied_by([True])
    with pytest.raises(ValueError, match="assignment length mismatch"):
        PHI_11.satisfied_by([True, False])


def test_sat_reduction_counts():
    out = red.sat_to_spanner_instance(PHI_11)
    n_x, n_c = 1, 1
    assert out.graph.vertex_count == 3 + 7 * n_x + 4 * n_c == 14
    assert out.graph.m == 2 + 21 * n_x + 14 * n_c == 37
    assert out.budget == out.graph.m - 5 * n_c - 4 * n_x
    # the first clause's vertex gets no time-1 edge from u
    u = out.vertex_by_role["u"]
    star = {e.other(u) for e in out.graph.edges if u in (e.u, e.v)}
    c_star = out.vertex_by_role["c:0"]
    assert c_star not in star
    assert star == set(range(out.graph.vertex_count)) - {u, c_star}


def test_sat_reduction_is_happy_and_tc():
    for phi in (PHI_11, PHI_MIXED, PHI_UNSAT):
        out = red.sat_to_spanner_instance(phi)
        assert tg.classify(out.graph).happy
        assert reach.is_tc(out.graph, STRICT)
        assert reach.is_tc(out.graph, NONSTRICT)
        pre = tg.classify(out.pre_relabel)
        assert pre.simple and not pre.proper


def test_relabel_preserves_strict_reachability():
    out = red.sat_to_spanner_instance(PHI_MIXED)
    before = reach.reach_masks(out.pre_relabel, STRICT)
    after = reach.reach_masks(out.graph, STRICT)
    for b, a in zip(before, after):
        assert b & a == b  # every pair connected before stays connected


def test_sat_underlying_structure():
    out = red.sat_to_spanner_instance(PHI_11)
    r = out.vertex_by_role
    expected = {
        (r["u"], r["v"]), (r["u"], r["w"]), (r["v"], r["w"]),
        (r["v"], r["x1:0"]), (r["x1:0"], r["xT:0"]), (r["x1:0"], r["xF:0"]),
        (r["w"], r["x2:0"]), (r["x2:0"], r["xF:0"]), (r["x1:0"], r["x2:0"]),
        (r["xT:0"], r["xF:0"]),
        (r["c:0"], r["c1:0"]), (r["c:0"], r["c2:0"]), (r["c:0"], r["c3:0"]),
        (r["c1:0"], r["v"]), (r["c2:0"], r["v"]), (r["c3:0"], r["v"]),
        (r["c:0"], r["w"]),
        (r["c1:0"], r["xT:0"]), (r["c2:0"], r["xT:0"]), (r["c3:0"], r["xT:0"]),
        (r["cx:0"], r["cx1:0"]), (r["cx:0"], r["cx2:0"]),
        (r["cx1:0"], r["v"]), (r["cx2:0"], r["v"]),
        (r["cx1:0"], r["xT:0"]), (r["cx2:0"], r["xF:0"]), (r["cx:0"], r["w"]),
    }
    expected = {(min(a, b), max(a, b)) for a, b in expected}
    u = r["u"]
    for z in range(out.graph.vertex_count):
        if z not in (r["u"], r["v"], r["w"], r["c:0"]):
            expected.add((min(u, z), max(u, z)))
    assert tg.underlying_graph(out.graph) == expected


def _role_pair(out, i):
    """Edge ``i`` of the reduction named by the roles of its endpoints."""
    return frozenset((out.roles[out.graph.us[i]], out.roles[out.graph.vs[i]]))


@pytest.mark.parametrize("phi", [PHI_MIXED, PHI_4V_SAT], ids=["mixed", "4v-sat"])
def test_sat_layout_records_name_their_edges_by_role(phi):
    out = red.sat_to_spanner_instance(phi)

    def pairs(*named):
        return {frozenset(pair) for pair in named}

    # Per variable, the role pairs its witness drops: (if false, if true).
    var_drops = [
        (
            pairs((f"x1:{j}", f"xT:{j}"), (f"xT:{j}", f"cx1:{j}"), (f"cx1:{j}", f"cx:{j}"), (f"cx2:{j}", "v")),
            pairs((f"x1:{j}", f"xF:{j}"), (f"xF:{j}", f"cx2:{j}"), (f"cx2:{j}", f"cx:{j}"), (f"cx1:{j}", "v")),
        )
        for j in range(phi.variable_count)
    ]

    def slot(i, s, lit):  # (c-cs, cs-literal vertex, cs-v) of slot s of clause i
        cs, literal = f"c{s}:{i}", f"{'xT' if lit > 0 else 'xF'}:{abs(lit) - 1}"
        return frozenset((f"c:{i}", cs)), frozenset((cs, literal)), frozenset((cs, "v"))

    slot_edges = [[slot(i, s, lit) for s, lit in enumerate(clause, start=1)] for i, clause in enumerate(phi.clauses)]
    assert len(out.variable_drops) == phi.variable_count
    for recorded, named in zip(out.variable_drops, var_drops):
        for edges, want in zip(recorded, named):
            assert len(edges) == 4 and {_role_pair(out, e) for e in edges} == want
    assert [[tuple(_role_pair(out, e) for e in slot) for slot in slots] for slots in out.clause_slots] == slot_edges

    # The witness drops exactly the role pairs of the losing branches and slots.
    for assignment in product((False, True), repeat=phi.variable_count):
        if not phi.satisfied_by(assignment):
            continue
        want = set().union(*(drops[value] for drops, value in zip(var_drops, assignment)))
        for clause, slots in zip(phi.clauses, slot_edges):
            sat_slot = next(s for s, lit in enumerate(clause) if (lit > 0) == assignment[abs(lit) - 1])
            for s, (to_clause, to_literal, to_v) in enumerate(slots):
                want |= {to_v} if s == sat_slot else {to_clause, to_literal}
        kept = red.sat_witness_spanner(out, assignment).kept
        assert {_role_pair(out, e) for e in range(out.graph.m) if e not in kept} == want


def test_sat_critical_subset_of_forced():
    for phi in (PHI_11, PHI_MIXED):
        out = red.sat_to_spanner_instance(phi)
        forced = solver.forced_edges(out.graph, STRICT)
        assert out.critical <= forced


def test_sat_witness_spanner():
    out = red.sat_to_spanner_instance(PHI_11)
    w = red.sat_witness_spanner(out, [True])
    assert w.size == out.budget
    assert reach.is_tc(out.graph, STRICT, kept=w.kept)
    with pytest.raises(red.AssignmentDoesNotSatisfy):
        red.sat_witness_spanner(out, [False])

    out2 = red.sat_to_spanner_instance(PHI_MIXED)
    for assignment in ([True, True], [False, True], [False, False]):
        if out2.instance.satisfied_by(assignment):
            w2 = red.sat_witness_spanner(out2, assignment)
            assert w2.size == out2.budget
            assert reach.is_tc(out2.graph, STRICT, kept=w2.kept)


def test_sat_optimum_equals_budget_iff_satisfiable():
    sat_out = red.sat_to_spanner_instance(PHI_11)
    res = solver.min_spanner_exact(sat_out.graph, engine="bnb")
    assert res.size == sat_out.budget

    unsat_out = red.sat_to_spanner_instance(PHI_UNSAT)
    res = solver.min_spanner_exact(
        unsat_out.graph, budget=unsat_out.budget, engine="bnb"
    )
    assert res.within_budget is False


def test_flow_decides_sat_reduction_past_phi_11():
    out = red.sat_to_spanner_instance(PHI_MIXED)
    assert (out.graph.vertex_count, out.graph.m) == (25, 72)
    res = solver.min_spanner_exact(out.graph, engine="flow")
    assert res.optimal and res.size == out.budget
    assert reach.is_tc(out.graph, STRICT, kept=res.spanner.kept)
    no = solver.min_spanner_exact(out.graph, budget=out.budget - 1, engine="flow")
    assert no.within_budget is False


@pytest.mark.xfail(
    strict=True,
    raises=solver.InstanceTooLarge,
    reason="ROADMAP items 3 and 4: since the conflict blocks were packed, the default solve refuses this",
)
def test_default_solve_refutes_the_unsatisfiable_four_variable_formula_below_its_budget():
    # The main search stops at its node limit, and 103 removable edges
    # exceed the default cap of 40.
    out = red.sat_to_spanner_instance(PHI_4V_UNSAT)
    res = solver.min_spanner_exact(out.graph, budget=out.budget - 1)
    assert res.within_budget is False


@pytest.mark.parametrize(
    "phi, below, size, optimal",
    [
        (PHI_4V_SAT, 0, None, None),
        (PHI_4V_UNSAT, 0, 143, True),
        (PHI_4V_SAT, 1, 142, True),
        (PHI_4V_UNSAT, 1, 143, False),
    ],
    ids=["sat", "unsat", "sat-below", "unsat-below"],
)
def test_flow_decides_four_variable_sat_reductions(phi, below, size, optimal):
    out = red.sat_to_spanner_instance(phi)
    g = out.graph
    assert (g.vertex_count, g.m, out.budget) == (63, 198, 142)
    # The block bound, 141, is one below the budget: it settles neither.
    oracle = solver._SubsetOracle(g, STRICT, solver.ALL_PAIRS)
    assert solver._block_bound(oracle) == 141
    budget = out.budget - below
    res = solver.min_spanner_exact(g, budget=budget, cap=len(oracle.removable), engine="flow")
    assert solver.requirement_holds(g, STRICT, solver.ALL_PAIRS, res.spanner.kept)
    if size is None:  # the satisfiable formula at its budget: "yes"
        assert res.within_budget and res.size <= out.budget
        return
    # Every "no" carries a spanner.  Below its budget the unsatisfiable
    # formula's spanner keeps 143 edges, and only 142 is proven.
    assert res.within_budget is False and res.size == size and res.optimal is optimal
    assert res.lower_bound == (size if optimal else budget + 1)


def test_hitting_set_model_has_one_column_per_removable_edge(monkeypatch):
    import scipy.optimize

    real = scipy.optimize.milp
    models = []

    def spy(**kwargs):
        res = real(**kwargs)
        models.append((kwargs, res.status))
        return res

    monkeypatch.setattr(scipy.optimize, "milp", spy)
    # With no branch-and-bound nodes the MILP runs on this small graph.
    monkeypatch.setattr(solver, "_NODE_LIMIT", 0)
    out = red.sat_to_spanner_instance(PHI_11)
    g = out.graph
    res = solver.min_spanner_exact(g, engine="flow")
    assert res.size == out.budget == 28 and res.optimal
    assert reach.is_tc(g, STRICT, kept=res.spanner.kept)
    # The best greedy restart keeps 28 edges, above the gossip bound 2n - 4 = 24
    # and the block bound 27: the hitting-set search proves that no spanner
    # keeps 27, its last model infeasible.
    oracle = solver._SubsetOracle(g, STRICT, solver.ALL_PAIRS)
    assert solver._gossip_bound(oracle) == 24 and solver._block_bound(oracle) == 27
    assert len(oracle.removable) == 17
    assert models and models[-1][1] == 2
    # One integer column per removable edge; forced edges are constants.
    for model, _ in models:
        assert len(model["c"]) == 17 and int(model["integrality"].sum()) == 17


def test_sat_optimum_keeps_a_red_edge_per_variable():
    out = red.sat_to_spanner_instance(PHI_11)
    res = solver.min_spanner_exact(out.graph, engine="bnb")
    # The reduction graph is simple: one edge per role pair.
    pairmap = {_role_pair(out, i): i for i in range(out.graph.m)}
    assert len(pairmap) == out.graph.m

    def idx(a, b):
        return pairmap[frozenset((a, b))]

    assert idx("x1:0", "xT:0") in res.spanner.kept or idx("x1:0", "xF:0") in res.spanner.kept


def test_two_source_variant_shape():
    out = red.sat_to_spanner_instance(PHI_11)
    var = red.sat_two_source_variant(out)
    u_degree = sum(1 for e in out.graph.edges if 0 in (e.u, e.v))
    assert var.graph.vertex_count == out.graph.vertex_count - 1
    assert var.graph.m == out.graph.m - u_degree
    assert var.budget == out.budget - u_degree
    assert var.roles[var.sources[0]] == "v"
    assert var.roles[var.sources[1]] == "w"
    # no time-1 edges survive: they were all incident with u
    assert all(e.t > 1 for e in var.graph.edges)
    req = TwoSource(*var.sources)
    assert solver.requirement_holds(var.graph, STRICT, req)


def test_two_source_optimum_iff_satisfiable():
    sat_var = red.sat_two_source_variant(red.sat_to_spanner_instance(PHI_11))
    req = TwoSource(*sat_var.sources)
    yes = solver.min_spanner_exact(
        sat_var.graph, requirement=req, budget=sat_var.budget, engine="bnb"
    )
    assert yes.within_budget is True
    no = solver.min_spanner_exact(
        sat_var.graph, requirement=req, budget=sat_var.budget - 1, engine="bnb"
    )
    assert no.within_budget is False

    unsat_var = red.sat_two_source_variant(red.sat_to_spanner_instance(PHI_UNSAT))
    req = TwoSource(*unsat_var.sources)
    res = solver.min_spanner_exact(
        unsat_var.graph, requirement=req, budget=unsat_var.budget, engine="bnb"
    )
    assert res.within_budget is False


# ---------------------------------------------------------------------------
# Edge selection gadget
# ---------------------------------------------------------------------------


def test_gadget_shape_and_labels():
    gad = red.edge_selection_gadget(0, 1, 4, 4, 3, 2)
    assert gad.graph.vertex_count == 12
    assert len(tg.underlying_graph(gad.graph)) == 12
    assert gad.graph.m == 144
    assert gad.low_labels == (5, 10)
    assert gad.high_labels == (35, 40)


def test_gadget_is_strictly_tc():
    for s in (2, 4):
        gad = red.edge_selection_gadget(0, 1, s, s, 3, 2)
        assert reach.is_tc(gad.graph, STRICT)


def test_gadget_rejects_bad_sizes():
    with pytest.raises(red.OddEdgeCount):
        red.edge_selection_gadget(0, 1, 3, 4, 3, 2)
    with pytest.raises(ValueError):
        red.edge_selection_gadget(0, 1, 0, 4, 3, 2)
    for max_count in (5, 2):  # odd; below the gadget's own count
        with pytest.raises(ValueError, match="maximum edge count must be even and at least edge_count"):
            red.edge_selection_gadget(0, 1, 4, max_count, 3, 2)


def test_gadget_witness_sizes_and_connectivity():
    for s in (2, 4, 6, 8):
        gad = red.edge_selection_gadget(0, 1, s, s, 3, 2)
        for ell in range(s):
            w = red.gadget_witness_spanner(gad, ell)
            assert w.size == 6 * s - 3
            assert reach.is_tc(gad.graph, STRICT, kept=w.kept)


def test_gadget_witness_matches_anchored_pattern():
    gad = red.edge_selection_gadget(0, 1, 4, 4, 3, 2)
    w = red.gadget_witness_spanner(gad, 0)
    keys = {gad.graph.edges[i].key for i in w.kept}
    c = 35  # first high label for m=4, k=3, n=2
    assert (0, 1, c) in keys  # the anchor
    assert (1, 2, c + 1) in keys and (1, 2, 9) in keys
    assert (5, 6, c + 5) in keys and (5, 6, 5) in keys
    assert (0, 11, c + 1) in keys and (0, 11, 9) in keys
    assert (7, 8, c + 5) in keys and (7, 8, 5) in keys
    # the edge opposite the anchor carries nothing
    assert not any(pair == (6, 7) for pair, *_ in [(k[:2], k) for k in keys])


def test_gadget_witness_rejects_bad_index():
    gad = red.edge_selection_gadget(0, 1, 2, 2, 3, 2)
    with pytest.raises(red.NotASelectionEdge):
        red.gadget_witness_spanner(gad, 2)


def test_gadget_exact_minimum_s2():
    gad = red.edge_selection_gadget(0, 1, 2, 2, 3, 2)
    res = solver.min_spanner_exact(gad.graph, engine="bnb", cap=60)
    assert res.size == 6 * 2 - 3


# ---------------------------------------------------------------------------
# Multicolored-clique construction
# ---------------------------------------------------------------------------


def complete_mcc(k=3, n=2):
    edges = []
    for i, j in combinations(range(k), 2):
        for a in range(n):
            for b in range(n):
                edges.append((i, a, j, b))
    return red.MccInstance(k, n, tuple(edges))


def test_mcc_validation():
    with pytest.raises(red.InvariantViolated, match="need at least two colors"):
        red.validate_mcc(red.MccInstance(1, 1, ()))
    with pytest.raises(red.InvariantViolated, match="need at least one vertex per color"):
        red.validate_mcc(red.MccInstance(2, 0, ()))
    with pytest.raises(red.InvariantViolated, match="no edges between colors"):
        red.validate_mcc(red.MccInstance(2, 1, ()))
    odd = red.MccInstance(2, 2, ((0, 0, 1, 0),))
    with pytest.raises(red.InvariantViolated):
        red.validate_mcc(odd)
    padded = red.pad_to_even(odd)
    assert len(padded.edges) == 2
    red.validate_mcc(padded)
    # color 0 never sees color 2
    partial = red.MccInstance(
        3, 2, ((0, 0, 1, 0), (0, 1, 1, 0), (1, 0, 2, 0), (1, 1, 2, 0))
    )
    with pytest.raises(red.InvariantViolated, match=r"no edges between colors \(0, 2\)"):
        red.validate_mcc(partial)
    # Every pair has two edges, but vertex 0 of color 0 sees only color 1
    # and vertex 1 only color 2.
    split = red.MccInstance(
        3, 2, ((0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 2, 0), (0, 1, 2, 1), (1, 0, 2, 0), (1, 1, 2, 1))
    )
    with pytest.raises(red.InvariantViolated, match="no vertex of color 0 sees every other color"):
        red.validate_mcc(split)


@pytest.mark.parametrize(
    "edge, message",
    [
        ((1, 0, 0, 0), r"bad color pair \(1, 0\)"),
        ((0, 0, 0, 1), r"bad color pair \(0, 0\)"),
        ((0, 0, 3, 0), r"bad color pair \(0, 3\)"),
        ((0, 2, 1, 0), r"vertex index out of range in \(0, 2, 1, 0\)"),
        ((0, 0, 1, -1), r"vertex index out of range in \(0, 0, 1, -1\)"),
    ],
)
def test_mcc_edges_are_checked_when_grouped_by_pair(edge, message):
    inst = red.MccInstance(3, 2, ((0, 0, 1, 0), edge))
    with pytest.raises(red.InvariantViolated, match=message):
        inst.by_pair


def test_mcc_construction_shape():
    out = red.mcc_to_spanner_instance(complete_mcc())
    assert reach.is_tc(out.graph, STRICT)
    # budget formula: 6|E| - 2 C(k,2) + 8 k C(k-1,2) + x
    assert out.budget == 6 * 12 - 2 * 3 + 8 * 3 * 1 + out.connector_edge_count
    assert len(out.gadget_map) == out.graph.m
    tags = set(out.gadget_map)
    assert "connector" in tags
    assert any(t.startswith("selection") for t in tags)
    assert any(t.startswith("validator") for t in tags)
    for info in out.gadgets:
        assert info.gadget.graph.vertex_count == 3 * info.gadget.edge_count


def test_mcc_rejects_fewer_than_three_colors():
    # Two colors are a valid instance, but the construction has neither
    # validators nor a hub for them: the graph would not be connected.
    inst = complete_mcc(2)
    red.validate_mcc(inst)
    with pytest.raises(red.InvariantViolated, match="at least three colors"):
        red.mcc_to_spanner_instance(inst)


@pytest.mark.parametrize("k", [3, 4])
def test_mcc_gadgets_are_the_standalone_gadget(k):
    # Each selection gadget is edge_selection_gadget with its vertex v
    # renamed to first_vertex + v and its edge e to first_edge + e: same
    # edges in the same order, same roles.
    out = red.mcc_to_spanner_instance(complete_mcc(k))
    g = out.graph
    max_count = max(info.gadget.edge_count for info in out.gadgets)
    for info in out.gadgets:
        i, j = info.gadget.colors
        gad = red.edge_selection_gadget(i, j, info.gadget.edge_count, max_count, k, 2)
        first, first_edge = info.first_vertex, info.first_edge
        want = [(first + u, first + v, t) for u, v, t in zip(gad.graph.us, gad.graph.vs, gad.graph.ts)]
        got = [
            (g.us[e], g.vs[e], g.ts[e]) for e in range(g.m) if out.gadget_map[e] == f"selection({i},{j})"
        ]
        assert got == want
        assert got == [(g.us[e], g.vs[e], g.ts[e]) for e in range(first_edge, first_edge + gad.graph.m)]
        assert list(out.roles[first : first + gad.graph.vertex_count]) == [
            f"sel({i},{j}).{role}" for role in gad.roles
        ]
        assert (info.gadget.low_labels, info.gadget.high_labels) == (gad.low_labels, gad.high_labels)


def _is_forest(n, pairs):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def test_mcc_fvs_is_feedback_vertex_set():
    out = red.mcc_to_spanner_instance(complete_mcc())
    remaining = [
        pair
        for pair in tg.underlying_graph(out.graph)
        if pair[0] not in out.fvs and pair[1] not in out.fvs
    ]
    assert _is_forest(out.graph.vertex_count, remaining)
    k = out.instance.color_count
    assert len(out.fvs) <= 40 * k**4


def test_mcc_witness_spanner():
    out = red.mcc_to_spanner_instance(complete_mcc())
    for clique in ((0, 0, 0), (1, 1, 1), (0, 1, 0)):
        w = red.mcc_witness_spanner(out, clique)
        assert w.size == out.budget
        assert reach.is_tc(out.graph, STRICT, kept=w.kept)
    connector = {i for i, t in enumerate(out.gadget_map) if t == "connector"}
    assert connector <= red.mcc_witness_spanner(out, (0, 0, 0)).kept


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 7: the MCC construction is not temporally connected at four colors",
)
def test_mcc_four_colors_is_strictly_connected():
    out = red.mcc_to_spanner_instance(complete_mcc(4))
    assert reach.is_tc(out.graph, STRICT)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 7: an MCC instance without a clique gets a spanner within its budget",
)
def test_mcc_without_a_clique_has_no_spanner_within_its_budget():
    inst = red.MccInstance(3, 2, ((0, 0, 1, 0), (0, 1, 1, 1), (1, 0, 2, 0), (1, 1, 2, 1), (0, 0, 2, 1), (0, 1, 2, 0)))
    out = red.mcc_to_spanner_instance(inst)
    for clique in product(range(2), repeat=3):
        with pytest.raises(red.NotAClique):
            red.mcc_witness_spanner(out, clique)
    res = solver.min_spanner_exact(out.graph, STRICT, budget=out.budget, engine="flow", cap=10**6)
    assert not res.within_budget


def test_mcc_witness_rejects_non_clique():
    # drop one cross edge so (0, 0, 0) is no longer a clique
    inst = complete_mcc()
    edges = tuple(e for e in inst.edges if e != (0, 0, 1, 0))
    thinned = red.MccInstance(3, 2, edges + ((0, 0, 1, 1),))  # keep counts even
    out = red.mcc_to_spanner_instance(thinned)
    with pytest.raises(red.NotAClique):
        red.mcc_witness_spanner(out, (0, 0, 0))
    with pytest.raises(red.NotAClique):
        red.mcc_witness_spanner(out, (0, 0))
    with pytest.raises(red.NotAClique, match="vertex index 2 out of range for color 1"):
        red.mcc_witness_spanner(out, (0, 2, 0))


def test_mcc_no_shortcut_through_connector():
    # Reachability between two vertices of one selection gadget matches the
    # gadget in isolation: paths never leave and re-enter a gadget.
    inst = complete_mcc()
    out = red.mcc_to_spanner_instance(inst)
    full = reach.reach_masks(out.graph, STRICT)
    for info in out.gadgets:
        i, j = info.gadget.colors
        frag = red.edge_selection_gadget(
            i, j, info.gadget.edge_count, 4, inst.color_count, inst.class_size
        )
        frag_masks = reach.reach_masks(frag.graph, STRICT)
        cyc = range(info.first_vertex, info.first_vertex + frag.graph.vertex_count)
        for a_local, a_global in enumerate(cyc):
            for b_local, b_global in enumerate(cyc):
                got = bool(full[b_global] >> a_global & 1)
                want = bool(frag_masks[b_local] >> a_local & 1)
                assert got == want


def test_dimacs_parser():
    inst = red.parse_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n2 3 0\n")
    assert inst.variable_count == 3
    assert inst.clauses == ((1, -2, 3), (2, 3, 3))  # short clause padded
    with pytest.raises(ValueError):
        red.parse_dimacs("p cnf 2 1\n1 2 -1 -2 0\n")
    with pytest.raises(ValueError):
        red.parse_dimacs("1 2 0\n")
    for text in ("", "c only a comment\n"):
        with pytest.raises(ValueError, match="^missing 'p cnf' header$"):
            red.parse_dimacs(text)


def test_dimacs_clauses_end_at_their_zero():
    # A line without a 0 continues its clause; one line may hold several.
    assert red.parse_dimacs("p cnf 3 2\n1 -2\n3 0\n-1 2 3 0\n").clauses == ((1, -2, 3), (-1, 2, 3))
    assert red.parse_dimacs("p cnf 3 2\n1 -2 3 0 -1 2 -3 0\n").clauses == ((1, -2, 3), (-1, 2, -3))
    # SATLIB's "%" / "0" tail adds nothing; a clause open at the end counts.
    assert red.parse_dimacs("p cnf 3 1\n1 -2 3 0\n%\n0\n").clauses == ((1, -2, 3),)
    assert red.parse_dimacs("p cnf 3 2\n1 -2 3 0\n2\n").clauses == ((1, -2, 3), (2, 2, 2))


@pytest.mark.parametrize(
    "text, message",
    [
        ("p cnf 4 1\n1 2 3 4 0\n", "line 2: clause wider than 3"),
        ("p cnf 4 1\n1 2\n3 4 0\n", "line 3: clause wider than 3"),
        ("p cnf 3 1\n1 x 3 0\n", "line 2: non-integer literal 'x'"),
        ("p cnf 3 1\n1 2 3 0\np cnf 3 1\n", "line 3: second problem line 'p cnf 3 1'"),
        ("c x\np cnf 3 2\n1 2 3 0\np cnf 4 2\n4 0\n", "line 4: second problem line 'p cnf 4 2'"),
        ("p cnf three 1\n1 2 3 0\n", "line 1: non-integer count in 'p cnf three 1'"),
        ("c x\np cnf 3 1.0\n1 2 3 0\n", "line 2: non-integer count in 'p cnf 3 1.0'"),
        ("c x\np cnf 3 5\n1 2 3 0\n", "line 2: header declares 5 clauses, read 1"),
        ("p cnf 3 1\n1 2 3 0 -1 0\n", "line 1: header declares 1 clauses, read 2"),
        ("p cnf 3 2\n1 2 3 0\n%\n0\n", "line 1: header declares 2 clauses, read 1"),
        ("p cnf 1 1\n2 0\n", "line 2: literal 2 out of range for 1 variables"),
        ("c x\np cnf 3 2\n1 2 3 0\n-4 0\n", "line 4: literal -4 out of range for 3 variables"),
        ("1 2 0\np cnf 2 1\n", "line 1: clause data before the 'p cnf' line"),
        ("c x\n0\np cnf 2 1\n1 2 0\n", "line 2: clause data before the 'p cnf' line"),
        ("p cnf 0 0\n", "line 1: need at least one variable and one clause: 'p cnf 0 0'"),
        ("c x\np cnf -2 1\n1 0\n", "line 2: need at least one variable and one clause: 'p cnf -2 1'"),
        ("p cnf 3 0\n", "line 1: need at least one variable and one clause: 'p cnf 3 0'"),
        ("c x\np cnf 3\n1 2 3 0\n", "line 2: bad problem line 'p cnf 3'"),
        ("p dnf 3 1\n1 2 3 0\n", "line 1: bad problem line 'p dnf 3 1'"),
    ],
    ids=[
        "wide",
        "wide-across-lines",
        "non-integer",
        "second-header",
        "second-header-later",
        "non-integer-variables",
        "non-integer-clauses",
        "too-few-clauses",
        "too-many-clauses",
        "satlib-tail-closes-none",
        "literal-above-variables",
        "negative-literal-above-variables",
        "clause-before-header",
        "zero-before-header",
        "no-variables",
        "negative-variables",
        "no-clauses",
        "short-problem-line",
        "not-cnf",
    ],
)
def test_dimacs_errors_name_their_line(text, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        red.parse_dimacs(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 x\n", "line 1: non-integer field in '3 x'"),
        ("3 1\n# c\n1 1 x 1\n", "line 3: non-integer field in '1 1 x 1'"),
        ("3 1\n1 1 2 1\n0 1 2 1\n", "line 3: colors and vertices start at 1: '0 1 2 1'"),
        ("3 1\n1 0 2 1\n", "line 2: colors and vertices start at 1: '1 0 2 1'"),
        ("# c\n3 1 1\n", "line 2: expected 'k n'"),
        ("3 1\n1 1 2\n", "line 2: expected 'i a j b'"),
    ],
    ids=["header", "edge", "color-0", "vertex-0", "header-width", "edge-width"],
)
def test_mcc_errors_name_their_line(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        red.parse_mcc(text)


def test_mcc_parser():
    inst = red.parse_mcc("2 2\n1 1 2 1\n2 2 1 2\n")
    assert inst.color_count == 2 and inst.class_size == 2
    assert inst.edges == ((0, 0, 1, 0), (0, 1, 1, 1))
    with pytest.raises(ValueError):
        red.parse_mcc("")
