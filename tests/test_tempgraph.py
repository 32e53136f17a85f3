from itertools import combinations, groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempspan import generate, reach, solver
from tempspan import tempgraph as tg


def test_build_minimal_graph():
    g = tg.build(2, [(0, 1, 1)])
    assert g.vertex_count == 2
    assert g.lifetime == 1
    assert g.m == 1


def test_build_rejects_duplicates():
    with pytest.raises(tg.DuplicateTimeEdge):
        tg.build(2, [(0, 1, 1), (0, 1, 1)])
    # same unordered pair and label, flipped endpoints
    with pytest.raises(tg.DuplicateTimeEdge):
        tg.build(2, [(0, 1, 3), (1, 0, 3)])


def test_build_rejects_bad_edges():
    with pytest.raises(tg.SelfLoop):
        tg.build(2, [(1, 1, 1)])
    with pytest.raises(tg.EndpointOutOfRange):
        tg.build(2, [(0, 2, 1)])
    with pytest.raises(tg.BadLabel):
        tg.build(2, [(0, 1, 0)])


def test_lifetime_normalized_to_max_label():
    g = tg.build(3, [(0, 1, 4), (1, 2, 9)])
    assert g.lifetime == 9
    assert tg.build(5, []).lifetime == 1


def test_classify_single_edge():
    cls = tg.classify(tg.build(2, [(0, 1, 1)]))
    assert (cls.simple, cls.proper, cls.happy) == (True, True, True)


def test_classify_triangle_shared_label():
    g = tg.build(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    cls = tg.classify(g)
    assert cls.simple and not cls.proper and not cls.happy


def test_classify_parallel_labels():
    g = tg.build(2, [(0, 1, 1), (0, 1, 2)])
    cls = tg.classify(g)
    assert not cls.simple and cls.proper and not cls.happy


def test_underlying_graph_dedups():
    g = tg.build(2, [(0, 1, 1), (0, 1, 5)])
    assert tg.underlying_graph(g) == {(0, 1)}
    assert tg.underlying_graph(tg.build(3, [])) == set()


def test_relabel_tiebreak_example():
    g = tg.build(4, [(0, 1, 3), (2, 3, 3), (1, 2, 1)])
    h = tg.relabel_to_happy(g)
    labels = {e.pair: e.t for e in h.edges}
    assert labels == {(1, 2): 1, (0, 1): 2, (2, 3): 3}
    assert tg.classify(h).happy


def test_relabel_requires_simple():
    g = tg.build(2, [(0, 1, 1), (0, 1, 2)])
    with pytest.raises(tg.NotSimple):
        tg.relabel_to_happy(g)


def test_relabel_keeps_edge_order():
    g = tg.build(4, [(0, 1, 7), (2, 3, 7), (1, 2, 2)])
    h = tg.relabel_to_happy(g)
    assert [e.pair for e in h.edges] == [e.pair for e in g.edges]


simple_graphs = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=1, max_value=12),
        ).filter(lambda e: e[0] != e[1]),
        max_size=12,
    ).map(
        lambda raw: tg.build(
            n,
            list(
                {
                    (min(u, v), max(u, v)): (u, v, t) for u, v, t in raw
                }.values()
            ),
        )
    )
)


# Few labels over few vertices: shared labels and parallel labels are common,
# and so are graphs that are neither simple nor proper.
multilabel_graphs = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=1, max_value=4),
        ).filter(lambda e: e[0] != e[1]),
        max_size=14,
    ).map(
        lambda raw: tg.build(
            n,
            list({(min(u, v), max(u, v), t): (u, v, t) for u, v, t in raw}.values()),
        )
    )
)


@given(simple_graphs)
@settings(max_examples=120, deadline=None)
def test_relabel_properties(g):
    h = tg.relabel_to_happy(g)
    assert tg.classify(h).happy
    assert sorted(e.t for e in h.edges) == list(range(1, h.m + 1))
    # strict old-label order is preserved
    for i in range(g.m):
        for j in range(g.m):
            if g.edges[i].t < g.edges[j].t:
                assert h.edges[i].t < h.edges[j].t


@given(simple_graphs)
@settings(max_examples=60, deadline=None)
def test_classify_is_pure(g):
    assert tg.classify(g) == tg.classify(g)


def test_parse_minimal():
    g = tg.parse("2 1\n0 1 1\n")
    assert (g.vertex_count, g.lifetime, g.m) == (2, 1, 1)


def test_parse_comments_and_blanks():
    g = tg.parse("# header\n3 5\n\n0 1 2\n# mid\n1 2 5\n")
    assert g.m == 2
    g = tg.parse("  # c\r\n\r\n  3   4  \r\n\t0  1 2 \r\n   \r\n 2 1 4\r\n")
    assert (g.vertex_count, g.lifetime) == (3, 4)
    assert g.edges == (tg.TimeEdge(0, 1, 2), tg.TimeEdge(2, 1, 4))


def test_parse_rejects_label_zero():
    with pytest.raises(tg.ParseError) as err:
        tg.parse("2 1\n0 1 0\n")
    assert "line 2" in str(err.value)


def test_parse_rejects_malformed():
    with pytest.raises(tg.ParseError):
        tg.parse("")
    with pytest.raises(tg.ParseError):
        tg.parse("2\n")
    with pytest.raises(tg.ParseError):
        tg.parse("2 1\n0 1\n")
    with pytest.raises(tg.ParseError):
        tg.parse("2 1\n0 1 2\n")  # label above declared lifetime


PARSE_ERRORS = [
    # header
    ("", 0, "empty input"),
    ("# only a comment\n\n", 0, "empty input"),
    ("2\n", 1, "expected header 'n T', got '2'"),
    ("2 1 3\n", 1, "expected header 'n T', got '2 1 3'"),
    ("2 x\n", 1, "non-integer header field in '2 x'"),
    ("0 3\n", 1, "header values must be positive"),
    ("2 0\n", 1, "header values must be positive"),
    ("-1 2\n", 1, "header values must be positive"),
    # edge lines
    ("2 1\n0 1\n", 2, "expected 'u v t', got '0 1'"),
    ("2 1\n0 1 1 1\n", 2, "expected 'u v t', got '0 1 1 1'"),
    ("2 1\n0 x 1\n", 2, "non-integer edge field in '0 x 1'"),
    ("2 1\n0 1 1.0\n", 2, "non-integer edge field in '0 1 1.0'"),
    ("2 1\n0 1 0\n", 2, "label 0 outside [1, 1]"),
    ("2 1\n0 1 2\n", 2, "label 2 outside [1, 1]"),
    # build errors, reported at line 0 once every line has been read
    ("2 2\n1 1 1\n", 0, "self-loop at vertex 1"),
    ("2 1\n0 2 1\n", 0, "edge TimeEdge(u=0, v=2, t=1) outside vertex range [0, 2)"),
    ("2 1\n-1 0 1\n", 0, "edge TimeEdge(u=-1, v=0, t=1) outside vertex range [0, 2)"),
    ("2 3\n0 1 3\n0 1 3\n", 0, "duplicate time edge (0, 1, 3)"),
    ("2 3\n0 1 3\n1 0 3\n", 0, "duplicate time edge (0, 1, 3)"),
    ("2 3\n1 0 3\n0 1 3\n", 0, "duplicate time edge (0, 1, 3)"),
    # a bad line beats an earlier build error; build errors come in edge order
    ("3 2\n1 1 1\n0 1 5\n", 3, "label 5 outside [1, 2]"),
    ("3 2\n0 1 1\n0 1 1\n2 2 1\n", 0, "duplicate time edge (0, 1, 1)"),
    ("3 2\n2 2 1\n0 1 1\n0 1 1\n", 0, "self-loop at vertex 2"),
    # blank, whitespace-only and indented comment lines still count
    ("\n   \n\t\n  # note\n2 1\n\n0 1 2\n", 7, "label 2 outside [1, 1]"),
    ("# c\r\n\r\n   \r\n  # x\r\n2 1\r\n\t\r\n0 1 2\r\n", 7, "label 2 outside [1, 1]"),
    ("2 1\r\n0 1\r\n", 2, "expected 'u v t', got '0 1'"),
]


@pytest.mark.parametrize("text, line_no, message", PARSE_ERRORS)
def test_parse_error_contract(text, line_no, message):
    with pytest.raises(tg.ParseError) as err:
        tg.parse(text)
    assert type(err.value) is tg.ParseError
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


BUILD_ERRORS = [
    (0, [], tg.EndpointOutOfRange, "vertex count must be positive, got 0"),
    (0, [(1, 1, 1)], tg.EndpointOutOfRange, "vertex count must be positive, got 0"),
    (2, [(1, 1, 1)], tg.SelfLoop, "self-loop at vertex 1"),
    (2, [(5, 5, 0)], tg.SelfLoop, "self-loop at vertex 5"),
    (2, [(0, 2, 1)], tg.EndpointOutOfRange, "edge TimeEdge(u=0, v=2, t=1) outside vertex range [0, 2)"),
    (2, [tg.TimeEdge(0, 2, 0)], tg.EndpointOutOfRange, "edge TimeEdge(u=0, v=2, t=0) outside vertex range [0, 2)"),
    (2, [(0, 1, 0)], tg.BadLabel, "label must be a positive integer, got 0"),
    (2, [(0, 1, -3)], tg.BadLabel, "label must be a positive integer, got -3"),
    (2, [(0, 1, 3), (1, 0, 3)], tg.DuplicateTimeEdge, "duplicate time edge (0, 1, 3)"),
    (2, [tg.TimeEdge(1, 0, 3), (0, 1, 3)], tg.DuplicateTimeEdge, "duplicate time edge (0, 1, 3)"),
    (3, [(0, 1, 1), (0, 1, 1), (0, 3, 1)], tg.DuplicateTimeEdge, "duplicate time edge (0, 1, 1)"),
    (3, [(0, 3, 1), (0, 1, 1), (0, 1, 1)], tg.EndpointOutOfRange, "edge TimeEdge(u=0, v=3, t=1) outside vertex range [0, 3)"),
]


@pytest.mark.parametrize("n, edges, exc, message", BUILD_ERRORS)
def test_build_error_contract(n, edges, exc, message):
    with pytest.raises(tg.TempGraphError) as err:
        tg.build(n, edges)
    assert type(err.value) is exc
    assert str(err.value) == message


def test_roundtrip_serialize_parse():
    g = tg.build(4, [(0, 1, 3), (2, 3, 3), (1, 2, 1)])
    assert tg.parse(tg.serialize(g)).edges == g.edges
    text = tg.serialize(g)
    assert tg.serialize(tg.parse(text)) == text


@given(st.one_of(simple_graphs, multilabel_graphs))
@settings(max_examples=150, deadline=None)
def test_roundtrip_property(g):
    text = tg.serialize(g)
    again = tg.parse(text)
    assert (again.vertex_count, again.lifetime, again.edges) == (g.vertex_count, g.lifetime, g.edges)
    twice = tg.parse(text)
    assert again == twice and hash(again) == hash(twice)

    edges = g.edges
    by_label = sorted(range(g.m), key=lambda i: (edges[i].t, i))
    assert g.label_groups == tuple(
        (t, tuple((i, edges[i].u, edges[i].v) for i in group))
        for t, group in groupby(by_label, key=lambda i: edges[i].t)
    )

    pairs_of = [e.pair for e in edges]
    simple = all(a != b for a, b in combinations(pairs_of, 2))
    proper = all(
        e.t != f.t or not {e.u, e.v} & {f.u, f.v} for e, f in combinations(edges, 2)
    )
    assert tg.classify(g) == tg.GraphClass(simple=simple, proper=proper, happy=simple and proper)

    assert g.underlying_pairs == frozenset(pairs_of)
    assert g.index_by_key == {e.key: i for i, e in enumerate(edges)}
    assert g.incident == tuple(
        tuple(i for i, e in enumerate(edges) if x in (e.u, e.v)) for x in range(g.vertex_count)
    )
    if simple:
        assert g.index_by_pair == {pair: i for i, pair in enumerate(pairs_of)}
    else:
        with pytest.raises(tg.NotSimple):
            g.index_by_pair


def test_edges_built_only_when_read():
    text = "4 5\n0 1 1\n1 2 2\n3 2 2\n3 0 4\n1 3 5\n0 2 3\n"
    g = tg.parse(text)
    tg.classify(g)
    reach.is_tc(g, reach.STRICT)
    reach.is_tc(g, reach.NONSTRICT)
    reach.earliest_arrival(g, 0)
    assert tg.serialize(g) == text
    assert "edges" not in vars(g)
    want = (
        tg.TimeEdge(0, 1, 1),
        tg.TimeEdge(1, 2, 2),
        tg.TimeEdge(3, 2, 2),
        tg.TimeEdge(3, 0, 4),
        tg.TimeEdge(1, 3, 5),
        tg.TimeEdge(0, 2, 3),
    )
    assert g.edges == want
    assert "edges" in vars(g)
    # Solving reads the columns only.  The MILP and the combination search
    # are also called directly, since the bounds may settle a solve before
    # either runs.
    g = generate.random_happy_tc(7, 23, 0.7)
    for engine in ("bnb", "flow"):
        solver.min_spanner_exact(g, engine=engine)
    res = solver.min_spanner_xp_vc(g)
    oracle = solver._SubsetOracle(g, reach.STRICT, solver.ALL_PAIRS)
    solver._exact_by_flow(oracle, solver.forced_edges(g), res.size)
    solver._xp_search(oracle, None, 0, frozenset(range(g.m)))
    cover = solver.min_vertex_cover(tg.underlying_graph(g), g.vertex_count)
    for tree in solver.vc_tree_decompose(res.spanner, cover).trees:
        assert reach.verify_out_tree(g, tree.tree_edges, tree.root)
    assert "edges" not in vars(g)


def test_spanner_formats():
    g = tg.build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    s = tg.Spanner(g, frozenset({0, 2}))
    by_index = tg.serialize_spanner(s)
    assert tg.parse_spanner(by_index, g).kept == s.kept
    by_triples = tg.serialize_spanner(s, triples=True)
    assert tg.parse_spanner(by_triples, g).kept == s.kept
    with pytest.raises(tg.ParseError):
        tg.parse_spanner("99\n", g)
    with pytest.raises(tg.ParseError):
        tg.parse_spanner("0 1 7\n", g)


def test_spanner_rejects_bad_index():
    g = tg.build(2, [(0, 1, 1)])
    with pytest.raises(tg.EndpointOutOfRange):
        tg.Spanner(g, frozenset({5}))


def test_delete_vertex_reindexes():
    g = tg.build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    h, survivors = tg.delete_vertex(g, 0)
    assert h.vertex_count == 2
    assert survivors == [1]
    assert h.edges[0].pair == (0, 1)  # old (1, 2) shifted down
    assert h.edges[0].t == 2
