from collections import Counter
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


def _brute_class(g):
    pairs = [e.pair for e in g.edges]
    simple = all(a != b for a, b in combinations(pairs, 2))
    proper = all(
        e.t != f.t or not {e.u, e.v} & {f.u, f.v} for e, f in combinations(g.edges, 2)
    )
    return tg.GraphClass(simple=simple, proper=proper, happy=simple and proper)


@pytest.mark.parametrize(
    "n, edges, simple, proper",
    [
        # label 2 carries a three-edge matching, label 4 a two-edge one
        (6, [(0, 1, 2), (2, 3, 2), (0, 2, 1), (4, 5, 2), (1, 3, 4), (2, 5, 4)], True, True),
        # the same matchings next to a second label on pair {0, 1}
        (6, [(0, 1, 2), (2, 3, 2), (0, 2, 1), (4, 5, 2), (1, 3, 4), (2, 5, 4), (1, 0, 3)], False, True),
        # label 2's rows, in index order: only the 2nd and 3rd share vertex 3
        (6, [(0, 1, 2), (2, 3, 2), (0, 2, 1), (4, 3, 2), (1, 5, 4), (0, 4, 4)], True, False),
        (6, [(0, 1, 2), (2, 3, 2), (0, 2, 1), (4, 3, 2), (1, 5, 4), (0, 4, 4), (1, 0, 3)], False, False),
    ],
    ids=["matchings", "matchings-parallel", "late-shared-end", "late-shared-end-parallel"],
)
def test_classify_multi_edge_labels(n, edges, simple, proper):
    g = tg.build(n, edges)
    assert tg.classify(g) == tg.GraphClass(simple, proper, simple and proper)
    assert tg.classify(g) == _brute_class(g)


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


def test_relabel_builds_no_sweep_table():
    g = tg.build(4, [(0, 1, 3), (2, 3, 3), (1, 2, 1)])
    tg.relabel_to_happy(g)
    assert "label_groups" not in vars(g)


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
    # A comment line of three fields is still a comment.
    g = tg.parse("3 5\n0 1 2\n# 1 2\n#1 2 3\n1 2 5\n")
    assert g.edges == (tg.TimeEdge(0, 1, 2), tg.TimeEdge(1, 2, 5))


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
    # build errors, raised once every line has been read, name the line of
    # the failing edge; a duplicate's is its second occurrence
    ("2 2\n1 1 1\n", 2, "self-loop at vertex 1"),
    ("2 1\n0 2 1\n", 2, "edge TimeEdge(u=0, v=2, t=1) outside vertex range [0, 2)"),
    ("2 1\n-1 0 1\n", 2, "edge TimeEdge(u=-1, v=0, t=1) outside vertex range [0, 2)"),
    ("2 3\n0 1 3\n0 1 3\n", 3, "duplicate time edge (0, 1, 3)"),
    ("2 3\n0 1 3\n1 0 3\n", 3, "duplicate time edge (0, 1, 3)"),
    ("2 3\n1 0 3\n0 1 3\n", 3, "duplicate time edge (0, 1, 3)"),
    ("3 5\n0 1 1\n# c\n1 1 2\n", 4, "self-loop at vertex 1"),
    ("# h\n3 5\n\n0 1 1\n  # c\n1 2 2\n \t\n1 0 1\n", 8, "duplicate time edge (0, 1, 1)"),
    # a bad line beats an earlier build error; build errors come in edge order
    ("3 2\n1 1 1\n0 1 5\n", 3, "label 5 outside [1, 2]"),
    ("3 2\n0 1 1\n0 1 1\n2 2 1\n", 3, "duplicate time edge (0, 1, 1)"),
    ("3 2\n2 2 1\n0 1 1\n0 1 1\n", 2, "self-loop at vertex 2"),
    # blank, whitespace-only and indented comment lines still count
    ("\n   \n\t\n  # note\n2 1\n\n0 1 2\n", 7, "label 2 outside [1, 1]"),
    ("# c\r\n\r\n   \r\n  # x\r\n2 1\r\n\t\r\n0 1 2\r\n", 7, "label 2 outside [1, 1]"),
    ("2 1\r\n0 1\r\n", 2, "expected 'u v t', got '0 1'"),
    # the first bad line is named, whatever kind of fault a later line has
    ("2 3\n0 1 9\n0 x 1\n", 2, "label 9 outside [1, 3]"),
    ("2 1\n0 1 1 1\n0 x 1\n", 2, "expected 'u v t', got '0 1 1 1'"),
    ("2 3\n0 1 1\n0 x 1\n0 1 9\n", 3, "non-integer edge field in '0 x 1'"),
    ("2 3\n0 1 1\n# 1 2\n1 0 4\n0 1\n", 4, "label 4 outside [1, 3]"),
    ("3 3\n0 1 1\n0 1 1\n1 2 0\n", 4, "label 0 outside [1, 3]"),
]


@pytest.mark.parametrize("text, line_no, message", PARSE_ERRORS)
def test_parse_error_contract(text, line_no, message):
    with pytest.raises(tg.ParseError) as err:
        tg.parse(text)
    assert type(err.value) is tg.ParseError
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_parse_chunk_size_changes_nothing(monkeypatch, chunk):
    text = "# h\n4 5\n0 1 1\n\n1 2 2\n# 1 2\n3 2 2\n3 0 4\r\n1 3 5\n0 2 3\n"
    want = tg.parse(text)
    monkeypatch.setattr(tg, "_PARSE_CHUNK", chunk)
    assert tg.parse(text) == want
    for text, line_no, message in PARSE_ERRORS:
        with pytest.raises(tg.ParseError) as err:
            tg.parse(text)
        assert str(err.value) == f"line {line_no}: {message}"


def test_parse_across_chunks():
    # More edge lines than one chunk holds; the bad line is in the last one.
    m = 2 * tg._PARSE_CHUNK + 5
    edges = [(i % 7, 7 + i % 5, 1 + i) for i in range(m)]
    text = tg.serialize(tg.build(12, edges))
    assert tg.parse(text).ts == tuple(range(1, m + 1))
    lines = text.splitlines()
    lines[m - 3] += " 1"
    with pytest.raises(tg.ParseError, match=f"^line {m - 2}: expected 'u v t'"):
        tg.parse("\n".join(lines))
    lines[m - 3] = "0 x 1"
    with pytest.raises(tg.ParseError, match=f"^line {m - 2}: non-integer edge field"):
        tg.parse("\n".join(lines))


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
    # fields pass through operator.index: a float label or endpoint would
    # serialize to text that parse rejects, or break the sweeps' indexing
    (3, [(0, 1, 1.5), (1, 2, 2)], tg.BadLabel, "label must be a positive integer, got 1.5"),
    (3, [(0.0, 1, 1), (1, 2, 2)], tg.EndpointOutOfRange, "edge (0.0, 1, 1) has a non-integer endpoint"),
    (3, [(0, 1, 1), tg.TimeEdge(1, 2.0, 2)], tg.EndpointOutOfRange, "edge (1, 2.0, 2) has a non-integer endpoint"),
    (3, [(0, 1, "2")], tg.BadLabel, "label must be a positive integer, got '2'"),
]


def test_build_takes_numpy_ints_as_python_ints():
    np = pytest.importorskip("numpy")
    g = tg.build(3, [(np.int64(0), np.int32(1), np.int64(1)), (1, 2, np.uint8(2))])
    assert g.us == (0, 1) and g.vs == (1, 2) and g.ts == (1, 2)
    assert all(type(x) is int for x in g.us + g.vs + g.ts)
    assert tg.parse(tg.serialize(g)).edges == g.edges


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


def test_serialize_bytes():
    # Header, then one "u v t" line per edge in stored order, endpoints as
    # given; an edgeless graph is its header alone, with lifetime 1.
    assert tg.serialize(tg.build(3, [])) == "3 1\n"
    g = tg.build(5, [(3, 1, 2), (0, 4, 7), (1, 3, 7), (2, 0, 2), (4, 2, 10)])
    assert tg.serialize(g) == "5 10\n3 1 2\n0 4 7\n1 3 7\n2 0 2\n4 2 10\n"


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
    expected = []
    for t, run in groupby(by_label, key=lambda i: edges[i].t):
        rows = tuple((i, edges[i].u, edges[i].v) for i in run)
        expected.append((t, *rows[0]) if len(rows) == 1 else (t, rows))
    assert g.label_groups == tuple(expected)
    # Every edge appears exactly once, in (label, index) order.
    rows = [row for group in g.label_groups for row in tg.group_rows(group)]
    assert rows == [(i, edges[i].u, edges[i].v) for i in by_label]
    labels = [group[0] for group in g.label_groups]
    assert labels == sorted(set(labels))
    # A one-edge label is one flat tuple; any other label holds row tuples.
    carried = Counter(e.t for e in edges)
    for group in g.label_groups:
        if carried[group[0]] == 1:
            assert len(group) == 4 and all(type(x) is int for x in group)
        else:
            assert len(group) == 2 and len(group[1]) == carried[group[0]] > 1
            assert all(len(row) == 3 for row in group[1])

    pairs_of = [e.pair for e in edges]
    cls = _brute_class(g)
    assert tg.classify(g) == cls

    assert g.underlying_pairs == frozenset(pairs_of)
    assert g.index_by_key == {e.key: i for i, e in enumerate(edges)}
    assert g.incident == tuple(
        tuple(i for i, e in enumerate(edges) if x in (e.u, e.v)) for x in range(g.vertex_count)
    )


# Layout the format ignores: blank and comment lines, runs of spaces and
# tabs around fields, and CRLF line ends.
_noise_lines = st.sampled_from(["", "  ", "\t", "# note", "  # 1 2", "#1 2 3", "# a b c d"])
_gaps = st.sampled_from([" ", "  ", "\t", " \t "])
_margins = st.sampled_from(["", " ", "\t"])


@given(st.one_of(simple_graphs, multilabel_graphs), st.data())
@settings(max_examples=100, deadline=None)
def test_parse_ignores_layout(g, data):
    lines = []
    for line in tg.serialize(g).splitlines():
        lines += data.draw(st.lists(_noise_lines, max_size=2))
        gap = data.draw(_gaps)
        lines.append(data.draw(_margins) + gap.join(line.split()) + data.draw(_margins))
    lines += data.draw(st.lists(_noise_lines, max_size=2))
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    h = tg.parse("".join(map(str.__add__, lines, ends)))
    assert (h.vertex_count, h.lifetime, h.us, h.vs, h.ts) == (g.vertex_count, g.lifetime, g.us, g.vs, g.ts)


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
    solver._exact_by_hitting_set(oracle, res.size)
    solver._xp_search(oracle, frozenset(range(g.m)), 0)
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
    with pytest.raises(tg.ParseError, match=r"line 2: non-integer field in '0 x 1'"):
        tg.parse_spanner("0\n0 x 1\n", g)
    with pytest.raises(tg.ParseError, match=r"line 1: expected index or 'u v t', got '0 1'"):
        tg.parse_spanner("0 1\n", g)
    assert s.edges() == [tg.TimeEdge(0, 1, 1), tg.TimeEdge(0, 2, 3)]


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
    for victim in (-1, 3):
        with pytest.raises(tg.EndpointOutOfRange, match=f"vertex {victim} out of range"):
            tg.delete_vertex(g, victim)
