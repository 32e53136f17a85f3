import json
from types import SimpleNamespace

import pytest

from tempspan import cli, reductions, solver
from tempspan import tempgraph as tg
from tempspan.generate import random_happy_tc, random_happy_tc_with_cover


@pytest.fixture
def graph_file(tmp_path):
    g = random_happy_tc_with_cover(6, 2, 42)
    path = tmp_path / "g.tg"
    path.write_text(tg.serialize(g))
    return path


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_tc_graph(capsys, graph_file):
    code, out, _ = run(capsys, "check", graph_file)
    assert code == 0
    assert out.strip() == "tc=true simple=true proper=true happy=true"


def test_check_edgeless_not_tc(capsys, tmp_path):
    path = tmp_path / "e.tg"
    path.write_text("3 1\n0 1 1\n")
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert "tc=false" in out


def test_check_json_schema(capsys, graph_file):
    code, out, _ = run(capsys, "check", graph_file, "--json")
    payload = json.loads(out)
    assert set(payload) == {"command", "input", "result"}
    assert set(payload["result"]) == {"n", "m", "tc", "simple", "proper", "happy"}
    g = tg.parse(graph_file.read_text())
    assert (payload["result"]["n"], payload["result"]["m"]) == (g.vertex_count, g.m)
    assert set(payload["input"]) == {"path", "sha256"}


def test_check_reads_crlf_and_comments(capsys, tmp_path):
    path = tmp_path / "crlf.tg"
    path.write_bytes(b"# a triangle\r\n3 3\r\n0 1 1\r\n# 1 2\r\n\r\n 1  2\t2 \r\n0 2 3\r\n")
    code, out, _ = run(capsys, "check", path, "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["n"], result["m"], result["happy"]) == (3, 3, True)


def test_solve_methods_agree(capsys, graph_file):
    code, out, _ = run(capsys, "solve", "--method", "exact", "--json", graph_file)
    assert code == 0
    exact = json.loads(out)["result"]
    code, out, _ = run(capsys, "solve", "--method", "xp-vc", "--json", graph_file)
    assert code == 0
    xp = json.loads(out)["result"]
    assert exact["size"] == xp["size"]
    assert exact["optimal"] and xp["optimal"]


def test_solve_json_reports_the_proven_lower_bound(capsys, graph_file):
    code, out, _ = run(capsys, "solve", "--json", graph_file)
    assert code == 0
    opt = json.loads(out)["result"]
    assert opt["optimal"] and opt["lower_bound"] == opt["size"]
    # One edge below the optimum: the "no" carries the bound that decided it.
    code, out, _ = run(capsys, "solve", "--json", "--k", str(opt["size"] - 1), graph_file)
    assert code == 1
    no = json.loads(out)["result"]
    assert no["within_budget"] is False and opt["size"] - 1 < no["lower_bound"] <= no["size"]
    assert no["optimal"] is (no["size"] <= no["lower_bound"])


def test_solve_flow_engine(capsys, graph_file):
    code, out, _ = run(capsys, "solve", "--engine", "bnb", "--json", graph_file)
    assert code == 0
    bnb = json.loads(out)["result"]
    code, out, _ = run(capsys, "solve", "--engine", "flow", "--json", graph_file)
    assert code == 0
    flow = json.loads(out)["result"]
    assert flow["size"] == bnb["size"]
    assert flow["method"] == "exact-flow"


@pytest.mark.parametrize("engine", ["bnb", "flow"])
def test_solve_single_vertex_graph(capsys, tmp_path, engine):
    path = tmp_path / "one.tg"
    path.write_text("1 1\n")
    code, out, err = run(capsys, "solve", "--engine", engine, path)
    assert code == 0
    # The spanner takes stdout and keeps no edge; the summary goes to stderr.
    assert out == ""
    assert err.splitlines()[-1] == f"size=0 optimal=true method=exact-{engine}"


@pytest.mark.parametrize("method", ["exact", "xp-vc"])
def test_solve_single_vertex_budget_exit_codes(capsys, tmp_path, method):
    path = tmp_path / "one.tg"
    path.write_text("1 1\n")
    code, _, _ = run(capsys, "solve", "--method", method, "--k", 0, path)
    assert code == 0
    code, _, _ = run(capsys, "solve", "--method", method, "--k", -1, path)
    assert code == 1


@pytest.mark.parametrize("engine", ["flow"])
def test_solve_milp_failure_exits_cleanly(capsys, tmp_path, monkeypatch, engine):
    import scipy.optimize

    # The best greedy restart keeps 23 edges, above the gossip bound
    # 2n - 4 = 20 and the block bound 20.  With no branch-and-bound nodes
    # the flow engine must ask the hitting-set MILP whether 22 edges
    # suffice, and its first model fails.
    monkeypatch.setattr(solver, "_NODE_LIMIT", 0)
    path = tmp_path / "g.tg"
    path.write_text(tg.serialize(random_happy_tc(12, 0, 0.6)))
    failed = SimpleNamespace(status=4, message="numerical trouble", x=None, fun=None)
    calls = []
    monkeypatch.setattr(scipy.optimize, "milp", lambda *a, **k: calls.append(k) or failed)
    code, out, err = run(capsys, "solve", "--engine", engine, path)
    assert len(calls) == 1
    assert code == cli.EXIT_RESOURCE == 2
    assert out == ""
    assert err.strip() == "tempspan: solver failure: MILP solve failed: numerical trouble"


def test_solve_summary_line(capsys, graph_file, tmp_path):
    out_file = tmp_path / "s.spanner"
    code, out, _ = run(capsys, "solve", "--out", out_file, graph_file)
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("size=") and "optimal=true" in first and "method=exact-" in first
    spanner = out_file.read_text()
    assert all(line.strip().isdigit() for line in spanner.splitlines())


def test_solve_budget_exit_codes(capsys, graph_file, tmp_path):
    code, out, _ = run(capsys, "solve", "--json", graph_file)
    opt = json.loads(out)["result"]["size"]
    code, _, _ = run(capsys, "solve", "--k", opt, "--out", tmp_path / "a", graph_file)
    assert code == 0
    code, _, _ = run(capsys, "solve", "--k", opt - 1, "--out", tmp_path / "b", graph_file)
    assert code == 1


def test_solve_resource_guard(capsys, tmp_path):
    # 48 removable edges exceed the default cap 40, and neither the bounds,
    # a node-limited branch and bound nor the restarts settle the optimum.
    path = tmp_path / "g.tg"
    path.write_text(tg.serialize(random_happy_tc(16, 0, 0.4)))
    code, out, err = run(capsys, "solve", path)
    assert code == 2 and out == ""
    assert "resource guard" in err and "48 removable edges exceed cap 40" in err


def test_solve_default_answers_what_the_bounds_settle_beyond_the_cap(capsys, tmp_path):
    # 58 removable edges exceed the default cap 40, but a node-limited
    # branch and bound finds a spanner at the gossip bound 2n - 4 = 24.
    path = tmp_path / "g.tg"
    path.write_text(tg.serialize(random_happy_tc(14, 0, 0.6)))
    code, out, _ = run(capsys, "solve", "--json", path)
    result = json.loads(out)["result"]
    assert code == 0
    assert result["size"] == 24 == result["lower_bound"] and result["optimal"] is True


def test_solve_cap_skipped_when_no_search_is_needed(capsys, tmp_path):
    # 9 removable edges exceed cap 0, but the index greedy spanner keeps
    # 2n - 4 = 8 edges: it answers k=2 and k=8, proven optimal.
    path = tmp_path / "g.tg"
    g = random_happy_tc(6, 0, 0.6)
    path.write_text(tg.serialize(g))
    # The spanner takes stdout, so the summary goes to stderr.
    spanner = tg.serialize_spanner(solver.min_spanner_exact(g, budget=8, cap=0).spanner)
    code, out, err = run(capsys, "solve", "--k", 2, "--cap", 0, path)
    assert code == 1
    assert out == spanner and err.splitlines()[-1].startswith("size=8 optimal=true ")
    code, out, err = run(capsys, "solve", "--k", 8, "--cap", 0, path)
    assert code == 0 and out == spanner and err.splitlines()[-1].startswith("size=8 optimal=true ")
    assert "resource guard" not in err


def test_solve_cap_skipped_below_the_gossip_bound(capsys, tmp_path):
    # 58 removable edges exceed cap 0; 2 edges are forced, but no spanner of
    # a 14-vertex graph has fewer than 2n - 4 = 24 edges.
    path = tmp_path / "g.tg"
    path.write_text(tg.serialize(random_happy_tc(14, 0, 0.6)))
    code, _, err = run(capsys, "solve", "--k", 23, "--cap", 0, path)
    assert code == 1 and "resource guard" not in err


def test_verify_roundtrip(capsys, graph_file, tmp_path):
    span_file = tmp_path / "w.spanner"
    code, out, _ = run(capsys, "solve", "--out", span_file, graph_file)
    assert code == 0
    code, out, _ = run(capsys, "verify", graph_file, span_file)
    assert code == 0 and "holds=true" in out
    span_file.write_text("")  # the empty subset never satisfies the requirement
    code, out, _ = run(capsys, "verify", graph_file, span_file)
    assert code == 1 and "holds=false" in out


def test_decompose_optimal_spanner(capsys, graph_file, tmp_path):
    span_file = tmp_path / "opt.spanner"
    run(capsys, "solve", "--out", span_file, graph_file)
    code, out, _ = run(capsys, "decompose", "--vc", graph_file, span_file)
    assert code == 0
    assert out.startswith("cover=")
    assert "tree root=" in out


def test_decompose_single_vertex(capsys, tmp_path):
    graph_file, span_file = tmp_path / "one.tg", tmp_path / "one.spanner"
    graph_file.write_text("1 1\n")
    span_file.write_text("")
    code, out, _ = run(capsys, "decompose", "--vc", graph_file, span_file)
    assert code == 0 and out == "cover=\n"
    code, out, _ = run(capsys, "decompose", "--vc", "--json", graph_file, span_file)
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"cover": [], "decomposable": True, "trees": [], "extras": []}


def test_decompose_full_graph_may_fail(capsys, graph_file, tmp_path):
    g = tg.parse(graph_file.read_text())
    span_file = tmp_path / "full.spanner"
    span_file.write_text("".join(f"{i}\n" for i in range(g.m)))
    code, out, _ = run(capsys, "decompose", "--vc", graph_file, span_file)
    assert code in (0, 1)
    if code == 1:
        assert "NOT-DECOMPOSABLE" in out


def test_decompose_reports_a_spanner_that_is_not_minimum(capsys, tmp_path):
    # The whole graph keeps 17 edges where the optimum keeps 12.
    g = random_happy_tc_with_cover(8, 3, 1)
    graph_file, span_file = tmp_path / "g.tg", tmp_path / "full.spanner"
    graph_file.write_text(tg.serialize(g))
    span_file.write_text("".join(f"{i}\n" for i in range(g.m)))
    code, out, _ = run(capsys, "decompose", "--vc", graph_file, span_file)
    assert code == 1 and out == "NOT-DECOMPOSABLE\n"


def test_gen_random_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.tg", tmp_path / "b.tg"
    assert run(capsys, "gen-random", "--n", 7, "--seed", 5, "--out", a)[0] == 0
    assert run(capsys, "gen-random", "--n", 7, "--seed", 5, "--out", b)[0] == 0
    assert a.read_text() == b.read_text()
    assert run(capsys, "gen-random", "--n", 7, "--seed", 6, "--out", b)[0] == 0
    assert a.read_text() != b.read_text()


def test_gen_random_cover_flag(capsys, tmp_path):
    path = tmp_path / "c.tg"
    code, _, _ = run(capsys, "gen-random", "--n", 8, "--seed", 1, "--cover", 2, "--out", path)
    assert code == 0
    g = tg.parse(path.read_text())
    from tempspan.solver import min_vertex_cover
    from tempspan.tempgraph import underlying_graph

    assert len(min_vertex_cover(underlying_graph(g), g.vertex_count)) <= 2


def test_gen_random_to_stdout_writes_the_graph_only(capsys):
    code, out, err = run(capsys, "gen-random", "--n", 7, "--seed", 5, "--out", "-")
    g = random_happy_tc(7, 5)
    assert code == 0 and out == tg.serialize(g)
    assert err == f"n={g.vertex_count} m={g.m} lifetime={g.lifetime} seed=5\n"
    # One vertex needs no edge, whatever the seed.
    code, out, err = run(capsys, "gen-random", "--n", 1, "--seed", 5, "--out", "-")
    assert (code, out, err) == (0, "1 1\n", "n=1 m=0 lifetime=1 seed=5\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", 0], "n must be positive"),
        (["--n", 8, "--cover", 8], "need 1 <= cover_size < n"),
        (["--n", 8, "--cover", 0], "need 1 <= cover_size < n"),
        (["--n", 8, "--max-tries", 0], "no TC graph found in 0 tries (seed 1)"),
        (["--n", 8, "--cover", 2, "--max-tries", 0], "no TC graph found in 0 tries (seed 1)"),
        (["--n", 6, "--edge-prob", -0.5], "edge_prob must be in [0, 1], got -0.5"),
        (["--n", 6, "--edge-prob", 1.5], "edge_prob must be in [0, 1], got 1.5"),
        (["--n", 6, "--edge-prob", "nan"], "edge_prob must be in [0, 1], got nan"),
        (["--n", 6, "--max-tries", -3], "max_tries must be non-negative, got -3"),
        (["--n", 6, "--cover", 2, "--max-tries", -3], "max_tries must be non-negative, got -3"),
    ],
    ids=[
        "no-vertex",
        "cover-too-large",
        "cover-zero",
        "no-tries",
        "cover-no-tries",
        "negative-prob",
        "prob-above-one",
        "nan-prob",
        "negative-tries",
        "cover-negative-tries",
    ],
)
def test_gen_random_refuses_what_it_cannot_generate(capsys, argv, message):
    code, out, err = run(capsys, "gen-random", "--seed", 1, *argv)
    assert (code, out, err) == (3, "", f"tempspan: error: {message}\n")


def test_gen_random_json_to_file(capsys, tmp_path):
    path = tmp_path / "g.tg"
    code, out, _ = run(capsys, "gen-random", "--n", 7, "--seed", 5, "--json", "--out", path)
    g = random_happy_tc(7, 5)
    result = {"n": g.vertex_count, "m": g.m, "lifetime": g.lifetime, "seed": 5}
    assert code == 0
    assert out == json.dumps({"command": "gen-random", "input": None, "result": result}) + "\n"
    assert path.read_text() == tg.serialize(g)


def test_solve_to_stdout_writes_the_spanner_only(capsys, graph_file, tmp_path):
    code, out, err = run(capsys, "solve", graph_file)
    res = solver.min_spanner_exact(tg.parse(graph_file.read_text()))
    assert code == 0 and out == tg.serialize_spanner(res.spanner)
    assert err.splitlines()[-1] == f"size={res.size} optimal=true method={res.method}"
    span_file = tmp_path / "s.txt"
    span_file.write_text(out)
    assert run(capsys, "verify", graph_file, span_file)[0] == 0
    # --json takes stdout, and its result lists the spanner's edge indices.
    code, out, _ = run(capsys, "solve", "--json", graph_file)
    assert code == 0 and len(out.splitlines()) == 1
    assert json.loads(out)["result"]["spanner"] == sorted(res.spanner.kept)


def test_gen_random_to_a_file_prints_the_summary(capsys, tmp_path):
    path = tmp_path / "g.tg"
    code, out, err = run(capsys, "gen-random", "--n", 7, "--seed", 5, "--out", path)
    g = random_happy_tc(7, 5)
    assert (code, err) == (0, "") and path.read_text() == tg.serialize(g)
    assert out == f"n={g.vertex_count} m={g.m} lifetime={g.lifetime} seed=5\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen-random", "--n", 7, "--seed", 5, "--json"], "--json needs --out FILE"),
        (["gen-random", "--n", 7, "--seed", 5, "--json", "--out", "-"], "--json needs --out FILE"),
        (["solve", "missing.tg", "--json", "--triples"], "--json --triples needs --out FILE"),
    ],
    ids=["gen-random", "gen-random-dash", "solve-triples"],
)
def test_json_that_would_drop_the_payload_is_refused_first(capsys, argv, message):
    # The refusal comes before any work: the solve does not read its file.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and err.startswith(f"tempspan: error: {message}: ")


def test_solve_writes_triples(capsys, graph_file, tmp_path):
    out_file = tmp_path / "t.txt"
    code, _, _ = run(capsys, "solve", graph_file, "--triples", "--out", out_file)
    res = solver.min_spanner_exact(tg.parse(graph_file.read_text()))
    assert code == 0
    assert out_file.read_text() == tg.serialize_spanner(res.spanner, triples=True)
    code, out, _ = run(capsys, "verify", graph_file, out_file)
    assert code == 0 and out.startswith("holds=true")


def test_reduce_sat_outputs(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 1 1 0\n")
    prefix = tmp_path / "out"
    code, out, _ = run(capsys, "reduce-sat", cnf, "--out-prefix", prefix)
    assert code == 0
    g = tg.parse((tmp_path / "out.tg").read_text())
    assert g.vertex_count == 14
    budget = int((tmp_path / "out.budget").read_text())
    assert budget == g.m - 9
    critical = [int(x) for x in (tmp_path / "out.critical").read_text().split()]
    assert critical and all(0 <= i < g.m for i in critical)
    roles = (tmp_path / "out.roles").read_text().splitlines()
    assert len(roles) == g.vertex_count

    code, out, _ = run(capsys, "check", tmp_path / "out.tg")
    assert code == 0 and "happy=true" in out


def test_reduce_sat_two_source(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 1 1 0\n")
    prefix = tmp_path / "var"
    code, _, _ = run(capsys, "reduce-sat", cnf, "--two-source", "--out-prefix", prefix)
    assert code == 0
    sources = (tmp_path / "var.sources").read_text().split()
    assert sources == ["0", "1"]
    g = tg.parse((tmp_path / "var.tg").read_text())
    assert g.vertex_count == 13


def test_reduce_mcc_outputs(capsys, tmp_path):
    lines = ["3 2"]
    for i in range(1, 4):
        for j in range(i + 1, 4):
            for a in (1, 2):
                for b in (1, 2):
                    lines.append(f"{i} {a} {j} {b}")
    mcc = tmp_path / "g.mcc"
    mcc.write_text("\n".join(lines) + "\n")
    prefix = tmp_path / "out"
    code, out, _ = run(capsys, "reduce-mcc", mcc, "--out-prefix", prefix)
    assert code == 0
    g = tg.parse((tmp_path / "out.tg").read_text())
    budget = int((tmp_path / "out.budget").read_text())
    gadgets = (tmp_path / "out.gadgets").read_text().splitlines()
    assert len(gadgets) == g.m
    fvs = [int(x) for x in (tmp_path / "out.fvs").read_text().split()]
    assert fvs
    assert budget > 0
    code, out, _ = run(capsys, "check", tmp_path / "out.tg")
    assert code == 0  # strictly TC


def _lines(items):
    return "".join(f"{item}\n" for item in items)


def test_reduce_files_are_what_the_library_objects_serialize_to(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 -2 2 0\n-1 -1 2 0\n")
    mcc = tmp_path / "g.mcc"
    mcc.write_text("3 1\n1 1 2 1\n1 1 3 1\n2 1 3 1\n")
    sat = reductions.sat_to_spanner_instance(reductions.parse_dimacs(cnf.read_text()))
    variant = reductions.sat_two_source_variant(sat)
    assert variant.sources == (0, 1)
    padded = reductions.pad_to_even(reductions.parse_mcc(mcc.read_text()))
    clique = reductions.mcc_to_spanner_instance(padded)

    def common(out):
        roles = [f"{v} {role}" for v, role in enumerate(out.roles)]
        return {"tg": tg.serialize(out.graph), "budget": f"{out.budget}\n", "roles": _lines(roles)}

    cases = [
        (["reduce-sat", cnf], {**common(sat), "critical": _lines(sorted(sat.critical))}),
        (["reduce-sat", cnf, "--two-source"], {**common(variant), "sources": "0 1\n"}),
        (["reduce-mcc", mcc, "--pad-even"], {
            **common(clique),
            "fvs": _lines(sorted(clique.fvs)),
            "gadgets": _lines(f"{i} {tag}" for i, tag in enumerate(clique.gadget_map)),
        }),
    ]
    for k, (argv, want) in enumerate(cases):
        out_dir = tmp_path / f"out{k}"
        out_dir.mkdir()
        code, _, _ = run(capsys, *argv, "--out-prefix", out_dir / "x")
        assert code == 0
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == {
            f"x.{suffix}": text.encode() for suffix, text in want.items()
        }


def test_reduce_mcc_rejects_two_colors(capsys, tmp_path):
    mcc = tmp_path / "g.mcc"
    mcc.write_text("2 1\n1 1 2 1\n1 1 2 1\n")
    code, out, err = run(capsys, "reduce-mcc", mcc, "--out-prefix", tmp_path / "x")
    assert code == 3 and out == ""
    assert "need at least three colors, got 2" in err
    assert not list(tmp_path.glob("x.*"))


def test_usage_errors_exit_three(capsys, tmp_path):
    bad = tmp_path / "bad.tg"
    bad.write_text("2 1\n0 1 0\n")
    code, _, err = run(capsys, "check", bad)
    assert code == 3
    code, _, err = run(capsys, "check", tmp_path / "missing.tg")
    assert code == 3
    good = tmp_path / "good.tg"
    good.write_text("1 1\n")
    code, _, err = run(capsys, "solve", "--engine", "cuts", good)
    assert code == 3
    assert "invalid choice: 'cuts'" in err
    code, _, err = run(capsys, "solve", "--method", "xp-vc", "--two-source", 0, 1, good)
    assert code == 3 and "xp-vc supports the all-pairs requirement only" in err
    # Flags that xp-vc would ignore are refused, the exact engine's defaults too.
    for flags, named in (
        (["--engine", "flow"], "--engine"),
        (["--engine", "auto"], "--engine"),
        (["--cap", 0], "--cap"),
        (["--cap", 0, "--engine", "bnb"], "--cap or --engine"),
    ):
        code, out, err = run(capsys, "solve", "--method", "xp-vc", *flags, good)
        assert (code, out) == (3, "") and err == f"tempspan: error: xp-vc takes no {named}\n"
    # A generator picks edges by --edge-prob or by --cover, never both.
    code, out, err = run(capsys, "gen-random", "--n", 8, "--seed", 1, "--cover", 2, "--edge-prob", 0.95)
    assert (code, out) == (3, "") and "argument --edge-prob: not allowed with argument --cover" in err
    code, out, err = run(capsys, "decompose", good, good)
    assert (code, out) == (3, "") and err == "tempspan: error: only --vc decomposition is available\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 5\n0 1 1\n# c\n1 1 2\n", "line 4: self-loop at vertex 1"),
        ("3 5\n0 1 1\n\n0 3 2\n", "line 4: edge TimeEdge(u=0, v=3, t=2) outside vertex range [0, 3)"),
        ("3 5\n0 1 1\n1 2 2\n# c\n1 0 1\n", "line 5: duplicate time edge (0, 1, 1)"),
    ],
    ids=["self-loop", "out-of-range", "duplicate"],
)
def test_check_names_the_line_of_an_edge_error(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.tg"
    bad.write_text(text)
    code, _, err = run(capsys, "check", bad)
    assert code == 3
    assert err == f"tempspan: error: {message}\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("reduce-sat", "p cnf 3 1\n1 2\n3 -1 0\n", "line 3: clause wider than 3 rejected"),
        ("reduce-sat", "p cnf 3 1\n1 two 3 0\n", "line 2: non-integer literal 'two'"),
        ("reduce-sat", "c x\np cnf 3 2\n1 2 3 0\n", "line 2: header declares 2 clauses, read 1"),
        ("reduce-sat", "p cnf 1 1\n2 0\n", "line 2: literal 2 out of range for 1 variables"),
        ("reduce-sat", "1 2 0\np cnf 2 1\n", "line 1: clause data before the 'p cnf' line"),
        ("reduce-mcc", "3 1\n1 1 2 x\n", "line 2: non-integer field in '1 1 2 x'"),
        ("reduce-mcc", "3 1\n0 1 2 1\n", "line 2: colors and vertices start at 1: '0 1 2 1'"),
    ],
    ids=[
        "sat-wide",
        "sat-non-integer",
        "sat-clause-count",
        "sat-literal-range",
        "sat-clause-before-header",
        "mcc-non-integer",
        "mcc-zero",
    ],
)
def test_reduce_names_the_line_of_a_bad_input(capsys, tmp_path, command, text, message):
    bad = tmp_path / "bad.in"
    bad.write_text(text)
    code, _, err = run(capsys, command, bad, "--out-prefix", tmp_path / "out")
    assert code == 3
    assert err == f"tempspan: error: {message}\n"


def test_two_source_out_of_range_exits_three(capsys, tmp_path):
    # The solver's own range check raises ValueError, a usage error.
    g = tg.build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    path = tmp_path / "t.tg"
    path.write_text(tg.serialize(g))
    span = tmp_path / "t.spanner"
    span.write_text("0\n1\n")
    code, _, err = run(capsys, "solve", "--two-source", 0, 99, path)
    assert code == 3 and "source 99 out of range" in err
    code, _, err = run(capsys, "verify", path, span, "--two-source", 0, 99)
    assert code == 3 and "source 99 out of range" in err


def test_verify_two_source_flag(capsys, tmp_path):
    g = tg.build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    path = tmp_path / "t.tg"
    path.write_text(tg.serialize(g))
    span = tmp_path / "t.spanner"
    span.write_text("0\n1\n")
    code, out, _ = run(capsys, "verify", path, span, "--two-source", 0, 1)
    assert code == 0
    assert "two-source(0,1)" in out
