"""Tests of the benchmark's own code: checker, span arithmetic, sampler, corpus."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random

import pytest

import make_corpus
import reference
import sampler
import workloads
from run import check, op_latencies, tail_rank
from spans import PER_LAYER, layer_metrics, self_times

from tempspan import reach, solver, tempgraph
from tempspan.reach import NONSTRICT, STRICT

MANIFEST = workloads.load_manifest()


def _spec(name: str) -> dict:
    return next(spec for spec in MANIFEST if spec["name"] == name)


# ---------------------------------------------------------------------------
# Output checker
# ---------------------------------------------------------------------------


def test_check_counts_exceptions_and_wrong_outputs():
    ops = [workloads.Op("ok", None, lambda out: None), workloads.Op("bad", None, lambda out: "wrong")]
    results = [(0, 1, None), (1, 2, None), (0, None, ValueError("boom"))]
    failed, wrong, reasons = check(ops, results)
    assert (failed, wrong) == (2, 1)
    assert reasons == ["bad: wrong", "ok: raised ValueError: boom"]


def test_checker_accepts_the_solver_answer():
    op = workloads.solve_op(_spec("happy-small-10-strict"), seed=5)
    assert op.check(op.run()) is None


def test_checker_flags_spanner_missing_a_forced_edge():
    op = workloads.solve_op(_spec("happy-small-10-strict"), seed=5)
    res = op.run()
    g = res.spanner.parent
    forced = sorted(solver.forced_edges(g, STRICT))
    kept = res.spanner.kept - {forced[0]}
    broken = dataclasses.replace(res, spanner=tempgraph.Spanner(g, kept), size=len(kept))
    assert op.check(broken) is not None


def test_checker_flags_wrong_decision_answer():
    op = workloads.solve_op(_spec("phi-unsat-decide"), seed=5)
    res = op.run()
    assert res.within_budget is False and op.check(res) is None
    assert op.check(dataclasses.replace(res, within_budget=True)) is not None


def test_checker_flags_non_optimal_size():
    op = workloads.solve_op(_spec("xp-n8-d3-00"), seed=5)
    res = op.run()
    g = res.spanner.parent
    everything = tempgraph.Spanner(g, frozenset(range(g.m)))
    assert op.check(dataclasses.replace(res, spanner=everything, size=g.m)) is not None


def test_arrival_certificate_matches_reference_sweep():
    rng = random.Random(3)
    n = 60
    edges = sampler.multilabel(rng, n, 400, 25)
    arrays = reference.edge_arrays(edges)
    g = tempgraph.build(n, edges)
    for source in (0, 7, 59):
        want = reference.earliest_arrival(n, edges, source, True)
        assert list(reach.earliest_arrival(g, source).arrival) == want
        assert reference.is_earliest_arrival(n, arrays, source, want)
        late = next(v for v in range(n) if want[v])
        wrong = list(want)
        wrong[late] += 1
        assert not reference.is_earliest_arrival(n, arrays, source, wrong)
        wrong[late] = None
        assert not reference.is_earliest_arrival(n, arrays, source, wrong)


def test_reference_sweeps_match_tempspan():
    rng = random.Random(4)
    for labels in (None, 5):
        n = 30
        edges = sampler.multilabel(rng, n, 120, labels)
        g = tempgraph.build(n, edges)
        for strict, s in ((True, STRICT), (False, NONSTRICT)):
            assert reference.reach_masks(n, edges, strict) == reach.reach_masks(g, s)
        cls = tempgraph.classify(g)
        assert reference.classify(n, edges) == (cls.simple, cls.proper)


# ---------------------------------------------------------------------------
# Spans and tail percentile
# ---------------------------------------------------------------------------


def _span(name, start, end, parent, attrs=None):
    return [name, float(start), float(end), parent, 0, attrs]


def test_self_times_of_hand_built_tree():
    spans = [
        _span("op", 0, 10, None),
        _span("solver.min_spanner_exact", 1, 8, 0, {"method": "exact-bnb"}),
        _span("solver.forced_edges", 2, 3, 1, {"removable": 4}),
        _span("milp.solve", 4, 7, 1, {"vars": 5, "rows": 6, "nnz": 7}),
        _span("reach.is_tc", 8.5, 9.5, 0),
        _span("reach.reach_masks", 8.75, 9.25, 4, {"edges": 100}),
    ]
    assert self_times(spans) == [2.0, 3.0, 1.0, 3.0, 0.5, 0.5]

    out = layer_metrics(spans, passes=1, traced_wall=10.0)
    assert set(out) == set(PER_LAYER) - {"trace.overhead_frac"}
    assert out["solver.exact_bnb_self_s"] == 3.0
    assert out["solver.forced_edges_s"] == 1.0 and out["solver.removable_edges"] == 4
    assert out["milp.solve_s"] == 3.0 and out["milp.calls"] == 1 and out["milp.nnz"] == 7
    assert out["reach.is_tc_s"] == 0.5 and out["reach.reach_masks_calls"] == 1
    assert out["reach.edges_swept_per_s"] == 200.0
    assert out["solver.span_count"] == 2
    layers = sum(v for k, v in out.items() if PER_LAYER[k] == "s" and not k.startswith("trace."))
    assert out["trace.unattributed_s"] == pytest.approx(2.0)
    assert layers + out["trace.unattributed_s"] == pytest.approx(out["trace.wall_s"])


def test_layer_metrics_average_over_passes():
    spans = [_span("op", 0, 4, None), _span("tempgraph.parse", 1, 3, 0), _span("op", 5, 7, None)]
    out = layer_metrics(spans, passes=2, traced_wall=6.0)
    assert out["tempgraph.parse_s"] == 1.0 and out["tempgraph.parse_calls"] == 0.5
    assert out["trace.wall_s"] == 3.0 and out["trace.unattributed_s"] == 2.0


def test_op_latencies_are_medians_of_scaled_times():
    passes = [([3.0, 1.0], [1.0, 1.0]), ([4.0, 4.0], [2.0, 1.0]), ([5.0, 0.5], [1.0, 0.5])]
    assert op_latencies(passes) == [3.0, 1.0]
    assert op_latencies(passes, scaled=False) == [4.0, 1.0]


def test_tail_rank_leaves_ten_beyond():
    for n in (11, 26, 34, 41, 100, 1000):
        p, rank = tail_rank(n)
        assert n - rank >= 10
        # One percentile higher would leave fewer than ten beyond.
        assert n - math.ceil((p + 1) * n / 100) < 10
    assert tail_rank(41) == (75, 31)
    with pytest.raises(ValueError):
        tail_rank(10)


# ---------------------------------------------------------------------------
# Sampler and inputs
# ---------------------------------------------------------------------------


def test_sampler_is_deterministic():
    def draw(seed):
        rng = random.Random(seed)
        return (
            workloads.to_text(10, sampler.in_band(rng, lambda r: sampler.happy_tc(r, 10, 0.5, False), 10, False, (10, 20))),
            workloads.to_text(7, sampler.in_band(rng, lambda r: sampler.multilabel(r, 7, 24, 8), 7, True, (10, 22))),
            workloads.to_text(9, sampler.covered_happy_tc(rng, 9, 3)),
            workloads.to_text(200, sampler.multilabel(rng, 200, 3000, 7)),
        )

    assert draw(11) == draw(11)
    assert draw(11) != draw(12)


def test_label_remap_keeps_order_and_changes_bytes():
    edges = [(0, 1, 3), (1, 2, 3), (2, 3, 7), (0, 3, 1)]
    a = workloads.remap_labels(edges, random.Random("1:x"))
    assert a == workloads.remap_labels(edges, random.Random("1:x"))
    assert [e[:2] for e in a] == [e[:2] for e in edges]
    for i, j in itertools.product(range(4), repeat=2):
        assert (edges[i][2] < edges[j][2]) == (a[i][2] < a[j][2])
        assert (edges[i][2] == edges[j][2]) == (a[i][2] == a[j][2])
    assert any(workloads.remap_labels(edges, random.Random(f"{s}:x")) != a for s in range(2, 6))


def test_committed_corpus_matches_its_generator():
    texts = {}
    for op in make_corpus.instances():
        texts[op["file"]] = workloads.to_text(op["n"], op["edges"])
        spec = _spec(op["name"])
        for key in ("workload", "file", "method", "engine", "cap", "strict", "sources", "budget"):
            assert spec[key] == op[key], (op["name"], key)
    assert [spec["name"] for spec in MANIFEST] == [op["name"] for op in make_corpus.instances()]
    for file, text in texts.items():
        assert (workloads.CORPUS / file).read_text() == text, file


def test_solve_default_fits_the_default_cap():
    for spec in MANIFEST:
        if spec["workload"] == "solve-default":
            assert spec["engine"] == "auto" and spec["cap"] == 40
            assert spec["removable"] <= 40, spec["name"]


def test_no_gated_workload_uses_the_cuts_engine():
    assert all(spec["engine"] in ("auto", "flow") for spec in MANIFEST)


def _small_instances():
    seen = set()
    for spec in MANIFEST:
        key = (spec["file"], spec["strict"], tuple(spec["sources"] or ()))
        if spec["removable"] <= 18 and key not in seen:
            seen.add(key)
            yield pytest.param(spec, id=spec["name"])


@pytest.mark.parametrize("spec", list(_small_instances()))
def test_reference_optimum_matches_brute_force(spec):
    n, edges = workloads.from_text((workloads.CORPUS / spec["file"]).read_text())
    g = tempgraph.build(n, edges)
    req = solver.TwoSource(*spec["sources"]) if spec["sources"] else solver.ALL_PAIRS
    res = solver.min_spanner_brute(g, STRICT if spec["strict"] else NONSTRICT, req, cap=18)
    assert res.size == spec["optimum"]
    assert reference.removable_count(n, edges, spec["strict"], tuple(spec["sources"]) if spec["sources"] else None) == spec["removable"]
