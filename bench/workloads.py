"""The benchmark's four workloads: inputs, timed calls and output checks.

Each workload is a list of :class:`Op`.  An op is one user-level call into
``tempspan`` (one solve, one ``check``, one sweep).  ``run`` is the only
part that is timed; ``check`` runs after the measured loop and returns a
failure reason, or ``None`` when the output is right.

* ``solve-default``: the exact solver as ``tempspan solve FILE`` runs it;
  the sweep oracle, conflict blocks and branch and bound dominate.
* ``solve-flow``: the flow engine; MILP build and HiGHS dominate.
* ``xp-vc``: the vertex-cover XP solver; its enumeration runs only here.
* ``sweep-large``: parsing, serializing and single sweeps over two
  100k-edge graphs drawn from the seed; no solver code runs.

The first three read the committed corpus; ``bench/README.md`` says why.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference
import sampler
from reference import Edge

from tempspan import reach, solver, tempgraph
from tempspan.reach import NONSTRICT, STRICT

CORPUS = Path(__file__).resolve().parent / "corpus"

SWEEP_N = 2000
SWEEP_M = 100_000
SWEEP_COARSE_LABELS = 50
# Arrival sources per graph.  Fewer on the coarse graph, whose sweeps are
# faster, so that the median op falls inside the fine graph's arrival
# ops rather than on the gap between the two groups.
SWEEP_SOURCES_FINE = 10
SWEEP_SOURCES_COARSE = 5


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]


def to_text(n: int, edges: list[Edge]) -> str:
    """The ``.tg`` text of an edge list, in the byte layout of ``tempgraph.serialize``."""
    lifetime = max((t for _, _, t in edges), default=1)
    return "".join([f"{n} {lifetime}\n"] + [f"{u} {v} {t}\n" for u, v, t in edges])


def from_text(text: str) -> tuple[int, list[Edge]]:
    lines = text.split("\n")
    n = int(lines[0].split()[0])
    edges = []
    for line in lines[1:]:
        if line:
            u, v, t = line.split()
            edges.append((int(u), int(v), int(t)))
    return n, edges


def remap_labels(edges: list[Edge], rng: random.Random) -> list[Edge]:
    """Spread the labels by seeded gaps, keeping their order and ties.

    The graph means the same and every engine visits it in the same order
    (edge indices, vertex ids and label order are unchanged), so a seed
    changes the input bytes but not the work.
    """
    new: dict[int, int] = {}
    t = 0
    for old in sorted({t for _, _, t in edges}):
        t += rng.randint(1, 3)
        new[old] = t
    return [(u, v, new[t]) for u, v, t in edges]


def load_manifest() -> list[dict]:
    return json.loads((CORPUS / "manifest.json").read_text())["ops"]


def check_solve(spec: dict, n: int, edges: list[Edge], g: tempgraph.TemporalGraph, res: object) -> str | None:
    """Re-verify a solve result against the requirement and the reference answer."""
    if not isinstance(res, solver.SolveResult):
        return f"returned {type(res).__name__}, not SolveResult"
    kept = res.spanner.kept
    if res.spanner.parent is not g or res.size != len(kept):
        return "spanner does not belong to the input or misreports its size"
    strict = spec["strict"]
    sources = tuple(spec["sources"]) if spec["sources"] else None
    req = solver.TwoSource(*sources) if sources else solver.ALL_PAIRS
    if not solver.requirement_holds(g, STRICT if strict else NONSTRICT, req, kept=kept):
        return "spanner fails the requirement (solver.requirement_holds)"
    if not reference.requirement_holds(n, edges, strict, sources, kept):
        return "spanner fails the requirement (reference sweep)"
    if res.size < spec["optimum"]:
        return f"size {res.size} below the reference optimum {spec['optimum']}"
    budget = spec["budget"]
    if budget is None:
        if res.optimal is not True:
            return "optimization run not reported optimal"
        if res.size != spec["optimum"]:
            return f"size {res.size}, reference optimum {spec['optimum']}"
        return None
    if res.within_budget is not spec["within_budget"]:
        return f"within_budget={res.within_budget}, expected {spec['within_budget']}"
    if res.within_budget and res.size > budget:
        return f"within budget {budget} but size {res.size}"
    return None


def solve_op(spec: dict, seed: int) -> Op:
    text = (CORPUS / spec["file"]).read_text()
    n, edges = from_text(text)
    edges = remap_labels(edges, random.Random(f"{seed}:{spec['name']}"))
    g = tempgraph.parse(to_text(n, edges))
    s = STRICT if spec["strict"] else NONSTRICT
    req = solver.TwoSource(*spec["sources"]) if spec["sources"] else solver.ALL_PAIRS
    budget, cap, engine = spec["budget"], spec["cap"], spec["engine"]
    if spec["method"] == "xp":
        def run() -> object:
            return solver.min_spanner_xp_vc(g)
    else:
        def run() -> object:
            return solver.min_spanner_exact(g, s, budget=budget, requirement=req, cap=cap, engine=engine)
    return Op(spec["name"], run, lambda res: check_solve(spec, n, edges, g, res))


def corpus_workload(name: str, seed: int) -> Workload:
    specs = [spec for spec in load_manifest() if spec["workload"] == name]
    ops = [solve_op(spec, seed) for spec in specs]
    # Warm up on the op with the fewest removable edges: it fills lazy
    # imports (scipy for the flow engine) at almost no cost.
    smallest = min(range(len(specs)), key=lambda i: (specs[i]["removable"], i))
    return Workload(ops, [ops[smallest]])


class SweepGraph:
    """One large multi-label graph, its text, and reference answers computed on demand."""

    def __init__(self, name: str, rng: random.Random, n: int, m: int, labels: int | None, sources: int) -> None:
        self.name = name
        self.n = n
        self.edges = sampler.multilabel(rng, n, m, labels)
        self.text = to_text(n, self.edges)
        self.graph = tempgraph.build(n, self.edges)
        self.sources = rng.sample(range(n), sources)
        self._tc: dict[bool, bool] = {}
        self._arrays = None

    def tc(self, strict: bool) -> bool:
        if strict not in self._tc:
            self._tc[strict] = reference.is_tc(self.n, self.edges, strict)
        return self._tc[strict]

    def arrival_ok(self, source: int, arrival: object) -> bool:
        if self._arrays is None:
            self._arrays = reference.edge_arrays(self.edges)
        return reference.is_earliest_arrival(self.n, self._arrays, source, arrival)

    def ops(self) -> list[Op]:
        g, text = self.graph, self.text

        def write() -> object:
            return tempgraph.serialize(g)

        def check_write(out: object) -> str | None:
            return None if out == text else "serialize output differs from the input text"

        def check_cmd() -> object:
            parsed = tempgraph.parse(text)
            cls = tempgraph.classify(parsed)
            return parsed.m, cls.simple, cls.proper, reach.is_tc(parsed, STRICT)

        def check_check(out: object) -> str | None:
            simple, proper = reference.classify(self.n, self.edges)
            want = (len(self.edges), simple, proper, self.tc(True))
            return None if out == want else f"check gave {out}, reference {want}"

        def nonstrict() -> object:
            return reach.is_tc(g, NONSTRICT)

        def check_nonstrict(out: object) -> str | None:
            return None if out == self.tc(False) else f"non-strict is_tc gave {out}"

        ops = [
            Op(f"{self.name}/serialize", write, check_write),
            Op(f"{self.name}/check", check_cmd, check_check),
            Op(f"{self.name}/is_tc-nonstrict", nonstrict, check_nonstrict),
        ]
        for src in self.sources:
            ops.append(Op(f"{self.name}/arrival-{src}", self._arrival_run(src), self._arrival_check(src)))
        return ops

    def _arrival_run(self, src: int) -> Callable[[], object]:
        return lambda: reach.earliest_arrival(self.graph, src)

    def _arrival_check(self, src: int) -> Callable[[object], str | None]:
        def check(out: object) -> str | None:
            if not isinstance(out, reach.ArrivalProfile) or out.source != src or out.start != 0:
                return "not an arrival profile from the requested source"
            return None if self.arrival_ok(src, out.arrival) else "arrival vector is not the earliest arrival"

        return check


def sweep_workload(seed: int) -> Workload:
    rng = random.Random(f"{seed}:sweep-large")
    fine = SweepGraph("fine", rng, SWEEP_N, SWEEP_M, None, SWEEP_SOURCES_FINE)
    coarse = SweepGraph("coarse", rng, SWEEP_N, SWEEP_M, SWEEP_COARSE_LABELS, SWEEP_SOURCES_COARSE)
    # The warm-up runs every op kind once on a graph a hundredth the size.
    small = SweepGraph("warmup", rng, SWEEP_N // 10, SWEEP_M // 100, SWEEP_COARSE_LABELS // 5, 1)
    return Workload(fine.ops() + coarse.ops(), small.ops()[:4])


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "solve-default": lambda seed: corpus_workload("solve-default", seed),
    "solve-flow": lambda seed: corpus_workload("solve-flow", seed),
    "xp-vc": lambda seed: corpus_workload("xp-vc", seed),
    "sweep-large": sweep_workload,
}
