"""Rebuild the committed solve corpus in ``bench/corpus/``.

    python3 bench/make_corpus.py

Random graphs come from ``sampler.py`` under fixed corpus seeds.  The SAT
instances come from ``tempspan.reductions`` here, once; the benchmark
itself only reads the committed ``.tg`` files.
Each reference optimum is computed by the flow engine and, where the
instance is small enough, also by branch and bound; the two must agree.
SAT-derived decision answers come from brute force over assignments and
must agree with the optimum (optimum <= budget exactly when satisfiable).
Takes a few minutes.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tempspan import reductions, solver, tempgraph  # noqa: E402
from tempspan.reach import NONSTRICT, STRICT  # noqa: E402

import sampler  # noqa: E402
from reference import removable_count  # noqa: E402
from workloads import CORPUS, to_text  # noqa: E402

PHI_11 = reductions.SatInstance(1, ((1, 1, 1),))
PHI_UNSAT = reductions.SatInstance(1, ((1, 1, 1), (-1, -1, -1)))
PHI_MIXED = reductions.SatInstance(2, ((1, -2, 2), (-1, -1, 2)))
# Two-source variants for the flow workload: 3 variables.
TWO_SOURCE_FORMULAS = {
    "sat-3v": reductions.SatInstance(3, ((1, 2, 3), (-1, -2, 3), (1, -3, -3))),
    "unsat-3v": reductions.SatInstance(3, ((1, 1, 1), (-1, 2, 2), (-2, 3, 3), (-3, -3, -3))),
}

# Branch and bound cross-checks the flow optimum up to this many removable edges.
BNB_CHECK_LIMIT = 36


def satisfiable(phi: reductions.SatInstance) -> bool:
    return any(
        phi.satisfied_by(list(a)) for a in itertools.product((False, True), repeat=phi.variable_count)
    )


def _op(workload: str, name: str, g_or_edges, n: int | None = None, **fields) -> dict:
    if isinstance(g_or_edges, tempgraph.TemporalGraph):
        n, edges = g_or_edges.vertex_count, [(e.u, e.v, e.t) for e in g_or_edges.edges]
    else:
        edges = g_or_edges
    op = {"workload": workload, "name": name, "file": f"{name}.tg", "n": n, "edges": edges,
          "method": "exact", "engine": "auto", "cap": 40, "strict": True, "sources": None,
          "budget": None, "satisfiable": None}
    op.update(fields)
    return op


def _sat(workload: str, label: str, phi: reductions.SatInstance, engine: str, cap: int,
         two_source: bool, file: str | None = None, decide: bool = True) -> Iterator[dict]:
    out = reductions.sat_to_spanner_instance(phi)
    origin = f"sat_to_spanner_instance({phi.variable_count} vars, clauses {list(phi.clauses)})"
    g, budget, sources = out.graph, out.budget, None
    if two_source:
        var = reductions.sat_two_source_variant(out)
        g, budget, sources = var.graph, var.budget, list(var.sources)
        origin = f"sat_two_source_variant({origin})"
    name, file = f"{label}-{'decide' if decide else 'optimize'}", file or f"{label}.tg"
    if decide:
        yield _op(workload, name, g, budget=budget, satisfiable=satisfiable(phi),
                  engine=engine, cap=cap, sources=sources, origin=origin, file=file)
    else:
        yield _op(workload, name, g, engine=engine, cap=cap, sources=sources, origin=origin, file=file)


def _random(workload: str, label: str, seed: int, count: int, sizes: tuple[int, ...], edge_prob: float,
            band: tuple[int, int], two_source: bool = False, engine: str = "auto", cap: int = 40) -> Iterator[dict]:
    rng = random.Random(seed)
    sources = (0, 1) if two_source else None
    for k in range(count):
        n = sizes[k % len(sizes)]
        strict = k % 2 == 0
        mode = "strict" if strict else "nonstrict"
        edges = sampler.in_band(rng, lambda r: sampler.happy_tc(r, n, edge_prob, strict), n, strict, band, sources)
        origin = (f"in_band(Random({seed}), happy_tc(n={n}, edge_prob={edge_prob}, {mode}), "
                  f"removable={list(band)}, sources={sources}), draw {k}")
        yield _op(workload, f"{label}-{k:02d}-{mode}", edges, n, strict=strict,
                  sources=list(sources) if sources else None, engine=engine, cap=cap, origin=origin)


def _multilabel(label: str, seed: int, count: int, n: int, m: int, labels: int, band: tuple[int, int]) -> Iterator[dict]:
    rng = random.Random(seed)
    for k in range(count):
        strict = k % 2 == 0
        mode = "strict" if strict else "nonstrict"
        edges = sampler.in_band(rng, lambda r: sampler.multilabel(r, n, m, labels), n, strict, band)
        origin = f"in_band(Random({seed}), multilabel(n={n}, m={m}, labels={labels}), {mode}, removable={list(band)}), draw {k}"
        yield _op("solve-default", f"{label}-{k:02d}-{mode}", edges, n, strict=strict, origin=origin)


def _xp(label: str, seed: int, count: int, n: int, cover: int, max_edges: int) -> Iterator[dict]:
    rng = random.Random(seed)
    for k in range(count):
        edges = sampler.covered_happy_tc(rng, n, cover)
        while len(edges) > max_edges:
            edges = sampler.covered_happy_tc(rng, n, cover)
        origin = f"covered_happy_tc(Random({seed}), n={n}, cover={cover}), draw {k} with m <= {max_edges}"
        yield _op("xp-vc", f"{label}-{k:02d}", edges, n, method="xp", origin=origin)


def instances() -> Iterator[dict]:
    """Every corpus op with its graph, in manifest order, without reference answers."""
    yield from _random("solve-default", "happy-small", 101, 12, (9, 10, 11), 0.45, (10, 15))
    yield from _random("solve-default", "happy", 102, 12, (9, 10, 11), 0.5, (16, 21))
    yield from _multilabel("multilabel", 105, 6, 7, 24, 8, (16, 22))
    yield from _random("solve-default", "two-source", 103, 4, (10,), 0.35, (18, 22), two_source=True)
    for label, phi in (("phi-11", PHI_11), ("phi-unsat", PHI_UNSAT), ("phi-mixed", PHI_MIXED)):
        yield from _sat("solve-default", label, phi, "auto", 40, two_source=False)
        yield from _sat("solve-default", f"{label}-2src", phi, "auto", 40, two_source=True)

    # PHI_11 is solved to optimality: deciding it at its budget takes 4x longer.
    yield from _sat("solve-flow", "flow-phi-11", PHI_11, "flow", 500, two_source=False, file="phi-11.tg", decide=False)
    yield from _sat("solve-flow", "flow-phi-unsat", PHI_UNSAT, "flow", 500, two_source=False, file="phi-unsat.tg")
    for label, phi in TWO_SOURCE_FORMULAS.items():
        yield from _sat("solve-flow", f"{label}-2src", phi, "flow", 500, two_source=True)
    yield from _random("solve-flow", "flow-happy", 202, 20, (9,), 0.5, (12, 20), engine="flow", cap=500)

    yield from _xp("xp-n8-d3", 301, 8, 8, 3, 17)
    yield from _xp("xp-n9-d3", 302, 6, 9, 3, 18)
    yield from _xp("xp-n8-d4", 303, 6, 8, 4, 18)
    yield from _xp("xp-n9-d4", 304, 4, 9, 4, 18)


def optimum(n: int, edges: list, strict: bool, sources: list[int] | None, removable: int) -> int:
    g = tempgraph.build(n, edges)
    s = STRICT if strict else NONSTRICT
    req = solver.TwoSource(*sources) if sources else solver.ALL_PAIRS
    flow = solver.min_spanner_exact(g, s, requirement=req, engine="flow", cap=10**6).size
    if removable <= BNB_CHECK_LIMIT:
        bnb = solver.min_spanner_exact(g, s, requirement=req, engine="bnb", cap=10**6).size
        if bnb != flow:
            raise SystemExit(f"engines disagree: bnb {bnb}, flow {flow}")
    return flow


def main() -> None:
    manifest: list[dict] = []
    files: dict[str, str] = {}
    for op in instances():
        n, edges = op.pop("n"), op.pop("edges")
        text = to_text(n, edges)
        if files.setdefault(op["file"], text) != text:
            raise SystemExit(f"{op['file']} written twice with different graphs")
        sources = tuple(op["sources"]) if op["sources"] else None
        op["removable"] = removable_count(n, edges, op["strict"], sources)
        op["optimum"] = optimum(n, edges, op["strict"], op["sources"], op["removable"])
        op["within_budget"] = None if op["budget"] is None else op["optimum"] <= op["budget"]
        if op["satisfiable"] is not None and op["within_budget"] != op["satisfiable"]:
            raise SystemExit(f"{op['name']}: optimum {op['optimum']} vs budget {op['budget']} contradicts satisfiability")
        if op["engine"] == "auto" and op["method"] == "exact" and op["removable"] > op["cap"]:
            raise SystemExit(f"{op['name']}: {op['removable']} removable edges exceed cap {op['cap']}")
        manifest.append(op)
        print(f"{op['workload']:14s} {op['name']:30s} n={n} m={len(edges)} "
              f"removable={op['removable']} optimum={op['optimum']}", flush=True)
    for old in CORPUS.glob("*.tg"):
        old.unlink()
    for file, text in files.items():
        (CORPUS / file).write_text(text)
    (CORPUS / "manifest.json").write_text(json.dumps({"ops": manifest}, indent=1) + "\n")


if __name__ == "__main__":
    main()
