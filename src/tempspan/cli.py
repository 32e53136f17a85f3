"""Command-line front end for checking, solving, generating, and reducing.

Exit codes: 0 = property holds / solved within budget; 1 = property fails /
budget infeasible; 2 = resource guard tripped (the bounds and a node-limited
search leave the answer open, and the hitting-set MILPs or a bnb run to the
end would search more than ``--cap`` removable edges) or MILP solver
failure; 3 = usage or I/O errors.

One output rule holds for every command: a command returns its exit code,
input record, result, human summary and payload (the spanner text of
``solve``, the graph text of ``gen-random``, else none), and ``main`` writes
them.  The payload goes to ``--out FILE``, or to stdout with ``--out -``.
Stdout carries exactly one of the ``--json`` object, the payload and the
summary, in that order of precedence; when the payload takes stdout, the
summary goes to stderr.  ``solve --json`` lists the spanner's edge indices;
``gen-random --json`` and ``solve --json --triples`` would drop the payload,
so they need ``--out FILE``.

Reports are deterministic given identical inputs, flags, and seeds; wall
time is printed to stderr only.  The ``--json`` object is stable:
``{"command": ..., "input": {"path", "sha256"} | null, "result": {...}}``
with no extra keys.

``solve`` reports ``optimal`` true exactly when the spanner is proven
minimum, with or without ``--k``; ``within_budget`` says whether it fits
``--k``.  Its ``--json`` result also carries ``lower_bound``, the lower
bound on every spanner's size that the solve proved: ``optimal`` is true
exactly when ``size`` is at most it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import generate, reductions, solver, tempgraph
from .reach import NONSTRICT, STRICT, Strictness, is_tc
from .solver import ALL_PAIRS, AllPairs, TwoSource
from .tempgraph import TemporalGraph

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 2 reserved for resource guards
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    pass


def _read(path: str) -> tuple[str, dict]:
    """The file's text and its ``input`` record: the path and its sha256."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.decode(), {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _read_graph(path: str) -> tuple[TemporalGraph, dict]:
    text, info = _read(path)
    return tempgraph.parse(text), info


def _strictness(args) -> Strictness:
    return NONSTRICT if args.nonstrict else STRICT


def _requirement(args) -> AllPairs | TwoSource:
    if getattr(args, "two_source", None) is not None:
        return TwoSource(*args.two_source)
    return ALL_PAIRS


def _bool(x: bool) -> str:
    return "true" if x else "false"


# What each ``_cmd_*`` returns: (exit code, input record, result, summary,
# payload); :func:`_emit` writes it.
_Output = tuple[int, dict | None, dict, str, str | None]


def _cmd_check(args) -> _Output:
    g, info = _read_graph(args.file)
    cls = tempgraph.classify(g)
    tc = is_tc(g, _strictness(args))
    result = dict(
        n=g.vertex_count, m=g.m, tc=tc, simple=cls.simple, proper=cls.proper, happy=cls.happy
    )
    summary = " ".join(f"{key}={_bool(result[key])}" for key in ("tc", "simple", "proper", "happy"))
    return (EXIT_OK if tc else EXIT_FAIL), info, result, summary, None


def _cmd_solve(args) -> _Output:
    if args.json and args.triples and args.out == "-":
        raise _UsageError("--json --triples needs --out FILE: the JSON result lists edge indices")
    g, info = _read_graph(args.file)
    s = _strictness(args)
    requirement = _requirement(args)
    search = {name: getattr(args, name) for name in ("cap", "engine") if hasattr(args, name)}
    started = time.monotonic()
    if args.method == "xp-vc":
        if isinstance(requirement, TwoSource):
            raise _UsageError("xp-vc supports the all-pairs requirement only")
        if search:
            raise _UsageError(f"xp-vc takes no --{' or --'.join(search)}")
        res = solver.min_spanner_xp_vc(g, budget=args.k)
    else:
        res = solver.min_spanner_exact(g, s, budget=args.k, requirement=requirement, **search)
    print(f"elapsed={time.monotonic() - started:.3f}s", file=sys.stderr)
    result = dict(
        size=res.size, optimal=res.optimal, lower_bound=res.lower_bound, method=res.method,
        within_budget=res.within_budget, spanner=sorted(res.spanner.kept),
    )
    summary = f"size={res.size} optimal={_bool(res.optimal)} method={res.method}"
    payload = tempgraph.serialize_spanner(res.spanner, triples=args.triples)
    return (EXIT_FAIL if res.within_budget is False else EXIT_OK), info, result, summary, payload


def _cmd_verify(args) -> _Output:
    g, info = _read_graph(args.file)
    spanner = tempgraph.parse_spanner(_read(args.spanner)[0], g)
    requirement = _requirement(args)
    holds = solver.requirement_holds(g, _strictness(args), requirement, kept=spanner.kept)
    name = "all-pairs"
    if isinstance(requirement, TwoSource):
        name = f"two-source({requirement.s1},{requirement.s2})"
    result = {"holds": holds, "size": spanner.size, "requirement": name}
    summary = f"holds={_bool(holds)} size={spanner.size} requirement={name}"
    return (EXIT_OK if holds else EXIT_FAIL), info, result, summary, None


def _cmd_decompose(args) -> _Output:
    if not args.vc:
        raise _UsageError("only --vc decomposition is available")
    g, info = _read_graph(args.file)
    spanner = tempgraph.parse_spanner(_read(args.spanner)[0], g)
    cover = sorted(solver.min_vertex_cover(tempgraph.underlying_graph(g), g.vertex_count))
    decomp = solver.vc_tree_decompose(spanner, cover)
    if decomp is None:
        return EXIT_FAIL, info, {"cover": cover, "decomposable": False}, "NOT-DECOMPOSABLE", None
    trees = [{"root": t.root, "edges": sorted(t.tree_edges)} for t in decomp.trees]
    extras = [{"vertex": v, "edge": e} for v, e in decomp.extras]
    result = {"cover": cover, "decomposable": True, "trees": trees, "extras": extras}
    summary = "\n".join(
        [f"cover={','.join(map(str, cover))}"]
        + [f"tree root={t['root']} edges={','.join(map(str, t['edges']))}" for t in trees]
        + [f"extra vertex={x['vertex']} edge={x['edge']}" for x in extras]
    )
    return EXIT_OK, info, result, summary, None


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_instance(prefix: str, out, extra: dict[str, str]) -> None:
    """Write a reduction's ``.tg``, ``.budget`` and ``.roles`` files, then
    each ``extra`` suffix with its text."""
    files = {
        "tg": tempgraph.serialize(out.graph),
        "budget": f"{out.budget}\n",
        "roles": "".join(f"{v} {role}\n" for v, role in enumerate(out.roles)),
        **extra,
    }
    for suffix, text in files.items():
        _write_text(f"{prefix}.{suffix}", text)


def _cmd_reduce_sat(args) -> _Output:
    text, info = _read(args.file)
    phi = reductions.parse_dimacs(text)
    out = reductions.sat_to_spanner_instance(phi)
    if args.two_source:
        out = reductions.sat_two_source_variant(out)
        extra = {"sources": f"{out.sources[0]} {out.sources[1]}\n"}
        detail, tail = {"sources": list(out.sources)}, f"sources={out.sources[0]},{out.sources[1]}"
    else:
        extra = {"critical": "".join(f"{i}\n" for i in sorted(out.critical))}
        detail, tail = {"critical_count": len(out.critical)}, f"critical={len(out.critical)}"
    _write_instance(args.out_prefix, out, extra)
    g = out.graph
    result = {"n": g.vertex_count, "m": g.m, "budget": out.budget, **detail}
    return EXIT_OK, info, result, f"n={g.vertex_count} m={g.m} budget={out.budget} {tail}", None


def _cmd_reduce_mcc(args) -> _Output:
    text, info = _read(args.file)
    inst = reductions.parse_mcc(text)
    if args.pad_even:
        inst = reductions.pad_to_even(inst)
    out = reductions.mcc_to_spanner_instance(inst)
    _write_instance(args.out_prefix, out, {
        "fvs": "".join(f"{v}\n" for v in sorted(out.fvs)),
        "gadgets": "".join(f"{i} {tag}\n" for i, tag in enumerate(out.gadget_map)),
    })
    g, connectors, fvs = out.graph, out.connector_edge_count, len(out.fvs)
    result = dict(
        n=g.vertex_count, m=g.m, budget=out.budget, connector_edges=connectors, fvs_size=fvs
    )
    summary = f"n={g.vertex_count} m={g.m} budget={out.budget} connector={connectors} fvs={fvs}"
    return EXIT_OK, info, result, summary, None


def _cmd_gen_random(args) -> _Output:
    if args.json and args.out == "-":
        raise _UsageError("--json needs --out FILE: the JSON result does not carry the graph")
    if args.cover is not None:
        g = generate.random_happy_tc_with_cover(
            args.n, args.cover, args.seed, max_tries=args.max_tries
        )
    else:
        g = generate.random_happy_tc(
            args.n, args.seed, edge_prob=args.edge_prob, max_tries=args.max_tries
        )
    result = {"n": g.vertex_count, "m": g.m, "lifetime": g.lifetime, "seed": args.seed}
    summary = f"n={g.vertex_count} m={g.m} lifetime={g.lifetime} seed={args.seed}"
    return EXIT_OK, None, result, summary, tempgraph.serialize(g)


def _emit(args, info: dict | None, result: dict, summary: str, payload: str | None) -> None:
    """The one output rule of the module docstring."""
    if payload is not None and args.out != "-":
        _write_text(args.out, payload)
        payload = None
    if args.json:
        print(json.dumps({"command": args.command, "input": info, "result": result}))
    elif payload is None:
        print(summary)
    else:
        sys.stdout.write(payload)
        print(summary, file=sys.stderr)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tempspan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # Arguments that several commands share, each defined once.
    graph, strictness, two_source, as_json = (
        argparse.ArgumentParser(add_help=False) for _ in range(4)
    )
    graph.add_argument("file")
    mode = strictness.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true", help="strict temporal paths (default)")
    mode.add_argument("--nonstrict", action="store_true", help="non-strict temporal paths")
    two_source.add_argument("--two-source", nargs=2, type=int, metavar=("S1", "S2"))
    as_json.add_argument("--json", action="store_true", help="print one JSON object instead")

    def command(name, func, *parents, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[*parents, as_json], **kwargs)
        p.set_defaults(func=func)
        return p

    command(
        "check", _cmd_check, graph, strictness,
        help="classify a graph and test temporal connectivity",
    )

    p = command(
        "solve", _cmd_solve, graph, strictness, two_source,
        help="compute a minimum temporal spanner",
    )
    p.add_argument("--method", choices=["exact", "xp-vc"], default="exact")
    p.add_argument("--k", type=int, default=None, help="budget (decision mode)")
    p.add_argument(
        "--cap",
        type=int,
        default=argparse.SUPPRESS,
        help=f"removable-edge guard (--method exact only, default {solver.DEFAULT_CAP}): it guards the"
        " hitting-set MILPs or a bnb run to the end, never the bounds",
    )
    p.add_argument(
        "--engine",
        choices=solver.ENGINES,
        default=argparse.SUPPRESS,
        help="search (--method exact only) once the bounds and a node-limited bnb leave the answer"
        f" open: bnb runs on, flow asks the hitting-set MILP, one 0/1 column per removable edge"
        f" (default auto: bnb up to {solver.DEFAULT_CAP} removable edges, else flow)",
    )
    p.add_argument("--out", default="-", help="spanner output path ('-' = stdout)")
    p.add_argument("--triples", action="store_true", help="write 'u v t' lines instead of indices")

    p = command(
        "verify", _cmd_verify, graph, strictness, two_source,
        help="check a spanner file against the requirement",
    )
    p.add_argument("spanner")

    p = command(
        "decompose", _cmd_decompose, graph, help="tree-plus-extras decomposition of a spanner"
    )
    p.add_argument("spanner")
    p.add_argument("--vc", action="store_true", help="decompose against a minimum vertex cover")

    p = command(
        "reduce-sat",
        _cmd_reduce_sat,
        graph,
        help="3-SAT to spanner-instance generator",
        description="The input file is DIMACS CNF: each clause ends at its 0, across lines.",
    )
    p.add_argument("--two-source", action="store_true")
    p.add_argument("--out-prefix", default="out")

    p = command(
        "reduce-mcc",
        _cmd_reduce_mcc,
        graph,
        help="multicolored-clique to spanner-instance generator",
        description="Known wrong (ROADMAP item 7): the output is temporally connected only"
        " at three colors, not at four, and an instance without a clique gets a spanner"
        " within its budget.",
    )
    p.add_argument("--pad-even", action="store_true", help="duplicate last edges to even counts")
    p.add_argument("--out-prefix", default="out")

    p = command("gen-random", _cmd_gen_random, help="seeded random happy TC graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    shape = p.add_mutually_exclusive_group()
    shape.add_argument("--edge-prob", type=float, default=0.5)
    shape.add_argument("--cover", type=int, default=None, help="force vertex cover number <= COVER")
    p.add_argument("--max-tries", type=int, default=400)
    p.add_argument("--out", default="-", help="graph output path ('-' = stdout)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors and --help: return argparse's status
        return exc.code
    try:
        code, *output = args.func(args)
        _emit(args, *output)
        return code
    except solver.InstanceTooLarge as exc:
        print(f"tempspan: resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except solver.SolverFailed as exc:
        print(f"tempspan: solver failure: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (
        _UsageError,
        OSError,
        ValueError,
        tempgraph.TempGraphError,
        solver.RequirementNotSatisfied,
        solver.NotHappy,
        solver.NotTemporallyConnected,
        reductions.InvariantViolated,
        reductions.OddEdgeCount,
        generate.GenerationFailed,
    ) as exc:
        print(f"tempspan: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
