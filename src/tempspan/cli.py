"""Command-line front end for checking, solving, generating, and reducing.

Exit codes: 0 = property holds / solved within budget; 1 = property fails /
budget infeasible; 2 = resource guard tripped or MILP solver failure; 3 = usage
or I/O errors.

Reports are deterministic given identical inputs, flags, and seeds; wall
time is printed to stderr only.  ``--json`` replaces the human summary with
a stable object: ``{"command": ..., "input": {"path", "sha256"} | null,
"result": {...}}`` with no extra keys.

``solve`` reports ``optimal`` true exactly when the spanner is proven
minimum, with or without ``--k``; ``within_budget`` says whether it fits
``--k``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import generate, reductions, solver, tempgraph
from .reach import NONSTRICT, STRICT, Strictness
from .solver import ALL_PAIRS, AllPairs, TwoSource
from .tempgraph import Spanner, TemporalGraph

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 2 reserved for resource guards
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    pass


def _digest(path: str, data: bytes) -> dict:
    return {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _read_graph(path: str) -> tuple[TemporalGraph, dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    return tempgraph.parse(data.decode()), _digest(path, data)


def _strictness(args) -> Strictness:
    return NONSTRICT if args.nonstrict else STRICT


def _requirement(args) -> AllPairs | TwoSource:
    if getattr(args, "two_source", None) is not None:
        return TwoSource(*args.two_source)
    return ALL_PAIRS


def _report(args, command: str, input_info: dict | None, result: dict, human: str) -> None:
    if args.json:
        print(json.dumps({"command": command, "input": input_info, "result": result}))
    else:
        print(human)


def _bool(x: bool) -> str:
    return "true" if x else "false"


def _add_strictness(p: argparse.ArgumentParser) -> None:
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true", help="strict temporal paths (default)")
    mode.add_argument("--nonstrict", action="store_true", help="non-strict temporal paths")


def _cmd_check(args) -> int:
    g, info = _read_graph(args.file)
    s = _strictness(args)
    cls = tempgraph.classify(g)
    from .reach import is_tc

    tc = is_tc(g, s)
    result = {"tc": tc, "simple": cls.simple, "proper": cls.proper, "happy": cls.happy}
    human = (
        f"tc={_bool(tc)} simple={_bool(cls.simple)} "
        f"proper={_bool(cls.proper)} happy={_bool(cls.happy)}"
    )
    _report(args, "check", info, result, human)
    return EXIT_OK if tc else EXIT_FAIL


def _write_spanner(args, spanner: Spanner) -> str | None:
    text = tempgraph.serialize_spanner(spanner, triples=args.triples)
    if args.out == "-":
        return text
    with open(args.out, "w") as fh:
        fh.write(text)
    return None


def _cmd_solve(args) -> int:
    g, info = _read_graph(args.file)
    s = _strictness(args)
    requirement = _requirement(args)
    started = time.monotonic()
    if args.method == "xp-vc":
        if isinstance(requirement, TwoSource):
            raise _UsageError("xp-vc supports the all-pairs requirement only")
        res = solver.min_spanner_xp_vc(g, budget=args.k)
    else:
        res = solver.min_spanner_exact(
            g, s, budget=args.k, requirement=requirement, cap=args.cap, engine=args.engine
        )
    elapsed = time.monotonic() - started
    inline = _write_spanner(args, res.spanner)
    result = {
        "size": res.size,
        "optimal": res.optimal,
        "method": res.method,
        "within_budget": res.within_budget,
        "spanner": sorted(res.spanner.kept),
    }
    human = f"size={res.size} optimal={_bool(res.optimal)} method={res.method}"
    _report(args, "solve", info, result, human)
    if inline is not None and not args.json:
        sys.stdout.write(inline)
    print(f"elapsed={elapsed:.3f}s", file=sys.stderr)
    if args.k is not None and res.within_budget is False:
        return EXIT_FAIL
    return EXIT_OK


def _cmd_verify(args) -> int:
    g, info = _read_graph(args.file)
    with open(args.spanner, "rb") as fh:
        span_data = fh.read()
    spanner = tempgraph.parse_spanner(span_data.decode(), g)
    s = _strictness(args)
    requirement = _requirement(args)
    holds = solver.requirement_holds(g, s, requirement, kept=spanner.kept)
    name = (
        f"two-source({requirement.s1},{requirement.s2})"
        if isinstance(requirement, TwoSource)
        else "all-pairs"
    )
    result = {"holds": holds, "size": spanner.size, "requirement": name}
    _report(
        args,
        "verify",
        info,
        result,
        f"holds={_bool(holds)} size={spanner.size} requirement={name}",
    )
    return EXIT_OK if holds else EXIT_FAIL


def _cmd_decompose(args) -> int:
    if not args.vc:
        raise _UsageError("only --vc decomposition is available")
    g, info = _read_graph(args.file)
    with open(args.spanner, "rb") as fh:
        spanner = tempgraph.parse_spanner(fh.read().decode(), g)
    cover = sorted(solver.min_vertex_cover(tempgraph.underlying_graph(g), g.vertex_count))
    decomp = solver.vc_tree_decompose(spanner, cover)
    if decomp is None:
        _report(args, "decompose", info, {"cover": cover, "decomposable": False}, "NOT-DECOMPOSABLE")
        return EXIT_FAIL
    trees = [
        {"root": t.root, "edges": sorted(t.tree_edges)} for t in decomp.trees
    ]
    extras = [{"vertex": v, "edge": e} for v, e in decomp.extras]
    if args.json:
        _report(
            args,
            "decompose",
            info,
            {"cover": cover, "decomposable": True, "trees": trees, "extras": extras},
            "",
        )
    else:
        print(f"cover={','.join(map(str, cover))}")
        for t in trees:
            print(f"tree root={t['root']} edges={','.join(map(str, t['edges']))}")
        for x in extras:
            print(f"extra vertex={x['vertex']} edge={x['edge']}")
    return EXIT_OK


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


def _cmd_reduce_sat(args) -> int:
    with open(args.file, "rb") as fh:
        data = fh.read()
    phi = reductions.parse_dimacs(data.decode())
    out = reductions.sat_to_spanner_instance(phi)
    if args.two_source:
        out = reductions.sat_two_source_variant(out)
        extra = {"sources": f"{out.sources[0]} {out.sources[1]}\n"}
        detail, human = {"sources": list(out.sources)}, f"sources={out.sources[0]},{out.sources[1]}"
    else:
        extra = {"critical": "".join(f"{i}\n" for i in sorted(out.critical))}
        detail, human = {"critical_count": len(out.critical)}, f"critical={len(out.critical)}"
    _write_instance(args.out_prefix, out, extra)
    g = out.graph
    result = {"n": g.vertex_count, "m": g.m, "budget": out.budget, **detail}
    human = f"n={g.vertex_count} m={g.m} budget={out.budget} {human}"
    _report(args, "reduce-sat", _digest(args.file, data), result, human)
    return EXIT_OK


def _cmd_reduce_mcc(args) -> int:
    with open(args.file, "rb") as fh:
        data = fh.read()
    inst = reductions.parse_mcc(data.decode())
    if args.pad_even:
        inst = reductions.pad_to_even(inst)
    out = reductions.mcc_to_spanner_instance(inst)
    _write_instance(args.out_prefix, out, {
        "fvs": "".join(f"{v}\n" for v in sorted(out.fvs)),
        "gadgets": "".join(f"{i} {tag}\n" for i, tag in enumerate(out.gadget_map)),
    })
    result = {
        "n": out.graph.vertex_count,
        "m": out.graph.m,
        "budget": out.budget,
        "connector_edges": out.connector_edge_count,
        "fvs_size": len(out.fvs),
    }
    human = (
        f"n={out.graph.vertex_count} m={out.graph.m} budget={out.budget} "
        f"connector={out.connector_edge_count} fvs={len(out.fvs)}"
    )
    _report(args, "reduce-mcc", _digest(args.file, data), result, human)
    return EXIT_OK


def _cmd_gen_random(args) -> int:
    if args.cover is not None:
        g = generate.random_happy_tc_with_cover(
            args.n, args.cover, args.seed, max_tries=args.max_tries
        )
    else:
        g = generate.random_happy_tc(
            args.n, args.seed, edge_prob=args.edge_prob, max_tries=args.max_tries
        )
    text = tempgraph.serialize(g)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
    result = {"n": g.vertex_count, "m": g.m, "lifetime": g.lifetime, "seed": args.seed}
    human = f"n={g.vertex_count} m={g.m} lifetime={g.lifetime} seed={args.seed}"
    if args.json:
        _report(args, "gen-random", None, result, human)
    else:
        print(human, file=sys.stderr)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="tempspan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a graph and test temporal connectivity")
    p.add_argument("file")
    _add_strictness(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="compute a minimum temporal spanner")
    p.add_argument("file")
    p.add_argument("--method", choices=["exact", "xp-vc"], default="exact")
    _add_strictness(p)
    p.add_argument("--k", type=int, default=None, help="budget (decision mode)")
    p.add_argument("--two-source", nargs=2, type=int, metavar=("S1", "S2"))
    p.add_argument("--cap", type=int, default=solver.DEFAULT_CAP, help="removable-edge guard")
    p.add_argument(
        "--engine",
        choices=solver.ENGINES,
        default="auto",
        help=f"exact engine (auto: bnb up to {solver.DEFAULT_CAP} removable edges, else flow,"
        " which needs --cap raised above that)",
    )
    p.add_argument("--out", default="-", help="spanner output path ('-' = stdout)")
    p.add_argument("--triples", action="store_true", help="write 'u v t' lines instead of indices")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a spanner file against the requirement")
    p.add_argument("file")
    p.add_argument("spanner")
    _add_strictness(p)
    p.add_argument("--two-source", nargs=2, type=int, metavar=("S1", "S2"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("decompose", help="tree-plus-extras decomposition of a spanner")
    p.add_argument("--vc", action="store_true", help="decompose against a minimum vertex cover")
    p.add_argument("file")
    p.add_argument("spanner")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reduce-sat", help="3-SAT to spanner-instance generator")
    p.add_argument("file", help="DIMACS CNF input")
    p.add_argument("--two-source", action="store_true")
    p.add_argument("--out-prefix", default="out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reduce_sat)

    p = sub.add_parser("reduce-mcc", help="multicolored-clique to spanner-instance generator")
    p.add_argument("file")
    p.add_argument("--pad-even", action="store_true", help="duplicate last edges to even counts")
    p.add_argument("--out-prefix", default="out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reduce_mcc)

    p = sub.add_parser("gen-random", help="seeded random happy TC graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--edge-prob", type=float, default=0.5)
    p.add_argument("--cover", type=int, default=None, help="force vertex cover number <= COVER")
    p.add_argument("--max-tries", type=int, default=400)
    p.add_argument("--out", default="-")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen_random)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors and --help: return argparse's status
        return exc.code
    try:
        return args.func(args)
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
