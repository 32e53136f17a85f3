"""Spans around ``tempspan``'s public calls, installed from outside.

:class:`Tracer` replaces module attributes with recording wrappers and puts
the originals back on exit.  Internal calls made through a module-global
name are caught too (``min_spanner_exact`` -> ``forced_edges``,
``is_tc`` -> ``reach_masks``), and the flow engine re-imports
``scipy.optimize.milp`` on every call.  Spans are recorded only inside an
op, kept in memory, and written out when the run ends.

Private code (the subset oracle, branch and bound, conflict blocks) is not
wrapped: its time shows up as the self time of the public call above it.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

SWEEP_CALLS = ("reach.reach_masks", "reach.earliest_arrival", "reach.reaches_all")

# Per-layer metrics of a traced run, with units.  Times are self times;
# every value is per pass over the workload's ops.
PER_LAYER: dict[str, str] = {
    "tempgraph.parse_s": "s",
    "tempgraph.parse_calls": "count",
    "tempgraph.classify_s": "s",
    "tempgraph.serialize_s": "s",
    "reach.is_tc_s": "s",
    "reach.is_tc_calls": "count",
    "reach.reach_masks_s": "s",
    "reach.reach_masks_calls": "count",
    "reach.earliest_arrival_s": "s",
    "reach.earliest_arrival_calls": "count",
    "reach.reaches_all_s": "s",
    "reach.reaches_all_calls": "count",
    "reach.verify_out_tree_s": "s",
    "reach.verify_out_tree_calls": "count",
    "reach.edges_swept_per_s": "1/s",
    "solver.forced_edges_s": "s",
    "solver.forced_edges_calls": "count",
    "solver.removable_edges": "count",
    "solver.exact_bnb_self_s": "s",
    "solver.exact_flow_build_s": "s",
    "solver.min_vertex_cover_s": "s",
    "solver.min_vertex_cover_calls": "count",
    "solver.xp_self_s": "s",
    "solver.span_count": "count",
    "milp.solve_s": "s",
    "milp.calls": "count",
    "milp.vars": "count",
    "milp.rows": "count",
    "milp.nnz": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}


def _swept(fn: Callable) -> Callable:
    """Attrs for a sweep call: edges scanned, ``len(kept)`` when given, else all of ``g``."""
    signature = inspect.signature(fn)

    def attrs(args: tuple, kwargs: dict, result: object) -> dict:
        bound = signature.bind(*args, **kwargs).arguments
        kept = bound.get("kept")
        return {"edges": bound["g"].m if kept is None else len(kept)}

    return attrs


def _removable(args: tuple, kwargs: dict, result: object) -> dict:
    g = args[0] if args else kwargs["g"]
    return {"removable": g.m - len(result)}


def _method(args: tuple, kwargs: dict, result: object) -> dict:
    return {"method": result.method}


def _milp_size(args: tuple, kwargs: dict, result: object) -> dict:
    """Model size read from the arguments: variables, constraint rows, nonzeros."""
    c = args[0] if args else kwargs["c"]
    constraints = kwargs.get("constraints") or []
    if not isinstance(constraints, (list, tuple)):
        constraints = [constraints]
    rows = sum(con.A.shape[0] for con in constraints)
    nnz = sum(int(con.A.nnz) for con in constraints)
    return {"vars": len(c), "rows": rows, "nnz": nnz}


class Tracer:
    """Records ``[name, start, end, parent, op, attrs]`` spans while an op runs."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1], self._op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    def run_op(self, op_id: int, fn: Callable[[], object]) -> tuple[object, Exception | None, float]:
        """Run one op under a root span; returns (result, exception, latency)."""
        span = ["op", 0.0, 0.0, None, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._op = op_id
        out, err = None, None
        span[1] = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an op failure is counted, not fatal
            err = exc
        span[2] = time.perf_counter()
        self._op = None
        self._stack.pop()
        return out, err, span[2] - span[1]

    def install(self) -> None:
        import scipy.optimize
        from tempspan import reach, solver, tempgraph

        targets = [
            (tempgraph, "parse", "tempgraph.parse", None),
            (tempgraph, "classify", "tempgraph.classify", None),
            (solver, "classify", "tempgraph.classify", None),
            (tempgraph, "serialize", "tempgraph.serialize", None),
            (reach, "is_tc", "reach.is_tc", None),
            (reach, "reach_masks", "reach.reach_masks", _swept(reach.reach_masks)),
            (reach, "earliest_arrival", "reach.earliest_arrival", _swept(reach.earliest_arrival)),
            (reach, "reaches_all", "reach.reaches_all", _swept(reach.reaches_all)),
            (reach, "verify_out_tree", "reach.verify_out_tree", None),
            (solver, "forced_edges", "solver.forced_edges", _removable),
            (solver, "min_spanner_exact", "solver.min_spanner_exact", _method),
            (solver, "min_vertex_cover", "solver.min_vertex_cover", None),
            (solver, "min_spanner_xp_vc", "solver.min_spanner_xp_vc", None),
            (scipy.optimize, "milp", "milp.solve", _milp_size),
        ]
        for module, attr, name, attrs in targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, attrs))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "attrs": attrs}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[list], passes: int, traced_wall: float) -> dict[str, float]:
    """The :data:`PER_LAYER` values, but ``trace.overhead_frac``, from the
    spans of ``passes`` traced passes.

    ``traced_wall`` is the summed op latency of those passes, so the layer
    self times plus ``trace.unattributed_s`` add up to ``trace.wall_s``.
    """
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name, attrs = span[0], span[5] or {}
        calls[name] += 1
        if name == "solver.min_spanner_exact":
            name = f"{name}:{attrs.get('method', 'raised')}"
        busy[name] += own
        for key, value in attrs.items():
            if not isinstance(value, str):
                totals[f"{span[0]}.{key}"] += value
    swept_s = sum(busy[name] for name in SWEEP_CALLS)
    out = {
        "tempgraph.parse_s": busy["tempgraph.parse"],
        "tempgraph.parse_calls": calls["tempgraph.parse"],
        "tempgraph.classify_s": busy["tempgraph.classify"],
        "tempgraph.serialize_s": busy["tempgraph.serialize"],
        "solver.removable_edges": totals["solver.forced_edges.removable"],
        "solver.exact_bnb_self_s": busy["solver.min_spanner_exact:exact-bnb"],
        "solver.exact_flow_build_s": busy["solver.min_spanner_exact:exact-flow"],
        "solver.xp_self_s": busy["solver.min_spanner_xp_vc"],
        "solver.span_count": sum(c for name, c in calls.items() if name.startswith("solver.")),
        "milp.solve_s": busy["milp.solve"],
        "milp.calls": calls["milp.solve"],
        "milp.vars": totals["milp.solve.vars"],
        "milp.rows": totals["milp.solve.rows"],
        "milp.nnz": totals["milp.solve.nnz"],
    }
    for name in ("reach.is_tc", "reach.reach_masks", "reach.earliest_arrival", "reach.reaches_all",
                 "reach.verify_out_tree", "solver.forced_edges", "solver.min_vertex_cover"):
        out[f"{name}_s"] = busy[name]
        out[f"{name}_calls"] = calls[name]
    out = {key: value / passes for key, value in out.items()}
    out["reach.edges_swept_per_s"] = sum(totals[f"{name}.edges"] for name in SWEEP_CALLS) / swept_s if swept_s else 0.0
    wall = traced_wall / passes
    layers_s = sum(value for key, value in out.items() if PER_LAYER[key] == "s")
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - layers_s
    return out
