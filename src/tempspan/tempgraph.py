"""Core temporal-graph data model, structural classification, and text I/O.

A temporal graph is a set of *time edges*: undirected vertex pairs carrying a
positive integer label (the time step at which the edge is present).  Vertices
are dense integers in ``[0, n)``.  Graphs are immutable after construction;
every operation in this module is a pure function.

Classification vocabulary:

* *simple*  -- every underlying edge carries exactly one label,
* *proper*  -- no two time edges sharing an endpoint carry the same label,
* *happy*   -- simple and proper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Iterable


class TempGraphError(Exception):
    """Base class for temporal-graph construction and I/O errors."""


class SelfLoop(TempGraphError):
    pass


class EndpointOutOfRange(TempGraphError):
    pass


class BadLabel(TempGraphError):
    pass


class DuplicateTimeEdge(TempGraphError):
    pass


class NotSimple(TempGraphError):
    pass


class ParseError(TempGraphError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class TimeEdge:
    """An undirected edge ``{u, v}`` present at time step ``t`` (``t >= 1``)."""

    u: int
    v: int
    t: int

    @property
    def pair(self) -> tuple[int, int]:
        """Endpoints as an ordered pair, the canonical identity of the edge."""
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)

    @property
    def key(self) -> tuple[int, int, int]:
        a, b = self.pair
        return (a, b, self.t)

    def other(self, x: int) -> int:
        return self.v if x == self.u else self.u


@dataclass(frozen=True)
class GraphClass:
    simple: bool
    proper: bool
    happy: bool


@dataclass(frozen=True)
class TemporalGraph:
    """An immutable temporal graph.

    ``lifetime`` is always normalized to the maximum label present (1 for an
    edgeless graph), so construct instances through :func:`build` or
    :func:`parse` rather than directly.
    """

    vertex_count: int
    edges: tuple[TimeEdge, ...]
    lifetime: int

    @property
    def n(self) -> int:
        return self.vertex_count

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def label_order(self) -> tuple[int, ...]:
        """Edge indices sorted by (label, index); the chronological scan order."""
        return tuple(sorted(range(self.m), key=lambda i: (self.edges[i].t, i)))

    @cached_property
    def label_groups(self) -> tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]:
        """``(label, ((edge index, u, v), ...))`` per distinct label, in scan order.

        The one table every reachability sweep reads; built on first use.
        """
        edges = self.edges
        return tuple(
            (t, tuple((i, edges[i].u, edges[i].v) for i in group))
            for t, group in groupby(self.label_order, key=lambda i: edges[i].t)
        )

    @cached_property
    def underlying_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(e.pair for e in self.edges)

    @cached_property
    def index_by_key(self) -> dict[tuple[int, int, int], int]:
        """(u, v, t) -> edge index, for u < v.  Total on multigraph labels."""
        return {e.key: i for i, e in enumerate(self.edges)}

    @cached_property
    def index_by_pair(self) -> dict[tuple[int, int], int]:
        """(u, v) -> edge index, for u < v.  Only meaningful on simple graphs."""
        out: dict[tuple[int, int], int] = {}
        for i, e in enumerate(self.edges):
            if e.pair in out:
                raise NotSimple(f"underlying edge {e.pair} carries several labels")
            out[e.pair] = i
        return out

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex tuple of incident edge indices, ascending."""
        buckets: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, e in enumerate(self.edges):
            buckets[e.u].append(i)
            buckets[e.v].append(i)
        return tuple(tuple(b) for b in buckets)


def build(n: int, edges: Iterable[TimeEdge | tuple[int, int, int]]) -> TemporalGraph:
    """Validate and normalize a temporal graph.

    Accepts ``TimeEdge`` instances or plain ``(u, v, t)`` tuples.  Rejects
    self-loops, out-of-range endpoints, non-positive labels, and duplicate
    (pair, label) triples.  The lifetime is set to the maximum label present.
    """
    if n < 1:
        raise EndpointOutOfRange(f"vertex count must be positive, got {n}")
    normalized: list[TimeEdge] = []
    seen: set[tuple[int, int, int]] = set()
    for raw in edges:
        e = raw if isinstance(raw, TimeEdge) else TimeEdge(*raw)
        if e.u == e.v:
            raise SelfLoop(f"self-loop at vertex {e.u}")
        if not (0 <= e.u < n and 0 <= e.v < n):
            raise EndpointOutOfRange(f"edge {e} outside vertex range [0, {n})")
        if e.t < 1:
            raise BadLabel(f"label must be a positive integer, got {e.t}")
        if e.key in seen:
            raise DuplicateTimeEdge(f"duplicate time edge {e.key}")
        seen.add(e.key)
        normalized.append(e)
    lifetime = max((e.t for e in normalized), default=1)
    return TemporalGraph(n, tuple(normalized), lifetime)


def classify(g: TemporalGraph) -> GraphClass:
    """Classify a graph as simple / proper / happy."""
    simple = len(g.underlying_pairs) == g.m
    proper = True
    at_vertex: set[tuple[int, int]] = set()
    for e in g.edges:
        if (e.u, e.t) in at_vertex or (e.v, e.t) in at_vertex:
            proper = False
            break
        at_vertex.add((e.u, e.t))
        at_vertex.add((e.v, e.t))
    return GraphClass(simple=simple, proper=proper, happy=simple and proper)


def underlying_graph(g: TemporalGraph) -> set[tuple[int, int]]:
    """The static graph: distinct endpoint pairs appearing at least once."""
    return set(g.underlying_pairs)


def relabel_to_happy(g: TemporalGraph) -> TemporalGraph:
    """Replace labels by ordinal positions, making a simple graph happy.

    Edges are ranked by (old label, smaller endpoint, larger endpoint,
    original index) and relabeled ``1..m`` by rank; the stored edge order is
    unchanged, so edge indices remain stable.  Strict label order between any
    two edges is preserved.
    """
    if not classify(g).simple:
        raise NotSimple("relabeling requires a simple graph")
    ranked = sorted(range(g.m), key=lambda i: (g.edges[i].t, *g.edges[i].pair, i))
    new_label = [0] * g.m
    for pos, i in enumerate(ranked):
        new_label[i] = pos + 1
    edges = [TimeEdge(e.u, e.v, new_label[i]) for i, e in enumerate(g.edges)]
    return build(g.vertex_count, edges)


@dataclass(frozen=True)
class Spanner:
    """A subset of a parent graph's time edges, referenced by index."""

    parent: TemporalGraph
    kept: frozenset[int]

    def __post_init__(self):
        for i in self.kept:
            if not (0 <= i < self.parent.m):
                raise EndpointOutOfRange(f"edge index {i} out of range")

    @property
    def size(self) -> int:
        return len(self.kept)

    def edges(self) -> list[TimeEdge]:
        return [self.parent.edges[i] for i in sorted(self.kept)]


# ---------------------------------------------------------------------------
# Text formats
#
# Temporal graph (".tg"): first line "n T"; every following non-empty,
# non-comment line "u v t".  Lines starting with "#" are comments.
# Spanner: one edge index per line, or "u v t" triples (flag-selected).
# ---------------------------------------------------------------------------


def parse(text: str) -> TemporalGraph:
    """Parse the ``.tg`` text format.  Raises :class:`ParseError` with a line number."""
    n: int | None = None
    declared_t = 0
    edges: list[TimeEdge] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if n is None:
            if len(fields) != 2:
                raise ParseError(line_no, f"expected header 'n T', got {stripped!r}")
            try:
                n, declared_t = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError(line_no, f"non-integer header field in {stripped!r}")
            if n < 1 or declared_t < 1:
                raise ParseError(line_no, "header values must be positive")
            continue
        if len(fields) != 3:
            raise ParseError(line_no, f"expected 'u v t', got {stripped!r}")
        try:
            u, v, t = (int(f) for f in fields)
        except ValueError:
            raise ParseError(line_no, f"non-integer edge field in {stripped!r}")
        if t < 1 or t > declared_t:
            raise ParseError(line_no, f"label {t} outside [1, {declared_t}]")
        edges.append(TimeEdge(u, v, t))
    if n is None:
        raise ParseError(0, "empty input")
    try:
        return build(n, edges)
    except TempGraphError as exc:
        raise ParseError(0, str(exc))


def serialize(g: TemporalGraph) -> str:
    """Byte-exact ``.tg`` emitter: stored edge order, single spaces, newline-terminated."""
    lines = [f"{g.vertex_count} {g.lifetime}"]
    lines.extend(f"{e.u} {e.v} {e.t}" for e in g.edges)
    return "\n".join(lines) + "\n"


def serialize_spanner(s: Spanner, triples: bool = False) -> str:
    if triples:
        return "".join(f"{e.u} {e.v} {e.t}\n" for e in s.edges())
    return "".join(f"{i}\n" for i in sorted(s.kept))


def parse_spanner(text: str, parent: TemporalGraph) -> Spanner:
    """Parse a spanner file; accepts index lines and ``u v t`` triple lines."""
    kept: set[int] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise ParseError(line_no, f"non-integer field in {stripped!r}")
        if len(values) == 1:
            idx = values[0]
            if not (0 <= idx < parent.m):
                raise ParseError(line_no, f"edge index {idx} out of range")
        elif len(values) == 3:
            u, v, t = values
            key = (min(u, v), max(u, v), t)
            idx = parent.index_by_key.get(key)
            if idx is None:
                raise ParseError(line_no, f"no such time edge {key}")
        else:
            raise ParseError(line_no, f"expected index or 'u v t', got {stripped!r}")
        kept.add(idx)
    return Spanner(parent, frozenset(kept))


def restrict(g: TemporalGraph, kept: Iterable[int]) -> TemporalGraph:
    """A new graph containing only the given edge indices (re-indexed)."""
    kept_sorted = sorted(set(kept))
    return build(g.vertex_count, [g.edges[i] for i in kept_sorted])


def delete_vertex(g: TemporalGraph, victim: int) -> tuple[TemporalGraph, list[int]]:
    """Drop a vertex and its incident edges, re-indexing the rest densely.

    Returns the new graph and the list of surviving old edge indices, in order.
    """
    if not (0 <= victim < g.vertex_count):
        raise EndpointOutOfRange(f"vertex {victim} out of range")
    survivors = [i for i, e in enumerate(g.edges) if victim not in (e.u, e.v)]

    def shift(x: int) -> int:
        return x - 1 if x > victim else x

    edges = [TimeEdge(shift(g.edges[i].u), shift(g.edges[i].v), g.edges[i].t) for i in survivors]
    return build(g.vertex_count - 1, edges), survivors
