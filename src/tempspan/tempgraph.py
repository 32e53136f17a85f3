"""Core temporal-graph data model, structural classification, and text I/O.

A temporal graph is a set of *time edges*: undirected vertex pairs carrying a
positive integer label (the time step at which the edge is present).  Vertices
are dense integers in ``[0, n)``.  Graphs are immutable after construction;
every operation in this module is a pure function.

A :class:`TemporalGraph` stores its edges as three equal-length int tuples in
input order: one endpoint ``us``, the other endpoint ``vs`` and the label
``ts``.  Edge ``i`` is ``(us[i], vs[i], ts[i])``.  Ingest (:func:`parse`,
:func:`build`), classification, the derived index tables, the sweep table
:attr:`TemporalGraph.label_groups` and :func:`serialize` read only these
columns.  The ``TimeEdge`` objects of :attr:`TemporalGraph.edges` are built on
its first read, so a graph that is only parsed, classified and swept never
holds one object per edge.  :func:`parse` converts the edge lines' fields in
bulk and reads a bad text a second time, line by line, only to name its
first bad line.

The sweep table :attr:`TemporalGraph.label_groups` has one entry per distinct
label: the flat ``(label, i, u, v)`` for a label of one edge, and
``(label, ((i, u, v), ...))`` for a label of several.  :func:`group_rows`
gives the ``(i, u, v)`` rows of either kind.

Classification vocabulary:

* *simple*  -- every underlying edge carries exactly one label,
* *proper*  -- no two time edges sharing an endpoint carry the same label,
* *happy*   -- simple and proper.

:func:`classify` reads properness off the sweep table, which a sweep of the
same graph needs anyway, and simplicity off the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import index
from typing import Iterable, Iterator, NoReturn


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
    """An immutable temporal graph: edge ``i`` is ``(us[i], vs[i], ts[i])``.

    ``lifetime`` is always normalized to the maximum label present (1 for an
    edgeless graph) and the columns are not validated here, so construct
    instances through :func:`build` or :func:`parse` rather than directly.
    """

    vertex_count: int
    lifetime: int
    us: tuple[int, ...]
    vs: tuple[int, ...]
    ts: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.ts)

    @cached_property
    def edges(self) -> tuple[TimeEdge, ...]:
        """The edges as ``TimeEdge`` objects in stored order, built on first read."""
        return tuple(map(TimeEdge, self.us, self.vs, self.ts))

    @cached_property
    def label_groups(self) -> tuple[tuple, ...]:
        """The sweep table: one entry per distinct label, in ascending order.

        A label of one edge is the flat ``(label, i, u, v)``; a label of
        several edges is ``(label, ((i, u, v), ...))``, rows in index order.
        Flat entries keep a graph with distinct labels at one table object
        per edge.  Every reachability sweep reads this table; it is built on
        first use.
        """
        us, vs, ts = self.us, self.vs, self.ts
        groups: list[tuple] = []
        # rows: the current label's rows, once it has a second edge.
        label, rows = 0, []  # no edge carries label 0
        # sorted() is stable, so equal labels keep ascending index order.
        for i in sorted(range(self.m), key=ts.__getitem__):
            t = ts[i]
            if t != label:
                if rows:
                    groups[-1] = (label, tuple(rows))
                    rows = []
                label = t
                groups.append((t, i, us[i], vs[i]))
            elif rows:
                rows.append((i, us[i], vs[i]))
            else:  # the label's second edge: its first leaves the flat entry
                rows = [groups[-1][1:], (i, us[i], vs[i])]
        if rows:
            groups[-1] = (label, tuple(rows))
        return tuple(groups)

    @cached_property
    def underlying_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset([(u, v) if u < v else (v, u) for u, v in zip(self.us, self.vs)])

    @cached_property
    def index_by_key(self) -> dict[tuple[int, int, int], int]:
        """(u, v, t) -> edge index, for u < v.  Total on multigraph labels."""
        return {
            (u, v, t) if u < v else (v, u, t): i
            for i, (u, v, t) in enumerate(zip(self.us, self.vs, self.ts))
        }

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex tuple of incident edge indices, ascending."""
        buckets: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v) in enumerate(zip(self.us, self.vs)):
            buckets[u].append(i)
            buckets[v].append(i)
        return tuple(tuple(b) for b in buckets)


def build(n: int, edges: Iterable[TimeEdge | tuple[int, int, int]]) -> TemporalGraph:
    """Validate and normalize a temporal graph.

    Accepts ``TimeEdge`` instances or plain ``(u, v, t)`` tuples.  Each
    field must be an integer (``operator.index``, so numpy ints pass); a
    field that is not raises at once.  Then rejects self-loops, out-of-range
    endpoints, non-positive labels, and duplicate (pair, label) triples.  The
    lifetime is set to the maximum label present.
    """
    if n < 1:
        raise EndpointOutOfRange(f"vertex count must be positive, got {n}")
    us: list[int] = []
    vs: list[int] = []
    ts: list[int] = []
    for raw in edges:
        u, v, t = (raw.u, raw.v, raw.t) if isinstance(raw, TimeEdge) else raw
        try:
            us.append(index(u))
            vs.append(index(v))
        except TypeError:
            raise EndpointOutOfRange(f"edge {(u, v, t)} has a non-integer endpoint") from None
        try:
            ts.append(index(t))
        except TypeError:
            raise BadLabel(f"label must be a positive integer, got {t!r}") from None
    return _from_columns(n, us, vs, ts)


def _from_columns(n: int, us: list[int], vs: list[int], ts: list[int]) -> TemporalGraph:
    """The one validating constructor behind :func:`build` and :func:`parse`.

    Checks each edge in order, raising the first error met: self-loop,
    endpoint range, label, then a (pair, label) seen before.  The error's
    ``edge`` attribute is the index of the edge that failed.
    """
    # A (pair, label) key (a, b, t) with a < b is encoded as the int
    # (t * n + a) * n + b, one-to-one once both endpoints are in [0, n).
    seen: set[int] = set()
    try:
        for u, v, t in zip(us, vs, ts):
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise EndpointOutOfRange(f"edge {TimeEdge(u, v, t)} outside vertex range [0, {n})")
            if t < 1:
                raise BadLabel(f"label must be a positive integer, got {t}")
            key = (t * n + u) * n + v if u < v else (t * n + v) * n + u
            if key in seen:
                raise DuplicateTimeEdge(f"duplicate time edge {(min(u, v), max(u, v), t)}")
            seen.add(key)
    except TempGraphError as exc:
        # Every edge before the failing one added its key.
        exc.edge = len(seen)
        raise
    return TemporalGraph(n, max(ts, default=1), tuple(us), tuple(vs), tuple(ts))


def _distinct_pairs(g: TemporalGraph) -> bool:
    """True iff the m underlying pairs are distinct, i.e. the graph is simple."""
    # Pair {u, v} with u < v is encoded as the int u * n + v, one-to-one for
    # endpoints in [0, n).
    n = g.vertex_count
    return len({u * n + v if u < v else v * n + u for u, v in zip(g.us, g.vs)}) == g.m


def classify(g: TemporalGraph) -> GraphClass:
    """Classify a graph as simple / proper / happy.

    Properness is read off the sweep table :attr:`TemporalGraph.label_groups`
    (built here if no sweep has built it yet): a graph is proper iff the k
    rows of every label of several edges have 2k distinct endpoints.  A
    label of one edge is always proper, as no edge is a self-loop.
    """
    simple = _distinct_pairs(g)
    proper = True
    for group in g.label_groups:
        if len(group) == 2:
            rows = group[1]
            ends = {u for _, u, _ in rows}
            ends.update([v for _, _, v in rows])
            if len(ends) != 2 * len(rows):
                proper = False
                break
    return GraphClass(simple=simple, proper=proper, happy=simple and proper)


def group_rows(group: tuple) -> tuple[tuple[int, int, int], ...]:
    """The ``(edge index, u, v)`` rows of one :attr:`TemporalGraph.label_groups` entry."""
    return group[1] if len(group) == 2 else (group[1:],)


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
    if not _distinct_pairs(g):
        raise NotSimple("relabeling requires a simple graph")
    us, vs, ts = g.us, g.vs, g.ts
    ranked = sorted(range(g.m), key=lambda i: (ts[i], min(us[i], vs[i]), max(us[i], vs[i]), i))
    new_label = [0] * g.m
    for pos, i in enumerate(ranked):
        new_label[i] = pos + 1
    return build(g.vertex_count, zip(us, vs, new_label))


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


def data_lines(text: str, comments: str | tuple[str, ...] = "#") -> Iterator[tuple[int, list[str]]]:
    """``(line number from 1, fields)`` for each line of ``text`` that is not
    blank and whose first field starts with no prefix in ``comments``."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields and not fields[0].startswith(comments):
            yield line_no, fields


# Lines per chunk of parse's bulk conversion.
_PARSE_CHUNK = 4096


def parse(text: str) -> TemporalGraph:
    """Parse the ``.tg`` text format.  Raises :class:`ParseError` with a line number.

    The header is read line by line.  Then the edge lines' fields are
    gathered as one flat list of strings per chunk of lines, converted with
    one ``map(int, ...)`` and cut into the three columns by slices; the
    label range is one ``min``/``max`` at the end.  So valid text tracks no
    line numbers.  On a line of the wrong shape, a field that is no integer
    or a label out of range, :func:`_raise_first_bad_line` reads the edge
    lines again one by one and raises the first bad line's error; a build
    error (:func:`_from_columns`) names the line of its edge.
    """
    lines = text.splitlines()
    for line_no, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) != 2:
            raise ParseError(line_no, f"expected header 'n T', got {line.strip()!r}")
        try:
            n, declared_t = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(line_no, f"non-integer header field in {line.strip()!r}")
        if n < 1 or declared_t < 1:
            raise ParseError(line_no, "header values must be positive")
        break
    else:
        raise ParseError(0, "empty input")
    # data_lines' rule, inline: a generator-fed loop parses large files slower.
    # A chunk of lines at a time, so that the field strings and the flat
    # values never all live at once.
    us: list[int] = []
    vs: list[int] = []
    ts: list[int] = []
    for start in range(line_no, len(lines), _PARSE_CHUNK):
        flat: list[str] = []
        for fields in map(str.split, lines[start : start + _PARSE_CHUNK]):
            if len(fields) == 3 and fields[0][0] != "#":
                flat += fields
            elif fields and fields[0][0] != "#":
                _raise_first_bad_line(lines, line_no, declared_t)
        try:
            values = list(map(int, flat))
        except ValueError:
            _raise_first_bad_line(lines, line_no, declared_t)
        us += values[0::3]
        vs += values[1::3]
        ts += values[2::3]
    if ts and (min(ts) < 1 or max(ts) > declared_t):
        _raise_first_bad_line(lines, line_no, declared_t)
    del lines  # every line is read: free them before the key set is built
    try:
        return _from_columns(n, us, vs, ts)
    except TempGraphError as exc:
        # The failing edge's line is the (edge + 1)-th data line after the
        # header.
        line_no, _ = next(islice(data_lines(text), exc.edge + 1, None))
        raise ParseError(line_no, str(exc))


def _raise_first_bad_line(lines: list[str], header_line: int, declared_t: int) -> NoReturn:
    """Raise the :class:`ParseError` of the first bad edge line after the header.

    The per-line rules of the ``.tg`` format, run only once :func:`parse`'s
    bulk pass has failed, so some line is bad.
    """
    for line_no, line in enumerate(islice(lines, header_line, None), start=header_line + 1):
        fields = line.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) != 3:
            raise ParseError(line_no, f"expected 'u v t', got {line.strip()!r}")
        try:
            _, _, t = map(int, fields)
        except ValueError:
            raise ParseError(line_no, f"non-integer edge field in {line.strip()!r}")
        if t < 1 or t > declared_t:
            raise ParseError(line_no, f"label {t} outside [1, {declared_t}]")
    raise AssertionError("parse's bulk pass failed on text with no bad line")


def serialize(g: TemporalGraph) -> str:
    """Byte-exact ``.tg`` emitter: stored edge order, single spaces, newline-terminated."""
    fields: list[int] = [0] * (3 * g.m)
    fields[0::3], fields[1::3], fields[2::3] = g.us, g.vs, g.ts
    return f"{g.vertex_count} {g.lifetime}\n" + ("{} {} {}\n" * g.m).format(*fields)


def serialize_spanner(s: Spanner, triples: bool = False) -> str:
    if triples:
        g = s.parent
        return "".join(f"{g.us[i]} {g.vs[i]} {g.ts[i]}\n" for i in sorted(s.kept))
    return "".join(f"{i}\n" for i in sorted(s.kept))


def parse_spanner(text: str, parent: TemporalGraph) -> Spanner:
    """Parse a spanner file; accepts index lines and ``u v t`` triple lines."""
    kept: set[int] = set()
    for line_no, fields in data_lines(text):
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise ParseError(line_no, f"non-integer field in {' '.join(fields)!r}")
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
            raise ParseError(line_no, f"expected index or 'u v t', got {' '.join(fields)!r}")
        kept.add(idx)
    return Spanner(parent, frozenset(kept))


def delete_vertex(g: TemporalGraph, victim: int) -> tuple[TemporalGraph, list[int]]:
    """Drop a vertex and its incident edges, re-indexing the rest densely.

    Returns the new graph and the list of surviving old edge indices, in order.
    """
    if not (0 <= victim < g.vertex_count):
        raise EndpointOutOfRange(f"vertex {victim} out of range")
    us, vs, ts = g.us, g.vs, g.ts
    survivors = [i for i in range(g.m) if victim != us[i] and victim != vs[i]]

    def shift(x: int) -> int:
        return x - 1 if x > victim else x

    edges = [(shift(us[i]), shift(vs[i]), ts[i]) for i in survivors]
    return build(g.vertex_count - 1, edges), survivors
