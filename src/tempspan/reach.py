"""Temporal reachability, connectivity testing, and foremost out-trees.

Every answer comes from one chronological sweep, the one-pass earliest-arrival
scan of Wu et al., "Path Problems in Temporal Graphs" (VLDB 2014), over one
table: :attr:`TemporalGraph.label_groups`, the edges grouped by equal label in
ascending label order.  Under strict semantics a group sees only the values
from before it (equal labels cannot chain); under non-strict semantics it is
iterated to a fixpoint.  A group of one edge needs neither: both reduce to one
relaxation judged on the values before the group.

The sweep has two modes, and both skip the edges flagged in a per-edge
``removed`` bytearray:

* the all-sources bitmask mode carries, per vertex, the set of vertices that
  reach it (:func:`reach_masks`, :func:`is_tc`, and the solver's feasibility
  oracle).  It is resumable: it can start at any group index from given
  masks, and can record a copy of the masks after every group.  A query that
  differs from a recorded one only in edges of later groups resumes from the
  recorded state before the first such group.  The start masks may also hold
  only some source bits (the two-source requirement);
* the single-source arrival mode carries earliest arrival labels and the edge
  that set each (:func:`earliest_arrival`, :func:`reaches_all`,
  :func:`foremost_out_tree`).

The public functions take an optional ``kept`` edge subset and turn it into
drop flags once per call.  ``None`` is the unreachable sentinel throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .tempgraph import TemporalGraph


class Strictness(Enum):
    STRICT = "strict"
    NONSTRICT = "nonstrict"


STRICT = Strictness.STRICT
NONSTRICT = Strictness.NONSTRICT


class RootNotSpanning(Exception):
    """The requested root cannot reach every vertex."""


@dataclass(frozen=True)
class ArrivalProfile:
    """Earliest arrival labels from one source, or ``None`` where unreachable."""

    source: int
    start: int
    arrival: tuple[int | None, ...]


@dataclass(frozen=True)
class TemporalOutTree:
    """``n - 1`` edge indices of the parent graph forming a reachability tree."""

    root: int
    tree_edges: frozenset[int]


def _drop_flags(g: TemporalGraph, kept: Iterable[int] | None) -> bytearray:
    """Per-edge drop flags for the sweeps: 1 marks an edge outside ``kept``."""
    if kept is None:
        return bytearray(g.m)
    m = g.m
    removed = bytearray(b"\x01") * m
    for i in kept:
        if not 0 <= i < m:
            raise ValueError(f"edge index {i} out of range [0, {m})")
        removed[i] = 0
    return removed


def _mask_sweep(
    g: TemporalGraph,
    s: Strictness,
    removed: bytearray,
    masks: list[int] | None = None,
    lo: int = 0,
    record: list[list[int]] | None = None,
) -> list[int]:
    """All-sources mode: bit u of entry v is set iff u reaches v.

    Without ``masks`` the sweep starts from every vertex reaching itself,
    before the first group.  Otherwise it resumes at group index ``lo`` from
    a copy of ``masks``, the state before that group.  ``record``, if given,
    receives a copy of the masks after each group swept.
    """
    masks = [1 << v for v in range(g.vertex_count)] if masks is None else masks.copy()
    strict = s is STRICT
    keep = record.append if record is not None else None
    groups = g.label_groups[lo:] if lo else g.label_groups
    for _, group in groups:
        if len(group) == 1:
            i, u, v = group[0]
            if not removed[i]:
                masks[u] = masks[v] = masks[u] | masks[v]
        elif strict:
            # Every read happens before the first write: the group sees only
            # pre-group masks.
            before = [(u, v, masks[u], masks[v]) for i, u, v in group if not removed[i]]
            for u, v, mu, mv in before:
                masks[v] |= mu
                masks[u] |= mv
        else:
            alive = [(u, v) for i, u, v in group if not removed[i]]
            changed = True
            while changed:
                changed = False
                for u, v in alive:
                    x = masks[u] | masks[v]
                    if x != masks[u] or x != masks[v]:
                        masks[u] = masks[v] = x
                        changed = True
        if keep:
            keep(masks.copy())
    return masks


def _arrival_sweep(
    g: TemporalGraph, source: int, start: int, s: Strictness, removed: bytearray
) -> tuple[list[int | None], list[int | None]]:
    """Single-source mode: (arrival, via-edge-index) per vertex."""
    n = g.vertex_count
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    strict = s is STRICT
    # An edge at label t leaves a vertex reached at a < t + slack.  The source
    # is held one step early under strict semantics, so that a path's first
    # edge needs only a label >= start.
    slack = 0 if strict else 1
    never = g.lifetime + 1
    arrival = [never] * n
    via: list[int | None] = [None] * n
    arrival[source] = start - 1 + slack
    for t, group in g.label_groups:
        if t < start:
            continue
        if len(group) == 1:
            i, u, v = group[0]
            if removed[i]:
                continue
            au, av = arrival[u], arrival[v]
            if au < t + slack and t < av:
                arrival[v] = t
                via[v] = i
            elif av < t + slack and t < au:
                arrival[u] = t
                via[u] = i
            continue
        if strict:
            before = [(i, u, v, arrival[u], arrival[v]) for i, u, v in group if not removed[i]]
            for i, u, v, au, av in before:
                if au < t and t < arrival[v]:
                    arrival[v] = t
                    via[v] = i
                if av < t and t < arrival[u]:
                    arrival[u] = t
                    via[u] = i
        else:
            alive = [edge for edge in group if not removed[edge[0]]]
            changed = True
            while changed:
                changed = False
                for i, u, v in alive:
                    for a, b in ((u, v), (v, u)):
                        if arrival[a] <= t and t < arrival[b]:
                            arrival[b] = t
                            via[b] = i
                            changed = True
    out = [None if a == never else a for a in arrival]
    out[source] = start
    return out, via


def earliest_arrival(
    g: TemporalGraph,
    source: int,
    start: int = 0,
    s: Strictness = STRICT,
    kept: Iterable[int] | None = None,
) -> ArrivalProfile:
    """Per-vertex earliest arrival over temporal paths leaving ``source``.

    The first edge of a path must carry a label ``>= start``; later labels
    strictly increase (strict) or never decrease (non-strict).
    """
    if start < 0:
        raise ValueError("start must be non-negative")
    arrival, _ = _arrival_sweep(g, source, start, s, _drop_flags(g, kept))
    return ArrivalProfile(source=source, start=start, arrival=tuple(arrival))


def reach_masks(
    g: TemporalGraph,
    s: Strictness = STRICT,
    kept: Iterable[int] | None = None,
) -> list[int]:
    """For each vertex v, the bitmask of vertices with a temporal path to v.

    All-sources sweep: bit u of entry v means u reaches v.  This is the fast
    path behind :func:`reach_matrix` and :func:`is_tc`.
    """
    return _mask_sweep(g, s, _drop_flags(g, kept))


def reach_matrix(
    g: TemporalGraph,
    s: Strictness = STRICT,
    kept: Iterable[int] | None = None,
) -> list[list[bool]]:
    """n x n boolean matrix; entry (u, v) is True iff u reaches v.  Diagonal is True."""
    masks = reach_masks(g, s, kept)
    n = g.vertex_count
    return [[bool(masks[v] >> u & 1) for v in range(n)] for u in range(n)]


def is_tc(g: TemporalGraph, s: Strictness = STRICT, kept: Iterable[int] | None = None) -> bool:
    """Temporal connectivity: every ordered vertex pair joined by a temporal path."""
    full = (1 << g.vertex_count) - 1
    return all(mask == full for mask in reach_masks(g, s, kept))


def reaches_all(
    g: TemporalGraph,
    source: int,
    s: Strictness = STRICT,
    kept: Iterable[int] | None = None,
) -> bool:
    arrival, _ = _arrival_sweep(g, source, 0, s, _drop_flags(g, kept))
    return None not in arrival


def foremost_out_tree(
    g: TemporalGraph,
    root: int,
    s: Strictness = STRICT,
    kept: Iterable[int] | None = None,
) -> TemporalOutTree:
    """The tree of first-reach edges from ``root``; raises if the root does not span.

    Restricting the graph to the returned ``n - 1`` edges preserves the
    root's full reachability.
    """
    arrival, via = _arrival_sweep(g, root, 0, s, _drop_flags(g, kept))
    missing = [v for v, a in enumerate(arrival) if a is None]
    if missing:
        raise RootNotSpanning(f"root {root} cannot reach {missing}")
    return TemporalOutTree(
        root=root,
        tree_edges=frozenset(via[v] for v in range(g.vertex_count) if v != root),
    )


def verify_out_tree(g: TemporalGraph, candidate_edges: Iterable[int], root: int) -> bool:
    """Check a candidate edge set is a temporal out-tree rooted at ``root``.

    Requires exactly ``n - 1`` edges whose underlying edges form a spanning
    tree with strictly increasing labels along every root-to-leaf path (the
    happy-setting convention).  Raises ``ValueError`` for a root outside
    ``[0, n)`` or an edge index outside ``[0, m)``.
    """
    idxs = set(candidate_edges)
    n, m = g.vertex_count, g.m
    if not 0 <= root < n:
        raise ValueError(f"source {root} out of range")
    if idxs:
        for i in (min(idxs), max(idxs)):
            if not 0 <= i < m:
                raise ValueError(f"edge index {i} out of range [0, {m})")
    if len(idxs) != n - 1:
        return False
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
    us, vs, ts = g.us, g.vs, g.ts
    for i in idxs:
        adj[us[i]].append((vs[i], ts[i]))
        adj[vs[i]].append((us[i], ts[i]))
    seen = {root}
    stack = [(root, 0)]
    while stack:
        v, in_label = stack.pop()
        for w, t in adj[v]:
            if w in seen or t <= in_label:
                continue
            seen.add(w)
            stack.append((w, t))
    return len(seen) == n
