"""Temporal reachability, connectivity testing, and foremost out-trees.

Every answer comes from one chronological sweep, the one-pass earliest-arrival
scan of Wu et al., "Path Problems in Temporal Graphs" (VLDB 2014), over one
table: :attr:`TemporalGraph.label_groups`, the edges grouped by equal label in
ascending label order.  Under strict semantics a group sees only the values
from before it (equal labels cannot chain); under non-strict semantics it is
iterated to a fixpoint.  A label of one edge needs neither: both reduce to one
relaxation judged on the values before it, read straight from the label's flat
table entry.

Every mode reads one kind of per-edge drop table: entry i is 0 when edge i
is kept, -1 when it is dropped, and otherwise the lane bits that drop it.
The bitmask and arrival modes skip every edge whose entry is not 0; only the
lane mode reads lane bits.

* the all-sources bitmask mode carries, per vertex, the set of vertices that
  reach it (:func:`reach_masks`, :func:`is_tc`, and the solver's feasibility
  oracle), from every vertex reaching itself or from given start masks,
  which may hold only some source bits (the two-source requirement).
  Masks only grow, and none gets a bit outside the union of the start
  masks, so once every mask holds that union no later group can change
  one.  :func:`reach_masks` and :func:`is_tc` sweep in chunks of about n
  edges and stop after the chunk that fills the last mask; on a connected
  graph of many more edges than vertices that comes long before the last
  group.  The oracle's queries sweep every group: their masks fill, if at
  all, in the last few groups (a stop after each group would skip 1.5% of
  the groups that the default solves of the benchmark corpus read), so a
  test between groups there costs more than the stop saves;
* the lane mode (:func:`_lane_sweep`) runs any number of bitmask sweeps,
  each over its own edge subset, in one pass: lane j of a vertex mask is its
  bits ``[j*n, (j+1)*n)``, and an edge's entry in the drop table holds the
  lane segments that drop it (-1 drops it in every lane).  The solver's
  oracle keeps a probe at 64 lanes and gives each lane a set of one or two
  edges to drop on top of a common table.  This is the
  bit-parallel multi-source traversal of Then et al., "The More the Merrier:
  Efficient Multi-Source Graph Traversal" (VLDB 2014), applied to edge
  subsets instead of sources;
* the single-source arrival mode carries, per vertex, a reached flag, the
  earliest arrival label and the edge that set it (:func:`earliest_arrival`,
  :func:`reaches_all`, :func:`foremost_out_tree`, :func:`verify_out_tree`).
  An edge relaxes iff exactly one endpoint is reached; in a strict group that
  endpoint must also be reached before the label, so live values serve and no
  group is copied.  Groups come in ascending label order, so a vertex's
  arrival and edge are set once, when it is first reached, and never change
  after.  The sweep starts at the first label at or after ``start`` and stops
  as soon as every vertex is reached.

The public functions take an optional ``kept`` edge subset, and
:func:`verify_out_tree` its ``candidate_edges``; each turns that subset into
a drop table once per call.  ``None`` is the unreachable sentinel throughout.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from operator import itemgetter
from typing import Iterable, Sequence

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


def _drop_flags(g: TemporalGraph, kept: Iterable[int] | None) -> Sequence[int]:
    """The drop table of ``kept``: -1 drops every edge outside it.  Without
    ``kept`` every entry is 0; that table only reaches the plain sweeps, so
    it is a bytearray, the cheapest to build."""
    if kept is None:
        return bytearray(g.m)
    m = g.m
    removed = [-1] * m
    for i in kept:
        if not 0 <= i < m:
            raise ValueError(f"edge index {i} out of range [0, {m})")
        removed[i] = 0
    return removed


def _mask_sweep(groups: Iterable[tuple], s: Strictness, removed: Sequence[int], masks: list[int]) -> None:
    """All-sources mode: sweeps ``groups``, a run of consecutive label
    groups, over ``masks`` in place.  Bit u of entry v is set iff u reaches
    v, given the start masks and the groups swept so far.
    """
    strict = s is STRICT
    for group in groups:
        if len(group) == 4:
            _, i, u, v = group
            if not removed[i]:
                masks[u] = masks[v] = masks[u] | masks[v]
        elif strict:
            # Every read happens before the first write: the group sees only
            # pre-group masks.
            before = [(u, v, masks[u], masks[v]) for i, u, v in group[1] if not removed[i]]
            for u, v, mu, mv in before:
                masks[v] |= mu
                masks[u] |= mv
        else:
            alive = [(u, v) for i, u, v in group[1] if not removed[i]]
            changed = True
            while changed:
                changed = False
                for u, v in alive:
                    x = masks[u] | masks[v]
                    if x != masks[u] or x != masks[v]:
                        masks[u] = masks[v] = x
                        changed = True


def _lane_sweep(g: TemporalGraph, s: Strictness, drop: list[int], masks: list[int]) -> list[int]:
    """Lane mode: :func:`_mask_sweep` in every lane at once.

    Lane j holds bits ``[j*n, (j+1)*n)`` of each mask, and ``masks`` the
    start masks of every lane.  ``drop[i]`` is 0 when edge i is kept in every
    lane, -1 when it is dropped in every lane, and otherwise the lane
    segments that drop it: an edge passes only the lanes outside ``drop[i]``.
    """
    masks = masks.copy()
    strict = s is STRICT
    for group in g.label_groups:
        if len(group) == 4:
            _, i, u, v = group
            d = drop[i]
            if not d:
                masks[u] = masks[v] = masks[u] | masks[v]
            elif d != -1:
                # (x | d) ^ d is x outside the lanes that drop the edge.
                mu, mv = masks[u], masks[v]
                masks[u] = mu | ((mv | d) ^ d)
                masks[v] = mv | ((mu | d) ^ d)
        elif strict:
            before = [(u, v, masks[u], masks[v], drop[i]) for i, u, v in group[1] if drop[i] != -1]
            for u, v, mu, mv, d in before:
                if d:
                    masks[v] |= (mu | d) ^ d
                    masks[u] |= (mv | d) ^ d
                else:
                    masks[v] |= mu
                    masks[u] |= mv
        else:
            alive = [(u, v, drop[i]) for i, u, v in group[1] if drop[i] != -1]
            changed = True
            while changed:
                changed = False
                for u, v, d in alive:
                    mu, mv = masks[u], masks[v]
                    if not d:
                        x = mu | mv
                        if x != mu or x != mv:
                            masks[u] = masks[v] = x
                            changed = True
                        continue
                    x, y = mu | ((mv | d) ^ d), mv | ((mu | d) ^ d)
                    if x != mu or y != mv:
                        masks[u], masks[v] = x, y
                        changed = True
    return masks


def _arrival_sweep(
    g: TemporalGraph, source: int, start: int, s: Strictness, removed: Sequence[int]
) -> tuple[list[int | None], list[int | None]]:
    """Single-source mode: (arrival, via-edge-index) per vertex.

    One rule: a kept edge relaxes iff exactly one endpoint is reached; the
    other is then reached at the edge's label, through this edge.  Groups
    come in ascending label order, from the first at or after ``start``
    (one bisection), so each arrival and via edge is set once and is final.

    * A one-edge label needs no more: no other edge carries its label, so
      under either semantics the reached endpoint got there before it.
    * A strict group also needs the reached endpoint's arrival below the
      label.  One pass in index order over live values gives what pre-group
      values give, ``via`` included: a vertex first reached in the group
      holds its label, which fails ``< t`` as the vertex's unreached
      pre-group state does; any other vertex keeps its arrival.
    * A non-strict group repeats its pass until nothing changes.

    ``left`` counts the unreached vertices; it is tested where it falls, and
    after each multi-edge group.  At 0 no later group can change the answer,
    so the sweep stops there.  A sweep that leaves a vertex unreached reads
    every group from ``start`` on.
    """
    n = g.vertex_count
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    strict = s is STRICT
    arrival: list[int | None] = [None] * n
    via: list[int | None] = [None] * n
    reached = bytearray(n)
    # One step early, so that a strict group at ``start`` leaves the source.
    arrival[source] = start - 1
    reached[source] = 1
    left = n - 1
    groups = g.label_groups
    for group in islice(groups, bisect_left(groups, start, key=itemgetter(0)), None):
        if len(group) == 4:
            t, i, u, v = group
            if not removed[i] and reached[u] != reached[v]:
                b = u if reached[v] else v
                arrival[b], via[b], reached[b] = t, i, 1
                left -= 1
                if not left:
                    break
            continue
        t, rows = group
        if strict:
            for i, u, v in rows:
                if not removed[i] and reached[u] != reached[v]:
                    a, b = (u, v) if reached[u] else (v, u)
                    if arrival[a] < t:
                        arrival[b], via[b], reached[b] = t, i, 1
                        left -= 1
        else:
            alive = [row for row in rows if not removed[row[0]]]
            changed = True
            while changed:
                changed = False
                for i, u, v in alive:
                    if reached[u] != reached[v]:
                        b = u if reached[v] else v
                        arrival[b], via[b], reached[b] = t, i, 1
                        left -= 1
                        changed = True
        if not left:
            break
    arrival[source] = start
    return arrival, via


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

    All-sources sweep from every vertex reaching itself: bit u of entry v
    means u reaches v.  This is the fast path behind :func:`is_tc`.

    The groups go in chunks of about n edges, and the sweep stops after the
    first chunk that leaves every mask full: masks only grow, so no later
    group can change one.  A mask that stays short of full, as with a vertex
    nobody reaches, makes the sweep read every group.
    """
    n = g.vertex_count
    removed = _drop_flags(g, kept)
    masks = [1 << v for v in range(n)]
    full = (1 << n) - 1
    groups = g.label_groups
    step = max(1, n * len(groups) // (g.m or 1))
    # ``w`` is the first vertex whose mask is short of full.  A full mask
    # stays full, so ``w`` only moves forward: one test per chunk while it
    # is short, n tests over the whole sweep.
    w = 0
    for c in range(0, len(groups), step):
        _mask_sweep(groups[c : c + step], s, removed, masks)
        while masks[w] == full:
            w += 1
            if w == n:
                return masks
    return masks


def is_tc(g: TemporalGraph, s: Strictness = STRICT, kept: Iterable[int] | None = None) -> bool:
    """Temporal connectivity: every ordered vertex pair joined by a temporal path.

    One :func:`reach_masks` sweep, which stops as soon as every mask is full.
    """
    full = (1 << g.vertex_count) - 1
    return reach_masks(g, s, kept).count(full) == g.vertex_count


def reaches_all(
    g: TemporalGraph,
    source: int,
    s: Strictness = STRICT,
    kept: Iterable[int] | None = None,
) -> bool:
    """Whether ``source`` has a temporal path to every vertex.

    One single-source sweep from label 0, which stops at the group where the
    last vertex is first reached.
    """
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

    Requires exactly ``n - 1`` distinct edges over which the strict arrival
    sweep from ``root`` reaches every vertex.  Such edges form a spanning
    tree, and a strict path cannot turn back along an edge, so the one tree
    path to each vertex has strictly increasing labels (the happy-setting
    convention).  Raises ``ValueError`` for a root outside ``[0, n)`` or an
    edge index outside ``[0, m)``.
    """
    idxs = set(candidate_edges)
    # Sorted, so that an error names the smallest index out of range.
    arrival, _ = _arrival_sweep(g, root, 0, STRICT, _drop_flags(g, sorted(idxs)))
    return len(idxs) == g.vertex_count - 1 and None not in arrival
