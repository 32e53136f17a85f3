"""Reference reachability, written apart from ``tempspan``.

The benchmark uses it to filter sampled instances and to check the
program's sweep results, so a defect in ``tempspan.reach`` cannot hide
itself.  Graphs are plain ``(u, v, t)`` edge lists on vertices ``0..n-1``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Edge = tuple[int, int, int]


def label_groups(edges: Sequence[Edge], kept: Iterable[int] | None = None) -> list[list[Edge]]:
    """Edges grouped by equal label, groups in ascending label order."""
    index = range(len(edges)) if kept is None else kept
    order = sorted(index, key=lambda i: (edges[i][2], i))
    groups: list[list[Edge]] = []
    prev = None
    for i in order:
        e = edges[i]
        if e[2] != prev:
            groups.append([])
            prev = e[2]
        groups[-1].append(e)
    return groups


def reach_masks(n: int, edges: Sequence[Edge], strict: bool, kept: Iterable[int] | None = None) -> list[int]:
    """Bit u of entry v is set iff u has a temporal path to v."""
    masks = [1 << v for v in range(n)]
    for group in label_groups(edges, kept):
        if strict:
            before = {}
            for u, v, _ in group:
                before.setdefault(u, masks[u])
                before.setdefault(v, masks[v])
            for u, v, _ in group:
                masks[v] |= before[u]
                masks[u] |= before[v]
        else:
            changed = True
            while changed:
                changed = False
                for u, v, _ in group:
                    x = masks[u] | masks[v]
                    if x != masks[u] or x != masks[v]:
                        masks[u] = masks[v] = x
                        changed = True
    return masks


def is_tc(n: int, edges: Sequence[Edge], strict: bool, kept: Iterable[int] | None = None) -> bool:
    full = (1 << n) - 1
    return all(x == full for x in reach_masks(n, edges, strict, kept))


def earliest_arrival(
    n: int, edges: Sequence[Edge], source: int, strict: bool, kept: Iterable[int] | None = None
) -> list[int | None]:
    """Earliest arrival label per vertex from ``source`` (start 0); ``None`` if unreached."""
    arrival: list[int | None] = [None] * n
    arrival[source] = 0
    for group in label_groups(edges, kept):
        t = group[0][2]
        if strict:
            ready = {x for u, v, _ in group for x in (u, v) if arrival[x] is not None and arrival[x] < t}
            for u, v, _ in group:
                if u in ready and (arrival[v] is None or arrival[v] > t):
                    arrival[v] = t
                if v in ready and (arrival[u] is None or arrival[u] > t):
                    arrival[u] = t
        else:
            changed = True
            while changed:
                changed = False
                for u, v, _ in group:
                    for a, b in ((u, v), (v, u)):
                        if arrival[a] is not None and arrival[a] <= t and (arrival[b] is None or arrival[b] > t):
                            arrival[b] = t
                            changed = True
    return arrival


def requirement_holds(
    n: int,
    edges: Sequence[Edge],
    strict: bool,
    sources: tuple[int, int] | None,
    kept: Iterable[int] | None = None,
) -> bool:
    """All-pairs connectivity, or both ``sources`` reaching every vertex."""
    if sources is None:
        return is_tc(n, edges, strict, kept)
    kept = None if kept is None else list(kept)
    return all(None not in earliest_arrival(n, edges, s, strict, kept) for s in sources)


def removable_count(n: int, edges: Sequence[Edge], strict: bool, sources: tuple[int, int] | None = None) -> int:
    """Edges whose single removal keeps the requirement (the non-forced edges)."""
    m = len(edges)
    return sum(
        requirement_holds(n, edges, strict, sources, [j for j in range(m) if j != i]) for i in range(m)
    )


def classify(n: int, edges: Sequence[Edge]) -> tuple[bool, bool]:
    """(simple, proper): one label per vertex pair; no two edges at a vertex share a label."""
    pairs = {(min(u, v), max(u, v)) for u, v, _ in edges}
    at_vertex: set[tuple[int, int]] = set()
    proper = True
    for u, v, t in edges:
        if (u, t) in at_vertex or (v, t) in at_vertex:
            proper = False
            break
        at_vertex.add((u, t))
        at_vertex.add((v, t))
    return len(pairs) == len(edges), proper


def edge_arrays(edges: Sequence[Edge]):
    """Endpoint and label columns as numpy arrays, for :func:`is_earliest_arrival`."""
    import numpy as np

    cols = np.array(edges, dtype=np.int64).reshape(-1, 3)
    return cols[:, 0], cols[:, 1], cols[:, 2]


def is_earliest_arrival(n: int, arrays, source: int, arrival: Sequence[int | None]) -> bool:
    """Whether ``arrival`` is the strict earliest-arrival vector from ``source`` (start 0).

    Checked in one pass over the edges instead of by a second sweep.  The
    vector ``a`` (``None`` read as infinity) is the earliest arrival exactly
    when ``a[source] == 0``; no edge ``(u, v, t)`` with ``a[u] < t`` has
    ``a[v] > t`` (nothing arrives earlier); and every other finite ``a[v]``
    is the label of some edge ``(u, v, t)`` with ``a[u] < t`` (every arrival
    is reached).  The last two together force a path for each finite value
    and rule out any shorter one.
    """
    import numpy as np

    if len(arrival) != n:
        return False
    inf = np.iinfo(np.int64).max
    a = np.array([inf if x is None else x for x in arrival], dtype=np.int64)
    if a[source] != 0:
        return False
    us, vs, ts = arrays
    reached = np.zeros(n, dtype=bool)
    for x, y in ((us, vs), (vs, us)):
        live = a[x] < ts
        if np.any(a[y][live] > ts[live]):
            return False
        reached[y[live & (a[y] == ts)]] = True
    reached[source] = True
    return bool(np.all(reached[a < inf]))
