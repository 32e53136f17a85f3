"""Seeded samplers for the benchmark's random instances.

Every function takes a ``random.Random`` and nothing global, so one seed
gives one instance, byte for byte.  They do not use ``tempspan.generate``:
its cover sampler fails at n >= 10, and its code is due to change.
"""

from __future__ import annotations

import random
from typing import Callable

from reference import Edge, is_tc, removable_count, requirement_holds


def _connected(n: int, pairs: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _label(pairs: list[tuple[int, int]], rng: random.Random) -> list[Edge]:
    labels = list(range(1, len(pairs) + 1))
    rng.shuffle(labels)
    return [(a, b, t) for (a, b), t in zip(pairs, labels)]


def happy_tc(rng: random.Random, n: int, edge_prob: float, strict: bool) -> list[Edge]:
    """A happy graph, TC in the given mode, on a random connected underlying graph."""
    while True:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < edge_prob]
        if not _connected(n, pairs):
            continue
        edges = _label(pairs, rng)
        if is_tc(n, edges, strict):
            return edges


def in_band(
    rng: random.Random,
    draw: Callable[[random.Random], list[Edge]],
    n: int,
    strict: bool,
    removable: tuple[int, int],
    sources: tuple[int, int] | None = None,
) -> list[Edge]:
    """Graphs from ``draw(rng)``, redrawn until the requirement holds and the
    removable-edge count lies in ``removable``.

    The requirement is all-pairs connectivity, or with ``sources`` that both
    reach every vertex.
    """
    lo, hi = removable
    while True:
        edges = draw(rng)
        if requirement_holds(n, edges, strict, sources) and lo <= removable_count(n, edges, strict, sources) <= hi:
            return edges


def covered_happy_tc(rng: random.Random, n: int, cover: int, cover_edge_prob: float = 0.5) -> list[Edge]:
    """A strictly TC happy graph whose vertices ``0..cover-1`` cover every edge."""
    xs = list(range(cover))
    while True:
        pairs = [(a, b) for a in xs for b in xs if a < b and rng.random() < cover_edge_prob]
        for v in range(cover, n):
            for x in sorted(rng.sample(xs, rng.randint(1, cover))):
                pairs.append((x, v))
        if not _connected(n, pairs):
            continue
        edges = _label(pairs, rng)
        if is_tc(n, edges, True):
            return edges


def multilabel(rng: random.Random, n: int, m: int, labels: int | None) -> list[Edge]:
    """``m`` random time edges; vertex pairs may repeat with other labels.

    ``labels=None`` gives every edge its own label (a permutation of
    ``1..m``); otherwise labels are drawn from ``1..labels``.
    """
    seen: set[tuple[int, int, int]] = set()
    edges: list[Edge] = []
    distinct = list(range(1, m + 1))
    if labels is None:
        rng.shuffle(distinct)
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        v += v >= u
        t = distinct[len(edges)] if labels is None else rng.randint(1, labels)
        key = (min(u, v), max(u, v), t)
        if key not in seen:
            seen.add(key)
            edges.append((u, v, t))
    return edges
