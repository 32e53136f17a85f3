"""Seeded random generation of happy, temporally connected graphs.

Both samplers draw a random connected underlying graph, place a random
permutation of ``1..m`` on its edges, and retry until the result is
temporally connected.  Everything is deterministic in the seed; running out
of retries is an explicit failure, never a silent fallback.
"""

from __future__ import annotations

import random

from .reach import STRICT, is_tc
from .tempgraph import TemporalGraph, TimeEdge, build


class GenerationFailed(Exception):
    pass


def _connected(n: int, pairs: list[tuple[int, int]]) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _labeled(n: int, pairs: list[tuple[int, int]], rng: random.Random) -> TemporalGraph:
    labels = list(range(1, len(pairs) + 1))
    rng.shuffle(labels)
    return build(n, [TimeEdge(a, b, t) for (a, b), t in zip(pairs, labels)])


def random_happy_tc(
    n: int,
    seed: int,
    edge_prob: float = 0.5,
    max_tries: int = 400,
) -> TemporalGraph:
    """A happy TC graph on a random connected underlying graph."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= edge_prob <= 1:
        raise ValueError(f"edge_prob must be in [0, 1], got {edge_prob}")
    if max_tries < 0:
        raise ValueError(f"max_tries must be non-negative, got {max_tries}")
    rng = random.Random(seed)
    for _ in range(max_tries):
        pairs = [
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < edge_prob
        ]
        if not _connected(n, pairs):
            continue
        g = _labeled(n, pairs, rng)
        if is_tc(g, STRICT):
            return g
    raise GenerationFailed(f"no TC graph found in {max_tries} tries (seed {seed})")


def random_happy_tc_with_cover(
    n: int,
    cover_size: int,
    seed: int,
    max_tries: int = 400,
) -> TemporalGraph:
    """A happy TC graph whose underlying graph has vertex cover number at most
    ``cover_size``: vertices ``0..cover_size-1`` cover every edge by construction.
    Cover pairs are joined with probability 1/2; every other vertex joins 1 to
    ``cover_size`` cover vertices."""
    if not (1 <= cover_size < n):
        raise ValueError("need 1 <= cover_size < n")
    if max_tries < 0:
        raise ValueError(f"max_tries must be non-negative, got {max_tries}")
    rng = random.Random(seed)
    cover = list(range(cover_size))
    for _ in range(max_tries):
        pairs = [
            (a, b)
            for a in cover
            for b in cover
            if a < b and rng.random() < 0.5
        ]
        for v in range(cover_size, n):
            for x in sorted(rng.sample(cover, rng.randint(1, cover_size))):
                pairs.append((x, v))
        if not _connected(n, pairs):
            continue
        g = _labeled(n, pairs, rng)
        if is_tc(g, STRICT):
            return g
    raise GenerationFailed(f"no TC graph found in {max_tries} tries (seed {seed})")
