"""Minimum temporal spanner computation.

Contents:

* forced-edge preprocessing (edges whose single removal breaks the
  requirement, hence members of every spanner),
* exact desk-scale solvers: full subset enumeration (the verification
  oracle, :func:`min_spanner_brute`) and, behind :func:`min_spanner_exact`,
  two engines: branch-and-bound over removable edges and one time-expanded
  multicommodity-flow MILP,
* the two-source requirement variant,
* the gossip lower bound (:func:`_gossip_bound`; Baker and Shostak 1972,
  Bumby 1981): every temporally connected graph on n >= 4 vertices keeps at
  least 2n - 4 time edges, in the strict setting and in the non-strict one
  on proper graphs.  It is not used for the two-source requirement or for
  non-strict paths on graphs that are not proper, where it fails.  Branch
  and bound in optimise mode stops as soon as its incumbent meets it,
* bounds on both sides before the flow MILP and the XP search, in one
  driver (:func:`_settle_then_search`): a greedy incumbent and a raised
  lower bound settle the answer with no search where they can,
* an XP algorithm for happy graphs parameterized by the vertex cover number
  of the underlying graph: per cover root, enumerate every temporal out-tree
  directly in label order, combine one per root, select at most one extra
  edge per non-cover vertex, verify.  The paper guesses each tree as a
  template over the cover with placeholders and leaf attachments; every
  instantiation is a spanning temporal out-tree and every such tree is one,
  so both describe the same candidate set,
* the tree-plus-extras decomposition check for spanners.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from . import reach
from .reach import NONSTRICT, STRICT, Strictness, TemporalOutTree
from .tempgraph import Spanner, TemporalGraph, classify, underlying_graph


class RequirementNotSatisfied(Exception):
    pass


class InstanceTooLarge(Exception):
    pass


class NotHappy(Exception):
    pass


class NotTemporallyConnected(Exception):
    pass


class SolverFailed(RuntimeError):
    """The flow MILP engine could not produce an answer."""


# ---------------------------------------------------------------------------
# Connectivity requirements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllPairs:
    """Every ordered vertex pair must stay connected."""


@dataclass(frozen=True)
class TwoSource:
    """Both sources must keep reaching every vertex; nothing else is required."""

    s1: int
    s2: int


ALL_PAIRS = AllPairs()

# The engines that ``min_spanner_exact`` accepts.
ENGINES = ("auto", "bnb", "flow")

# The default removable-edge guard of ``min_spanner_exact``; ``auto`` runs
# branch and bound up to it and the flow MILP beyond.
DEFAULT_CAP = 40


def requirement_holds(
    g: TemporalGraph,
    s: Strictness,
    requirement: AllPairs | TwoSource = ALL_PAIRS,
    kept: Iterable[int] | None = None,
) -> bool:
    return _SubsetOracle(g, s, requirement).feasible(reach._drop_flags(g, kept))


class _SubsetOracle:
    """The requirement check on edge subsets given as drop flags.

    ``removed`` arguments are bytearrays of length m; flag 1 drops the edge.
    Both requirements run the all-sources mask sweep, started from the source
    bits only: ``masks[v] = (1 << v) & need``, where ``need`` holds the two
    sources or every vertex.  The requirement holds iff every final mask
    equals ``need``.

    Checkpoints are lists ``cps`` of mask states, ``cps[j]`` the state before
    group j of ``label_groups`` (``cps[0]`` the start masks, ``cps[-1]`` the
    final ones).  A query whose drop flags match those of ``cps`` in every
    group before ``lo`` resumes from ``cps[lo]``.

    The oracle is the one place that reads the requirement: it checks the
    two sources' range and keeps ``sources`` sorted and without repeats.
    """

    def __init__(self, g: TemporalGraph, s: Strictness, requirement: AllPairs | TwoSource):
        self.g = g
        self.s = s
        if isinstance(requirement, TwoSource):
            self.sources: Sequence[int] = sorted({requirement.s1, requirement.s2})
            for x in self.sources:
                if not 0 <= x < g.vertex_count:
                    raise ValueError(f"source {x} out of range")
        else:
            self.sources = range(g.vertex_count)
        need = 0
        for x in self.sources:
            need |= 1 << x
        self.need = need
        self.start = [(1 << v) & need for v in range(g.vertex_count)]

    @cached_property
    def root(self) -> list[list[int]]:
        """The checkpoints of the empty removal set, recorded once; raises
        :class:`RequirementNotSatisfied` if the whole graph fails."""
        cps = [self.start]
        if not self.feasible(bytearray(self.g.m), record=cps):
            raise RequirementNotSatisfied("graph does not satisfy the requirement")
        return cps

    @cached_property
    def group_of(self) -> list[int]:
        """Per edge index, the index of its group in ``label_groups``."""
        out = [0] * self.g.m
        for j, (_, group) in enumerate(self.g.label_groups):
            for i, _, _ in group:
                out[i] = j
        return out

    def feasible(
        self,
        removed: bytearray,
        cps: list[list[int]] | None = None,
        lo: int = 0,
        record: list[list[int]] | None = None,
    ) -> bool:
        """Whether the requirement holds, sweeping from ``cps[lo]`` if given.

        ``record`` receives the mask state after each group swept, so that
        ``cps[:lo + 1] + record`` are the checkpoints of ``removed``.
        """
        start = self.start if cps is None else cps[lo]
        masks = reach._mask_sweep(self.g, self.s, removed, start, lo, record)
        # No mask holds a bit outside ``need``.
        return masks.count(self.need) == len(masks)

    def failing_sources(self, removed: bytearray) -> list[int]:
        """Sources that cannot reach every vertex under the requirement."""
        good = self.need
        for mask in reach._mask_sweep(self.g, self.s, removed, self.start):
            good &= mask
        return [x for x in self.sources if not (good >> x) & 1]


def forced_edges(
    g: TemporalGraph,
    s: Strictness = STRICT,
    requirement: AllPairs | TwoSource = ALL_PAIRS,
) -> frozenset[int]:
    """Edges whose individual removal violates the requirement.

    Every spanner satisfying the requirement contains all of them: a spanner
    avoiding edge e is a subset of the graph minus e, and reachability is
    monotone under edge addition.  One recorded sweep of the whole graph
    checks the requirement (raising :class:`RequirementNotSatisfied`) and
    gives the checkpoints; each edge's query then resumes at its own group.
    """
    oracle = _SubsetOracle(g, s, requirement)
    cps = oracle.root
    removed = bytearray(g.m)
    forced = []
    for j, (_, group) in enumerate(g.label_groups):
        for i, _, _ in group:
            removed[i] = 1
            if not oracle.feasible(removed, cps, j):
                forced.append(i)
            removed[i] = 0
    return frozenset(forced)


# ---------------------------------------------------------------------------
# Exact oracle
# ---------------------------------------------------------------------------


def _gossip_bound(
    g: TemporalGraph, s: Strictness, requirement: AllPairs | TwoSource
) -> int:
    """A lower bound on the size of every spanner: 2n - 4, or 0 if unknown.

    A temporally connected graph is a complete gossip schedule when its time
    edges are read as calls in label order: with non-strict paths on a
    proper graph one label's edges are disjoint calls in any order, and with
    strict paths a call sequence in label order spreads at least what the
    graph does.  A complete schedule on n >= 4 people has at least 2n - 4
    calls (Baker and Shostak, "Gossips and telephones", Discrete Math.
    1972; Bumby, "A problem with telephones", SIAM J. Algebraic Discrete
    Methods 1981).  The bound is 0 for ``TwoSource``, for n < 4, and for
    non-strict paths on graphs that are not proper, where one label can
    carry information along a whole path: the star with three edges at one
    label is temporally connected with 3 < 2n - 4 edges.
    """
    n = g.vertex_count
    if n < 4 or not isinstance(requirement, AllPairs):
        return 0
    if s is STRICT or classify(g).proper:
        return 2 * n - 4
    return 0


@dataclass(frozen=True)
class SolveResult:
    """The answer of one solve.

    * ``spanner``: the kept edges; they always meet the requirement.
    * ``size``: the number of kept edges.
    * ``optimal``: whether the solve proved that no spanner is smaller,
      with or without a budget.
    * ``within_budget``: whether ``size`` is at most the budget, or None
      when no budget was given.  False is a proof that no spanner fits it.
    * ``method``: the solver or engine that ran, such as ``exact-bnb``.
    """

    spanner: Spanner
    size: int
    optimal: bool
    within_budget: bool | None
    method: str


def _result(
    g: TemporalGraph, kept: frozenset[int], bound: int, budget: int | None, method: str
) -> SolveResult:
    """The result for the kept edge set and a proven lower ``bound`` on every
    spanner; ``size``, ``optimal`` and ``within_budget`` follow from them."""
    size = len(kept)
    within = None if budget is None else size <= budget
    return SolveResult(Spanner(g, kept), size, size <= bound, within, method)


def _bnb_max_removal(
    oracle: _SubsetOracle,
    removable: list[int],
    target: int | None,
    blocks: tuple[dict[int, int], list[int]] | None = None,
    stop_at: int | None = None,
) -> list[int]:
    """Depth-first maximization of the removed-edge count.

    Returns the best removal set found.  With ``target`` set, the search
    stops as soon as a feasible removal of that size is found; an exhausted
    search then proves no such removal exists.  ``stop_at`` is an upper
    bound on every feasible removal, such as the edge count minus the
    gossip bound (:func:`_gossip_bound`): the search returns once its
    incumbent reaches it, since that incumbent is optimal.  Unlike
    ``target`` it does not prune, so the removal returned is the first
    optimum the full search would find, which it would keep, as it replaces
    its incumbent only by a strictly larger one.  ``blocks`` supplies the
    decomposition bound: per-block caps on how many edges any feasible
    removal can take from each block.  The bound is kept as a running sum,
    updated when one block's counts change.

    Decisions follow ``removable`` in order.  A node first asks whether
    removing every remaining edge is feasible; if not, it branches on the
    next edge e, removed first, then kept.  Each node holds the checkpoints of
    its removal set (see :class:`_SubsetOracle`), so a query re-sweeps only
    from the earliest group it changes: the "remove e" query from e's group,
    recording the suffix that makes up the remove-e child's checkpoints, and
    the "remove the rest" query from the earliest group among the remaining
    edges.  The keep-e child shares its parent's checkpoints.  No set is asked
    twice: the remove-e child's "remove the rest" set is its parent's, known
    infeasible, and with one edge left "remove e" is that same set.
    """
    k = len(removable)
    if blocks is None:
        # One block capped at its size: the bound is the undecided count.
        blocks = (dict.fromkeys(removable, 0), [k])
    block_of, caps = blocks
    rem = [0] * len(caps)
    und = [0] * len(caps)
    for i in removable:
        und[block_of[i]] += 1
    headroom = sum(min(cap, u) for cap, u in zip(caps, und))
    group_of = oracle.group_of
    # rest_lo[pos]: the earliest group among removable[pos:].
    rest_lo = [0] * k
    low = len(oracle.g.label_groups)
    for pos in range(k - 1, -1, -1):
        low = min(low, group_of[removable[pos]])
        rest_lo[pos] = low
    removed = bytearray(oracle.g.m)
    # The search ends once the incumbent removes ``stop`` edges.
    stop = min((x for x in (target, stop_at) if x is not None), default=k + 1)
    best: list[int] = []
    cur: list[int] = []
    hit = False

    def rec(pos: int, cps: list[list[int]], rest_infeasible: bool) -> None:
        nonlocal best, hit, headroom
        if hit:
            return
        if len(cur) > len(best):
            best = cur.copy()
            if len(best) >= stop:
                hit = True
                return
        remaining = k - pos
        needed = (target if target is not None else len(best) + 1) - len(cur)
        if headroom < needed or remaining == 0:
            return
        if not rest_infeasible:
            rest = removable[pos:]
            for i in rest:
                removed[i] = 1
            all_rest_ok = oracle.feasible(removed, cps, rest_lo[pos])
            for i in rest:
                removed[i] = 0
            if all_rest_ok:
                cand = cur + rest
                if len(cand) > len(best):
                    best = cand
                    if len(best) >= stop:
                        hit = True
                return
        e = removable[pos]
        b = block_of[e]
        # Deciding e lowers und[b], and removing it then raises rem[b]; each
        # lowers the block's term min(caps[b] - rem[b], und[b]) by at most one.
        left, u = caps[b] - rem[b], und[b] - 1
        und[b] = u
        by_decide = u < left
        headroom -= by_decide
        if remaining > 1:
            removed[e] = 1
            lo = group_of[e]
            suffix: list[list[int]] = []
            if oracle.feasible(removed, cps, lo, suffix):
                by_remove = left <= u
                rem[b] += 1
                headroom -= by_remove
                cur.append(e)
                rec(pos + 1, cps[: lo + 1] + suffix, True)
                cur.pop()
                rem[b] -= 1
                headroom += by_remove
            removed[e] = 0
        rec(pos + 1, cps, False)
        und[b] = u + 1
        headroom += by_decide

    rec(0, oracle.root, False)
    return best


# The largest conflict block that is not split further.
_MAX_BLOCK = 12


def _conflict_blocks(
    oracle: _SubsetOracle, removable: list[int]
) -> tuple[dict[int, int], list[int]]:
    """Partition removable edges into local blocks and cap each block.

    Blocks are connected components of the shares-an-endpoint graph on the
    removable edges, after iteratively hiding the busiest vertex of any
    component of more than ``_MAX_BLOCK`` edges.  A block's cap is the
    largest feasible removal taken from the block alone (everything else
    kept); any feasible removal meets the block in at most that many edges,
    because subsets of feasible removals stay feasible.
    """
    us, vs = oracle.g.us, oracle.g.vs
    hubs: set[int] = set()

    def components() -> list[list[int]]:
        parent = {i: i for i in removable}

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        anchor: dict[int, int] = {}
        for i in removable:
            for x in (us[i], vs[i]):
                if x in hubs:
                    continue
                if x in anchor:
                    parent[find(i)] = find(anchor[x])
                else:
                    anchor[x] = i
        comps: dict[int, list[int]] = {}
        for i in removable:
            comps.setdefault(find(i), []).append(i)
        return [sorted(c) for c in sorted(comps.values())]

    while True:
        comps = components()
        big = [c for c in comps if len(c) > _MAX_BLOCK]
        if not big:
            break
        degree: dict[int, int] = {}
        for i in big[0]:
            for x in (us[i], vs[i]):
                if x not in hubs:
                    degree[x] = degree.get(x, 0) + 1
        if not degree:
            break  # every endpoint already hidden; accept the oversized block
        hubs.add(max(degree, key=lambda x: (degree[x], -x)))

    block_of: dict[int, int] = {}
    caps: list[int] = []
    for j, comp in enumerate(comps):
        for i in comp:
            block_of[i] = j
        if len(comp) == 1:
            caps.append(1)  # each removable edge is individually droppable
        else:
            caps.append(len(_bnb_max_removal(oracle, comp, None)))
    return block_of, caps


def _greedy_local_min(oracle: _SubsetOracle, order: Iterable[int]) -> frozenset[int]:
    """Drop the edges of ``order`` one by one while the oracle's requirement
    holds; returns the kept edge set, a spanner from which no edge of
    ``order`` can be dropped alone."""
    m = oracle.g.m
    removed = bytearray(m)
    for i in order:
        removed[i] = 1
        if not oracle.feasible(removed):
            removed[i] = 0
    return frozenset(i for i in range(m) if not removed[i])


# Greedy passes over shuffled orders after the index-order pass misses.
_RESTARTS = 16


def _greedy_restarts(oracle: _SubsetOracle, order: list[int], goal: int) -> frozenset[int]:
    """The smallest greedy spanner (:func:`_greedy_local_min`) over ``order``
    and then over up to ``_RESTARTS`` shuffles of it, drawn from one
    ``random.Random(0)`` so that the answer is deterministic.  Stops as soon
    as a spanner keeps at most ``goal`` edges."""
    best = _greedy_local_min(oracle, order)
    if len(best) <= goal:
        return best
    rng = random.Random(0)
    order = list(order)
    for _ in range(_RESTARTS):
        rng.shuffle(order)
        kept = _greedy_local_min(oracle, order)
        if len(kept) < len(best):
            best = kept
            if len(best) <= goal:
                break
    return best


def _block_bound(oracle: _SubsetOracle, removable: list[int]) -> int:
    """m - sum of the :func:`_conflict_blocks` caps: a lower bound on every
    spanner, since a feasible removal takes at most ``caps[b]`` of the
    ``removable`` edges in block b and no other edge."""
    return oracle.g.m - sum(_conflict_blocks(oracle, removable)[1])


def _settle_then_search(
    oracle: _SubsetOracle, order: list[int], lower: int, budget: int | None,
    bound: Callable[[], int], search: Callable[[frozenset[int], int], tuple[frozenset[int], int]],
) -> tuple[frozenset[int], int]:
    """Bound the answer on both sides; search only if it is still open.

    Returns the kept edge set and the lower bound proven on every spanner;
    the set is minimum iff it keeps at most that many edges.  Every spanner
    keeps at least ``lower`` edges.  The goal is ``lower`` when optimising,
    else the budget or ``lower`` if larger.  Each step runs only if the ones
    before leave the answer open:

    1. Greedy: drop the edges of ``order`` in turn while the requirement
       holds.  A spanner within the goal is the answer.
    2. Restarts: the same over up to ``_RESTARTS`` seeded shuffles of
       ``order`` (:func:`_greedy_restarts`), stopping once one meets the goal.
    3. Bound: raise ``lower`` to ``bound()``.  An incumbent at it is optimal;
       a budget below it is answered "no" with the incumbent.
    4. Search: ``search(incumbent, lower)`` returns a spanner no larger than
       the incumbent and the lower bound it proved.
    """
    goal = lower if budget is None else max(lower, budget)
    kept = _greedy_restarts(oracle, order, goal)
    if len(kept) > goal:
        lower = max(lower, bound())
        if len(kept) > lower and (budget is None or budget >= lower):
            kept, proven = search(kept, lower)
            lower = max(lower, proven)
    return kept, lower


def _exact_by_flow(
    oracle: _SubsetOracle, forced: frozenset[int], budget: int
) -> frozenset[int] | None:
    """Decide via one time-expanded multicommodity-flow MILP whether some
    spanner for ``oracle``'s graph and requirement keeps at most ``budget``
    edges; returns a minimum one that does, or None when none does.

    Each vertex v has a start node ``(v, -1)`` and one node per distinct
    label at v, chained by waiting arcs; each time edge gives one traversal
    arc per direction, from the latest node of its tail at which it can be
    taken to its head's node at its label.  Temporal paths from a to b are
    then the paths from ``start(a) = (a, -1)`` to ``end(b)``, b's last node.

    One unit commodity, with continuous flow variables, per ordered
    source/target pair (a, b) that the forced edges alone do not connect.
    Forced edges are constants (below), so a pair they connect is connected
    whatever the edge variables are: its commodity would change neither the
    optimum nor the LP bound, and it gets no columns and no rows.  If no
    pair is left, the forced set is the minimum spanner by construction: it
    is returned if it fits the budget, with no model built and no re-check.

    Commodity (a, b) gets a column only for an arc whose tail is reachable
    from ``start(a)`` and whose head reaches ``end(b)`` over the model's
    arcs, and a conservation row only for a node that does both (and for
    its two supply nodes).  This leaves the projection onto the edge
    variables unchanged, for 0/1 and fractional ones alike: a feasible flow
    of the full model splits into simple ``start(a)`` to ``end(b)`` paths
    plus cycles, dropping the cycles keeps it feasible, and every arc of
    such a path passes both tests.  So the optimum and the LP bound are
    those of the model with every arc.

    Removable edges get a 0/1 variable x_i that caps the flow on their arcs
    (``f <= x_i``).  Forced edges are constants: no variable, and their arcs
    keep only the column bound ``f <= 1``.  The objective counts the x_i and
    the row ``sum x_i <= budget - |forced|`` caps them; a proof that the
    model is infeasible gives None.  A MILP answer is re-checked by the
    oracle.
    """
    import numpy as np
    from bisect import bisect_left, bisect_right
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse.csgraph import breadth_first_order

    g, s = oracle.g, oracle.s
    m = g.m
    n = g.vertex_count
    strict = s is STRICT
    over_forced = reach.reach_masks(g, s, kept=forced)
    pairs = [
        (a, b) for a in oracle.sources for b in range(n) if b != a and not (over_forced[b] >> a) & 1
    ]
    if not pairs:  # the forced edges meet the requirement on their own
        return forced if len(forced) <= budget else None

    events: list[list[int]] = [[] for _ in range(n)]
    for u, v, t in zip(g.us, g.vs, g.ts):
        events[u].append(t)
        events[v].append(t)
    events = [sorted(set(ts)) for ts in events]

    # Node (v, k) has id first[v] + 1 + k; first[v] is the start node (v, -1).
    first = [0] * n
    node_count = 0
    for v in range(n):
        first[v] = node_count
        node_count += 1 + len(events[v])
    end = [first[v] + len(events[v]) for v in range(n)]

    free = [i for i in range(m) if i not in forced]
    x_col = [-1] * m
    for col, i in enumerate(free):
        x_col[i] = col
    tails: list[int] = []
    heads: list[int] = []
    caps: list[int] = []  # x column capping the arc, or -1 for none
    for v in range(n):
        tails.extend(range(first[v], end[v]))
        heads.extend(range(first[v] + 1, end[v] + 1))
        caps.extend([-1] * len(events[v]))
    for i, (u, v, t) in enumerate(zip(g.us, g.vs, g.ts)):
        for a, b in ((u, v), (v, u)):
            if strict:
                k = bisect_left(events[a], t) - 1
            else:
                k = bisect_right(events[a], t) - 1
            tails.append(first[a] + 1 + k)
            heads.append(first[b] + 1 + bisect_left(events[b], t))
            caps.append(x_col[i])
    tail = np.array(tails, dtype=np.int64)
    head = np.array(heads, dtype=np.int64)
    cap = np.array(caps, dtype=np.int64)

    adj = sparse.csr_array(
        (np.ones(len(tail)), (tail, head)), shape=(node_count, node_count)
    )
    adj_t = sparse.csr_array(adj.T)

    def reached(graph: sparse.csr_array, root: int) -> np.ndarray:
        on = np.zeros(node_count, dtype=bool)
        on[breadth_first_order(graph, root, return_predecessors=False)] = True
        return on

    fwd = {a: reached(adj, first[a]) for a in {a for a, _ in pairs}}
    bwd = {b: reached(adj_t, end[b]) for b in {b for _, b in pairs}}

    nv = len(free)
    row_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    lo_parts: list[np.ndarray] = []
    hi_parts: list[np.ndarray] = []
    row = 0
    for a, b in pairs:
        arcs = np.flatnonzero(fwd[a][tail] & bwd[b][head])
        on = fwd[a] & bwd[b]
        on[first[a]] = on[end[b]] = True
        row_of = np.cumsum(on) - 1 + row
        cols = np.arange(nv, nv + len(arcs))
        nv += len(arcs)
        # Conservation rows: out-flow minus in-flow equals the supply.
        row_parts += [row_of[tail[arcs]], row_of[head[arcs]]]
        col_parts += [cols, cols]
        val_parts += [np.ones(len(arcs)), -np.ones(len(arcs))]
        supply = np.zeros(int(on.sum()))
        supply[row_of[first[a]] - row] = 1.0
        supply[row_of[end[b]] - row] = -1.0
        lo_parts.append(supply)
        hi_parts.append(supply)
        row += len(supply)
        # Capacity rows f - x_i <= 0 on the arcs of removable edges.
        capped = cap[arcs] >= 0
        c_rows = np.arange(row, row + int(capped.sum()))
        row_parts += [c_rows, c_rows]
        col_parts += [cols[capped], cap[arcs[capped]]]
        val_parts += [np.ones(len(c_rows)), -np.ones(len(c_rows))]
        lo_parts.append(np.full(len(c_rows), -np.inf))
        hi_parts.append(np.zeros(len(c_rows)))
        row += len(c_rows)

    row_parts.append(np.full(len(free), row))
    col_parts.append(np.arange(len(free)))
    val_parts.append(np.ones(len(free)))
    lo_parts.append(np.array([-np.inf]))
    hi_parts.append(np.array([float(budget - len(forced))]))
    row += 1

    a_mat = sparse.csc_array(
        (
            np.concatenate(val_parts),
            (np.concatenate(row_parts), np.concatenate(col_parts)),
        ),
        shape=(row, nv),
    )
    c = np.zeros(nv)
    c[: len(free)] = 1.0
    integrality = np.zeros(nv)
    integrality[: len(free)] = 1.0
    res = milp(
        c=c,
        constraints=[
            LinearConstraint(
                a_mat, lb=np.concatenate(lo_parts), ub=np.concatenate(hi_parts)
            )
        ],
        integrality=integrality,
        bounds=Bounds(np.zeros(nv), np.ones(nv)),
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise SolverFailed(f"MILP solve failed: {res.message}")
    kept = forced | {i for col, i in enumerate(free) if res.x[col] > 0.5}
    if not oracle.feasible(reach._drop_flags(g, kept)):
        raise SolverFailed("flow MILP produced an infeasible edge set")
    return kept


def min_spanner_brute(
    g: TemporalGraph,
    s: Strictness = STRICT,
    requirement: AllPairs | TwoSource = ALL_PAIRS,
    cap: int = 18,
) -> SolveResult:
    """Full subset enumeration over removable edges; the verification oracle."""
    forced = forced_edges(g, s, requirement)
    oracle = _SubsetOracle(g, s, requirement)
    removable = [i for i in range(g.m) if i not in forced]
    r = len(removable)
    if r > cap:
        raise InstanceTooLarge(f"{r} removable edges exceed enumeration cap {cap}")
    removed = bytearray(g.m)
    best_mask = 0
    best_count = 0
    for mask in range(1 << r):
        count = mask.bit_count()
        if count <= best_count:
            continue
        for j in range(r):
            removed[removable[j]] = (mask >> j) & 1
        if oracle.feasible(removed):
            best_mask = mask
            best_count = count
    kept = frozenset(range(g.m)) - {removable[j] for j in range(r) if (best_mask >> j) & 1}
    return _result(g, kept, len(kept), None, "exact-brute")


def min_spanner_exact(
    g: TemporalGraph,
    s: Strictness = STRICT,
    budget: int | None = None,
    requirement: AllPairs | TwoSource = ALL_PAIRS,
    cap: int = DEFAULT_CAP,
    engine: str = "auto",
) -> SolveResult:
    """Exact minimum spanner for the requirement, guarded by a removable-edge cap.

    With a ``budget``, runs in decision mode: the search may stop on any
    feasible solution of size at most the budget, or on a proof that none
    exists (``within_budget`` reports which).  ``optimal`` is True exactly
    when the returned spanner is proven minimum, in either mode: always
    without a budget, and with one when the spanner meets a proven lower
    bound, such as a spanner of budget + 1 edges next to a proof that none
    fits the budget.  ``engine`` is one of :data:`ENGINES`; the ``flow``
    engine raises :class:`SolverFailed` when the MILP solver gives no answer.
    Every path picks the kept edge set and the lower bound it proved; the
    result fields follow from them.

    Every spanner keeps at least ``lower`` edges: the forced edges, and the
    gossip bound 2n - 4 where it applies (all-pairs on n >= 4 vertices, with
    strict paths or on a proper graph; see :func:`_gossip_bound`).  Branch
    and bound in optimise mode stops once its incumbent keeps ``lower``
    edges; in decision mode an exhausted search proves budget + 1.  The flow
    engine runs :func:`_settle_then_search` over the removable edges in
    index order, with the conflict-block bound (:func:`_block_bound`) and,
    as the search, one MILP that asks for a spanner of at most ``budget``
    edges, or of one edge fewer than the incumbent when optimising.  Its
    infeasibility at that cutoff proves cutoff + 1: no spanner fits the
    budget, or the incumbent is optimal.  A "no" answer reached after the
    greedy returns the incumbent.

    ``cap`` applies only when a search may be needed: with no removable
    edge, or a budget below the forced and gossip bound, the answer is
    returned whatever the instance size, and a "no" keeps every edge.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    forced = forced_edges(g, s, requirement)
    removable = [i for i in range(g.m) if i not in forced]
    if engine == "auto":
        # Block-bounded branch and bound wins through the default desk-scale
        # cap; the flow MILP is the only engine with a chance beyond it.
        engine = "bnb" if len(removable) <= DEFAULT_CAP else "flow"
    lower = max(len(forced), _gossip_bound(g, s, requirement))
    oracle = _SubsetOracle(g, s, requirement)

    if not removable or (budget is not None and lower > budget):
        # The forced edges are the only spanner, or no spanner fits the
        # budget: no search or MILP is needed, so the cap does not apply.
        kept = frozenset(range(g.m))
    elif len(removable) > cap:
        raise InstanceTooLarge(f"{len(removable)} removable edges exceed cap {cap}")
    elif engine == "flow":

        def search(best: frozenset[int], lower: int) -> tuple[frozenset[int], int]:
            # The budget, if any, is below the incumbent's size.
            cutoff = len(best) - 1 if budget is None else budget
            found = _exact_by_flow(oracle, forced, cutoff)
            if found is None:  # no spanner keeps at most ``cutoff`` edges
                return best, cutoff + 1
            return found, len(found)

        kept, lower = _settle_then_search(
            oracle, removable, lower, budget, lambda: _block_bound(oracle, removable), search
        )
    else:
        target = None if budget is None else g.m - budget
        blocks = _conflict_blocks(oracle, removable)
        order = sorted(removable, key=lambda i: (blocks[0][i], i))
        stop_at = g.m - lower if budget is None else None
        removal = _bnb_max_removal(oracle, order, target, blocks, stop_at)
        kept = frozenset(range(g.m)) - frozenset(removal)
        if budget is None:  # the search ran to the end or stopped at ``lower``
            lower = len(kept)
        elif len(kept) > budget:  # exhausted: no spanner fits the budget
            lower = budget + 1
    return _result(g, kept, lower, budget, f"exact-{engine}")


# ---------------------------------------------------------------------------
# Vertex cover
# ---------------------------------------------------------------------------


def min_vertex_cover(pairs: Iterable[tuple[int, int]], n: int | None = None) -> frozenset[int]:
    """A minimum vertex cover via bounded search-tree branching on an uncovered edge."""
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs})
    if n is not None:
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range")
    if not edges:
        return frozenset()

    # Greedy matching upper bound: both endpoints of a maximal matching.
    greedy: set[int] = set()
    for a, b in edges:
        if a not in greedy and b not in greedy:
            greedy.update((a, b))
    best = greedy

    cover: set[int] = set()

    def rec() -> None:
        nonlocal best
        if len(cover) >= len(best):
            return
        uncovered = next(((a, b) for a, b in edges if a not in cover and b not in cover), None)
        if uncovered is None:
            best = set(cover)
            return
        for w in uncovered:
            cover.add(w)
            rec()
            cover.remove(w)

    rec()
    return frozenset(best)


# ---------------------------------------------------------------------------
# XP algorithm by vertex cover number (happy graphs)
# ---------------------------------------------------------------------------


def _candidate_trees(g: TemporalGraph, root: int) -> list[int]:
    """All temporal out-trees rooted at ``root`` of a happy graph, as sorted
    edge-index bitmasks.

    Walks the edges in label order and branches on each edge with exactly
    one reached endpoint: take it, reaching the other endpoint at its label,
    or skip it.  On a happy graph no two adjacent edges share a label, so the
    reached endpoint was reached strictly earlier; every taken path therefore
    has increasing labels, and each spanning out-tree comes out exactly once,
    as its own edges in label order.  A branch dies once an unreached vertex
    has no incident edge left ahead of the cursor.  Every result is thus a
    temporal out-tree and needs no re-check.  On a graph that is not proper
    two adjacent edges with one label could both be taken, so only
    :func:`min_spanner_xp_vc`, which accepts happy graphs only, calls this.
    """
    n = g.vertex_count
    order = [edge for _, group in g.label_groups for edge in group]
    last = [-1] * n  # position of each vertex's last incident edge in ``order``
    for pos, (_, u, v) in enumerate(order):
        last[u] = last[v] = pos
    found: list[int] = []

    def rec(start: int, reached: int, mask: int, taken: int) -> None:
        if taken == n - 1:
            found.append(mask)
            return
        for pos in range(start, len(order)):
            idx, u, v = order[pos]
            u_in, v_in = reached >> u & 1, reached >> v & 1
            if u_in != v_in:
                w = v if u_in else u
                rec(pos + 1, reached | 1 << w, mask | 1 << idx, taken + 1)
            # Skipping this edge strands an endpoint whose last edge it is.
            if (not u_in and last[u] == pos) or (not v_in and last[v] == pos):
                return

    rec(0, 1 << root, 0, 0)
    return sorted(found)


def _mask_indices(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _incomplete_vertices(oracle: _SubsetOracle, kept: Iterable[int], cover: set[int]) -> list[int]:
    """Non-cover vertices that miss some vertex through ``kept``; ``oracle``
    is the strict all-pairs one."""
    failing = oracle.failing_sources(reach._drop_flags(oracle.g, kept))
    return [v for v in failing if v not in cover]


def _single_edge_fixes(
    g: TemporalGraph, union: Iterable[int], vertices: Iterable[int]
) -> dict[int, int] | None:
    """Per vertex, the smallest-index incident edge outside ``union`` whose
    addition lets it reach every vertex; None if some vertex has none."""
    removed = reach._drop_flags(g, union)
    fixes: dict[int, int] = {}
    for v in vertices:
        for idx in g.incident[v]:
            if not removed[idx]:
                continue
            removed[idx] = 0
            fixed = None not in reach._arrival_sweep(g, v, 0, STRICT, removed)[0]
            removed[idx] = 1
            if fixed:
                fixes[v] = idx
                break
        else:
            return None
    return fixes


def select_extra_edges(
    g: TemporalGraph,
    tree_union: Iterable[int],
    cover: Iterable[int],
) -> dict[int, int | None] | None:
    """Per-vertex extra edge selection against a fixed union of out-trees.

    For each non-cover vertex independently: no extra if it already reaches
    everything through the union, otherwise the smallest-index incident edge
    restoring full reach.  Returns None if some vertex has no single-edge fix.
    """
    union = set(tree_union)
    x_set = set(cover)
    oracle = _SubsetOracle(g, STRICT, ALL_PAIRS)
    fixes = _single_edge_fixes(g, union, _incomplete_vertices(oracle, union, x_set))
    if fixes is None:
        return None
    return {v: fixes.get(v) for v in range(g.vertex_count) if v not in x_set}


class _SearchStop(Exception):
    pass


def _xp_search(
    oracle: _SubsetOracle, budget: int | None, floor: int, best_kept: frozenset[int]
) -> tuple[frozenset[int], int]:
    """The cover, candidate-tree and combination stages of
    :func:`min_spanner_xp_vc`, improving on the spanner ``best_kept``;
    ``oracle`` is the strict all-pairs one of the graph.

    Returns the smallest spanner found and the lower bound the search
    proved: that spanner's size if the search ran to the end, else 0.  It
    ends early on a spanner of at most ``floor`` edges, or of at most
    ``budget``.  The combination search visits each union at most once per
    level: the bound only falls, so a repeated visit could not find a
    smaller spanner.
    """
    g = oracle.g
    x_list = sorted(min_vertex_cover(underlying_graph(g), g.vertex_count))
    cand = {x: _candidate_trees(g, x) for x in x_list}
    # Most-constrained roots first narrows the union product early.
    levels = sorted(x_list, key=lambda x: (len(cand[x]), x))
    # Smallest trees first, so the level bound meets a witness early.
    level_cands = [sorted(cand[x], key=int.bit_count) for x in levels]

    best_size = len(best_kept)
    visited: list[set[int]] = [set() for _ in range(len(levels) + 1)]
    x_set = set(x_list)
    stop = floor if budget is None else max(floor, budget)

    def evaluate(acc: int) -> None:
        nonlocal best_kept, best_size
        union = _mask_indices(acc)
        incomplete = _incomplete_vertices(oracle, union, x_set)
        # Extra edges never coincide across vertices, so each one costs 1.
        if len(union) + len(incomplete) >= best_size:
            return
        fixes = _single_edge_fixes(g, union, incomplete)
        if fixes is None:
            return
        final = acc
        for idx in fixes.values():
            final |= 1 << idx
        size = final.bit_count()
        if size >= best_size:
            return
        kept = frozenset(_mask_indices(final))
        if not reach.is_tc(g, STRICT, kept):
            return
        best_kept, best_size = kept, size
        if best_size <= stop:
            raise _SearchStop

    def rec(i: int, acc: int) -> None:
        if acc in visited[i]:
            return
        visited[i].add(acc)
        if i == len(levels):
            evaluate(acc)
            return
        # Every remaining root still contributes a whole tree; the union must
        # absorb at least the cheapest candidate of each level.
        for cands in level_cands[i:]:
            if not any((acc | c).bit_count() < best_size for c in cands):
                return
        # Built from ``cand``, not ``level_cands``: the set's iteration order
        # depends on insertion order and breaks ties between equal sizes.
        nxts = sorted({acc | c for c in cand[levels[i]]}, key=int.bit_count)
        for nxt in nxts:
            if nxt.bit_count() >= best_size:
                break
            rec(i + 1, nxt)

    try:
        rec(0, 0)
    except _SearchStop:
        return best_kept, 0
    return best_kept, best_size


def min_spanner_xp_vc(g: TemporalGraph, budget: int | None = None) -> SolveResult:
    """Minimum spanner of a happy TC graph, parameterized by vertex cover number.

    Steps: minimum vertex cover X of the underlying graph; per root in X,
    enumerate every temporal out-tree spanning the graph, walking the edges
    in label order; combine one tree per root; add per-vertex extra edges;
    verify connectivity; keep the smallest union found.  The trees are
    exactly the paper's template instantiations: a spanning out-tree reaches
    every cover vertex, and its non-cover vertices are either inner nodes
    between two cover vertices (placeholders) or leaves under one.

    The cover and tree search runs inside :func:`_settle_then_search`, over
    every edge in index order, from the gossip bound 2n - 4 (see
    :func:`_gossip_bound`; a happy graph on n >= 4 vertices has no smaller
    spanner) raised by the conflict-block bound (:func:`_block_bound`).  It
    starts from the incumbent and ends the moment it finds a spanner at the
    lower bound, or within the budget.

    ``optimal`` is True exactly when the returned spanner is proven
    minimum: it meets a lower bound, or the search ran to the end.
    """
    if not classify(g).happy:
        raise NotHappy("the vertex-cover algorithm requires a happy graph")
    if not reach.is_tc(g, STRICT):
        raise NotTemporallyConnected("input graph is not temporally connected")
    oracle = _SubsetOracle(g, STRICT, ALL_PAIRS)

    def bound() -> int:
        forced = forced_edges(g)
        return _block_bound(oracle, [i for i in range(g.m) if i not in forced])

    kept, lower = _settle_then_search(
        oracle, list(range(g.m)), _gossip_bound(g, STRICT, ALL_PAIRS), budget, bound,
        lambda best, floor: _xp_search(oracle, budget, floor, best),
    )
    return _result(g, kept, lower, budget, "xp-vc")


# ---------------------------------------------------------------------------
# VC-tree decomposition of spanners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VcTreeDecomposition:
    """At most d out-trees rooted in the cover plus one optional extra edge
    per non-cover vertex, jointly equal to the spanner."""

    trees: tuple[TemporalOutTree, ...]
    extras: tuple[tuple[int, int], ...]  # (vertex, edge index)


def vc_tree_decompose(
    spanner: Spanner, cover: Iterable[int]
) -> VcTreeDecomposition | None:
    """Reconstruct the tree-plus-extras shape of a spanner, or None.

    Non-cover vertices are grouped by the cover endpoint of the minimum edge
    of their foremost tree inside the spanner; each group contributes the
    foremost tree of the vertex whose grouping edge has the maximum label,
    re-rooted at the cover endpoint, plus one extra edge for every other
    group member.  Cover vertices heading no group contribute their own
    foremost tree.  Minimum spanners always decompose this way; None
    certifies the spanner is not minimum.
    """
    g = spanner.parent
    if not classify(g).happy:
        raise NotHappy("decomposition is defined for happy graphs")
    x_set = frozenset(cover)
    for a, b in g.underlying_pairs:
        if a not in x_set and b not in x_set:
            raise ValueError(f"{sorted(x_set)} is not a vertex cover: edge ({a}, {b})")
    kept = set(spanner.kept)
    if not reach.is_tc(g, STRICT, kept):
        raise NotTemporallyConnected("spanner is not temporally connected")

    groups: dict[int, list[int]] = {}
    min_edge: dict[int, int] = {}
    for v in range(g.vertex_count):
        if v in x_set:
            continue
        tree = reach.foremost_out_tree(g, v, STRICT, kept=kept)
        e = min(tree.tree_edges, key=g.ts.__getitem__)
        assert v in (g.us[e], g.vs[e]), "minimum tree edge must touch its root"
        x = g.vs[e] if g.us[e] == v else g.us[e]
        min_edge[v] = e
        groups.setdefault(x, []).append(v)

    trees: list[TemporalOutTree] = []
    extras: list[tuple[int, int]] = []
    for x in sorted(x_set):
        members = groups.get(x)
        if members:
            anchor = max(members, key=lambda v: g.ts[min_edge[v]])
            tree = reach.foremost_out_tree(g, anchor, STRICT, kept=kept)
            trees.append(TemporalOutTree(root=x, tree_edges=tree.tree_edges))
            extras.extend((v, min_edge[v]) for v in members if v != anchor)
        else:
            tree = reach.foremost_out_tree(g, x, STRICT, kept=kept)
            trees.append(tree)

    union: set[int] = set()
    for tree in trees:
        union |= tree.tree_edges
    union |= {e for _, e in extras}
    if union != kept:
        return None
    return VcTreeDecomposition(trees=tuple(trees), extras=tuple(sorted(extras)))
