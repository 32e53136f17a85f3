"""Minimum temporal spanner computation.

Contents:

* forced-edge preprocessing (edges whose single removal breaks the
  requirement, hence members of every spanner),
* exact desk-scale solvers: full subset enumeration (the verification
  oracle, :func:`min_spanner_brute`) and, behind :func:`min_spanner_exact`,
  two engines: branch-and-bound over removable edges and an implicit
  hitting-set loop of MILPs with one 0/1 column per removable edge,
* the two-source requirement variant,
* one oracle per solve (:class:`_SubsetOracle`), the one reader of the
  requirement: it owns the whole-graph check and the all-pairs test,
* the gossip lower bound (:func:`_gossip_bound`; Baker and Shostak 1972,
  Bumby 1981): every temporally connected graph on n >= 4 vertices keeps at
  least 2n - 4 time edges, in the strict setting and in the non-strict one
  on proper graphs.  It is not used for the two-source requirement or for
  non-strict paths on graphs that are not proper, where it fails,
* one schedule for every exact engine (:func:`_settle_then_search`), which
  owns its edge order (the oracle's removable edges), its bounds and its
  goal: a greedy incumbent and the forced, gossip and conflict-block bounds
  settle the answer where they can, then branch and bound seeded with the
  incumbent runs until it meets the goal, and only if a node limit stops
  it, greedy restarts and the engine's own search (hitting sets or XP search)
  called with the incumbent and the goal, its answer checked by the oracle,
* an XP algorithm for happy graphs parameterized by the vertex cover number
  of the underlying graph: per cover root, enumerate every temporal out-tree
  directly in label order, combine one per root, and give each non-cover
  vertex that the union leaves short one extra edge of its own, chosen by
  one per-vertex rule (:func:`_single_edge_fixes`); the union plus its
  extras is a spanner by construction.  The paper guesses each tree as a
  template over the cover with placeholders and leaf attachments; every
  instantiation is a spanning temporal out-tree and every such tree is one,
  so both describe the same candidate set,
* the tree-plus-extras decomposition check for spanners.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from heapq import heappop, heappush
from itertools import accumulate, compress
from operator import and_
from typing import Callable, Iterable, Sequence

from . import reach
from .reach import NONSTRICT, STRICT, Strictness, TemporalOutTree
from .tempgraph import Spanner, TemporalGraph, classify, group_rows, underlying_graph


class RequirementNotSatisfied(Exception):
    pass


class InstanceTooLarge(Exception):
    pass


class NotHappy(Exception):
    pass


class NotTemporallyConnected(Exception):
    pass


class SolverFailed(RuntimeError):
    """An engine's own search, the hitting-set MILP or the XP search, could
    not produce a valid answer."""


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
# branch and bound up to it and the hitting-set MILP beyond.
DEFAULT_CAP = 40


def requirement_holds(
    g: TemporalGraph,
    s: Strictness,
    requirement: AllPairs | TwoSource = ALL_PAIRS,
    kept: Iterable[int] | None = None,
) -> bool:
    return _SubsetOracle(g, s, requirement).feasible(reach._drop_flags(g, kept))


class _SubsetOracle:
    """The requirement check on edge subsets given as drop tables.

    ``removed`` arguments are drop tables of length m, in the one encoding
    of :mod:`reach`: 0 keeps an edge and -1 drops it.
    Both requirements run the all-sources mask sweep, started from the source
    bits only: ``masks[v] = (1 << v) & need``, where ``need`` holds the two
    sources or every vertex.  Each query is one full sweep from these start
    masks, and the requirement holds iff every final mask equals ``need``.
    :meth:`feasible_each` answers up to 64 queries that each drop one more
    edge in one lane sweep (:func:`reach._lane_sweep`).

    The oracle is the one place that reads the requirement: it checks the
    two sources' range and keeps ``sources`` sorted and without repeats;
    all pairs means every vertex is a source.  Each solve builds one oracle,
    which owns what follows from its instance (graph, path semantics,
    requirement); each part is computed at most once, when first read:

    * ``satisfied``: whether the whole graph meets the requirement;
    * ``forced``: the edges every spanner keeps;
    * ``removable``: the other edges, in index order;
    * ``blocks``: the conflict blocks of the removable edges, as a list of
      edge lists, and their caps (:func:`_conflict_blocks`).
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
        # Per lane count of :meth:`feasible_each`: the bits of each lane,
        # the start masks and ``need`` in every lane.
        self._lanes: dict[int, tuple[list[int], list[int], int]] = {}

    @cached_property
    def satisfied(self) -> bool:
        """Whether the requirement holds with every edge kept."""
        return self.feasible([0] * self.g.m)

    @cached_property
    def forced(self) -> frozenset[int]:
        """Edges whose individual removal violates the requirement; raises
        :class:`RequirementNotSatisfied` if the whole graph fails.

        Every spanner contains all of them: a spanner avoiding edge e is a
        subset of the graph minus e, and reachability is monotone under edge
        addition.
        """
        if not self.satisfied:
            raise RequirementNotSatisfied("graph does not satisfy the requirement")
        m = self.g.m
        answers = self.feasible_each([0] * m, range(m))
        return frozenset(i for i, ok in enumerate(answers) if not ok)

    @cached_property
    def removable(self) -> list[int]:
        """The edges outside ``forced``, in index order."""
        forced = self.forced
        return [i for i in range(self.g.m) if i not in forced]

    @cached_property
    def blocks(self) -> tuple[list[list[int]], list[int]]:
        """The conflict blocks of ``removable``, ordered by smallest edge
        index with their edges ascending, and their caps."""
        return _conflict_blocks(self)

    def feasible(self, removed: Sequence[int]) -> bool:
        """Whether the requirement holds without the edges dropped in the
        drop table ``removed``."""
        masks = self.start.copy()
        reach._mask_sweep(self.g.label_groups, self.s, removed, masks)
        # No mask holds a bit outside ``need``.
        return masks.count(self.need) == len(masks)

    def feasible_each(self, removed: list[int], edges: Sequence[int]) -> list[bool]:
        """For each edge e of ``edges``, whether the requirement holds without
        e and the edges dropped in the drop table ``removed``; equal to one
        :meth:`feasible` query per edge.

        Edges go 64 at a time into the lanes of one :func:`reach._lane_sweep`:
        lane j drops the j-th edge of its chunk.  A lane's answer is read from
        the AND of the final masks, which holds ``need`` in every lane that
        meets the requirement.  One edge takes a plain :meth:`feasible` query.
        """
        if len(edges) == 1:
            drop = removed.copy()
            drop[edges[0]] = -1
            return [self.feasible(drop)]
        n = self.g.vertex_count
        out: list[bool] = []
        for c in range(0, len(edges), 64):
            chunk = edges[c : c + 64]
            lanes = self._lanes.get(len(chunk))
            if lanes is None:
                segments = [((1 << n) - 1) << (j * n) for j in range(len(chunk))]
                spread = sum(1 << (j * n) for j in range(len(chunk)))
                lanes = segments, [x * spread for x in self.start], self.need * spread
                self._lanes[len(chunk)] = lanes
            segments, start, need = lanes
            drop = removed.copy()
            for e, segment in zip(chunk, segments):
                drop[e] |= segment
            # The bits of ``need`` that some final mask lacks, lane by lane.
            miss = need & ~reduce(and_, reach._lane_sweep(self.g, self.s, drop, start))
            ok = [True] * len(chunk)
            while miss:
                j = (miss.bit_length() - 1) // n
                ok[j] = False
                miss &= (1 << (j * n)) - 1
            out += ok
        return out

    def failing_sources(self, removed: Sequence[int]) -> list[int]:
        """Sources that cannot reach every vertex under the requirement."""
        good = self.need
        masks = self.start.copy()
        reach._mask_sweep(self.g.label_groups, self.s, removed, masks)
        for mask in masks:
            good &= mask
        return [x for x in self.sources if not (good >> x) & 1]


def forced_edges(
    g: TemporalGraph,
    s: Strictness = STRICT,
    requirement: AllPairs | TwoSource = ALL_PAIRS,
) -> frozenset[int]:
    """Edges whose individual removal violates the requirement, hence kept
    by every spanner: the oracle's set (:attr:`_SubsetOracle.forced`).
    Raises :class:`RequirementNotSatisfied` if the whole graph fails."""
    return _SubsetOracle(g, s, requirement).forced


def _gossip_bound(oracle: _SubsetOracle) -> int:
    """A lower bound on the size of every spanner: 2n - 4, or 0 if unknown.

    A temporally connected graph is a complete gossip schedule when its time
    edges are read as calls in label order: with non-strict paths on a
    proper graph one label's edges are disjoint calls in any order, and with
    strict paths a call sequence in label order spreads at least what the
    graph does.  A complete schedule on n >= 4 people has at least 2n - 4
    calls (Baker and Shostak, "Gossips and telephones", Discrete Math.
    1972; Bumby, "A problem with telephones", SIAM J. Algebraic Discrete
    Methods 1981).  The bound is 0 for n < 4, for two sources, and for
    non-strict paths on graphs that are not proper, where one label can
    carry information along a whole path: the star with three edges at one
    label is temporally connected with 3 < 2n - 4 edges.
    """
    g = oracle.g
    n = g.vertex_count
    if n < 4 or len(oracle.sources) < n:
        return 0
    if oracle.s is STRICT or classify(g).proper:
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
    * ``lower_bound``: the lower bound on every spanner's size that the
      solve proved; ``optimal`` is ``size <= lower_bound``.
    """

    spanner: Spanner
    size: int
    optimal: bool
    within_budget: bool | None
    method: str
    lower_bound: int


def _result(
    g: TemporalGraph, kept: frozenset[int], bound: int, budget: int | None, method: str
) -> SolveResult:
    """The result for the kept edge set and a proven lower ``bound`` on every
    spanner; ``size``, ``optimal`` and ``within_budget`` follow from them."""
    size = len(kept)
    within = None if budget is None else size <= budget
    return SolveResult(Spanner(g, kept), size, size <= bound, within, method, bound)


# ---------------------------------------------------------------------------
# Exact engines
# ---------------------------------------------------------------------------


def _bnb_max_removal(
    oracle: _SubsetOracle,
    blocks: list[list[int]],
    caps: list[int],
    stop: int,
    incumbent: list[int] | None = None,
    node_limit: int | None = None,
) -> tuple[list[int], bool]:
    """Depth-first maximization of the removed-edge count over removable
    edges partitioned into ``blocks``: no feasible removal takes more than
    ``caps[b]`` edges of block b, and ``caps[b] <= len(blocks[b])``.

    Returns the best removal set found, the feasible ``incumbent`` unless a
    larger one turns up, and whether the search stopped after
    ``node_limit`` nodes, proving nothing.  It also returns once its best
    removes ``stop`` edges.  A search that ends neither way ran to the end:
    its answer is a largest feasible removal, so none removes ``stop``.

    Decisions walk the blocks in turn.  A node branches on the next
    edge e: removed first, if the requirement still holds without e and the
    edges already removed, then kept.  The keep-e child has its parent's
    removal set, so the nodes of one removal set form one keep chain.  The
    root removes nothing, so its answers are "e is not forced"; every other
    removal set asks the oracle once, at the first node of its chain that
    needs an answer: one :meth:`_SubsetOracle.feasible_each` call answers
    "remove e too" for the next 64 candidates, and every node of the chain
    reads its answer there.  A chain that walks past those 64
    asks for the next 64.  The candidates of a removal set are the edges
    after its last removed one that its parent's answers did not rule out:
    reachability is monotone, so an edge that is infeasible with fewer
    edges removed stays infeasible with more.

    Every removal in a node's subtree is its removal set ``cur`` plus
    candidates from e on that no answer ruled out.  A node with at most
    ``len(best) - len(cur)`` of them cannot beat the incumbent, and is cut;
    so is a node whose blocks can take at most that many more edges: the
    sum over blocks b of min(caps[b] - rem_b, und_b), with rem_b edges of b
    in ``cur`` and und_b undecided.  With e at position ``pos`` of block c,
    which ends at end_c, that sum is the caps of the blocks after c plus
    min(caps[c] - rem_c, end_c - pos), read in O(1).  An earlier block b
    adds 0, since ``cur`` is feasible, hence so is its part in b, and
    rem_b <= caps[b]; a later one adds caps[b] <= len(blocks[b]) = und_b.

    Both cuts compare with the incumbent, never with ``stop``, so no subtree
    that could raise the incumbent is cut: the incumbents follow one another
    as with one query per node, and a search that runs to the end returns
    the same removal set.  Only the node count, and so where ``node_limit``
    stops a search, changes.
    """
    removable = [i for block in blocks for i in block]
    k = len(removable)
    # The block at each position; per block, its end and the caps after it.
    block_at = [b for b, block in enumerate(blocks) for _ in block]
    ends = list(accumulate(map(len, blocks)))
    total = sum(caps)
    ahead = [total - c for c in accumulate(caps)]
    rem = [0] * len(caps)
    removed = [0] * oracle.g.m
    best = incumbent or []
    cur: list[int] = []
    hit = stopped = False
    nodes = 0

    def chain(pos: int, cands: list[int], ok: list[bool]) -> None:
        """The nodes of removal set ``cur`` from position ``pos`` on;
        ``cands`` holds its candidates, in ``removable`` order, and ``ok``
        the answers for ``cands[:len(ok)]``."""
        nonlocal best, hit, stopped, nodes
        depth = len(cur)
        live = len(cands) - ok.count(False)  # candidates from ``pos`` on not ruled out
        j = 0  # cands[j] is the first candidate at ``pos`` or later
        while True:
            if nodes == node_limit:
                hit = stopped = True
                break
            nodes += 1
            if depth > len(best):
                best = cur.copy()
                if depth >= stop:
                    hit = True
                    break
            slack = len(best) - depth
            if pos == k or live <= slack:
                break
            b = block_at[pos]
            if ahead[b] + min(caps[b] - rem[b], ends[b] - pos) <= slack:
                break
            e = removable[pos]
            is_cand = j < len(cands) and cands[j] == e
            if is_cand and j == len(ok):
                answers = oracle.feasible_each(removed, cands[j : j + 64])
                ok += answers
                live -= answers.count(False)
                if live <= slack:
                    break
            if is_cand:
                if ok[j]:
                    live -= 1
                    rem[b] += 1
                    removed[e] = -1
                    cur.append(e)
                    later = list(compress(cands[j + 1 : len(ok)], ok[j + 1 :]))
                    chain(pos + 1, later + cands[len(ok) :], [])
                    cur.pop()
                    removed[e] = 0
                    rem[b] -= 1
                    if hit:
                        break
                j += 1
            pos += 1

    # ``chain`` goes one level deeper per removed edge, so a dive over
    # thousands of removable edges would pass the default recursion limit.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + k)
    try:
        # Nothing is removed at the root: "remove e" holds iff e is not forced.
        chain(0, list(removable), [e not in oracle.forced for e in removable])
    finally:
        sys.setrecursionlimit(limit)
    return best, stopped


# The largest conflict block that is not split further.
_MAX_BLOCK = 12


def _find(parent: list[int] | dict[int, int], i: int) -> int:
    """The root of ``i`` in the union-find forest ``parent``, halving the
    path on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _conflict_blocks(oracle: _SubsetOracle) -> tuple[list[list[int]], list[int]]:
    """Partition the oracle's removable edges into local blocks and cap each
    block; read it as :attr:`_SubsetOracle.blocks`, computed once per oracle.
    The blocks come ordered by smallest edge index, edges ascending.

    The pieces start as the connected components of the shares-an-endpoint
    graph on the removable edges.  A piece of more than ``_MAX_BLOCK`` edges
    hides its busiest endpoint not yet hidden (ties to the lowest id) and
    splits again at the endpoints not hidden.  Its edges are joined at such
    endpoints, so one is always left to hide, and each piece ends at most
    ``_MAX_BLOCK`` edges (at worst, one).  Every edge at an unhidden vertex
    lies in one piece, so a hub hidden in one piece touches no other
    piece's edges, and the order of the splits does not change the pieces.

    A one-edge piece (an edge left alone at hidden hubs) would get cap 1,
    which bounds nothing, so these are packed, smallest first: the smallest
    block joins its smallest neighbour (a block of one-edge pieces sharing
    an endpoint with it, hidden hubs included) with which it keeps at most
    ``_MAX_BLOCK`` edges.  Ties go to the neighbour met at the endpoint with
    the fewest removable edges: a vertex with few removable edges is where
    removals conflict, since it cannot lose them all.  A block that no
    neighbour fits is final, because its neighbours only grow.  Pieces of
    several edges stay as they are: their caps already see their own
    conflicts, and merging them makes the cap searches longer than the
    stronger bound saves on the benchmark corpus.

    A block's cap is the largest feasible removal taken from the block alone
    (everything else kept), found by one branch and bound over the block; a
    one-edge block reads its answer from the forced set and sweeps nothing.
    Any feasible removal meets the block in at most that many edges,
    because subsets of feasible removals stay feasible.
    For the same reason a merge never weakens the bound m - sum of caps
    (:func:`_block_bound`): a feasible removal from B1 and B2 restricted to
    either part stays feasible, so cap(B1 + B2) <= cap(B1) + cap(B2).
    """
    us, vs = oracle.g.us, oracle.g.vs
    hubs: set[int] = set()

    def split(edges: list[int]) -> list[list[int]]:
        """The components of ``edges`` joined at endpoints not in ``hubs``."""
        parent = {i: i for i in edges}
        anchor: dict[int, int] = {}
        for i in edges:
            for x in (us[i], vs[i]):
                if x in hubs:
                    continue
                if x in anchor:
                    parent[_find(parent, i)] = _find(parent, anchor[x])
                else:
                    anchor[x] = i
        comps: dict[int, list[int]] = {}
        for i in edges:
            comps.setdefault(_find(parent, i), []).append(i)
        return list(comps.values())

    pieces: list[list[int]] = []
    work = split(oracle.removable)
    while work:
        piece = work.pop()
        if len(piece) <= _MAX_BLOCK:
            pieces.append(piece)
            continue
        degree: dict[int, int] = {}
        for i in piece:
            for x in (us[i], vs[i]):
                if x not in hubs:
                    degree[x] = degree.get(x, 0) + 1
        hubs.add(max(degree, key=lambda x: (degree[x], -x)))
        work += split(piece)

    load: dict[int, int] = {}  # removable edges per vertex
    for i in oracle.removable:
        for x in (us[i], vs[i]):
            load[x] = load.get(x, 0) + 1
    packs = [[i] for i in sorted(c[0] for c in pieces if len(c) == 1)]
    ends = [{us[i], vs[i]} for (i,) in packs]
    at: dict[int, list[int]] = {}  # the one-edge pieces at each vertex
    for b, xs in enumerate(ends):
        for x in xs:
            at.setdefault(x, []).append(b)
    root = list(range(len(packs)))
    heap = [(1, b) for b in range(len(packs))]
    while heap:
        size, b = heappop(heap)
        if root[b] != b or len(packs[b]) != size:
            continue  # merged away, or grown since it was pushed
        fits = {
            c for c in (_find(root, c) for x in ends[b] for c in at[x])
            if c != b and size + len(packs[c]) <= _MAX_BLOCK
        }
        if not fits:
            continue
        c = min(fits, key=lambda c: (len(packs[c]), min(load[x] for x in ends[b] & ends[c]), c))
        root[c] = b
        packs[b] += packs[c]
        ends[b] |= ends[c]
        heappush(heap, (len(packs[b]), b))
    blocks = sorted(
        [c for c in pieces if len(c) > 1] + [sorted(packs[b]) for b in range(len(packs)) if root[b] == b]
    )
    return blocks, [len(_bnb_max_removal(oracle, [b], [len(b)], len(b))[0]) for b in blocks]


def _greedy_local_min(oracle: _SubsetOracle, order: Iterable[int]) -> frozenset[int]:
    """Drop the edges of ``order`` one by one while the oracle's requirement
    holds; returns the kept edge set, a spanner from which no edge of
    ``order`` can be dropped alone.  While nothing is dropped, "drop i"
    holds iff i is not forced, so the first drop takes no sweep."""
    m = oracle.g.m
    removed = [0] * m
    order = iter(order)
    for i in order:
        if i not in oracle.forced:
            removed[i] = -1
            break
    for i in order:
        removed[i] = -1
        if not oracle.feasible(removed):
            removed[i] = 0
    return frozenset(i for i in range(m) if not removed[i])


# Greedy passes over shuffled orders after a node-limited search stops.
_RESTARTS = 16


def _greedy_restarts(
    oracle: _SubsetOracle, order: list[int], goal: int, best: frozenset[int]
) -> frozenset[int]:
    """The smallest of the spanner ``best`` and the greedy spanners
    (:func:`_greedy_local_min`) over up to ``_RESTARTS`` shuffles of
    ``order``, drawn from one ``random.Random(0)`` so that the answer is
    deterministic.  Stops as soon as a spanner keeps at most ``goal`` edges."""
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


def _block_bound(oracle: _SubsetOracle) -> int:
    """m - sum of the oracle's block caps: a lower bound on every spanner,
    since a feasible removal takes at most ``caps[b]`` of the removable
    edges in block b and no forced edge."""
    return oracle.g.m - sum(oracle.blocks[1])


# Branch-and-bound nodes before a search that has a fallback gives way to it.
_NODE_LIMIT = 2000


def _settle_then_search(
    oracle: _SubsetOracle,
    budget: int | None,
    fallback: Callable[[frozenset[int], int], tuple[frozenset[int], int]] | None = None,
) -> tuple[frozenset[int], int]:
    """The one schedule of every exact engine: bound the answer on both
    sides, then search only while it is still open.

    Returns the kept edge set and the lower bound proven on every spanner;
    the set is minimum iff it keeps at most that many edges.  The schedule
    owns its inputs: it searches the oracle's removable edges, and every
    spanner keeps at least ``lower``, the forced edges or the gossip bound
    (:func:`_gossip_bound`) if larger.  The goal is ``lower`` when
    optimising, else the budget or ``lower`` if larger.  Each step runs only
    if the ones before leave the answer open:

    1. Greedy: drop the removable edges in index order while the
       requirement holds (:func:`_greedy_local_min`).  A spanner within the
       goal is the answer.
    2. Block bound: raise ``lower``, and with it the goal, to the
       conflict-block bound (:func:`_block_bound`).  An incumbent at the
       goal is the answer; a budget below ``lower`` is answered "no" with
       the incumbent.
    3. Branch and bound (:func:`_bnb_max_removal`) walking the conflict
       blocks (:attr:`_SubsetOracle.blocks`) in turn, as they come, from the
       incumbent's removal set, stopping once it keeps at most the goal.
       Without a ``fallback`` it runs to the end.  With one it stops after
       ``_NODE_LIMIT`` nodes: all 15 ``solve-flow`` benchmark ops that reach
       this step end within it, the longest after about 11 ms on a shared
       2-core VM.  A search that ends within the limit proves its answer:
       ``lower`` within the goal, else its size, as it ran to the end.
    4. After a stopped search only: greedy passes over seeded shuffles of
       the removable edges (:func:`_greedy_restarts`), then
       ``fallback(incumbent, goal)``, which returns a spanner no larger than
       the incumbent and the lower bound it proved.  The oracle checks that
       spanner once; :class:`SolverFailed` means it failed.  Earlier steps
       need no check.
    """
    m = oracle.g.m
    order = oracle.removable
    lower = max(len(oracle.forced), _gossip_bound(oracle))
    goal = lower if budget is None else max(lower, budget)
    kept = _greedy_local_min(oracle, order)
    if len(kept) <= goal:
        return kept, lower
    lower = max(lower, _block_bound(oracle))
    goal = max(goal, lower)
    if len(kept) <= goal or (budget is not None and budget < lower):
        return kept, lower
    removal, stopped = _bnb_max_removal(
        oracle, *oracle.blocks, m - goal,
        [i for i in order if i not in kept], None if fallback is None else _NODE_LIMIT,
    )
    kept = frozenset(range(m)).difference(removal)
    if not stopped:  # within the goal it proves ``lower``; else it ran to the end
        return kept, lower if len(kept) <= goal else len(kept)
    kept = _greedy_restarts(oracle, order, goal, kept)
    if len(kept) > goal:
        kept, proven = fallback(kept, goal)
        if not oracle.feasible(reach._drop_flags(oracle.g, kept)):
            raise SolverFailed("the engine's search produced an infeasible edge set")
        lower = max(lower, proven)
    return kept, lower


def _disjoint_cores(oracle: _SubsetOracle, removal: list[int]) -> list[list[int]]:
    """Disjoint minimal cores, sets of edges whose removal breaks the
    requirement, inside the removal set ``removal``.  One deletion pass
    shrinks it to a core: each edge in turn, in the order of ``removal``, is
    kept if the requirement still breaks without it.  The core is minimal,
    since keeping any of its edges was already feasible with more removed.
    Then its edges are kept, and the next core is drawn from the rest while
    the rest still breaks the requirement."""
    cores = []
    while removal:
        drop = [0] * oracle.g.m
        for e in removal:
            drop[e] = -1
        if oracle.feasible(drop):
            break
        core = []
        for e in removal:
            drop[e] = 0
            if oracle.feasible(drop):
                drop[e] = -1
                core.append(e)
        cores.append(core)
        removal = [e for e in removal if not drop[e]]
    return cores


def _exact_by_hitting_set(oracle: _SubsetOracle, budget: int) -> frozenset[int] | None:
    """Decide by implicit hitting sets whether some spanner for ``oracle``'s
    graph and requirement keeps at most ``budget`` edges; returns a minimum
    one that does, or None when none does.

    The candidate starts as the forced set, with no model built: that
    settles a forced set that is a spanner, and a graph with no removable
    edge.  While the oracle rejects the candidate, cores are drawn from its
    removal set in index order and in reverse (:func:`_disjoint_cores`),
    and one MILP over a 0/1 column x_e per removable edge (1 keeps e) picks
    the next candidate, the forced set plus a minimum x subject to

    * sum x_e <= budget - |forced|, and at least the gossip bound
      (:func:`_gossip_bound`) minus |forced|;
    * sum of x_e over B >= |B| - cap_B for each conflict block B
      (:attr:`_SubsetOracle.blocks`);
    * sum of x_e over C >= 1 for each core C found so far.

    Every spanner within the budget meets each row: it keeps the gossip
    bound, at most ``cap_B`` of its removals lie in block B, and it keeps
    an edge of each core, else it would lie inside the graph minus that
    core, and reachability is monotone.  So the MILP optimum bounds it from
    below, an infeasible model proves that none exists, and the first
    candidate the oracle accepts is minimum.  Each round adds a core that
    the rejected candidate misses, so no candidate comes twice.
    :class:`SolverFailed` means the MILP solver gave no answer.
    """
    import numpy as np
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    g, forced, free = oracle.g, oracle.forced, oracle.removable
    col = {e: j for j, e in enumerate(free)}
    blocks, caps = oracle.blocks
    # The budget and gossip row, then the block rows.
    rows: list[Sequence[int]] = [free, *blocks]
    lower = [_gossip_bound(oracle) - len(forced)] + [len(b) - c for b, c in zip(blocks, caps)]
    kept = forced
    while not oracle.feasible(reach._drop_flags(g, kept)):
        removal = [e for e in free if e not in kept]
        found = _disjoint_cores(oracle, removal) + _disjoint_cores(oracle, removal[::-1])
        cores = sorted({tuple(sorted(core)) for core in found})
        rows += cores
        lower += [1] * len(cores)
        sizes = [len(r) for r in rows]
        a_mat = sparse.csr_array(
            (np.ones(sum(sizes)), [col[e] for r in rows for e in r], np.cumsum([0] + sizes)),
            shape=(len(rows), len(free)),
        )
        upper = [budget - len(forced)] + [np.inf] * (len(rows) - 1)
        res = milp(
            c=np.ones(len(free)),
            constraints=[LinearConstraint(a_mat, lb=lower, ub=upper)],
            integrality=np.ones(len(free)),
            bounds=Bounds(0, 1),
        )
        if res.status == 2:
            return None
        if res.status != 0:
            raise SolverFailed(f"MILP solve failed: {res.message}")
        kept = forced | {free[j] for j in np.flatnonzero(res.x > 0.5)}
    return kept if len(kept) <= budget else None


def min_spanner_brute(
    g: TemporalGraph,
    s: Strictness = STRICT,
    requirement: AllPairs | TwoSource = ALL_PAIRS,
    cap: int = 18,
) -> SolveResult:
    """Full subset enumeration over removable edges; the verification oracle."""
    oracle = _SubsetOracle(g, s, requirement)
    removable = oracle.removable
    r = len(removable)
    if r > cap:
        raise InstanceTooLarge(f"{r} removable edges exceed enumeration cap {cap}")
    removed = [0] * g.m
    best_mask = 0
    best_count = 0
    for mask in range(1 << r):
        count = mask.bit_count()
        if count <= best_count:
            continue
        for j in range(r):
            removed[removable[j]] = -(mask >> j & 1)
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

    With a ``budget``, runs in decision mode: the answer is a spanner within
    the budget or a proof that none exists (``within_budget`` says which).
    ``optimal`` is True exactly when the spanner is proven minimum, in
    either mode.  Every engine runs :func:`_settle_then_search`; ``engine``
    (one of :data:`ENGINES`; ``auto`` is ``bnb`` up to :data:`DEFAULT_CAP`
    removable edges, else ``flow``) picks only its fallback.  For ``flow``
    it is the hitting-set search (:func:`_exact_by_hitting_set`) at the
    schedule's goal, or at one edge below the incumbent when optimising; a
    "none" proves cutoff + 1, and :class:`SolverFailed` means that HiGHS
    failed.  ``bnb`` has none, so its branch and bound runs to the end.
    ``cap`` guards only those unbounded searches: beyond ``cap`` removable
    edges either engine gets the fallback that raises
    :class:`InstanceTooLarge`, once the bounds, a node-limited branch and
    bound and the restarts leave the answer open.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    oracle = _SubsetOracle(g, s, requirement)
    removable = oracle.removable
    if engine == "auto":
        engine = "bnb" if len(removable) <= DEFAULT_CAP else "flow"

    def search(best: frozenset[int], goal: int) -> tuple[frozenset[int], int]:
        if len(removable) > cap:
            raise InstanceTooLarge(f"{len(removable)} removable edges exceed cap {cap}")
        # Flow gets here, and so does bnb over more than ``cap`` removable
        # edges, which the guard above refuses.
        cutoff = len(best) - 1 if budget is None else goal
        found = _exact_by_hitting_set(oracle, cutoff)
        if found is None:  # no spanner keeps at most ``cutoff`` edges
            return best, cutoff + 1
        return found, len(found)

    fallback = None if engine == "bnb" and len(removable) <= cap else search
    kept, lower = _settle_then_search(oracle, budget, fallback)
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
    order = [row for group in g.label_groups for row in group_rows(group)]
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


def _single_edge_fixes(
    g: TemporalGraph, removed: list[int], vertices: Iterable[int]
) -> list[int] | None:
    """The XP algorithm's per-vertex extra-edge rule against the edges kept by
    the drop table ``removed``: for each of ``vertices`` alone, the
    smallest-index dropped incident edge whose addition lets it reach every
    vertex.  Returns those edges in order, or None if some vertex has none;
    ``removed`` comes back unchanged."""
    fixes = []
    for v in vertices:
        for idx in g.incident[v]:
            if not removed[idx]:
                continue
            removed[idx] = 0
            fixed = None not in reach._arrival_sweep(g, v, 0, STRICT, removed)[0]
            removed[idx] = -1
            if fixed:
                fixes.append(idx)
                break
        else:
            return None
    return fixes


def _xp_search(
    oracle: _SubsetOracle, best_kept: frozenset[int], goal: int
) -> tuple[frozenset[int], int]:
    """The cover, candidate-tree and combination stages of
    :func:`min_spanner_xp_vc`, improving on the spanner ``best_kept``;
    ``oracle`` is the strict all-pairs one of the graph.

    Returns the smallest spanner found and the lower bound the search
    proved: that spanner's size if the search ran to the end, else 0.  It
    ends early on a spanner of at most ``goal`` edges.  The combination
    search takes one candidate tree per cover root, with one seen set per
    level and one bound: a union already generated at a level is not
    searched again, since the bound only falls, and a union of at least
    ``best_size`` edges is cut.  Nothing looks ahead: a union that a later
    level cannot extend below the bound is cut at that level, where all
    its children are too large, so no union under the bound is skipped.

    Each full union's failing sources outside the cover get one extra edge
    each (:func:`_single_edge_fixes`), distinct as each joins its vertex to
    the cover.  The union plus its extras is a spanner with no further
    check: each cover root reaches every vertex through its own tree, every
    other vertex through the union or through its extra edge, and
    reachability is monotone under edge addition.
    """
    g = oracle.g
    m = g.m
    x_set = min_vertex_cover(underlying_graph(g), g.vertex_count)
    # Per cover root, its n - 1 edge candidates; most-constrained roots first
    # (ties by root) narrows the union product early.
    levels = sorted((_candidate_trees(g, x) for x in sorted(x_set)), key=len)

    best_size = len(best_kept)
    seen: list[set[int]] = [set() for _ in levels]

    def evaluate(acc: int) -> bool:
        """Keep the union ``acc`` plus its extras if smaller than the best;
        True if it is kept and within ``goal``."""
        nonlocal best_kept, best_size
        removed = [(acc >> i & 1) - 1 for i in range(m)]
        incomplete = [v for v in oracle.failing_sources(removed) if v not in x_set]
        size = acc.bit_count() + len(incomplete)
        if size >= best_size:
            return False
        fixes = _single_edge_fixes(g, removed, incomplete)
        if fixes is None:
            return False
        best_kept = frozenset(i for i in range(m) if not removed[i]).union(fixes)
        best_size = size
        return size <= goal

    def rec(i: int, acc: int) -> bool:
        """Extend ``acc`` by one candidate per level from ``i`` on; True once
        a spanner within ``goal`` is kept."""
        if i == len(levels):
            return evaluate(acc)
        fresh = {u for c in levels[i] if (u := acc | c).bit_count() < best_size} - seen[i]
        seen[i] |= fresh
        nxts = sorted(fresh, key=int.bit_count)
        return any(rec(i + 1, nxt) for nxt in nxts if nxt.bit_count() < best_size)

    stopped = rec(0, 0)
    return best_kept, 0 if stopped else best_size


def min_spanner_xp_vc(g: TemporalGraph, budget: int | None = None) -> SolveResult:
    """Minimum spanner of a happy TC graph, parameterized by vertex cover number.

    Steps: minimum vertex cover X of the underlying graph; per root in X,
    enumerate every temporal out-tree spanning the graph, walking the edges
    in label order; combine one tree per root; give each non-cover vertex
    that the union leaves short at most one extra edge of its own
    (:func:`_single_edge_fixes`); keep the smallest spanner found.  The trees
    are exactly the paper's template instantiations: a spanning out-tree
    reaches every cover vertex, and its non-cover vertices are either inner
    nodes between two cover vertices (placeholders) or leaves under one.

    The cover and tree search is the fallback of :func:`_settle_then_search`,
    which greedily drops the removable edges, bounds the answer from below
    (the gossip bound 2n - 4 of :func:`_gossip_bound` holds on every happy
    graph on n >= 4 vertices), and checks the search's answer once.  The
    search starts from the incumbent and ends the moment it finds a
    spanner within the schedule's goal: the lower bound, or the budget if
    larger.  The oracle's whole-graph check decides
    :class:`NotTemporallyConnected`.

    ``optimal`` is True exactly when the returned spanner is proven
    minimum: it meets a lower bound, or the search ran to the end.
    """
    if not classify(g).happy:
        raise NotHappy("the vertex-cover algorithm requires a happy graph")
    oracle = _SubsetOracle(g, STRICT, ALL_PAIRS)
    if not oracle.satisfied:
        raise NotTemporallyConnected("input graph is not temporally connected")
    kept, lower = _settle_then_search(oracle, budget, partial(_xp_search, oracle))
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
    if g.vertex_count == 1:  # the lone vertex needs no tree and no extra
        return VcTreeDecomposition(trees=(), extras=())

    groups: dict[int, list[int]] = {}
    min_edge: dict[int, int] = {}
    tree_of: dict[int, TemporalOutTree] = {}
    for v in range(g.vertex_count):
        if v in x_set:
            continue
        tree = tree_of[v] = reach.foremost_out_tree(g, v, STRICT, kept=kept)
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
            trees.append(TemporalOutTree(root=x, tree_edges=tree_of[anchor].tree_edges))
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
