"""Generators for the two hardness constructions and their witness spanners.

``sat_to_spanner_instance`` turns a width-3 CNF formula into a happy,
temporally connected graph with a spanner budget that is attainable exactly
when the formula is satisfiable; ``sat_witness_spanner`` builds the attaining
spanner from a satisfying assignment.  ``mcc_to_spanner_instance`` turns a
multicolored-clique instance into a temporal graph built from per-color-pair
edge selection gadgets, adjacency validators, and a connector gadget, with a
budget that does not yet decide the clique question (see
``mcc_to_spanner_instance``); ``mcc_witness_spanner`` builds a budget-sized
edge set from a clique.

Outputs carry structural annotations: role tags per vertex, critical edges
(SAT), gadget membership per time edge and an explicit feedback vertex set
(MCC).  Each witness builder reads only the layout records that its
construction kept: variable branches and clause slots (SAT), gadgets and
validators (MCC).  All constructions are deterministic in their input ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

from .tempgraph import (
    Spanner,
    TemporalGraph,
    TimeEdge,
    build,
    data_lines,
    delete_vertex,
    relabel_to_happy,
)


class AssignmentDoesNotSatisfy(Exception):
    pass


class NotAClique(Exception):
    pass


class OddEdgeCount(Exception):
    pass


class InvariantViolated(Exception):
    pass


class NotASelectionEdge(Exception):
    pass


# ---------------------------------------------------------------------------
# 3-SAT -> minimum temporal spanner on a happy graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SatInstance:
    """A CNF formula with exactly three literals per clause.

    Literals follow the DIMACS convention: a nonzero integer whose absolute
    value is a 1-based variable index, negative meaning negated.  Duplicate
    literals inside a clause are allowed.
    """

    variable_count: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.variable_count < 1:
            raise ValueError("need at least one variable")
        if not self.clauses:
            raise ValueError("need at least one clause")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause} does not have width 3")
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ValueError(f"literal {lit} out of range")

    def satisfied_by(self, assignment: Sequence[bool]) -> bool:
        if len(assignment) != self.variable_count:
            raise ValueError("assignment length mismatch")
        return all(
            any((lit > 0) == bool(assignment[abs(lit) - 1]) for lit in clause)
            for clause in self.clauses
        )


@dataclass(frozen=True)
class SatReductionOutput:
    instance: SatInstance
    graph: TemporalGraph  # happy
    pre_relabel: TemporalGraph  # simple but not proper
    budget: int  # k = m - 5*n_c - 4*n_x
    critical: frozenset[int]
    variable_drops: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # per variable: (if false, if true)
    clause_slots: tuple[tuple[tuple[int, int, int], ...], ...]  # per clause slot: (c-cs, cs-literal, cs-v)
    roles: tuple[str, ...]

    @cached_property
    def vertex_by_role(self) -> dict[str, int]:
        return {role: v for v, role in enumerate(self.roles)}


def sat_to_spanner_instance(phi: SatInstance) -> SatReductionOutput:
    """Build the spanner-hardness graph for a formula.

    Three special vertices u, v, w; seven vertices per variable; four per
    clause.  The first clause's vertex attaches to w at time 2 instead of 3
    and receives no time-1 edge from u.  The simple intermediate graph is
    then made happy by ordinal relabeling, which keeps edge indices stable.
    """
    n_x = phi.variable_count
    n_c = len(phi.clauses)
    u, v, w = 0, 1, 2
    roles = ["u", "v", "w"]

    def var_base(j: int) -> int:
        return 3 + 7 * j

    def clause_base(i: int) -> int:
        return 3 + 7 * n_x + 4 * i

    for j in range(n_x):
        roles += [f"x1:{j}", f"x2:{j}", f"xT:{j}", f"xF:{j}", f"cx:{j}", f"cx1:{j}", f"cx2:{j}"]
    for i in range(n_c):
        roles += [f"c:{i}", f"c1:{i}", f"c2:{i}", f"c3:{i}"]
    n = len(roles)
    star_clause_vertex = clause_base(0)

    edges: list[TimeEdge] = []
    critical: list[int] = []
    variable_drops: list[tuple[list[int], list[int]]] = [([], []) for _ in range(n_x)]
    clause_slots: list[tuple[tuple[int, int, int], ...]] = []

    def add(a: int, b: int, t: int, is_critical: bool = False) -> int:
        if is_critical:
            critical.append(len(edges))
        edges.append(TimeEdge(a, b, t))
        return len(edges) - 1

    add(u, v, 2, True)
    add(u, w, 4, True)
    add(v, w, 5)
    for j in range(n_x):
        x1, x2, xt, xf = var_base(j), var_base(j) + 1, var_base(j) + 2, var_base(j) + 3
        if_false, if_true = variable_drops[j]
        add(v, x1, 3, True)
        if_false.append(add(x1, xt, 4))
        if_true.append(add(x1, xf, 4))
        add(w, x2, 6, True)
        add(x2, xf, 7, True)
        add(x1, x2, 8, True)
        add(xt, xf, 8, True)
    for i, clause in enumerate(phi.clauses):
        c = clause_base(i)
        c_slots = [c + 1, c + 2, c + 3]
        to_clause, to_v, to_literal = [], [], []
        for cs in c_slots:
            to_clause.append(add(c, cs, 7))
        for cs in c_slots:
            to_v.append(add(cs, v, 8))
        add(c, w, 2 if i == 0 else 3, True)
        for s, lit in enumerate(clause):
            j = abs(lit) - 1
            target = var_base(j) + (2 if lit > 0 else 3)  # xT or xF
            to_literal.append(add(c_slots[s], target, 6))
        clause_slots.append(tuple(zip(to_clause, to_literal, to_v)))
    for j in range(n_x):
        xt, xf = var_base(j) + 2, var_base(j) + 3
        cx, cx1, cx2 = var_base(j) + 4, var_base(j) + 5, var_base(j) + 6
        if_false, if_true = variable_drops[j]
        if_false.append(add(cx, cx1, 7))
        if_true.append(add(cx, cx2, 7))
        if_true.append(add(cx1, v, 8))
        if_false.append(add(cx2, v, 8))
        if_false.append(add(cx1, xt, 6))
        if_true.append(add(cx2, xf, 6))
        add(cx, w, 3, True)
    for z in range(n):
        if z in (u, v, w) or z == star_clause_vertex:
            continue
        add(u, z, 1, True)

    pre = build(n, edges)
    graph = relabel_to_happy(pre)  # same edge order, so indices carry over
    k = graph.m - 5 * n_c - 4 * n_x
    return SatReductionOutput(
        instance=phi,
        graph=graph,
        pre_relabel=pre,
        budget=k,
        critical=frozenset(critical),
        variable_drops=tuple((tuple(f), tuple(t)) for f, t in variable_drops),
        clause_slots=tuple(clause_slots),
        roles=tuple(roles),
    )


def sat_witness_spanner(out: SatReductionOutput, assignment: Sequence[bool]) -> Spanner:
    """The budget-sized spanner encoded by a satisfying assignment.

    Per variable, the four edges of the losing branch are dropped; per
    clause, the first satisfying slot keeps its chain to the clause vertex
    while the other two slots lose their clause edge and literal edge, and
    the satisfying slot loses its direct edge back to v.
    """
    phi = out.instance
    if not phi.satisfied_by(assignment):
        raise AssignmentDoesNotSatisfy("assignment does not satisfy the formula")
    removed: set[int] = set()
    for j, value in enumerate(assignment):
        removed.update(out.variable_drops[j][bool(value)])
    for clause, slots in zip(phi.clauses, out.clause_slots):
        sat_slot = next(
            s
            for s, lit in enumerate(clause)
            if (lit > 0) == bool(assignment[abs(lit) - 1])
        )
        for s, (to_clause, to_literal, to_v) in enumerate(slots):
            if s == sat_slot:
                removed.add(to_v)
            else:
                removed.update((to_clause, to_literal))
    kept = frozenset(range(out.graph.m)) - removed
    assert len(kept) == out.budget, "witness size must equal the budget"
    return Spanner(out.graph, kept)


@dataclass(frozen=True)
class TwoSourceSatVariant:
    graph: TemporalGraph
    sources: tuple[int, int]  # (v, w) after re-indexing
    budget: int
    roles: tuple[str, ...]


def sat_two_source_variant(out: SatReductionOutput) -> TwoSourceSatVariant:
    """Delete u; v and w become the two sources, with the budget shrunk by
    the number of deleted edges."""
    graph, survivors = delete_vertex(out.graph, out.vertex_by_role["u"])
    deleted = out.graph.m - len(survivors)
    return TwoSourceSatVariant(
        graph=graph,
        sources=(0, 1),
        budget=out.budget - deleted,
        roles=out.roles[1:],
    )


# ---------------------------------------------------------------------------
# Edge selection gadget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionGadget:
    """One cycle gadget: three vertices per selectable edge, every cycle edge
    carrying the full set of low and high labels."""

    colors: tuple[int, int]
    edge_count: int
    graph: TemporalGraph
    roles: tuple[str, ...]
    low_labels: tuple[int, int]  # inclusive label range
    high_labels: tuple[int, int]


def _cycle_pairs(s: int) -> list[tuple[int, int]]:
    pairs = []
    size = 3 * s
    for pos in range(size):
        pairs.append((pos, (pos + 1) % size))
    return pairs


def edge_selection_gadget(
    i: int, j: int, edge_count: int, m: int, k: int, n: int
) -> SelectionGadget:
    """Standalone selection gadget for a color pair with ``edge_count`` edges.

    ``m`` is the maximum per-color-pair edge count of the instance, ``k`` the
    color count, and ``n`` the per-color class size; these fix the position
    of the high label window.
    """
    s = edge_count
    if s % 2 != 0:
        raise OddEdgeCount(f"edge count must be even, got {s}")
    if s < 2:
        raise ValueError("edge count must be at least 2")
    if m % 2 != 0 or m < s:
        raise ValueError("maximum edge count must be even and at least edge_count")
    low_lo, low_hi = 5, 3 * s // 2 + 4
    high_lo = 3 * m // 2 + 4 * k * n + 5
    high_hi = high_lo + 3 * s // 2 - 1
    labels = list(range(low_lo, low_hi + 1)) + list(range(high_lo, high_hi + 1))
    edges = [
        TimeEdge(a, b, t) for a, b in _cycle_pairs(s) for t in labels
    ]
    roles: list[str] = []
    for ell in range(s):
        roles += [f"v[{ell},{i}]", f"v[{ell},{j}]", f"u[{ell}]"]
    return SelectionGadget(
        colors=(i, j),
        edge_count=s,
        graph=build(3 * s, edges),
        roles=tuple(roles),
        low_labels=(low_lo, low_hi),
        high_labels=(high_lo, high_hi),
    )


def _selection_witness_keys(s: int, high_start: int, anchor_pos: int) -> list[tuple[int, int, int]]:
    """(u, v, t) keys of the anchored witness pattern on a gadget cycle.

    One high anchor on the chosen edge; walking away from it in both
    directions, the step-L edge gets the high label ``high_start + L`` and
    the mirrored low label; the edge opposite the anchor is left out.
    """
    size = 3 * s
    half = 3 * s // 2

    def key(pos: int, t: int) -> tuple[int, int, int]:
        a, b = pos % size, (pos + 1) % size
        return (min(a, b), max(a, b), t)

    keys = [key(anchor_pos, high_start)]
    for step in range(1, half):
        low = half - step + 4
        keys.append(key(anchor_pos + step, high_start + step))
        keys.append(key(anchor_pos + step, low))
        keys.append(key(anchor_pos - step, high_start + step))
        keys.append(key(anchor_pos - step, low))
    return keys


def gadget_witness_spanner(gadget: SelectionGadget, ell: int) -> Spanner:
    """The size-(6s - 3) strictly connected witness anchored at selection edge ``ell``."""
    s = gadget.edge_count
    if not (0 <= ell < s):
        raise NotASelectionEdge(f"no selection edge with index {ell}")
    keys = _selection_witness_keys(s, gadget.high_labels[0], 3 * ell)
    kept = frozenset(gadget.graph.index_by_key[key] for key in keys)
    return Spanner(gadget.graph, kept)


# ---------------------------------------------------------------------------
# Multicolored clique -> minimum strict temporal spanner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MccInstance:
    """A k-partite graph with ``class_size`` vertices per color.

    ``edges`` lists (i, a, j, b) entries with colors ``i < j`` and 0-based
    within-color vertex indices; the listing order is the fixed edge ordering
    of the construction.  Duplicate entries are allowed (padding).
    """

    color_count: int
    class_size: int
    edges: tuple[tuple[int, int, int, int], ...]

    @cached_property
    def by_pair(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        out: dict[tuple[int, int], list[tuple[int, int]]] = {
            pair: [] for pair in combinations(range(self.color_count), 2)
        }
        for i, a, j, b in self.edges:
            if not (0 <= i < j < self.color_count):
                raise InvariantViolated(f"bad color pair ({i}, {j})")
            if not (0 <= a < self.class_size and 0 <= b < self.class_size):
                raise InvariantViolated(f"vertex index out of range in {(i, a, j, b)}")
            out[(i, j)].append((a, b))
        return out

    def global_index(self, color: int, a: int) -> int:
        """1-based position in the fixed color-major vertex ordering."""
        return color * self.class_size + a + 1


def pad_to_even(inst: MccInstance) -> MccInstance:
    """Duplicate the last edge of every odd color-pair list.  Explicit opt-in."""
    extra: list[tuple[int, int, int, int]] = []
    for (i, j), lst in sorted(inst.by_pair.items()):
        if lst and len(lst) % 2 == 1:
            a, b = lst[-1]
            extra.append((i, a, j, b))
    return MccInstance(inst.color_count, inst.class_size, inst.edges + tuple(extra))


def validate_mcc(inst: MccInstance) -> None:
    if inst.color_count < 2:
        raise InvariantViolated("need at least two colors")
    if inst.class_size < 1:
        raise InvariantViolated("need at least one vertex per color")
    for pair, lst in inst.by_pair.items():
        if not lst:
            raise InvariantViolated(f"no edges between colors {pair}")
        if len(lst) % 2 != 0:
            raise InvariantViolated(f"odd edge count between colors {pair}")

    def sees(i: int, a: int, j: int) -> bool:
        pair = (min(i, j), max(i, j))
        mine = 0 if i == pair[0] else 1
        return any(edge[mine] == a for edge in inst.by_pair[pair])

    for i in range(inst.color_count):
        others = [j for j in range(inst.color_count) if j != i]
        if not any(
            all(sees(i, a, j) for j in others) for a in range(inst.class_size)
        ):
            raise InvariantViolated(f"no vertex of color {i} sees every other color")


@dataclass(frozen=True)
class GadgetInfo:
    gadget: SelectionGadget
    first_vertex: int  # gadget vertex v is vertex first_vertex + v
    first_edge: int  # gadget edge i is edge first_edge + i


@dataclass(frozen=True)
class ValidatorInfo:
    color: int
    pair_a: tuple[int, int]
    pair_b: tuple[int, int]
    ell_a: int
    ell_b: int
    shared_index: int  # 1-based global index of the shared vertex
    edge_indices: tuple[int, ...]  # 8 time edges, forward chain then mirror


@dataclass(frozen=True)
class MccReductionOutput:
    instance: MccInstance
    graph: TemporalGraph
    budget: int
    connector_edge_count: int  # x
    gadget_map: tuple[str, ...]
    fvs: frozenset[int]
    roles: tuple[str, ...]
    gadgets: tuple[GadgetInfo, ...]
    validators: tuple[ValidatorInfo, ...]


def mcc_to_spanner_instance(inst: MccInstance) -> MccReductionOutput:
    """Assemble selection gadgets, adjacency validators, and the connector.

    Validator vertices are created per pair of incident edges; the two middle
    vertices per (color, gadget pair) are shared, which is what makes the
    crossing timing-tight.  The hub/star side of the connector only appears
    for four distinct colors, so only when the color count is at least four.
    Raises :class:`InvariantViolated` below three colors: a validator needs
    two colors besides its own, so two colors get neither validators nor a
    hub, and the graph would not be temporally connected.

    Known wrong (ROADMAP item 7; strict xfails in ``tests/test_reductions.py``):
    connectivity is checked only at three colors, and four colors fail; an
    instance without a clique gets a spanner within its budget.
    """
    validate_mcc(inst)
    k, n = inst.color_count, inst.class_size
    if k < 3:
        raise InvariantViolated(
            f"need at least three colors, got {k}: with two there is no validator"
            " and no hub, so the instance would not be temporally connected"
        )
    by_pair = {pair: list(lst) for pair, lst in inst.by_pair.items()}
    m = max(len(lst) for lst in by_pair.values())
    c0 = 3 * m // 2

    roles: list[str] = []
    edges: list[TimeEdge] = []
    tags: list[str] = []

    def new_vertex(role: str) -> int:
        roles.append(role)
        return len(roles) - 1

    def add(a: int, b: int, t: int, tag: str) -> int:
        edges.append(TimeEdge(a, b, t))
        tags.append(tag)
        return len(edges) - 1

    # Selection gadgets: each standalone gadget appended verbatim, shifted
    # to its first vertex and first edge.
    gadgets: dict[tuple[int, int], GadgetInfo] = {}
    for i, j in combinations(range(k), 2):
        gadget = edge_selection_gadget(i, j, len(by_pair[(i, j)]), m, k, n)
        first = len(roles)
        gadgets[(i, j)] = GadgetInfo(gadget, first, len(edges))
        roles += [f"sel({i},{j}).{role}" for role in gadget.roles]
        for a, b, t in zip(gadget.graph.us, gadget.graph.vs, gadget.graph.ts):
            add(first + a, first + b, t, f"selection({i},{j})")

    def color_vertex(pair: tuple[int, int], ell: int, color: int) -> int:
        # v[ell, color] is gadget vertex 3*ell (first color) or 3*ell + 1.
        offset = 0 if color == pair[0] else 1
        return gadgets[pair].first_vertex + 3 * ell + offset

    # Adjacency validators.
    validators: list[ValidatorInfo] = []
    middle_vertices: list[int] = []
    quad_vertices: list[int] = []
    for i in range(k):
        for j, jp in combinations([x for x in range(k) if x != i], 2):
            pair_a = (min(i, j), max(i, j))
            pair_b = (min(i, jp), max(i, jp))
            mid_a = new_vertex(f"val({i}|{j},{jp}).w")
            mid_b = new_vertex(f"val({i}|{jp},{j}).w")
            middle_vertices += [mid_a, mid_b]
            for ell_a, (a1, b1) in enumerate(by_pair[pair_a]):
                ia = a1 if i == pair_a[0] else b1
                for ell_b, (a2, b2) in enumerate(by_pair[pair_b]):
                    ib = a2 if i == pair_b[0] else b2
                    if ia != ib:
                        continue
                    h = inst.global_index(i, ia)
                    suffix = f"[h={h},l={ell_a},{ell_b}]"
                    w1 = new_vertex(f"val({i}|{j},{jp}).w1{suffix}")
                    w2 = new_vertex(f"val({i}|{j},{jp}).w2{suffix}")
                    w1m = new_vertex(f"val({i}|{jp},{j}).w1{suffix}")
                    w2m = new_vertex(f"val({i}|{jp},{j}).w2{suffix}")
                    quad_vertices += [w1, w2, w1m, w2m]
                    va = color_vertex(pair_a, ell_a, i)
                    vb = color_vertex(pair_b, ell_b, i)
                    tag = f"validator({i},{j},{jp})"
                    idxs = (
                        add(va, w1, c0 + 2 * h + 4, tag),
                        add(w1, mid_a, c0 + 2 * h + 5, tag),
                        add(mid_a, w2, c0 + 2 * n + 2 * h + 4, tag),
                        add(w2, vb, c0 + 2 * n + 2 * h + 5, tag),
                        add(vb, w1m, c0 + 2 * h + 4, tag),
                        add(w1m, mid_b, c0 + 2 * h + 5, tag),
                        add(mid_b, w2m, c0 + 2 * n + 2 * h + 4, tag),
                        add(w2m, va, c0 + 2 * n + 2 * h + 5, tag),
                    )
                    validators.append(
                        ValidatorInfo(
                            color=i,
                            pair_a=pair_a,
                            pair_b=pair_b,
                            ell_a=ell_a,
                            ell_b=ell_b,
                            shared_index=h,
                            edge_indices=idxs,
                        )
                    )

    # Connector gadget: hubs for color-disjoint gadget pairs, then y1..y4.
    hub_vertices: list[int] = []
    for pa, pb in combinations(gadgets, 2):
        if set(pa) & set(pb):
            continue
        hub = new_vertex(f"hub({pa[0]},{pa[1]}|{pb[0]},{pb[1]})")
        hub_vertices.append(hub)
        for pair, t in ((pa, 4), (pb, c0 + 4 * k * n + 6)):
            info = gadgets[pair]
            for g_vertex in range(info.first_vertex, info.first_vertex + info.gadget.graph.vertex_count):
                add(g_vertex, hub, t, "connector")
    y1 = new_vertex("y1")
    y2 = new_vertex("y2")
    y3 = new_vertex("y3")
    y4 = new_vertex("y4")
    top = 3 * m + 4 * k * n
    for v in sorted(hub_vertices + middle_vertices + quad_vertices):
        add(v, y1, 1, "connector")
        add(v, y2, 3, "connector")
        add(v, y3, top + 7, "connector")
        add(v, y4, top + 9, "connector")
    add(y1, y2, 2, "connector")
    add(y3, y4, top + 8, "connector")
    add(y1, y4, 1, "connector")
    add(y1, y4, top + 9, "connector")
    add(y1, y3, 1, "connector")
    add(y2, y4, top + 9, "connector")

    x = sum(1 for tag in tags if tag == "connector")
    total_edges = len(inst.edges)
    budget = (
        6 * total_edges
        - 2 * (k * (k - 1) // 2)
        + 8 * k * ((k - 1) * (k - 2) // 2)
        + x
    )
    fvs = frozenset(
        hub_vertices
        + [y1, y2, y3, y4]
        + [info.first_vertex for info in gadgets.values()]
        + middle_vertices
    )
    return MccReductionOutput(
        instance=inst,
        graph=build(len(roles), edges),
        budget=budget,
        connector_edge_count=x,
        gadget_map=tuple(tags),
        fvs=fvs,
        roles=tuple(roles),
        gadgets=tuple(gadgets.values()),
        validators=tuple(validators),
    )


def mcc_witness_spanner(out: MccReductionOutput, clique: Sequence[int]) -> Spanner:
    """The budget-sized edge set encoded by a clique; a strict spanner at three colors.

    Keeps the whole connector, each gadget's standalone witness (anchored at
    the clique's edge) plus that edge at its top low label, and the eight
    validator edges at the clique vertex for every sharing gadget pair.
    """
    inst = out.instance
    k = inst.color_count
    if len(clique) != k:
        raise NotAClique(f"need one vertex per color, got {len(clique)}")
    for i, a in enumerate(clique):
        if not (0 <= a < inst.class_size):
            raise NotAClique(f"vertex index {a} out of range for color {i}")

    clique_edge: dict[tuple[int, int], int] = {}
    for i, j in combinations(range(k), 2):
        want = (clique[i], clique[j])
        lst = inst.by_pair[(i, j)]
        if want not in lst:
            raise NotAClique(f"colors ({i}, {j}): vertices {want} are not adjacent")
        clique_edge[(i, j)] = lst.index(want)

    kept: set[int] = {
        idx for idx, tag in enumerate(out.gadget_map) if tag == "connector"
    }
    for info in out.gadgets:
        gadget = info.gadget
        ell = clique_edge[gadget.colors]
        low_anchor = gadget.graph.index_by_key[(3 * ell, 3 * ell + 1, gadget.low_labels[1])]
        witness = gadget_witness_spanner(gadget, ell).kept | {low_anchor}
        kept.update(info.first_edge + e for e in witness)
    for info in out.validators:
        if (
            info.ell_a == clique_edge[info.pair_a]
            and info.ell_b == clique_edge[info.pair_b]
        ):
            kept.update(info.edge_indices)
    return Spanner(out.graph, frozenset(kept))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def parse_dimacs(text: str) -> SatInstance:
    """DIMACS CNF reader.  A clause is its literals up to the next 0, across
    lines; one open at the end counts, and a 0 closing none adds nothing
    (SATLIB's ``%`` / ``0`` tail: ``c`` and ``%`` lines are comments).  Short
    clauses are padded by repeating their last literal; longer ones raise.
    The one ``p cnf V C`` line, with V and C at least 1, comes before every
    clause and declares the C clauses read; a literal above V raises with
    its line."""
    header: tuple[int, int, int] | None = None  # line number, V, C
    clauses: list[list[int]] = []
    lits: list[int] = []  # the open clause
    for line_no, fields in data_lines(text, ("c", "%")):
        if fields[0].startswith("p"):
            line = " ".join(fields)
            if header is not None:
                raise ValueError(f"line {line_no}: second problem line {line!r}")
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"line {line_no}: bad problem line {line!r}")
            try:
                header = (line_no, int(fields[2]), int(fields[3]))
            except ValueError:
                raise ValueError(f"line {line_no}: non-integer count in {line!r}") from None
            if min(header[1:]) < 1:
                raise ValueError(f"line {line_no}: need at least one variable and one clause: {line!r}")
            continue
        if header is None:
            raise ValueError(f"line {line_no}: clause data before the 'p cnf' line")
        n_vars = header[1]
        for field in fields:
            try:
                lit = int(field)
            except ValueError:
                raise ValueError(f"line {line_no}: non-integer literal {field!r}") from None
            if abs(lit) > n_vars:
                raise ValueError(f"line {line_no}: literal {lit} out of range for {n_vars} variables")
            if lit == 0:
                clauses.append(lits)
                lits = []
            elif len(lits) == 3:
                raise ValueError(f"line {line_no}: clause wider than 3 rejected")
            else:
                lits.append(lit)
    if header is None:
        raise ValueError("missing 'p cnf' header")
    header_line, n_vars, n_clauses = header
    padded = tuple((*c, *c[-1:] * (3 - len(c))) for c in [*clauses, lits] if c)
    if len(padded) != n_clauses:
        raise ValueError(f"line {header_line}: header declares {n_clauses} clauses, read {len(padded)}")
    return SatInstance(variable_count=n_vars, clauses=padded)


def parse_mcc(text: str) -> MccInstance:
    """Reader for the multicolored-clique format: ``k n`` then ``i a j b``
    lines, all 1-based in the file."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int, int, int]] = []
    for line_no, fields in data_lines(text):
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise ValueError(f"line {line_no}: non-integer field in {' '.join(fields)!r}") from None
        if header is None:
            if len(values) != 2:
                raise ValueError(f"line {line_no}: expected 'k n'")
            header = (values[0], values[1])
            continue
        if len(values) != 4:
            raise ValueError(f"line {line_no}: expected 'i a j b'")
        if min(values) < 1:
            raise ValueError(f"line {line_no}: colors and vertices start at 1: {' '.join(fields)!r}")
        i, a, j, b = (v - 1 for v in values)
        if i > j:
            i, j, a, b = j, i, b, a
        edges.append((i, a, j, b))
    if header is None:
        raise ValueError("empty input")
    return MccInstance(color_count=header[0], class_size=header[1], edges=tuple(edges))
