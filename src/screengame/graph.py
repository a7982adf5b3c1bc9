"""Confusability graphs over report sequences, and exact independent sets.

For a fixed sender type, two length-n sequences x and y are adjacent when the
sender weakly prefers reporting one as the other in at least one direction:

    U_n(x, x) <= U_n(y, x)   or   U_n(y, y) <= U_n(x, y)

where U_n is the averaged payoff. An independent set is therefore a
questionnaire on which that type strictly prefers telling the truth, whatever
the truth is.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import or_

from .model import (
    BudgetExceededError,
    DEFAULT_ENUMERATION_BUDGET,
    Model,
    beaten_masks,
    enumerate_sequences,
    format_sequence,
    transpose_masks,
)

DEFAULT_EXACT_MIS_BUDGET = 512

UNION = "union"


@dataclass(frozen=True)
class SenderGraph:
    """Undirected graph on all length-n sequences, adjacency as bitmasks."""

    n: int  # sequence length
    labels: tuple[str, ...]  # vertex id -> display label, lexicographic order
    adjacency: tuple[int, ...]  # adjacency[v] = bitmask of neighbours of v
    provenance: str  # sender type label, or UNION

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, lexicographically ordered."""
        out = []
        for u, mask in enumerate(self.adjacency):
            rest = mask >> (u + 1) << (u + 1)
            while rest:
                v = (rest & -rest).bit_length() - 1
                out.append((u, v))
                rest &= rest - 1
        return out


def build_sender_graph(
    model: Model,
    type_id: int,
    n: int,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> SenderGraph:
    """Graph of length-n sequence pairs the given type can confuse.

    x and y are adjacent when either one weakly beats the other as a report,
    so the adjacency is the beaten-by matrix OR its transpose.
    """
    seqs = enumerate_sequences(model, n, budget=budget)
    beaten = beaten_masks(model, type_id, seqs)
    adjacency = tuple(map(or_, beaten, transpose_masks(beaten)))
    labels = tuple(format_sequence(model, seq) for seq in seqs)
    return SenderGraph(n, labels, adjacency, model.types[type_id])


def union_graph(graphs: list[SenderGraph] | tuple[SenderGraph, ...]) -> SenderGraph:
    """Edge union of graphs over the same sequence space."""
    if not graphs:
        raise ValueError("union of zero graphs")
    first = graphs[0]
    for g in graphs[1:]:
        if g.n != first.n or g.vertex_count != first.vertex_count:
            raise ValueError("cannot union graphs over different sequence spaces")
    adjacency = tuple(
        _or_all(g.adjacency[v] for g in graphs) for v in range(first.vertex_count)
    )
    return SenderGraph(first.n, first.labels, adjacency, UNION)


def _or_all(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


@dataclass(frozen=True)
class IndependentSetResult:
    members: tuple[int, ...]  # vertex ids, ascending
    size: int
    certified: bool  # True only for the exact search


def max_independent_set(
    graph: SenderGraph,
    *,
    mode: str = "exact",
    budget: int = DEFAULT_EXACT_MIS_BUDGET,
) -> IndependentSetResult:
    """Maximum independent set, certified in exact mode.

    Exact mode is a deterministic branch and bound: branch on the vertex of
    highest degree among remaining candidates (ties to the lowest id), bound
    by a greedy clique cover of the candidates. Greedy mode grows a maximal
    independent set by repeated minimum-degree choice and is not certified.
    """
    if mode == "greedy":
        return _greedy_independent_set(graph)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if graph.vertex_count > budget:
        raise BudgetExceededError("exact independent set", graph.vertex_count, budget)

    adjacency = graph.adjacency
    best_mask = 0
    best_size = 0

    def expand(current: int, size: int, cand: int) -> None:
        nonlocal best_mask, best_size
        if not cand:
            if size > best_size:
                best_size, best_mask = size, current
            return
        degrees: list[tuple[int, int]] = []
        rest = cand
        edgeless = True
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            d = (adjacency[v] & cand).bit_count()
            if d:
                edgeless = False
            degrees.append((v, d))
        if edgeless:
            total = size + len(degrees)
            if total > best_size:
                best_size = total
                best_mask = current | cand
            return
        if size + clique_cover_bound(adjacency, cand) <= best_size:
            return
        pivot = max(degrees, key=lambda vd: (vd[1], -vd[0]))[0]
        expand(current | 1 << pivot, size + 1, cand & ~(adjacency[pivot] | 1 << pivot))
        expand(current, size, cand & ~(1 << pivot))

    expand(0, 0, (1 << graph.vertex_count) - 1)
    return IndependentSetResult(_mask_to_members(best_mask), best_size, True)


def clique_cover_bound(adjacency: tuple[int, ...], cand: int) -> int:
    """Size of a greedy clique cover of the vertices in `cand`.

    An independent set meets each clique at most once, so this bounds the
    independence number of the induced subgraph from above.
    """
    classes: list[int] = []
    rest = cand
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        for i, cls in enumerate(classes):
            if adjacency[v] & cls == cls:
                classes[i] = cls | 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


def _greedy_independent_set(graph: SenderGraph) -> IndependentSetResult:
    adjacency = graph.adjacency
    remaining = (1 << graph.vertex_count) - 1
    chosen = 0
    while remaining:
        best_v = -1
        best_deg = graph.vertex_count + 1
        rest = remaining
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            d = (adjacency[v] & remaining).bit_count()
            if d < best_deg:
                best_deg = d
                best_v = v
        chosen |= 1 << best_v
        remaining &= ~(adjacency[best_v] | 1 << best_v)
    members = _mask_to_members(chosen)
    return IndependentSetResult(members, len(members), False)


def _mask_to_members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def export_dot(graph: SenderGraph) -> str:
    """Deterministic Graphviz rendering: vertices then edges, ascending."""
    name = f"sender_{graph.provenance}_n{graph.n}"
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    lines = [f"graph {safe} {{"]
    for v, label in enumerate(graph.labels):
        lines.append(f'  v{v} [label="{label}"];')
    for u, v in graph.edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
