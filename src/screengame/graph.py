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
from functools import reduce
from itertools import product
from operator import itemgetter, or_

from .model import (
    BudgetExceededError,
    DEFAULT_ENUMERATION_BUDGET,
    HONEST,
    Model,
    _count_sequences,
    check_space,
    classify_type,
    enumerate_sequences,
    preference_masks,
)

DEFAULT_EXACT_MIS_BUDGET = 512

# The propagation ceiling runs only where the smaller clique cover misses a cut
# by at most this many cliques: past it, a cut needs too many conflicts to pay.
_PROPAGATION_GAP = 2

UNION = "union"


@dataclass(frozen=True)
class SenderGraph:
    """Undirected graph on all length-n sequences, adjacency as bitmasks.

    `build_sender_graph` and `union_graph` mark their graphs symmetric under permuting the
    letter positions (payoffs sum per letter); hand-built graphs are searched without it.
    """

    n: int  # sequence length
    adjacency: tuple[int, ...]  # adjacency[v] = bitmask of neighbours of the v-th sequence
    provenance: str  # sender type label, or UNION
    _symmetric = False  # not a field, so replace() and the constructor leave it unset

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2

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
    enum_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> SenderGraph:
    """Graph of length-n sequence pairs the given type can confuse.

    x and y are adjacent when either one weakly beats the other as a report,
    so the adjacency is the kernel's beaten-by masks OR its beats masks.
    Its k^n sequences, then its k^(2n) pairs, are refused past `enum_budget` first.
    """
    _check_graph_space(model, (n,), enum_budget)
    seqs = enumerate_sequences(model, n, enum_budget=enum_budget)
    if classify_type(model, type_id) == HONEST:  # strict wins stay strict under sums
        adjacency = (0,) * len(seqs)
    else:
        adjacency = tuple(map(or_, *preference_masks(model, type_id, seqs)))
    graph = SenderGraph(n, adjacency, model.types[type_id])
    object.__setattr__(graph, "_symmetric", True)
    return graph


def _check_graph_space(model: Model, horizons, enum_budget: int) -> None:
    """`build_sender_graph`'s refusals, horizon by horizon: k^h sequences, then k^(2h) pairs."""
    for h in horizons:
        _count_sequences(model, h, enum_budget)
        check_space(model, 2 * h, enum_budget, "sender graph")


def union_graph(graphs: list[SenderGraph] | tuple[SenderGraph, ...]) -> SenderGraph:
    """Edge union of graphs over the same sequence space, marked symmetric when all inputs are."""
    if not graphs:
        raise ValueError("union of zero graphs")
    first = graphs[0]
    if any(g.n != first.n or g.vertex_count != first.vertex_count for g in graphs):
        raise ValueError("cannot union graphs over different sequence spaces")
    adjacency = tuple(reduce(or_, rows) for rows in zip(*(g.adjacency for g in graphs)))
    union = SenderGraph(first.n, adjacency, UNION)
    object.__setattr__(union, "_symmetric", all(g._symmetric for g in graphs))
    return union


def check_mis_budget(model: Model, horizons, mis_budget: int = DEFAULT_EXACT_MIS_BUDGET) -> None:
    """`max_independent_set`'s refusal, made before any graph is built.

    A graph at horizon h has one vertex per sequence, k^h of them. The first
    horizon over the budget, in the order given, is the one named.
    """
    for h in horizons:
        check_space(model, h, mis_budget, "exact independent set")


@dataclass(frozen=True)
class IndependentSetResult:
    members: tuple[int, ...]  # vertex ids, ascending
    size: int
    certified: bool  # True only for the exact search
    nodes: int = 0  # branch-and-bound nodes visited; 0 in greedy mode


def max_independent_set(
    graph: SenderGraph,
    *,
    mode: str = "exact",
    mis_budget: int = DEFAULT_EXACT_MIS_BUDGET,
) -> IndependentSetResult:
    """Maximum independent set, certified in exact mode.

    Exact mode is a deterministic branch and reduce on an explicit stack,
    seeded with the greedy set after a (1,2)-swap descent. Each node first
    takes every candidate of degree 0 or 1, or of degree 2 inside a
    triangle, and drops its neighbours: they are pairwise adjacent, so some
    maximum set takes it. It then cuts when a greedy clique cover of the
    candidates, grown from the lowest or from the highest id, cannot beat
    the incumbent. When the smaller cover misses by at most two cliques,
    unit propagation over its cliques may find that many conflicts and cut.
    Otherwise it branches on the candidate of highest degree (ties to the
    lowest id), by orbits (Ostrowski, Linderoth, Rossi and Smriglio 2011)
    of a group keeping the candidates invariant: the position permutations
    within blocks, one block at the root. "Exclude", first, drops the
    pivot's orbit; "include" splits the blocks by the pivot's letters and is
    skipped when a neighbour u outside the orbit has N[u] inside N[pivot].
    Greedy mode grows a maximal independent set by repeated minimum-degree
    choice and is not certified.
    """
    if mode == "greedy":
        return _greedy_independent_set(graph)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if graph.vertex_count > mis_budget:
        raise BudgetExceededError("exact independent set", graph.vertex_count, mis_budget)

    adjacency = graph.adjacency
    greedy = _greedy_independent_set(graph)
    best_mask = _swap_descent(adjacency, sum(1 << v for v in greedy.members))
    best_size = best_mask.bit_count()
    n = graph.n if graph._symmetric else 1
    words = list(product(range(round(graph.vertex_count ** (1 / n))), repeat=n))
    letters: dict[tuple, list[int]] = {}
    nodes = 0
    stack = [(0, 0, (1 << graph.vertex_count) - 1, (tuple(range(n)),))]
    while stack:
        current, size, cand, blocks = stack.pop()
        nodes += 1
        start, before = cand, current
        reduced = True
        while reduced:
            reduced = False
            pivot = -1
            pivot_degree = 1
            rest = cand
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                neighbours = adjacency[v] & cand
                degree = neighbours.bit_count()
                # v's neighbours are pairwise adjacent, so some maximum set takes v
                if degree <= 1 or (
                    degree == 2
                    and adjacency[(neighbours & -neighbours).bit_length() - 1] & neighbours
                ):
                    current |= low
                    size += 1
                    cand &= ~(low | neighbours)
                    rest &= cand
                    reduced = True
                elif degree > pivot_degree:
                    pivot, pivot_degree = v, degree
        if pivot < 0:  # every candidate was taken
            if size > best_size:
                best_size, best_mask = size, current
            continue
        # Two greedy covers, grown from opposite ends, often differ by several cliques;
        # the second grows only when the first does not cut. Ties keep the first.
        room = best_size - size
        classes = _cover_classes(adjacency, cand, False)
        if len(classes) > room:
            classes = min(classes, _cover_classes(adjacency, cand, True), key=len)
        excess = len(classes) - room
        if excess <= 0:
            continue
        # Near a cut, each propagation conflict over the smaller cover's
        # cliques takes one more off its ceiling.
        if excess <= _PROPAGATION_GAP and _cover_conflicts(adjacency, classes, excess) >= excess:
            continue
        # The group keeps `start` invariant. If the reductions cut an orbit,
        # the permutations fixing each vertex they took keep what is left.
        rest = start & ~cand if len(blocks) < n else 0
        while rest:
            orbit = _orbit(letters, words, blocks, (rest & -rest).bit_length() - 1)
            if orbit & cand:
                for v in _mask_to_members(current ^ before):
                    blocks = _refine(blocks, words[v])
                break
            rest &= ~orbit
        bit = 1 << pivot
        orbit = _orbit(letters, words, blocks, pivot)
        closed = (adjacency[pivot] | bit) & cand
        rest = closed & ~orbit
        while rest:
            low = rest & -rest
            rest ^= low
            if (adjacency[low.bit_length() - 1] | low) & cand & ~closed == 0:
                break  # dominated from outside the orbit: some maximum set avoids it all
        else:
            stack.append((current | bit, size + 1, cand & ~closed, _refine(blocks, words[pivot])))
        stack.append((current, size, cand & ~orbit, blocks))
    return IndependentSetResult(_mask_to_members(best_mask), best_size, True, nodes)


def _orbit(letters: dict, words: list, blocks: tuple, v: int) -> int:
    """The orbit of vertex v, the sequence `words[v]`, under permutations within blocks.

    `letters` caches per block each vertex's class: the vertices with its letters there.
    """
    mask = -1
    for b in blocks:
        if b not in letters:
            keys = list(map(itemgetter(*b), words))
            if len(b) > 1:
                keys = [tuple(sorted(key)) for key in keys]
            masks: dict = {}
            for u, key in enumerate(keys):
                masks[key] = masks.get(key, 0) | 1 << u
            letters[b] = [masks[key] for key in keys]
        mask &= letters[b][v]
    return mask


def _refine(blocks: tuple, word: tuple) -> tuple:
    """The blocks split by the letters of `word`, so that only permutations fixing it remain."""
    parts = (tuple(i for i in b if word[i] == a) for b in blocks for a in {word[i] for i in b})
    return tuple(sorted(parts))


def clique_cover_bound(adjacency: tuple[int, ...], cand: int) -> int:
    """Size of a greedy clique cover of the vertices in `cand`.

    Each clique starts at the lowest uncovered vertex and takes, in id order,
    every uncovered vertex adjacent to all its members (one AND per member):
    the first-fit partition in id order. An independent set meets each clique
    at most once, so this bounds the induced independence number from above.
    """
    count = 0
    while cand:
        bit = cand & -cand
        cand ^= bit
        joinable = adjacency[bit.bit_length() - 1] & cand
        while joinable:
            bit = joinable & -joinable
            cand ^= bit
            joinable &= adjacency[bit.bit_length() - 1]
        count += 1
    return count


def _cover_classes(adjacency: tuple[int, ...], cand: int, descending: bool) -> list[int]:
    """The cliques, as masks in the order grown, of the first-fit cover in id order or reversed."""
    classes = []
    while cand:
        start = cand
        bit = 1 << cand.bit_length() - 1 if descending else cand & -cand
        cand ^= bit
        joinable = adjacency[bit.bit_length() - 1] & cand
        while joinable:
            bit = 1 << joinable.bit_length() - 1 if descending else joinable & -joinable
            cand ^= bit
            joinable &= adjacency[bit.bit_length() - 1]
        classes.append(start ^ cand)
    return classes


def _cover_conflicts(adjacency: tuple[int, ...], classes: list[int], need: int) -> int:
    """How many disjoint sets of cover cliques no independent set meets in full.

    Unit propagation, after Li and Quan's MaxSAT bound (2010): a singleton
    clique forces its vertex, every clique drops the neighbours of each
    forced vertex, a clique left with one vertex forces it, and one left
    empty is a conflict. A set meeting every clique that forced a vertex
    holds every forced vertex, so it misses the emptied clique; those
    cliques are spent, and later starts avoid them. Starts run from the last
    singleton back, and stop after `need` conflicts or at the first start
    that ends without one.
    """
    live = reduce(or_, classes, 0)
    conflicts = 0
    for start in reversed(classes):
        if start & (start - 1) or not start & live:
            continue  # not a singleton, or spent
        claimed = start  # the cliques forced or queued
        used = 0  # the cliques that forced a vertex
        removed = 0
        queue = [start]
        while queue:
            clique = queue.pop()
            vertex = clique & ~removed
            if not vertex:
                break
            used |= clique
            removed |= adjacency[vertex.bit_length() - 1]
            for other in classes:
                if other & removed and other & live & ~claimed:
                    left = other & ~removed
                    if not left & (left - 1):  # one vertex left, or none
                        claimed |= other
                        queue.append(other)
        else:
            return conflicts
        live &= ~(used | clique)
        conflicts += 1
        if conflicts >= need:
            return conflicts
    return conflicts


def _swap_descent(adjacency: tuple[int, ...], chosen: int) -> int:
    """A (1,2)-swap local optimum grown from the independent set `chosen`.

    Each step adds a free vertex, one with no neighbour in the set, or else
    replaces a member x by two non-adjacent non-members whose only neighbour
    in the set is x (Andrade, Resende and Werneck, 2012), until neither
    applies. Both grow the set by one.
    """
    outside = ((1 << len(adjacency)) - 1) & ~chosen
    while move := _improving_move(adjacency, chosen, outside):
        chosen ^= move
        outside ^= move
    return chosen


def _improving_move(adjacency: tuple[int, ...], chosen: int, outside: int) -> int:
    """The vertices an improving step flips, the first found by vertex id; 0 if none."""
    tight: dict[int, int] = {}  # member bit -> the non-members whose one member neighbour it is
    rest = outside
    while rest:
        low = rest & -rest
        rest ^= low
        hits = adjacency[low.bit_length() - 1] & chosen
        if not hits:
            return low
        if not hits & (hits - 1):
            tight[hits] = tight.get(hits, 0) | low
    for member, group in tight.items():
        while group:
            low = group & -group
            group ^= low
            partners = group & ~adjacency[low.bit_length() - 1]
            if partners:
                return member | low | partners & -partners
    return 0


def _greedy_independent_set(graph: SenderGraph) -> IndependentSetResult:
    """Repeatedly take the remaining vertex of least remaining degree, ties to the lowest id.

    Only the removed vertices' neighbours are recounted. Vertices of degree 0
    change no degree, so they are all taken at once.
    """
    adjacency = graph.adjacency
    count = graph.vertex_count
    degree = [mask.bit_count() for mask in adjacency]
    remaining = (1 << count) - 1
    chosen = 0
    while remaining:
        least = min(degree)
        if not least:
            for v, d in enumerate(degree):
                if not d:
                    chosen |= 1 << v
                    degree[v] = count
            remaining &= ~chosen
            continue
        v = degree.index(least)
        chosen |= 1 << v
        removed = (adjacency[v] | 1 << v) & remaining
        remaining ^= removed
        touched = 0
        for v in _mask_to_members(removed):
            degree[v] = count
            touched |= adjacency[v]
        for v in _mask_to_members(touched & remaining):
            degree[v] = (adjacency[v] & remaining).bit_count()
    members = _mask_to_members(chosen)
    return IndependentSetResult(members, len(members), False)


def _mask_to_members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def export_dot(graph: SenderGraph, labels: list[str]) -> str:
    """Deterministic Graphviz rendering: vertices, labeled `labels[v]`, then edges, ascending."""
    name = f"sender_{graph.provenance}_n{graph.n}"
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    lines = [f"graph {safe} {{"]
    for v, label in enumerate(labels):
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  v{v} [label="{label}"];')
    for u, v in graph.edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
