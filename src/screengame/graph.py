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
    DEFAULT_ENUMERATION_BUDGET,
    HONEST,
    Model,
    _EITHER,
    _check_pairs,
    _top_bit_masks,
    _within_budget,
    check_space,
    classify_type,
)

DEFAULT_EXACT_MIS_BUDGET = 512

# The propagation ceiling runs only where the smaller clique cover misses a cut
# by at most this many cliques: past it, a cut needs too many conflicts to pay.
_PROPAGATION_GAP = 2

UNION = "union"


@dataclass(frozen=True)
class SenderGraph:
    """Undirected graph on all length-n sequences, adjacency as bitmasks.

    `build_sender_graph` and `union_graph` mark their graphs with the alphabet size k: such a
    graph is symmetric under permuting the letter positions (payoffs sum per letter). Hand-built
    graphs, marked 0, are searched without it. The builders' rows are loop-free and in range by
    construction, so only hand-built graphs and `replace()` copies pay the row check.
    """

    n: int  # sequence length
    adjacency: tuple[int, ...]  # adjacency[v] = bitmask of neighbours of the v-th sequence
    provenance: str  # sender type label, or UNION
    _letters = 0  # not a field, so replace() and the constructor leave it unset

    def __post_init__(self) -> None:
        limit = 1 << len(self.adjacency)
        for v, row in enumerate(self.adjacency):  # a self-loop would hang the clique covers
            if row >> v & 1 or not 0 <= row < limit:
                raise ValueError(f"adjacency row {v} has a self-loop or a bit past the vertices")

    @classmethod
    def _built(cls, n: int, adjacency: tuple[int, ...], provenance: str, letters: int):
        """A builder's graph, marked with `letters`, made without the row check it cannot fail."""
        graph = object.__new__(cls)
        graph.__dict__.update(n=n, adjacency=adjacency, provenance=provenance, _letters=letters)
        return graph

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, lexicographically ordered."""
        return [
            (u, v)
            for u, mask in enumerate(self.adjacency)
            for v in _mask_to_members(mask >> (u + 1) << (u + 1))
        ]


def build_sender_graph(
    model: Model,
    type_id: int,
    n: int,
    *,
    enum_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> SenderGraph:
    """Graph of length-n sequence pairs the given type can confuse.

    x and y are adjacent when either one weakly beats the other as a report,
    so row v is beaten_by[v] | beats[v] of `preference_masks`, which the
    kernel extracts once from the OR of its two direction sums.
    Its k^n sequences, then its k^(2n) pairs, are refused past `enum_budget` first.
    """
    _check_pairs(model, n, enum_budget, "sender graph")
    if classify_type(model, type_id) == HONEST:  # strict wins stay strict under sums
        adjacency = (0,) * model.num_symbols**n
    else:
        adjacency = tuple(_top_bit_masks(model, type_id, n, (_EITHER,))[0])
    return SenderGraph._built(n, adjacency, model.types[type_id], model.num_symbols)


def union_graph(graphs: list[SenderGraph] | tuple[SenderGraph, ...]) -> SenderGraph:
    """Edge union of graphs over the same sequence space, keeping their mark when all share it."""
    if not graphs:
        raise ValueError("union of zero graphs")
    first = graphs[0]
    if any(g.n != first.n or g.vertex_count != first.vertex_count for g in graphs):
        raise ValueError("cannot union graphs over different sequence spaces")
    adjacency = tuple(reduce(or_, rows) for rows in zip(*(g.adjacency for g in graphs)))
    letters = first._letters if all(g._letters == first._letters for g in graphs) else 0
    return SenderGraph._built(first.n, adjacency, UNION, letters)


def check_mis_budget(model: Model, horizons, mis_budget: int = DEFAULT_EXACT_MIS_BUDGET) -> None:
    """`max_independent_set`'s refusal, made before any graph is built.

    A graph at horizon h has one vertex per sequence, k^h of them. The first
    horizon over the budget, in the order given, is the one named.
    """
    for h in horizons:
        check_space(model, h, mis_budget, "exact independent set")


@dataclass(frozen=True)
class IndependentSetResult:
    members: tuple[int, ...]  # vertex ids, ascending; their count is the set's size
    certified: bool  # True only for the exact search
    nodes: int = 0  # branch-and-bound nodes visited; 0 in greedy mode or when proved by a cover


def max_independent_set(
    graph: SenderGraph,
    *,
    mode: str = "exact",
    mis_budget: int = DEFAULT_EXACT_MIS_BUDGET,
) -> IndependentSetResult:
    """Maximum independent set, certified in exact mode.

    Exact mode first tries three proofs against the first-fit clique cover of
    the whole graph: an independent set meets each clique at most once, so
    the first-fit set in id order, else the greedy set, else (on a builder's
    graph at n > 1, if larger) the `_class_floor` of the root's orbits, is
    maximum when it is as large as the cover (an edgeless graph needs no
    cover). Only the graphs these leave go to a deterministic branch and
    reduce on an explicit stack, seeded with the greedy set, or the class
    floor where larger, after a (1,2)-swap descent. Each node first takes
    every candidate of degree 0 or 1, or of degree 2 inside a triangle, and
    drops its neighbours: they are pairwise adjacent, so some maximum set
    takes it. It then cuts when a greedy clique cover of the
    candidates, grown from the lowest or from the highest id, cannot beat
    the incumbent. When the smaller cover misses by at most two cliques,
    unit propagation over its cliques may find that many conflicts and cut.
    Otherwise it branches on the candidate of highest degree (ties to the
    lowest id), by orbits (Ostrowski, Linderoth, Rossi and Smriglio 2011)
    of a group keeping the candidates invariant: the position permutations
    within blocks, one block at the root. "Exclude", first, drops the
    pivot's orbit; "include" splits the blocks by the pivot's letters and is
    skipped when a neighbour u outside the orbit has N[u] inside N[pivot].
    Each node searches under the group it was pushed with, so its reductions
    must leave a union of that group's orbits; a new reduction must keep
    this. These do. Two reducible vertices either stay reducible after each
    other's step, or are adjacent and share their closed neighbourhood, so
    by Newman's lemma every order of steps reaches one fixpoint. A group
    element keeps the graph and the node's candidates, so it maps each order
    onto another and keeps that fixpoint. Greedy mode grows a maximal
    independent set by repeated minimum-degree choice and is not certified.
    """
    if mode == "greedy":
        members = _mask_to_members(_greedy_independent_set(graph.adjacency))
        return IndependentSetResult(members, False)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    _within_budget("exact independent set", graph.vertex_count, mis_budget)

    adjacency = graph.adjacency
    rest = everyone = (1 << graph.vertex_count) - 1
    chosen = 0
    while rest:  # the first-fit independent set in id order
        low = rest & -rest
        chosen |= low
        rest &= ~(adjacency[low.bit_length() - 1] | low)
    ceiling = graph.vertex_count  # an edgeless graph needs no cover
    if chosen != everyone:
        ceiling = len(_cover_classes(adjacency, everyone, False))
    if chosen.bit_count() < ceiling:
        chosen = _greedy_independent_set(adjacency)
    n = graph.n if graph._letters else 1
    words = list(product(range(graph._letters or graph.vertex_count), repeat=n))
    letters: dict[tuple, list[int]] = {}
    root = tuple(range(n))
    if n > 1 and chosen.bit_count() < ceiling:
        _orbit(letters, words, (root,), 0)  # fills letters[root], each vertex's class
        floor = _class_floor(adjacency, letters[root])
        if floor.bit_count() > chosen.bit_count():
            chosen = floor
    if chosen.bit_count() == ceiling:
        return IndependentSetResult(_mask_to_members(chosen), True)
    best_mask = _swap_descent(adjacency, chosen)
    best_size = best_mask.bit_count()
    nodes = 0
    stack = [(0, 0, everyone, (root,))]
    while stack:
        current, size, cand, blocks = stack.pop()
        nodes += 1
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
    return IndependentSetResult(_mask_to_members(best_mask), True, nodes)


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


def _class_floor(adjacency: tuple[int, ...], classes) -> int:
    """A union of whole classes, as a bitmask: an independent set whatever the classes are.

    Takes the classes heaviest first, ties to the lowest vertex id, and keeps
    each one with no edge inside it or to a class already kept.
    """
    chosen = 0
    for cls in sorted(set(classes), key=lambda c: (-c.bit_count(), c & -c)):
        if not reduce(or_, map(adjacency.__getitem__, _mask_to_members(cls))) & (chosen | cls):
            chosen |= cls
    return chosen


def _refine(blocks: tuple, word: tuple) -> tuple:
    """The blocks split by the letters of `word`, so that only permutations fixing it remain."""
    return tuple(tuple(i for i in b if word[i] == a) for b in blocks for a in {word[i] for i in b})


def _cover_classes(adjacency: tuple[int, ...], cand: int, descending: bool) -> list[int]:
    """The cliques, as masks in the order grown, of the first-fit cover in id order or reversed.

    The package's one clique cover. Each clique starts at the lowest (highest)
    uncovered vertex and takes, in that order, every uncovered vertex adjacent
    to all its members; the rows must be loop-free. An independent set meets
    each clique at most once, so the count caps its size. Read by
    `max_independent_set` (the proof and the cuts), the past-budget ceilings
    of `rate.finite_bounds` and the walk of `equilibrium.solve_exact`.
    """
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


def _greedy_independent_set(adjacency: tuple[int, ...]) -> int:
    """The members, as a bitmask, of a maximal independent set of the loop-free rows.

    Repeatedly takes the remaining vertex of least remaining degree, ties to
    the lowest id. Only the removed vertices' neighbours are recounted.
    Vertices of degree 0 change no degree, so they are all taken at once.
    """
    count = len(adjacency)
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
        while removed:
            low = removed & -removed
            removed ^= low
            v = low.bit_length() - 1
            degree[v] = count
            touched |= adjacency[v]
        touched &= remaining
        while touched:
            low = touched & -touched
            touched ^= low
            v = low.bit_length() - 1
            degree[v] = (adjacency[v] & remaining).bit_count()
    return chosen


def _mask_to_members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def export_dot(graph: SenderGraph, labels: list[str]) -> str:
    """Deterministic Graphviz rendering: vertices, labeled `labels[v]`, then edges, ascending."""
    if len(labels) != graph.vertex_count:
        raise ValueError(f"{len(labels)} labels for {graph.vertex_count} vertices")
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
