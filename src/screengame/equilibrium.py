"""Optimal questionnaire search for the receiver.

A questionnaire is a nonempty set I of length-n sequences the receiver is
willing to certify as-is; every other report is decoded to a fallback member.
For each sender type, the truthful subset of I is where truth-telling strictly
beats reporting any other member. The receiver's objective is the prior
weighted size of those subsets, and an optimal questionnaire maximizes it over
all nonempty I.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from operator import and_, mul, or_

from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    HONEST,
    Model,
    Seq,
    _check_sequences,
    _count_sequences,
    check_space,
    classify_type,
    enumerate_sequences,
    preference_masks,
)
from .graph import _mask_to_members, clique_cover_bound

DEFAULT_SUBSET_BUDGET = 20  # max base sequences for exhaustive search (2^20 subsets)
DEFAULT_REPORT_CAP = 16  # maximizers listed in a result
PATIENCE = 2  # zero-gain growth steps the heuristic tolerates


def _normalize_members(members) -> tuple[Seq, ...]:
    mem = tuple(sorted(set(map(tuple, members))))
    if not mem:
        raise ValueError("questionnaire must be nonempty")
    n = len(mem[0])
    if n < 1 or any(len(x) != n for x in mem):
        raise ValueError("questionnaire members must share one length >= 1")
    return mem


def truthful_subset(model: Model, members, type_id: int) -> tuple[Seq, ...]:
    """Members on which this type strictly prefers truth over every other member.

    Singletons have no competing member, so they are kept outright. Honest
    types keep everything: per-letter strict wins stay strict under sums.
    This scan stops at a member's first beater, which makes one cold
    evaluation cheaper than building `preference_masks`; it is also the
    reference the exact search is tested against.
    """
    mem = _normalize_members(members)
    _check_sequences(model, mem, "member")
    if classify_type(model, type_id) == HONEST:
        return mem
    _, table = model.scaled_utility[type_id]
    out = []
    for x in mem:
        own = sum(table[s][s] for s in x)
        for y in mem:
            if y != x and sum(table[r][t] for r, t in zip(y, x)) >= own:
                break
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class Questionnaire:
    """One evaluated questionnaire with its per-type truthful subsets."""

    n: int
    members: tuple[Seq, ...]  # ascending
    truthful: tuple[tuple[Seq, ...], ...]  # per type id
    objective: Fraction


def evaluate_questionnaire(model: Model, members) -> Questionnaire:
    mem = _normalize_members(members)
    parts = tuple(truthful_subset(model, mem, t) for t in range(model.num_types))
    scale, weights = model.prior_weights
    objective = Fraction(sum(map(mul, weights, map(len, parts))), scale)
    return Questionnaire(len(mem[0]), mem, parts, objective)


@dataclass(frozen=True)
class ReceiverStrategy:
    """Decode reports inside `members` as themselves, everything else to `fallback`."""

    n: int
    members: tuple[Seq, ...]  # ascending; the image of the decoding map
    fallback: Seq

    def decode(self, reported: Seq) -> Seq:
        reported = tuple(reported)
        return reported if reported in self._member_set else self.fallback

    @property
    def image(self) -> tuple[Seq, ...]:
        return self.members

    @cached_property
    def _member_set(self) -> frozenset[Seq]:
        return frozenset(self.members)


def canonical_strategy(members, fallback: Seq | None = None) -> ReceiverStrategy:
    """Identity on `members`, constant `fallback` elsewhere.

    The fallback defaults to the lexicographically smallest member; any member
    works, the worst-case recovery value does not depend on the choice.
    """
    mem = _normalize_members(members)
    if fallback is None:
        fallback = mem[0]
    else:
        fallback = tuple(fallback)
        if fallback not in mem:
            raise ValueError("fallback must be a questionnaire member")
    return ReceiverStrategy(len(mem[0]), mem, fallback)


def packed_scorer(model: Model, n: int, enum_budget: int = DEFAULT_ENUMERATION_BUDGET):
    """The receiver objective on member bitmasks: (seqs, scale, beats, score, covers).

    Bit v of a member set I stands for seqs[v], the v-th length-n sequence.
    A member x of I is truthful for a deceptive type when no other member
    beats it, so the type's truthful count is |I| minus |I & beaten|, where
    beaten is the OR of beats[y] over y in I and beats[y] holds the members
    y weakly beats (see `preference_masks`); honest types count |I|.
    Deceptive type number `slot` owns bits slot * N .. slot * N + N - 1 of
    beats[y], so one OR serves every type. score(members, beaten) is the
    objective times `scale`, the model's `prior_weights` scale, so searches
    compare integers. covers holds (the type's prior weight, bit offset,
    sender graph) per deceptive type, in slot order; the graph's row y is
    beaten_by[y] | beats[y], the adjacency `build_sender_graph` gives. Its
    k^n sequences, then its k^(2n) pairs, are refused past `enum_budget` first.
    """
    _count_sequences(model, n, enum_budget)
    check_space(model, 2 * n, enum_budget, "packed scorer")
    seqs = enumerate_sequences(model, n, enum_budget=enum_budget)
    count = len(seqs)
    scale, weights = model.prior_weights
    beats = [0] * count
    covers = []
    for type_id, weight in enumerate(weights):
        if classify_type(model, type_id) == HONEST:
            continue
        shift = len(covers) * count
        beaten_by, type_beats = preference_masks(model, type_id, seqs)
        for y, mask in enumerate(type_beats):
            beats[y] |= mask << shift
        covers.append((weight, shift, tuple(map(or_, beaten_by, type_beats))))
    # Multiplying a member set by `copies` places it in each type's bits.
    copies = sum(1 << shift for _, shift, _ in covers)
    low = (1 << count) - 1

    def score(members: int, beaten: int) -> int:
        """Scaled objective of `members` when `beaten` holds every type's losers."""
        hit = members * copies & beaten
        value = scale * members.bit_count()  # the weights sum to `scale`
        for weight, shift, _ in covers:
            value -= weight * (hit >> shift & low).bit_count()
        return value

    return seqs, scale, beats, score, covers


@dataclass(frozen=True)
class EquilibriumResult:
    n: int
    mode: str  # "exact" or "heuristic"
    certified: bool  # True when the optimum is proven, not just attained
    optimum: Fraction
    maximizers: tuple[tuple[Seq, ...], ...]  # lexicographic, capped
    maximizer_count: int  # found; a lower bound unless maximizers_complete
    maximizers_complete: bool  # True when every maximizer was met and counted
    designated: Questionnaire  # lexicographically least maximizer, evaluated
    subsets_examined: int
    subsets_pruned: int
    cover_cuts: int = 0  # cut by a clique-cover ceiling below the incumbent
    tie_cuts: int = 0  # cut at a ceiling equal to the incumbent


def solve_exact(
    model: Model,
    n: int,
    *,
    prune: bool = True,
    report_cap: int = DEFAULT_REPORT_CAP,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    enum_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> EquilibriumResult:
    """Exhaustive questionnaire search over all nonempty sets of sequences.

    A branch and bound over membership: a depth-first walk decides sequences
    0, 1, ..., N-1 in turn, trying "include" before "exclude", so it meets
    the subsets in lexicographic order. Each node carries I and the OR of
    beats[y] over y in I (see `packed_scorer`), so including a sequence
    costs one OR. In both modes the incumbent starts at 1, the value of any
    singleton (every type reports a lone member truthfully), which the first
    subset examined, {seqs[0]}, reaches.

    With pruning on, a node whose undecided sequences are R gets a ceiling
    on every subset below it, and is cut when that ceiling is strictly below
    the incumbent (`cover_cuts`). A member that I beats stays beaten in every
    I | S with S inside R, and a type's truthful members never beat each
    other, so they are independent in its sender graph and meet each clique
    of a cover at most once. The ceiling lets an honest type count all of
    I | R, and a deceptive type a greedy clique cover of the members of
    I | R that I does not beat (`clique_cover_bound`, on the graphs in the
    scorer's covers): the independence-number ceiling, inside the subtree.

    Once max(report_cap, 1) maximizers at the incumbent value are listed,
    nodes whose ceiling equals the incumbent are cut as well (`tie_cuts`);
    a better incumbent starts the count again. The optimum, the designated
    maximizer and the first min(report_cap, count) maximizers match the
    unpruned search exactly, but `maximizer_count` is then a lower bound:
    `maximizers_complete` is False when a tie was cut at the optimum.
    Without pruning every subset is examined and the count is exact.
    `subsets_pruned` (every cut subtree) is 2^N - 1 less the subsets examined.
    """
    if report_cap < 0:
        raise ValueError(f"report cap must be >= 0, got {report_cap}")
    count = check_space(model, n, subset_budget, "questionnaire search")
    seqs, scale, beats, score, covers = packed_scorer(model, n, enum_budget)
    low = (1 << count) - 1
    honest = scale - sum(weight for weight, _, _ in covers)
    listed = max(report_cap, 1)  # maximizers walked before ties are cut

    best = scale  # the singleton value 1
    floor = best  # nodes with a ceiling below it are cut; best + 1 cuts ties
    maximizers: list[int] = []  # the first `listed` member bitmasks at `best`
    found = 0  # maximizers at `best` the walk met
    ties_cut = False  # a node with ceiling `best` was cut
    examined = cover_cuts = tie_cuts = 0

    stack = [(0, 0, 0)]  # (members, beaten, first undecided sequence)
    while stack:
        members, beaten, k = stack.pop()
        if prune:
            span = members | low >> k << k
            ceiling = honest * span.bit_count()
            for weight, shift, graph in covers:
                ceiling += weight * clique_cover_bound(graph, span & ~(beaten >> shift))
            if ceiling < floor:
                cover_cuts += ceiling < best
                if ceiling == best:
                    tie_cuts += 1
                    ties_cut = True
                continue
        grown, grown_beaten = members | 1 << k, beaten | beats[k]
        examined += 1
        value = score(grown, grown_beaten)
        if value >= best:
            if value > best:
                best, maximizers, found, ties_cut = value, [], 0, False
            found += 1
            if found <= listed:
                maximizers.append(grown)
            floor = best + (found >= listed)
        if k + 1 < count:
            stack.append((members, beaten, k + 1))  # exclude k
            stack.append((grown, grown_beaten, k + 1))  # include k, walked first

    member_sets = tuple(
        tuple(seqs[v] for v in _mask_to_members(m)) for m in maximizers[:report_cap]
    )
    designated = evaluate_questionnaire(model, [seqs[v] for v in _mask_to_members(maximizers[0])])
    return EquilibriumResult(
        n=n,
        mode="exact",
        certified=True,
        optimum=Fraction(best, scale),
        maximizers=member_sets,
        maximizer_count=found,
        maximizers_complete=not ties_cut,
        designated=designated,
        subsets_examined=examined,
        subsets_pruned=low - examined,
        cover_cuts=cover_cuts,
        tie_cuts=tie_cuts,
    )


def solve_heuristic(
    model: Model,
    n: int,
    *,
    seed: int = 0,
    enum_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> EquilibriumResult:
    """Greedy questionnaire growth with one-element local search.

    Starts from a seeded random singleton, repeatedly adds the best candidate
    (tolerating `PATIENCE` zero-gain additions), then improves by single drops
    and swaps until none helps. Deterministic for a fixed seed. The result is
    not certified optimal, but it is never below its floor, the closure of
    the full space: the union over types of its truthful subsets, or the full
    space when that union is empty. Shrinking a questionnaire can only grow
    each truthful subset, so the union is its own union of truthful subsets,
    and it never scores below the full space (checked at runtime). The floor
    is returned instead whenever it scores strictly higher. Nor is it below
    the best singleton, whose objective is exactly 1, because local search
    starts from a singleton and never loses value.

    Trials are scored like the exact search's subsets (see `packed_scorer`):
    the walk keeps the OR of beats[y] over its members, so adding a member
    costs one OR, and a drop recomputes the OR of the kept members once.
    Among equal-scoring trials the first one visited wins.
    """
    seqs, scale, beats, score, covers = packed_scorer(model, n, enum_budget)
    full = (1 << len(seqs)) - 1

    start = random.Random(seed).randrange(len(seqs))
    current, beaten = 1 << start, beats[start]
    current_value = score(current, beaten)
    evaluations = 1
    grace = PATIENCE

    while current != full:
        best_value: int | None = None
        for v in _mask_to_members(full ^ current):
            evaluations += 1
            value = score(current | 1 << v, beaten | beats[v])
            if best_value is None or value > best_value:
                best_value, pick = value, v
        if best_value > current_value:
            grace = PATIENCE
        elif best_value == current_value and grace > 0:
            grace -= 1
        else:
            break
        current, beaten, current_value = current | 1 << pick, beaten | beats[pick], best_value

    while True:
        ids, outside = _mask_to_members(current), _mask_to_members(full ^ current)
        drops = [
            (current ^ 1 << d, reduce(or_, (beats[v] for v in ids if v != d), 0)) for d in ids
        ]
        swaps = (
            (kept | 1 << v, kept_beaten | beats[v]) for kept, kept_beaten in drops for v in outside
        )
        best_value, best_next = current_value, None
        for trial in chain(drops if len(ids) > 1 else (), swaps):
            evaluations += 1
            value = score(*trial)
            if value > best_value:
                best_value, best_next = value, trial
        if best_next is None:
            break
        (current, beaten), current_value = best_next, best_value

    # A member is truthful for a type when that type's slot of full_beaten misses it.
    full_beaten = reduce(or_, beats)
    floor, floor_value = full, score(full, full_beaten)
    evaluations += 1
    if len(covers) == model.num_types:  # an honest type keeps every member
        kept = full & ~reduce(and_, (full_beaten >> shift for _, shift, _ in covers))
        if kept not in (0, full):
            kept_value = score(kept, reduce(or_, (beats[v] for v in _mask_to_members(kept))))
            if kept_value < floor_value:
                raise RuntimeError(
                    "closure reduction decreased the objective "
                    f"({Fraction(floor_value, scale)} -> {Fraction(kept_value, scale)}); "
                    "this contradicts the dominance argument"
                )
            floor, floor_value = kept, kept_value
    if floor_value > current_value:
        current, current_value = floor, floor_value
    designated = evaluate_questionnaire(model, [seqs[v] for v in _mask_to_members(current)])
    return EquilibriumResult(
        n=n,
        mode="heuristic",
        certified=False,
        optimum=Fraction(current_value, scale),
        maximizers=(designated.members,),
        maximizer_count=1,
        maximizers_complete=False,
        designated=designated,
        subsets_examined=evaluations,
        subsets_pruned=0,
    )
