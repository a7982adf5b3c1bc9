"""Brute-force play of the reporting game, independent of the search formula.

Given a committed decoding strategy, a sender of known type picks reports
that maximize its own averaged payoff against the decoded outcome. Ties are
resolved against the receiver: a true sequence counts as recovered only when
every optimal report decodes to it. These semantics are deliberately computed
by direct scan, never through the preference kernel, so they can cross-check
the receiver objective the questionnaire searches score. Every route prices
reports with one payoff builder, `_payoffs`. `_best_response`, the one
argmax-with-ties, gives `simulate` its options and `recovery_report` its
multiplicities and robust sets; the cross-check applies the same rule by
`_join` as members join an image set, and counts robust members in integers.

A strategy is a `ReceiverStrategy`, the one validated decoding map; an
arbitrary map is built directly, a questionnaire's by `canonical_strategy`.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import prod
from operator import getitem, itemgetter, mul

from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    Model,
    Seq,
    _check_pairs,
    _check_sequences,
    _check_type,
    _count_sequences,
    _within_budget,
    check_space,
    enumerate_sequences,
)
from .equilibrium import (
    DEFAULT_SUBSET_BUDGET,
    _normalize_members,
    packed_scorer,
)

ADVERSARIAL = "adversarial"
LEXICOGRAPHIC = "lexicographic"
RANDOM = "random"
TIE_POLICIES = (ADVERSARIAL, LEXICOGRAPHIC, RANDOM)


@dataclass(frozen=True)
class ReceiverStrategy:
    """A committed decoding map: reports in `mapping` decode to its value, others to `fallback`.

    Every sequence in `mapping`, reported or decoded, has length `n`, and
    `fallback` is a decoded one, so the image is never empty and holds
    exactly what `decode` can return.
    """

    n: int
    mapping: dict[Seq, Seq]
    fallback: Seq

    def __post_init__(self):
        for reported, decoded in self.mapping.items():
            for name, seq in (("reported sequence", reported), ("decoded sequence", decoded)):
                if len(seq) != self.n:
                    raise ValueError(f"{name} {seq} has length {len(seq)}, not {self.n}")
        if self.fallback not in self.image:
            raise ValueError("fallback must be a questionnaire member")

    @cached_property
    def image(self) -> tuple[Seq, ...]:
        return tuple(sorted(set(self.mapping.values())))

    def decode(self, reported: Seq) -> Seq:
        return self.mapping.get(tuple(reported), self.fallback)


def canonical_strategy(members, fallback: Seq | None = None) -> ReceiverStrategy:
    """Identity on `members`, constant `fallback` elsewhere.

    The fallback defaults to the lexicographically smallest member; any member
    works, the worst-case recovery value does not depend on the choice.
    """
    mem = _normalize_members(members)
    fallback = mem[0] if fallback is None else tuple(fallback)
    return ReceiverStrategy(len(mem[0]), dict(zip(mem, mem)), fallback)


def _payoffs(model: Model, type_id: int, letters, reports) -> Iterator[tuple[int, ...]]:
    """Per truth in the product of `letters`, this type's scaled total for every report.

    `letters` holds the truth letters per position: `[range(k)] * n` for the
    whole space, in order, or `zip(truth)` for one truth. Report r's column of
    totals sums `model.scaled_utility`'s table[r_p][x_p] by prefix sums over
    the positions, the last varying fastest as in the product; the columns
    are read back lazily, one row per truth.
    """
    _, table = model.scaled_utility[type_id]
    # cells[p][a]: report letter a's payoffs at position p, one per truth letter there.
    cells = [[[row[x] for x in at] for row in table] for at in letters]
    extend = lambda col, at: [c + x for c in col for x in at]  # one position more
    return zip(*(reduce(extend, map(getitem, cells, r), [0]) for r in reports))


def _best_response(totals, image) -> tuple[int, list[Seq]]:
    """The best of `totals`, one per member of `image`, and the members reaching it."""
    best_total = max(totals)
    return best_total, list(itertools.compress(image, map(best_total.__eq__, totals)))


@dataclass(frozen=True)
class RecoveryReport:
    value: Fraction  # prior-weighted worst-case recovery count
    robust: tuple[tuple[Seq, ...], ...]  # per type id
    multiplicities: tuple[int, ...]  # number of optimal sender strategies per type


def recovery_report(
    model: Model,
    strategy: ReceiverStrategy,
    *,
    enum_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> RecoveryReport:
    """Full worst-case picture: robust sets plus how many best responses exist.

    The one scan prices every truth over the image, per type; `_best_response`
    lists each truth's winners. A truth is robust when they are itself alone,
    so robust sets follow sequence order. A truth's best responses are the
    reports decoding to its winners; the product of their counts over truths
    is the multiplicity, since best responses choose independently. Its k^n
    sequences and T * k^n * |image| payoffs are refused past `enum_budget`,
    and then a report key naming a symbol outside the model.
    """
    image = strategy.image
    n = strategy.n
    _check_sequences(model, image, "image")
    payoffs = model.num_types * _count_sequences(model, n, enum_budget) * len(image)
    _within_budget("played-out scan", payoffs, enum_budget)
    _check_sequences(model, strategy.mapping, "report")
    seqs = enumerate_sequences(model, n, enum_budget=enum_budget)
    reach = Counter(map(strategy.decode, seqs))  # reports per decoded outcome
    space = [range(model.num_symbols)] * n
    robust: list[tuple[Seq, ...]] = []
    multiplicities: list[int] = []
    for type_id in range(model.num_types):
        winners = [_best_response(row, image)[1] for row in _payoffs(model, type_id, space, image)]
        robust.append(tuple(z for z, won in zip(seqs, winners) if won == [z]))
        multiplicities.append(prod(sum(map(reach.__getitem__, won)) for won in winners))
    scale, weights = model.prior_weights
    value = Fraction(sum(map(mul, weights, map(len, robust))), scale)
    return RecoveryReport(value, tuple(robust), tuple(multiplicities))


@dataclass(frozen=True)
class SimulationOutcome:
    options: tuple[Seq, ...]  # optimal decoded outcomes available to the sender
    decoded: Seq  # the outcome the sender settled on: the truth is recovered iff it is this
    reported: Seq  # lexicographically least report achieving it
    utility: Fraction


def simulate(
    model: Model,
    strategy: ReceiverStrategy,
    type_id: int,
    truth: Seq,
    *,
    policy: str = ADVERSARIAL,
    seed: int = 0,
) -> SimulationOutcome:
    """Play one round: the sender reports optimally, ties broken per policy.

    The options, the outcomes optimal reports decode to, are found by a scan
    of the image: every decoded outcome is reachable by some report.
    Policies: adversarial picks an option differing from the truth whenever
    one exists (least such), lexicographic picks the least option, random
    draws from a generator seeded per (seed, type, truth) so concurrent calls
    replay identically. The least report decoding to the outcome is read off
    the map, with no walk of the sequence space: the least key mapped to it
    or, for the fallback, the first sequence that is no key, if that comes
    first. Every argument is checked before the image is priced, the
    strategy's report keys last.
    """
    truth = tuple(truth)
    n = len(truth)
    if n != strategy.n:
        raise ValueError(f"truth length {n} differs from the strategy's {strategy.n}")
    image = strategy.image
    _check_sequences(model, [truth], "truth")
    _check_type(model, type_id)
    _check_sequences(model, image, "image")
    if policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {policy!r}")
    _check_sequences(model, strategy.mapping, "report")
    scale, _ = model.scaled_utility[type_id]
    (totals,) = _payoffs(model, type_id, zip(truth), image)
    best_total, options = _best_response(totals, image)
    if policy == ADVERSARIAL:
        lying = [z for z in options if z != truth]
        decoded = min(lying) if lying else options[0]
    elif policy == LEXICOGRAPHIC:
        decoded = min(options)
    else:  # RANDOM
        stream_seed = seed
        for part in (type_id, len(truth), *truth):
            stream_seed = stream_seed * 1000003 + part + 1
        decoded = random.Random(stream_seed).choice(options)
    # decoded is in the image, so some key reaches it; the least report is kept.
    reports = [y for y, z in strategy.mapping.items() if z == decoded]
    if decoded == strategy.fallback:  # the first non-key: at most |mapping| + 1 steps, or none
        space = itertools.product(range(model.num_symbols), repeat=n)
        reports += itertools.islice((y for y in space if y not in strategy.mapping), 1)
    return SimulationOutcome(
        options=tuple(options),
        decoded=decoded,
        reported=min(reports),
        utility=Fraction(best_total, n * scale),
    )


@dataclass(frozen=True)
class CrossCheckResult:
    image_sets_checked: int
    mismatches: tuple[tuple[tuple[Seq, ...], Fraction, Fraction], ...]  # empty when they agreed


def cross_check_equivalence(
    model: Model,
    n: int,
    *,
    strategies: str = "all",
    count: int = 50,
    seed: int = 0,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    enum_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> CrossCheckResult:
    """Check that played-out recovery equals the searches' receiver objective.

    For each image set I, the worst-case recovery of the canonical strategy on
    I must equal the receiver objective of I exactly. The objective comes from
    the packed scorer the questionnaire searches run (see `packed_scorer`);
    the recovery from each member truth's totals over I (a truth outside I
    never decodes to itself), never from the preference kernel. The sequence
    space, the scorer and each type's payoff table over every (truth, report)
    pair are built once per call and shared by every image set. The image
    sets stream and only mismatches are kept. `strategies` is "random"
    (`count` >= 1 seeded draws, each folded from the empty set and scored as
    it is drawn) or "all" (every nonempty subset, walked depth first,
    mismatches listed by size, then in combination order; refused before any
    sequence is built past `subset_budget` sequences). The payoff table holds
    k^(2n) totals per type, T * k^(2n) in all, refused past `enum_budget`
    before it or the scorer is built; so is the random mode's bound of
    `count` * T * k^n truths.
    """
    if strategies not in ("all", "random"):
        raise ValueError(f"unknown strategies mode {strategies!r}")
    if strategies == "random" and count < 1:
        raise ValueError(f"random cross-check needs a count >= 1, got {count}")
    if strategies == "all":
        check_space(model, n, subset_budget, "exhaustive cross-check (use strategies='random')")
    # One type's k^(2n) first, so a huge horizon is refused before k^(2n) is built.
    space = _check_pairs(model, n, enum_budget, "cross-check payoff table")
    _within_budget("cross-check payoff table", model.num_types * space * space, enum_budget)
    # A draw plays only its member truths, so count * T * k^n bounds its scans.
    if strategies == "random":
        _within_budget("random cross-check", count * model.num_types * space, enum_budget)
    id_sets = None if strategies == "all" else _image_id_sets(space, count, seed)
    scored = _scored_image_sets(model, n, id_sets, enum_budget)
    scale, _ = model.prior_weights
    checked = 0
    mismatches = []
    for members, played, formula in scored:
        checked += 1
        if played != formula:
            mismatches.append((members, Fraction(played, scale), Fraction(formula, scale)))
    if strategies == "all":  # from depth-first order to size, then combination order
        mismatches.sort(key=lambda mismatch: (len(mismatch[0]), mismatch[0]))
    return CrossCheckResult(checked, tuple(mismatches))


def _image_id_sets(space: int, count: int, seed: int) -> Iterator[tuple[int, ...]]:
    """`count` random image sets, as ascending positions in the sequence space, drawn lazily."""
    rng = random.Random(seed)
    # randint draws each size before sample draws its members; a seed's sets rest on that.
    return (tuple(sorted(rng.sample(range(space), rng.randint(1, space)))) for _ in range(count))


def _scored_image_sets(model: Model, n: int, id_sets, enum_budget: int):
    """Yield (members, played, formula) per image set, each over the `prior_weights` scale.

    `id_sets` gives sets as ascending sequence positions, or is None for
    every nonempty set. A set grows by one position j at a time, carrying its
    mask, beats OR and per-type recovered members (see `_join`): a given set
    is folded from the empty root, the walk grows each child from its parent.
    """
    _, weights = model.prior_weights
    seqs, _, beats, score, _ = packed_scorer(model, n, enum_budget)
    space = [range(model.num_symbols)] * n
    tables = [list(_payoffs(model, t, space, seqs)) for t in range(model.num_types)]
    columns = [list(zip(*table)) for table in tables]
    owns = [[row[v] for v, row in enumerate(table)] for table in tables]
    # types[j][t]: type t's row of truth j, column of report j, and every truth's own total.
    types = [list(zip(rows, cols, owns)) for rows, cols in zip(zip(*tables), zip(*columns))]

    def grow(node, j):
        ids, mask, beaten, recovered = node
        return ids + (j,), mask | 1 << j, beaten | beats[j], _join(recovered, types[j], ids, j)

    def walk():  # depth first, each child adding a j past its parent's last member
        stack = list(zip(itertools.repeat(root), range(len(seqs) - 1, -1, -1)))
        while stack:
            node = grow(*stack.pop())
            yield node
            stack.extend(zip(itertools.repeat(node), range(len(seqs) - 1, node[0][-1], -1)))

    root = ((), 0, 0, [()] * len(tables))
    nodes = walk() if id_sets is None else (reduce(grow, ids, root) for ids in id_sets)
    for ids, mask, beaten, recovered in nodes:
        members = tuple(map(seqs.__getitem__, ids))
        yield members, sum(map(mul, weights, map(len, recovered))), score(mask, beaten)


def _join(recovered, types, ids, j) -> list[list[int]]:
    """j joins the set at positions `ids`: per type, the members recovered after.

    A recovered member stays so while its own total is strictly above report
    j's at its truth, and j is when its own is strictly above every earlier
    member's at truth j. Rivals only grow, so a loss is final and the join
    order does not matter.
    """
    get = itemgetter(*ids) if len(ids) > 1 else lambda row: tuple(map(row.__getitem__, ids))
    joined = []
    for live, (row, column, own) in zip(recovered, types):
        live = [v for v in live if column[v] < own[v]]
        if not ids or row[j] > max(get(row)):
            live.append(j)
        joined.append(live)
    return joined
