"""Brute-force play of the reporting game, independent of the search formula.

Given a committed decoding strategy, a sender of known type picks reports
that maximize its own averaged payoff against the decoded outcome. Ties are
resolved against the receiver: a true sequence counts as recovered only when
every optimal report decodes to it. These semantics are deliberately computed
by direct scan so they can cross-check the truthful-subset formula.

A strategy is any object with an `image` tuple and a `decode` method;
`ReceiverStrategy` and `TableStrategy` both qualify.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import getitem

from .model import (
    BudgetExceededError,
    DEFAULT_ENUMERATION_BUDGET,
    Model,
    Seq,
    _check_sequence,
    enumerate_sequences,
)
from .equilibrium import (
    DEFAULT_SUBSET_BUDGET,
    canonical_strategy,
    receiver_objective,
)

ADVERSARIAL = "adversarial"
LEXICOGRAPHIC = "lexicographic"
RANDOM = "random"
TIE_POLICIES = (ADVERSARIAL, LEXICOGRAPHIC, RANDOM)


@dataclass(frozen=True)
class TableStrategy:
    """Arbitrary decoding map, given explicitly as report -> decoded sequence."""

    n: int
    mapping: dict[Seq, Seq]  # must be total over all length-n sequences

    @cached_property
    def image(self) -> tuple[Seq, ...]:
        return tuple(sorted(set(self.mapping.values())))

    def decode(self, reported: Seq) -> Seq:
        return self.mapping[tuple(reported)]


def table_strategy(model: Model, n: int, mapping: dict[Seq, Seq]) -> TableStrategy:
    seqs = enumerate_sequences(model, n)
    normalized = {tuple(k): tuple(v) for k, v in mapping.items()}
    missing = [s for s in seqs if s not in normalized]
    if missing:
        raise ValueError(f"decoding map is not total: no entry for {missing[0]}")
    if len(normalized) != len(seqs):
        raise ValueError("decoding map has entries outside the sequence space")
    return TableStrategy(n, normalized)


@dataclass(frozen=True)
class BestReportOutcome:
    truth: Seq
    type_id: int
    decoded: tuple[Seq, ...]  # decoded outcomes reachable by optimal reports
    utility: Fraction  # the optimal averaged payoff


def _best_response(table, image, truth: Seq) -> tuple[int, list[Seq]]:
    """Best scaled payoff total over the image at this truth, and the members reaching it."""
    columns = [[row[t] for row in table] for t in truth]  # columns[p][r] = table[r][truth[p]]
    totals = [sum(map(getitem, columns, candidate)) for candidate in image]
    best_total = max(totals)
    return best_total, [c for c, total in zip(image, totals) if total == best_total]


def best_reports(model: Model, strategy, type_id: int, truth: Seq) -> BestReportOutcome:
    """Decoded outcomes a sender of this type can force with optimal reports.

    Every decoded outcome is reachable by some report, so the scan ranges over
    the strategy's image rather than over raw reports.
    """
    truth = tuple(truth)
    image = strategy.image
    if len(truth) != len(image[0]):
        raise ValueError(f"truth length {len(truth)} differs from the strategy's {len(image[0])}")
    _check_sequence(model, truth, "truth")
    if not 0 <= type_id < model.num_types:
        raise ValueError(f"type id {type_id} out of range")
    scale, table = model.scaled_utility[type_id]
    best_total, winners = _best_response(table, image, truth)
    return BestReportOutcome(
        truth, type_id, tuple(winners), Fraction(best_total, len(truth) * scale)
    )


def robust_recovery_set(
    model: Model,
    strategy,
    type_id: int,
    *,
    enum_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[Seq, ...]:
    """True sequences recovered no matter how this type breaks payoff ties.

    A sequence qualifies exactly when its unique optimal decoded outcome is
    itself.
    """
    _, table = model.scaled_utility[type_id]
    image = strategy.image
    return tuple(
        truth
        for truth in enumerate_sequences(model, len(image[0]), budget=enum_budget)
        if _best_response(table, image, truth)[1] == [truth]
    )


def worst_case_recovery(
    model: Model,
    strategy,
    *,
    enum_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Fraction:
    """Prior-weighted count of sequences recovered against worst-case senders."""
    value = Fraction(0)
    for type_id, p in enumerate(model.prior):
        robust = robust_recovery_set(model, strategy, type_id, enum_budget=enum_budget)
        value += p * len(robust)
    return value


@dataclass(frozen=True)
class RecoveryReport:
    value: Fraction  # prior-weighted worst-case recovery count
    robust: tuple[tuple[Seq, ...], ...]  # per type id
    multiplicities: tuple[int, ...]  # number of optimal sender strategies per type


def recovery_report(
    model: Model,
    strategy,
    *,
    enum_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> RecoveryReport:
    """Full worst-case picture: robust sets plus how many best responses exist.

    The multiplicity for a type is the product over true sequences of the
    number of reports that decode into an optimal outcome, since best
    responses choose independently at each true sequence.
    """
    image = strategy.image
    seqs = enumerate_sequences(model, len(image[0]), budget=enum_budget)
    reach = Counter(strategy.decode(y) for y in seqs)  # reports per decoded outcome
    robust: list[tuple[Seq, ...]] = []
    multiplicities: list[int] = []
    for _, table in model.scaled_utility:
        robust_t: list[Seq] = []
        multiplicity = 1
        for truth in seqs:
            _, winners = _best_response(table, image, truth)
            if winners == [truth]:
                robust_t.append(truth)
            multiplicity *= sum(reach[d] for d in winners)
        robust.append(tuple(robust_t))
        multiplicities.append(multiplicity)
    value = sum(p * len(r) for p, r in zip(model.prior, robust))
    return RecoveryReport(value, tuple(robust), tuple(multiplicities))


@dataclass(frozen=True)
class SimulationOutcome:
    truth: Seq
    policy: str
    options: tuple[Seq, ...]  # optimal decoded outcomes available to the sender
    decoded: Seq  # the outcome the sender settled on
    reported: Seq  # lexicographically least report achieving it
    recovered: bool
    utility: Fraction


def simulate(
    model: Model,
    strategy,
    type_id: int,
    truth: Seq,
    *,
    policy: str = ADVERSARIAL,
    seed: int = 0,
    enum_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> SimulationOutcome:
    """Play one round: the sender reports optimally, ties broken per policy.

    Policies: adversarial picks an outcome differing from the truth whenever
    one exists (least such), lexicographic picks the least outcome, random
    draws from a generator seeded per (seed, type, truth) so concurrent calls
    replay identically.
    """
    truth = tuple(truth)
    n = len(truth)
    space = model.num_symbols**n  # the report is located by scanning this space
    if space > enum_budget:
        raise BudgetExceededError("report search", space, enum_budget)
    outcome = best_reports(model, strategy, type_id, truth)
    options = outcome.decoded
    if policy == ADVERSARIAL:
        lying = [z for z in options if z != truth]
        decoded = min(lying) if lying else options[0]
    elif policy == LEXICOGRAPHIC:
        decoded = min(options)
    elif policy == RANDOM:
        stream_seed = seed
        for part in (type_id, len(truth), *truth):
            stream_seed = stream_seed * 1000003 + part + 1
        decoded = random.Random(stream_seed).choice(list(options))
    else:
        raise ValueError(f"unknown tie policy {policy!r}")
    reported = None
    for y in itertools.product(range(model.num_symbols), repeat=n):
        if strategy.decode(y) == decoded:
            reported = y
            break
    assert reported is not None  # decoded is in the image, some report reaches it
    return SimulationOutcome(
        truth=truth,
        policy=policy,
        options=options,
        decoded=decoded,
        reported=reported,
        recovered=decoded == truth,
        utility=outcome.utility,
    )


@dataclass(frozen=True)
class CrossCheckResult:
    n: int
    image_sets_checked: int
    agreed: bool
    mismatches: tuple[tuple[tuple[Seq, ...], Fraction, Fraction], ...]


def cross_check_equivalence(
    model: Model,
    n: int,
    *,
    strategies: str = "all",
    count: int = 50,
    seed: int = 0,
    subset_cap: int = DEFAULT_SUBSET_BUDGET,
    enum_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> CrossCheckResult:
    """Check that played-out recovery equals the truthful-subset formula.

    For each image set I, the worst-case recovery of the canonical strategy on
    I must equal the receiver objective of I exactly. `strategies` is "all"
    (every nonempty subset, requires a small sequence space) or "random"
    (`count` seeded draws). The exhaustive mode is refused before any
    sequence is enumerated when the space exceeds `subset_cap` sequences.
    """
    space = model.num_symbols**n
    if strategies == "all" and space > subset_cap:
        raise BudgetExceededError(
            "exhaustive cross-check (use strategies='random')", space, subset_cap
        )
    seqs = enumerate_sequences(model, n, budget=enum_budget)
    image_sets: list[tuple[Seq, ...]] = []
    if strategies == "all":
        for size in range(1, space + 1):
            image_sets.extend(
                tuple(seqs[v] for v in combo)
                for combo in itertools.combinations(range(space), size)
            )
    elif strategies == "random":
        rng = random.Random(seed)
        for _ in range(count):
            size = rng.randint(1, space)
            image_sets.append(tuple(seqs[v] for v in sorted(rng.sample(range(space), size))))
    else:
        raise ValueError(f"unknown strategies mode {strategies!r}")

    mismatches = []
    for members in image_sets:
        played = worst_case_recovery(
            model, canonical_strategy(members), enum_budget=enum_budget
        )
        formula = receiver_objective(model, members)
        if played != formula:
            mismatches.append((members, played, formula))
    return CrossCheckResult(n, len(image_sets), not mismatches, tuple(mismatches))
