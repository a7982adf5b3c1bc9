from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from operator import ge, gt, le, lt

import pytest

import screengame as sg
from screengame.cli import main

from conftest import make_random_model, model_pool, sequence_utility


def naive_strategy(model, n=1):
    return sg.canonical_strategy(sg.enumerate_sequences(model, n))


def two_member_strategy():
    return sg.canonical_strategy([(0,), (2,)])


def image_id_sets(space, mode, count, seed):
    """Image sets as ascending positions: every nonempty one by size, then in
    combination order, for "all"; the cross-check's seeded draws for "random"."""
    if mode == "all":
        return (c for k in range(1, space + 1) for c in itertools.combinations(range(space), k))
    return sg.gameplay._image_id_sets(space, count, seed)


def test_simulate_known_cases(example):
    h = example.type_index("h")
    d = example.type_index("d")
    naive = naive_strategy(example)
    out = sg.simulate(example, naive, d, (2,))
    assert out.options == ((0,), (1,))
    assert out.utility == 1

    gtilde = two_member_strategy()
    out = sg.simulate(example, gtilde, d, (0,))
    assert out.options == ((0,),)
    assert out.utility == 1

    out = sg.simulate(example, gtilde, h, (1,))
    assert out.options == ((0,), (2,))
    assert out.utility == 0


def test_simulate_validates_the_truth(example):
    strategy = sg.canonical_strategy([(0, 0), (2, 2)])
    # a truth shorter than the reports used to be scored on a truncated zip
    with pytest.raises(ValueError, match="truth length 1 differs"):
        sg.simulate(example, strategy, 1, (2,))
    with pytest.raises(ValueError, match="truth length 3 differs"):
        sg.simulate(example, strategy, 0, (0, 0, 0))
    with pytest.raises(ValueError, match="symbol id 5 out of range"):
        sg.simulate(example, strategy, 0, (5, 5))
    with pytest.raises(ValueError, match="symbol id -1 out of range"):
        sg.simulate(example, strategy, 0, (0, -1))
    for type_id in (7, 2, -1):
        with pytest.raises(ValueError, match=f"type id {type_id} out of range"):
            sg.simulate(example, strategy, type_id, (0, 0))
    assert sg.simulate(example, strategy, 1, (2, 2)).options == ((0, 0),)


def test_recovery_report_robust_sets(example):
    h = example.type_index("h")
    d = example.type_index("d")
    naive = sg.recovery_report(example, naive_strategy(example)).robust
    assert naive[h] == ((0,), (1,), (2,))
    assert naive[d] == ()

    gtilde = sg.recovery_report(example, two_member_strategy()).robust
    assert gtilde[h] == ((0,), (2,))
    assert gtilde[d] == ((0,),)


def test_recovery_report_known_values(example):
    assert sg.recovery_report(example, naive_strategy(example)).value == 1
    assert sg.recovery_report(example, two_member_strategy()).value == Fraction(4, 3)
    assert sg.recovery_report(example, sg.canonical_strategy([(0,)])).value == 1


def test_recovery_report_multiplicities(example):
    report = sg.recovery_report(example, naive_strategy(example))
    assert report.value == 1
    assert report.robust == (((0,), (1,), (2,)), ())
    # the deceptive type is indifferent between two reports at one truth
    assert report.multiplicities == (1, 2)


def test_multiplicities_match_the_definition():
    # A best response picks, at each truth, any report whose decoded outcome
    # pays the most, so a type's multiplicity is the product over truths of
    # the number of such reports, counted here report by report. Canonical
    # strategies and arbitrary maps on random models with 8-81 sequences.
    rng = random.Random(71)
    for k, n in ((2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 6), (3, 4), (9, 2)):
        m = make_random_model(rng, k, rng.randint(1, 3))
        seqs = sg.enumerate_sequences(m, n)
        image = rng.sample(seqs, rng.randint(1, 8))
        mapping = {y: rng.choice(image) for y in seqs}
        table = sg.ReceiverStrategy(n, mapping, min(mapping.values()))
        for strategy in (sg.canonical_strategy(image), table):
            report = sg.recovery_report(m, strategy)
            for t in range(m.num_types):
                expected = 1
                for truth in seqs:
                    payoffs = [
                        sequence_utility(m, t, strategy.decode(y), truth) for y in seqs
                    ]
                    expected *= payoffs.count(max(payoffs))
                assert report.multiplicities[t] == expected
            assert report.value == sum(p * len(r) for p, r in zip(m.prior, report.robust))


def test_oracle_never_uses_the_formula(monkeypatch):
    # The played-out scan cross-checks the receiver objective, so it must not
    # reach the preference kernel, from any module that holds it, or the
    # truthful-subset scan.
    def forbidden(*args, **kwargs):
        raise AssertionError("the gameplay oracle used the formula's code")

    modules = (sg, sg.model, sg.graph, sg.equilibrium, sg.gameplay, sg.rate, sg.cli)
    for module in modules:
        for name in ("preference_masks", "_top_bit_masks"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert hasattr(sg.graph, "_top_bit_masks") and hasattr(sg.equilibrium, "_top_bit_masks")
    monkeypatch.setattr(sg.equilibrium, "truthful_subset", forbidden)
    rng = random.Random(73)
    for k, n in ((3, 3), (3, 4)):
        m = make_random_model(rng, k, 3)
        seqs = sg.enumerate_sequences(m, n)
        strategy = sg.canonical_strategy(rng.sample(seqs, 6))
        report = sg.recovery_report(m, strategy)
        assert report.value == sum(p * len(r) for p, r in zip(m.prior, report.robust))
        for t in range(m.num_types):
            for policy in sg.TIE_POLICIES:
                outcome = sg.simulate(m, strategy, t, rng.choice(seqs), policy=policy)
                assert outcome.decoded in strategy.image
    with pytest.raises(AssertionError, match="formula's code"):
        sg.evaluate_questionnaire(m, strategy.image)
    # The cross-check's formula side is the searches' kernel, and sender
    # graphs run it too.
    with pytest.raises(AssertionError, match="formula's code"):
        sg.cross_check_equivalence(m, 1)
    deceptive = next(t for t in range(m.num_types) if sg.classify_type(m, t) != sg.HONEST)
    with pytest.raises(AssertionError, match="formula's code"):
        sg.build_sender_graph(m, deceptive, 1)


def test_only_the_image_matters(example):
    # A map with the same image as the canonical strategy must behave
    # identically everywhere, whatever the off-image reports map to.
    gtilde = two_member_strategy()
    mapping = {(0,): (0,), (1,): (2,), (2,): (2,)}
    table = sg.ReceiverStrategy(1, mapping, min(mapping.values()))
    assert table.image == gtilde.image
    assert sg.recovery_report(example, table).robust == sg.recovery_report(example, gtilde).robust
    for t in range(example.num_types):
        for truth in sg.enumerate_sequences(example, 1):
            # Only the least report reaching the outcome may differ.
            played = [sg.simulate(example, s, t, truth) for s in (table, gtilde)]
            assert len({(o.options, o.decoded, o.utility) for o in played}) == 1
    assert sg.recovery_report(example, table).value == Fraction(4, 3)


def test_fallback_choice_does_not_change_recovery(example):
    a = sg.canonical_strategy([(0,), (2,)])
    b = sg.canonical_strategy([(0,), (2,)], fallback=(2,))
    assert sg.recovery_report(example, a).value == sg.recovery_report(example, b).value


def test_strategies_refuse_bad_decoded_sequences(example):
    # A decoded sequence of another length used to be scored on a truncated
    # sum, and a symbol id past the alphabet raised IndexError during play.
    # The first is refused when the map is built, the others by both readers.
    with pytest.raises(ValueError, match=r"decoded sequence \(0, 0\) has length 2, not 1"):
        sg.ReceiverStrategy(1, {(0,): (0, 0), (1,): (0,), (2,): (0,)}, (0,))
    # A report key of another length could never be reported, and was ignored.
    with pytest.raises(ValueError, match=r"reported sequence \(0, 0\) has length 2, not 1"):
        sg.ReceiverStrategy(1, {(0, 0): (1,)}, (1,))
    seqs = sg.enumerate_sequences(example, 2)
    for strategy, truth, symbol in (
        (sg.ReceiverStrategy(1, {(0,): (0,), (1,): (7,), (2,): (0,)}, (0,)), (0,), 7),
        (sg.ReceiverStrategy(2, {y: (0, -1) if y == (2, 2) else y for y in seqs}, (0, 0)),
         (0, 0), -1),
    ):
        message = f"image: symbol id {symbol} out of range"
        with pytest.raises(ValueError, match=message):
            sg.recovery_report(example, strategy)
        with pytest.raises(ValueError, match=message):
            sg.simulate(example, strategy, 1, truth)
    table = sg.ReceiverStrategy(2, {y: (2, 1) for y in seqs}, (2, 1))
    assert table.image == ((2, 1),)


def test_strategies_refuse_report_keys_past_the_alphabet(example):
    # A report key naming symbol 7 of a three-letter alphabet can never be
    # reported; recovery_report scored such a map 4/3 instead of refusing it.
    strategy = sg.ReceiverStrategy(1, {(7,): (0,), (0,): (0,), (2,): (2,)}, (0,))
    with pytest.raises(ValueError, match="report: symbol id 7 out of range"):
        sg.recovery_report(example, strategy)
    with pytest.raises(ValueError, match="report: symbol id 7 out of range"):
        sg.simulate(example, strategy, 1, (0,))


def test_simulate_adversarial_tie_break(example):
    d = example.type_index("d")
    outcome = sg.simulate(example, naive_strategy(example), d, (2,))
    assert outcome.options == ((0,), (1,))
    assert outcome.decoded == (0,)
    assert outcome.reported == (0,)
    assert outcome.utility == 1


def test_simulate_policies_agree_when_optimum_is_unique(example):
    h = example.type_index("h")
    naive = naive_strategy(example)
    for policy in sg.TIE_POLICIES:
        outcome = sg.simulate(example, naive, h, (1,), policy=policy)
        assert outcome.decoded == (1,)


def test_adversarial_lies_where_lexicographic_would_not():
    # Truth a ties with the lie b, so the adversarial sender lies while the
    # lexicographic one happens to tell the truth.
    m = sg.Model.from_tables(["a", "b"], ["t"], {"t": 1}, {"t": [[1, 0], [1, 1]]})
    strategy = sg.canonical_strategy(sg.enumerate_sequences(m, 1))
    adversarial = sg.simulate(m, strategy, 0, (0,))
    assert adversarial.options == ((0,), (1,))
    assert adversarial.decoded == (1,)
    friendly = sg.simulate(m, strategy, 0, (0,), policy="lexicographic")
    assert friendly.decoded == (0,)


def test_simulate_random_policy_is_seed_deterministic(example):
    d = example.type_index("d")
    naive = naive_strategy(example)
    first = sg.simulate(example, naive, d, (2,), policy="random", seed=11)
    again = sg.simulate(example, naive, d, (2,), policy="random", seed=11)
    assert first == again
    seen = {
        sg.simulate(example, naive, d, (2,), policy="random", seed=s).decoded
        for s in range(40)
    }
    assert seen == {(0,), (1,)}  # both optimal outcomes actually occur


def test_simulate_reports_least_preimage(example):
    h = example.type_index("h")
    strategy = sg.canonical_strategy([(1,), (2,)], fallback=(2,))
    outcome = sg.simulate(example, strategy, h, (2,))
    assert outcome.decoded == (2,)
    # report 0 already decodes to 2, so it is the canonical report
    assert outcome.reported == (0,)
    assert outcome.utility == 1


def test_simulate_rejects_unknown_policy(example):
    with pytest.raises(ValueError, match="unknown tie policy"):
        sg.simulate(example, naive_strategy(example), 0, (0,), policy="upbeat")


def test_simulate_reads_the_least_report_off_the_map(pool):
    # The least report decoding to the outcome, as a walk of the whole space
    # in lexicographic order finds it, for random maps over each model's
    # spaces of up to 81 sequences: partial and total, several keys per value,
    # and fallbacks reached first by a key or by a sequence that is no key.
    rng = random.Random(50)
    plays = total_maps = fallback_plays = unmapped = 0
    for m in pool[:24]:
        k = m.num_symbols
        for n in range(1, 5):
            if k**n > 81:
                break
            seqs = sg.enumerate_sequences(m, n)
            for _ in range(4):
                total = rng.random() < 0.25
                keys = seqs if total else rng.sample(seqs, rng.randint(1, len(seqs)))
                values = rng.sample(seqs, rng.randint(1, min(4, len(seqs))))
                mapping = {y: rng.choice(values) for y in keys}
                strategy = sg.ReceiverStrategy(n, mapping, rng.choice(list(mapping.values())))
                total_maps += total
                for t in range(m.num_types):
                    for truth in rng.sample(seqs, min(5, len(seqs))):
                        for policy in sg.TIE_POLICIES:
                            out = sg.simulate(m, strategy, t, truth, policy=policy, seed=7)
                            walk = itertools.product(range(k), repeat=n)
                            assert out.reported == next(
                                y for y in walk if strategy.decode(y) == out.decoded
                            )
                            plays += 1
                            fallback_plays += out.decoded == strategy.fallback
                            unmapped += out.reported not in mapping
    assert plays > 5000 and total_maps > 50 and fallback_plays > unmapped > 500


def test_simulate_answers_at_once_where_no_space_could_be_walked(example):
    # 3^40 sequences: no walk of the space would end, but the report is a key.
    strategy = sg.canonical_strategy([(0,) * 40, (1,) * 40])
    start = time.perf_counter()
    for t in range(example.num_types):
        for truth in ((0,) * 40, (1,) * 40, (2,) * 40):
            for policy in sg.TIE_POLICIES:
                out = sg.simulate(example, strategy, t, truth, policy=policy)
                assert out.reported == out.decoded and out.decoded in strategy.image
    assert time.perf_counter() - start < 1


def test_simulated_outcomes_are_realizable():
    rng = random.Random(14)
    for m in model_pool(15, seed=59):
        seqs = sg.enumerate_sequences(m, 1)
        members = rng.sample(seqs, rng.randint(1, len(seqs)))
        strategy = sg.canonical_strategy(members)
        for t in range(m.num_types):
            for truth in seqs:
                outcome = sg.simulate(m, strategy, t, truth)
                assert outcome.decoded in strategy.image
                assert strategy.decode(outcome.reported) == outcome.decoded
                assert outcome.utility == sequence_utility(
                    m, t, outcome.decoded, truth
                )
                payoffs = [sequence_utility(m, t, z, truth) for z in strategy.image]
                best = [z for z, u in zip(strategy.image, payoffs) if u == max(payoffs)]
                assert outcome.options == tuple(best)
                assert outcome.decoded in best


def test_honest_types_always_recover_under_the_naive_strategy():
    checked = 0
    for m in model_pool(40, seed=61):
        seqs = sg.enumerate_sequences(m, 1)
        naive = sg.canonical_strategy(seqs)
        for t in range(m.num_types):
            if sg.classify_type(m, t) != sg.HONEST:
                continue
            checked += 1
            assert sg.recovery_report(m, naive).robust[t] == tuple(seqs)
    assert checked >= 3  # the pool must actually exercise honest types


def test_cross_check_example_all_subsets(example):
    result = sg.cross_check_equivalence(example, 1)
    assert result.image_sets_checked == 7
    assert result.mismatches == ()

    result = sg.cross_check_equivalence(example, 2)
    assert result.image_sets_checked == 511
    assert result.mismatches == ()


def test_batched_routes_equal_the_public_functions():
    # The cross-check scores each image set on one packed scorer and one
    # payoff table per type, both as integers over the prior weights' scale.
    # Each value must still equal the per-set public routes: the formula side
    # the reference truthful-subset objective, the played side the worst case
    # of the canonical strategy.
    rng = random.Random(79)
    checked = 0
    for k, n in ((2, 3), (3, 2), (8, 1), (2, 4), (4, 2), (3, 3), (2, 6), (3, 4), (9, 2)):
        m = make_random_model(rng, k, rng.randint(1, 3))
        scale, _ = m.prior_weights
        seqs = sg.enumerate_sequences(m, n)
        for mode in ("all", "random") if len(seqs) <= 9 else ("random",):
            id_sets = image_id_sets(len(seqs), mode, 12, rng.randrange(1000))
            # A budget of exactly the k^(2n) pairs the scorer prices.
            scored = sg.gameplay._scored_image_sets(m, n, id_sets, len(seqs) ** 2)
            for members, played, formula in scored:
                objective = sg.evaluate_questionnaire(m, members).objective
                assert Fraction(formula, scale) == objective, members
                played = Fraction(played, scale)
                assert played == sg.recovery_report(m, sg.canonical_strategy(members)).value
                checked += 1
    assert checked == 255 * 2 + 511 + 12 * 9


def test_member_truths_alone_give_the_full_scan_value(pool):
    # The cross-check plays only the member truths of each image set, since a
    # truth outside it never decodes to itself; recovery_report plays every
    # truth. Every subset of spaces up to 9 sequences at n = 1 and 2, and 20
    # random draws per model at n = 3, on the conftest pool.
    checked = 0
    for index, m in enumerate(pool):
        scale, _ = m.prior_weights
        for n in (1, 2, 3):
            space = m.num_symbols**n
            if n < 3 and space > 9:
                continue
            mode = "all" if n < 3 else "random"
            id_sets = image_id_sets(space, mode, 20, index)
            for members, played, _ in sg.gameplay._scored_image_sets(m, n, id_sets, space**2):
                report = sg.recovery_report(m, sg.canonical_strategy(members))
                assert played == report.value * scale, (index, members)
                checked += 1
    # k = 2, 3, 4 on 68, 66, 66 models: 3 + 15 + 20, 7 + 511 + 20 and 15 + 20 sets.
    assert checked == 40_402


def walk_join(stays, joins):
    """A `_join` for both cross-check modes: an earlier member stays recovered
    when stays(report j's total at its truth, its own total), and j is
    recovered when joins(its own total, the best earlier member's total)."""

    def join(recovered, types, ids, j):
        joined = []
        for live, (row, column, own) in zip(recovered, types):
            live = [v for v in live if stays(column[v], own[v])]
            if not ids or joins(row[j], max(row[w] for w in ids)):
                live.append(j)
            joined.append(live)
        return joined

    return join


def test_cross_check_catches_broken_tie_rules(example, monkeypatch):
    # Both cross-check modes keep recovered members by `_join` as each image
    # set grows, the walk from a parent, a random draw folded from the empty
    # set. Each broken rule keeps a truth whose optimal outcomes tie:
    # counting it as recovered when its own total merely reaches the best
    # rival's, or seeing only the first winner of its row so a tie with a
    # later member goes unseen. Neither changes a count at n = 1, so the
    # check runs at n = 2.
    random_mode = {"strategies": "random", "count": 20}
    for stays, joins in ((le, ge), (le, gt)):
        with monkeypatch.context() as patch:
            patch.setattr(sg.gameplay, "_join", walk_join(stays, joins))
            for mode in ({}, random_mode):
                assert not sg.cross_check_equivalence(example, 1, **mode).mismatches
                assert sg.cross_check_equivalence(example, 2, **mode).mismatches
    # A join that skips the earlier members when j joins keeps them
    # recovered whatever j's report pays them; example1 shows it at n = 1.
    with monkeypatch.context() as patch:
        patch.setattr(sg.gameplay, "_join", walk_join(lambda paid, own: True, gt))
        for mode in ({}, random_mode):
            assert sg.cross_check_equivalence(example, 1, **mode).mismatches
    with monkeypatch.context() as patch:
        patch.setattr(sg.gameplay, "_join", walk_join(lt, gt))
        for mode in ({}, random_mode):
            assert not sg.cross_check_equivalence(example, 2, **mode).mismatches

    # The cross-check never plays `_best_response`; simulate's options, the
    # multiplicities and recovery_report's robust sets do. An argmax that
    # sees only the first winner hides the deceptive type's tie at truth 2
    # of the naive image, and at truth 00 of the image {00, 12}, where it is
    # indifferent between the two members.
    best_response = sg.gameplay._best_response

    def first_best_only(totals, image):
        best_total, winners = best_response(totals, image)
        return best_total, winners[:1]

    naive = naive_strategy(example)
    tied = sg.canonical_strategy([(0, 0), (1, 2)])
    d = example.type_index("d")
    with monkeypatch.context() as patch:
        patch.setattr(sg.gameplay, "_best_response", first_best_only)
        assert sg.simulate(example, naive, d, (2,)).options == ((0,),)
        assert sg.recovery_report(example, naive).multiplicities == (1, 1)
        assert sg.recovery_report(example, tied).robust == (((0, 0), (1, 2)), ((0, 0),))
        assert not sg.cross_check_equivalence(example, 2).mismatches
        assert not sg.cross_check_equivalence(example, 2, **random_mode).mismatches
    assert sg.simulate(example, naive, d, (2,)).options == ((0,), (1,))
    assert sg.recovery_report(example, naive).multiplicities == (1, 2)
    assert sg.recovery_report(example, tied).robust == (((0, 0), (1, 2)), ())


def test_walk_matches_the_definition(pool):
    # The cross-check grows each image set member by member, carrying its
    # recovered members. Its played count must equal the naive rule written
    # here from sequence_utility: a member truth is recovered when its
    # winners over the image are [truth], counted with the type's prior
    # weight. Every image set of spaces up to 9 sequences at n = 1 and 2,
    # walked, each once, in lexicographic order of its positions; and 5
    # seeded draws per model at n = 3, folded; on the conftest pool.
    checked = 0
    ties = {1: 0, 2: 0, 3: 0}  # member truths whose winners hold itself and another
    for index, m in enumerate(pool):
        _, weights = m.prior_weights
        for n in (1, 2, 3):
            seqs = sg.enumerate_sequences(m, n)
            if n < 3 and len(seqs) > 9:
                continue
            # (type, truth, report) -> sequence_utility, as the sets need it, over
            # one positive integer scale so that comparing them is cheap.
            utility = {}
            scale = n * math.lcm(*(u.denominator for table in m.utility for row in table
                                   for u in row))
            if n < 3:
                scored = list(sg.gameplay._scored_image_sets(m, n, None, len(seqs) ** 2))
                assert [members for members, _, _ in scored] == sorted(
                    tuple(seqs[v] for v in ids) for ids in image_id_sets(len(seqs), "all", 0, 0)
                )
            else:
                id_sets = image_id_sets(len(seqs), "random", 5, index)
                scored = sg.gameplay._scored_image_sets(m, n, id_sets, len(seqs) ** 2)
            for members, played, _ in scored:
                ids = [seqs.index(z) for z in members]
                expected = 0
                for t, weight in enumerate(weights):
                    for v in ids:
                        for w in ids:
                            if (t, v, w) not in utility:
                                scaled = sequence_utility(m, t, seqs[w], seqs[v]) * scale
                                assert scaled.denominator == 1
                                utility[t, v, w] = scaled.numerator
                        best = max(utility[t, v, w] for w in ids)
                        winners = [seqs[w] for w in ids if utility[t, v, w] == best]
                        expected += weight * (winners == [seqs[v]])
                        ties[n] += len(winners) > 1 and seqs[v] in winners
                assert played == expected, (index, members)
                checked += 1
    # k = 2, 3, 4 on 68, 66, 66 models: 3 + 15 + 5, 7 + 511 + 5 and 15 + 5 sets.
    assert checked == 37_402
    assert min(ties.values()) > 0


def test_walk_matches_the_per_set_route_on_larger_spaces():
    # On spaces of 12-16 sequences, where sets reach 16 members and the walk
    # carries state down 16 levels, every set's (played, formula) must equal
    # what folding the same set from the empty set computes.
    rng = random.Random(107)
    for k, n, types in ((12, 1, 3), (14, 1, 2), (4, 2, 1)):
        m = make_random_model(rng, k, types)
        space = k**n
        walked = sg.gameplay._scored_image_sets(m, n, None, space**2)
        id_sets = image_id_sets(space, "all", 0, 0)
        folded = sg.gameplay._scored_image_sets(m, n, id_sets, space**2)
        by_set = {members: (played, formula) for members, played, formula in folded}
        assert len(by_set) == 2**space - 1
        for members, played, formula in walked:
            assert by_set.pop(members) == (played, formula), (k, n, members)
        assert not by_set


def test_exhaustive_mismatches_come_in_combination_order(example, monkeypatch):
    # The walk meets image sets depth first, and the cross-check lists its
    # mismatches by size, then in combination order. A scorer skewed on every
    # mask whose positions sum to a multiple of 3 gives 175 of example1's 511
    # sets at n = 2.
    packed = sg.gameplay.packed_scorer

    def skewed_scorer(model, n, enum_budget):
        seqs, scale, beats, score, covers = packed(model, n, enum_budget)
        skewed = lambda mask, beaten: score(mask, beaten) + (sum(
            v for v in range(len(seqs)) if mask >> v & 1) % 3 == 0)
        return seqs, scale, beats, skewed, covers

    seqs = sg.enumerate_sequences(example, 2)
    expected = [tuple(seqs[v] for v in ids) for ids in image_id_sets(9, "all", 0, 0)
                if sum(ids) % 3 == 0]
    monkeypatch.setattr(sg.gameplay, "packed_scorer", skewed_scorer)
    result = sg.cross_check_equivalence(example, 2)
    assert [members for members, _, _ in result.mismatches] == expected
    assert len(expected) == 175 and result.image_sets_checked == 511


def test_recovery_report_keeps_robust_truths_in_sequence_order(example):
    # A questionnaire may list its members in any order. The robust tuples
    # must follow the sequence space, as the definition written here lists
    # them over the members in their given order.
    gtilde = sg.recovery_report(example, sg.canonical_strategy([(2,), (0,)]))
    assert gtilde.robust == (((0,), (2,)), ((0,),))
    assert gtilde.value == Fraction(4, 3)
    rng = random.Random(101)
    longest = 0
    for k, n in ((2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 6), (3, 4), (9, 2)):
        m = make_random_model(rng, k, rng.randint(1, 3))
        seqs = sg.enumerate_sequences(m, n)
        members = rng.sample(seqs, rng.randint(3, 8))
        if members == sorted(members):
            members.reverse()
        report = sg.recovery_report(m, sg.canonical_strategy(members))
        for t in range(m.num_types):
            robust = []
            for truth in seqs:
                payoffs = [sequence_utility(m, t, z, truth) for z in members]
                winners = [z for z, u in zip(members, payoffs) if u == max(payoffs)]
                if winners == [truth]:
                    robust.append(truth)
            assert report.robust[t] == tuple(robust)
            longest = max(longest, len(robust))
    assert longest >= 3


def test_payoffs_match_the_definition():
    # Rows over the whole space and over a single truth's letters must equal
    # sequence_utility times n and the type's scale, report by report, for a
    # sorted image and for an unsorted report list. Integer payoffs at
    # n = 1-6, and rational ones, whose types' scales exceed 1, at n = 1-6.
    rng = random.Random(97)

    def check(m, n):
        seqs = sg.enumerate_sequences(m, n)
        image = sorted(rng.sample(seqs, rng.randint(1, min(12, len(seqs)))))
        shuffled = rng.sample(seqs, rng.randint(1, min(12, len(seqs))))
        space = [range(m.num_symbols)] * n
        for t in range(m.num_types):
            scale, _ = m.scaled_utility[t]
            for reports in (image, shuffled):
                rows = list(sg.gameplay._payoffs(m, t, space, reports))
                assert len(rows) == len(seqs)
                for truth, row in zip(seqs, rows):
                    expected = [sequence_utility(m, t, r, truth) * n * scale for r in reports]
                    assert list(row) == expected
                    (single,) = sg.gameplay._payoffs(m, t, zip(truth), reports)
                    assert single == row

    for n in (1, 2, 3, 4):
        for _ in range(6):
            check(make_random_model(rng, rng.randint(2, 4), rng.randint(1, 3)), n)
    for n in (5, 6):
        for _ in range(3):
            check(make_random_model(rng, rng.randint(2, 3), rng.randint(1, 3)), n)
    scales = []
    for n in (1, 2, 3, 4, 5, 6):
        k, types = rng.randint(2, 3), ["a", "b"]
        utility = [[[f"{rng.randint(-9, 9)}/{rng.choice((1, 2, 3, 4, 6))}" for _ in range(k)]
                    for _ in range(k)] for _ in types]
        m = sg.Model.from_tables([str(a) for a in range(k)], types, ["1/3", "2/3"], utility)
        scales.extend(scale for scale, _ in m.scaled_utility)
        check(m, n)
    assert min(scales) > 1


def test_played_routes_match_a_plain_argmax_of_sequence_utility():
    # Every played route prices reports through one table builder, so this
    # test rebuilds the robust sets from the definition: a truth is robust for
    # a type when it alone maximizes sequence_utility over the image. Random
    # models with 8-81 sequences; random image sets plus one singleton and
    # the whole space.
    rng = random.Random(83)
    checked = 0
    for k, n in ((2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 6), (3, 4), (9, 2)):
        m = make_random_model(rng, k, rng.randint(1, 3))
        seqs = sg.enumerate_sequences(m, n)
        id_sets = [
            *sg.gameplay._image_id_sets(len(seqs), 3, rng.randrange(1000)),
            (rng.randrange(len(seqs)),),
            tuple(range(len(seqs))),
        ]
        scored = sg.gameplay._scored_image_sets(m, n, id_sets, len(seqs) ** 2)
        played = {members: value for members, value, _ in scored}
        for ids in id_sets:
            image = tuple(seqs[v] for v in ids)
            strategy = sg.canonical_strategy(image)
            robust = []
            for t in range(m.num_types):
                robust_t = []
                for truth in seqs:
                    payoffs = [sequence_utility(m, t, z, truth) for z in image]
                    best = max(payoffs)
                    winners = tuple(z for z, u in zip(image, payoffs) if u == best)
                    assert sg.simulate(m, strategy, t, truth).options == winners
                    if winners == (truth,):
                        robust_t.append(truth)
                robust.append(tuple(robust_t))
            value = sum(p * len(r) for p, r in zip(m.prior, robust))
            report = sg.recovery_report(m, strategy)
            assert (report.robust, report.value) == (tuple(robust), value)
            assert played[image] == value * m.prior_weights[0]
            checked += 1
    assert checked == 5 * 8


def test_prior_weights_are_exact_and_a_zero_prior_counts_nothing():
    # Priors 1/6, 3/10, 8/15 and 0 weigh 5, 9, 16 and 0 over their lcm 30.
    # Every prior-weighted value must equal its Fraction sum over the prior,
    # written out here, and the zero-prior type's robust truths count nothing.
    rng = random.Random(89)
    labels = ["a", "b", "c", "z"]
    prior = [Fraction(1, 6), Fraction(3, 10), Fraction(8, 15), Fraction(0)]
    utility = {t: [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)] for t in labels}
    m = sg.Model.from_tables(["0", "1", "2"], labels, [str(p) for p in prior], utility)
    assert m.prior_weights == (30, (5, 9, 16, 0))
    zero_type_recovers = False
    for n in (1, 2):
        assert not sg.cross_check_equivalence(m, n, strategies="all").mismatches
        seqs = sg.enumerate_sequences(m, n)
        for _ in range(8):
            members = rng.sample(seqs, rng.randint(1, len(seqs)))
            report = sg.recovery_report(m, sg.canonical_strategy(members))
            assert report.value == sum(p * len(r) for p, r in zip(prior, report.robust))
            zero_type_recovers |= bool(report.robust[3])
            q = sg.evaluate_questionnaire(m, members)
            assert q.objective == sum(p * len(part) for p, part in zip(prior, q.truthful))
        bounds = sg.finite_bounds(m, n)
        assert bounds.weighted_alpha == sum(p * a for p, a in zip(prior, bounds.alpha_per_type))
    assert zero_type_recovers


def test_played_out_scan_is_priced_before_it_runs(example, monkeypatch):
    # Example1 at n=7 with every sequence as a member: T * k^n * |image| =
    # 2 * 3^7 * 3^7 payoffs, refused at once under the default budget; under
    # 2 * 3^14 the scan runs.
    def payoffs_forbidden(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(sg.gameplay, "_payoffs", payoffs_forbidden)
    strategy = naive_strategy(example, 7)
    started = time.perf_counter()
    with pytest.raises(sg.BudgetExceededError, match="played-out scan") as info:
        sg.recovery_report(example, strategy)
    assert time.perf_counter() - started < 1
    assert (info.value.requested, info.value.budget) == (2 * 3**14, 10**6)
    with pytest.raises(AssertionError, match="the scan ran"):
        sg.recovery_report(example, strategy, enum_budget=2 * 3**14)


def test_cross_check_refuses_a_payoff_table_over_the_enumeration_budget(example, monkeypatch):
    # The played side prices k^(2n) (truth, report) pairs for each of T types.
    # At n=7 one type's 3^14 are refused at once, before the scorer is built;
    # under a budget that holds them, both types' 2 * 3^14 are.
    def scorer_forbidden(*args, **kwargs):
        raise AssertionError("the scorer was built")

    monkeypatch.setattr(sg.gameplay, "packed_scorer", scorer_forbidden)
    started = time.perf_counter()
    with pytest.raises(sg.BudgetExceededError, match="cross-check payoff table") as info:
        sg.cross_check_equivalence(example, 7, strategies="random")
    assert time.perf_counter() - started < 1
    assert (info.value.requested, info.value.budget) == (4782969, 10**6)
    with pytest.raises(sg.BudgetExceededError, match="cross-check payoff table") as info:
        sg.cross_check_equivalence(example, 7, strategies="random", enum_budget=3**14)
    assert (info.value.requested, info.value.budget) == (9565938, 3**14)
    # At n=6 the scorer is reached only when the budget holds 2 * 3^12 totals.
    with pytest.raises(AssertionError, match="scorer was built"):
        sg.cross_check_equivalence(example, 6, strategies="random", enum_budget=2 * 3**12)
    with pytest.raises(sg.BudgetExceededError, match="cross-check payoff table") as info:
        sg.cross_check_equivalence(example, 6, strategies="random", enum_budget=2 * 3**12 - 1)
    assert info.value.requested == 2 * 3**12


def test_random_cross_check_prices_its_draws_before_the_scorer(example, monkeypatch):
    # Each draw scans every truth of every type: count * T * k^n = 10^7 * 2 *
    # 3^4 at example1 n=4, refused at once; a budget that holds them lets the
    # run reach the scorer.
    def scorer_forbidden(*args, **kwargs):
        raise AssertionError("the scorer was built")

    monkeypatch.setattr(sg.gameplay, "packed_scorer", scorer_forbidden)
    started = time.perf_counter()
    with pytest.raises(sg.BudgetExceededError, match="random cross-check") as info:
        sg.cross_check_equivalence(example, 4, strategies="random", count=10**7)
    assert time.perf_counter() - started < 1
    assert (info.value.requested, info.value.budget) == (2 * 10**7 * 3**4, 10**6)
    with pytest.raises(AssertionError, match="scorer was built"):
        sg.cross_check_equivalence(
            example, 4, strategies="random", count=10**7, enum_budget=2 * 10**7 * 3**4
        )


def test_cross_check_builds_its_scorer_under_its_own_budget(monkeypatch):
    # At example1 n=7 the 3^14 scorer pairs are past the default budget, and
    # the 2 * 3^14 payoff totals are not past 10^7: oracle-check reaches the
    # scorer only if it passes its --enum-budget on.
    budgets = []

    def scorer_spy(model, n, enum_budget):
        budgets.append(enum_budget)
        raise AssertionError("the scorer was reached")

    monkeypatch.setattr(sg.gameplay, "packed_scorer", scorer_spy)
    argv = ["oracle-check", "--model", "example1", "--n", "7", "--strategies", "random"]
    with pytest.raises(AssertionError, match="the scorer was reached"):
        main([*argv, "--enum-budget", "10000000"])
    assert budgets == [10**7]


def test_cross_check_catches_a_disagreement(example, monkeypatch, capsys):
    # Skew each route by one on the image set {0, 2} alone: the cross-check
    # must report exactly that set, and oracle-check must exit 1.
    target = ((0,), (2,))
    packed = sg.gameplay.packed_scorer
    scale = packed(example, 1)[1]

    def skewed_scorer(model, n, enum_budget):
        seqs, scale, beats, score, covers = packed(model, n, enum_budget)
        skewed = lambda mask, beaten: score(mask, beaten) + (mask == 0b101)
        return seqs, scale, beats, skewed, covers

    with monkeypatch.context() as patch:
        patch.setattr(sg.gameplay, "packed_scorer", skewed_scorer)
        result = sg.cross_check_equivalence(example, 1)
        assert result.mismatches == (
            (target, Fraction(4, 3), Fraction(4, 3) + Fraction(1, scale)),
        )
        assert main(["oracle-check", "--model", "example1", "--n", "1"]) == 1
        out = capsys.readouterr().out
        assert "agreed: false" in out and "0;2: played 4/3" in out

    # Both modes keep recovered members by `_join`; seed 0 draws the target
    # fourth of six sets, folded from (0,) as the walk grows it.
    join = sg.gameplay._join

    def dropping_recovered_truth(recovered, types, ids, j):
        # Drop the truth 0 from the recovered members of the target, so no type recovers it.
        return [[v for v in live if (*ids, j) != (0, 2) or v != 0]
                for live in join(recovered, types, ids, j)]

    random_mode = {"strategies": "random", "count": 6, "seed": 0}
    for mode in ({}, random_mode):
        with monkeypatch.context() as patch:
            patch.setattr(sg.gameplay, "_join", dropping_recovered_truth)
            result = sg.cross_check_equivalence(example, 1, **mode)
            assert result.mismatches == ((target, Fraction(1, 3), Fraction(4, 3)),)
        assert not sg.cross_check_equivalence(example, 1, **mode).mismatches


def test_cross_check_random_mode(example):
    result = sg.cross_check_equivalence(
        example, 2, strategies="random", count=25, seed=5
    )
    assert result.image_sets_checked == 25
    assert not result.mismatches


def test_cross_check_random_mode_refuses_an_empty_draw(example, monkeypatch):
    # Zero draws would report agreement without checking anything.
    def enumerate_forbidden(*args, **kwargs):
        raise AssertionError("sequences enumerated before the count check")

    monkeypatch.setattr(sg.gameplay, "enumerate_sequences", enumerate_forbidden)
    for count in (0, -3):
        with pytest.raises(ValueError, match="count >= 1"):
            sg.cross_check_equivalence(example, 2, strategies="random", count=count)


def test_cross_check_refuses_oversized_exhaustive(example, monkeypatch):
    def enumerate_forbidden(*args, **kwargs):
        raise AssertionError("sequences enumerated before the subset cap check")

    with monkeypatch.context() as patch:
        patch.setattr(sg.gameplay, "enumerate_sequences", enumerate_forbidden)
        with pytest.raises(sg.BudgetExceededError, match="random") as info:
            sg.cross_check_equivalence(example, 3)
    assert info.value.requested == 27
    assert info.value.budget == sg.equilibrium.DEFAULT_SUBSET_BUDGET
    with pytest.raises(ValueError, match="unknown strategies mode"):
        sg.cross_check_equivalence(example, 1, strategies="some")


def test_cross_check_draws_each_image_set_as_it_is_scored(example, monkeypatch):
    drawn = []

    class CountingRandom(random.Random):
        def sample(self, *args, **kwargs):
            drawn.append(None)
            return super().sample(*args, **kwargs)

    at_each_join = []
    join = sg.gameplay._join

    def spy(*args):
        at_each_join.append(len(drawn))
        return join(*args)

    monkeypatch.setattr(sg.gameplay.random, "Random", CountingRandom)
    monkeypatch.setattr(sg.gameplay, "_join", spy)
    result = sg.cross_check_equivalence(example, 2, strategies="random", count=5)
    assert result.image_sets_checked == 5 and not result.mismatches
    # Each draw is folded before the next is drawn.
    assert at_each_join[0] == 1 and len(drawn) == 5
    assert at_each_join == sorted(at_each_join) and set(at_each_join) == {1, 2, 3, 4, 5}


def test_readers_refuse_empty_and_mixed_length_images():
    # A map decoding to sequences of two lengths, or to nothing, is refused
    # when built, so the readers never price a longer member on a truncated
    # report or index an empty image.
    mixed = {(0,): (0,), (1,): (1, 1), (2,): (2,)}
    with pytest.raises(ValueError, match=r"decoded sequence \(1, 1\) has length 2, not 1"):
        sg.ReceiverStrategy(1, mixed, (0,))
    with pytest.raises(ValueError, match="fallback must be a questionnaire member"):
        sg.ReceiverStrategy(1, {}, (0,))


def test_maps_decoding_to_another_length_are_refused_when_built():
    # Every decoded sequence had length 2 against reports of length 1, so
    # both readers used to decode a report of length 2 and raise KeyError.
    mapping = {(0,): (0, 0), (1,): (1, 1), (2,): (2, 2)}
    with pytest.raises(ValueError, match=r"decoded sequence \(0, 0\) has length 2, not 1"):
        sg.ReceiverStrategy(1, mapping, (0, 0))


def test_canonical_strategy_is_identity_on_members_and_fallback_elsewhere(pool):
    # By definition, over the whole space of each model at n = 1, 2, for
    # random member sets and every member as the fallback.
    rng = random.Random(131)
    for m in pool[:24]:
        for n in (1, 2):
            seqs = sg.enumerate_sequences(m, n)
            members = rng.sample(seqs, rng.randint(1, len(seqs)))
            for fallback in members:
                strategy = sg.canonical_strategy(members, fallback)
                assert strategy.image == tuple(sorted(members))
                for y in seqs:
                    assert strategy.decode(y) == (y if y in members else fallback)
            assert sg.canonical_strategy(members).fallback == min(members)
