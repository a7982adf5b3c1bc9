from __future__ import annotations

import random
from fractions import Fraction

import pytest

import screengame as sg

from conftest import model_pool


def naive_strategy(model, n=1):
    return sg.canonical_strategy(sg.enumerate_sequences(model, n))


def two_member_strategy():
    return sg.canonical_strategy([(0,), (2,)])


def test_best_reports_known_cases(example):
    h = example.type_index("h")
    d = example.type_index("d")
    naive = naive_strategy(example)
    out = sg.best_reports(example, naive, d, (2,))
    assert out.decoded == ((0,), (1,))
    assert out.utility == 1

    gtilde = two_member_strategy()
    out = sg.best_reports(example, gtilde, d, (0,))
    assert out.decoded == ((0,),)
    assert out.utility == 1

    out = sg.best_reports(example, gtilde, h, (1,))
    assert out.decoded == ((0,), (2,))
    assert out.utility == 0


def test_robust_recovery_sets(example):
    h = example.type_index("h")
    d = example.type_index("d")
    naive = naive_strategy(example)
    assert sg.robust_recovery_set(example, naive, h) == ((0,), (1,), (2,))
    assert sg.robust_recovery_set(example, naive, d) == ()

    gtilde = two_member_strategy()
    assert sg.robust_recovery_set(example, gtilde, h) == ((0,), (2,))
    assert sg.robust_recovery_set(example, gtilde, d) == ((0,),)


def test_worst_case_recovery_known_values(example):
    assert sg.worst_case_recovery(example, naive_strategy(example)) == 1
    assert sg.worst_case_recovery(example, two_member_strategy()) == Fraction(4, 3)
    assert sg.worst_case_recovery(example, sg.canonical_strategy([(0,)])) == 1


def test_recovery_report_multiplicities(example):
    report = sg.recovery_report(example, naive_strategy(example))
    assert report.value == 1
    assert report.robust == (((0,), (1,), (2,)), ())
    # the deceptive type is indifferent between two reports at one truth
    assert report.multiplicities == (1, 2)


def test_only_the_image_matters(example):
    # A table strategy with the same image as the canonical one must behave
    # identically everywhere, whatever the off-image reports map to.
    gtilde = two_member_strategy()
    table = sg.table_strategy(
        example, 1, {(0,): (0,), (1,): (2,), (2,): (2,)}
    )
    assert table.image == gtilde.image
    for t in range(example.num_types):
        assert sg.robust_recovery_set(example, table, t) == sg.robust_recovery_set(
            example, gtilde, t
        )
        for truth in sg.enumerate_sequences(example, 1):
            assert sg.best_reports(example, table, t, truth) == sg.best_reports(
                example, gtilde, t, truth
            )
    assert sg.worst_case_recovery(example, table) == Fraction(4, 3)


def test_fallback_choice_does_not_change_recovery(example):
    a = sg.canonical_strategy([(0,), (2,)])
    b = sg.canonical_strategy([(0,), (2,)], fallback=(2,))
    assert sg.worst_case_recovery(example, a) == sg.worst_case_recovery(example, b)


def test_table_strategy_must_be_total(example):
    with pytest.raises(ValueError, match="not total"):
        sg.table_strategy(example, 1, {(0,): (0,)})
    with pytest.raises(ValueError, match="outside"):
        sg.table_strategy(
            example, 1, {(0,): (0,), (1,): (0,), (2,): (0,), (7,): (0,)}
        )


def test_simulate_adversarial_tie_break(example):
    d = example.type_index("d")
    outcome = sg.simulate(example, naive_strategy(example), d, (2,))
    assert outcome.options == ((0,), (1,))
    assert outcome.decoded == (0,)
    assert outcome.reported == (0,)
    assert not outcome.recovered
    assert outcome.utility == 1


def test_simulate_policies_agree_when_optimum_is_unique(example):
    h = example.type_index("h")
    naive = naive_strategy(example)
    for policy in sg.TIE_POLICIES:
        outcome = sg.simulate(example, naive, h, (1,), policy=policy)
        assert outcome.decoded == (1,)
        assert outcome.recovered


def test_adversarial_lies_where_lexicographic_would_not():
    # Truth a ties with the lie b, so the adversarial sender lies while the
    # lexicographic one happens to tell the truth.
    m = sg.Model.from_tables(["a", "b"], ["t"], {"t": 1}, {"t": [[1, 0], [1, 1]]})
    strategy = sg.canonical_strategy(sg.enumerate_sequences(m, 1))
    adversarial = sg.simulate(m, strategy, 0, (0,))
    assert adversarial.options == ((0,), (1,))
    assert adversarial.decoded == (1,)
    assert not adversarial.recovered
    friendly = sg.simulate(m, strategy, 0, (0,), policy="lexicographic")
    assert friendly.decoded == (0,)
    assert friendly.recovered


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
    assert outcome.recovered
    assert outcome.utility == 1


def test_simulate_rejects_unknown_policy(example):
    with pytest.raises(ValueError, match="unknown tie policy"):
        sg.simulate(example, naive_strategy(example), 0, (0,), policy="upbeat")


def test_simulate_refuses_a_space_over_the_enumeration_budget(example):
    strategy = sg.canonical_strategy([(0, 0), (1, 1)])
    with pytest.raises(sg.BudgetExceededError, match="report search") as info:
        sg.simulate(example, strategy, 0, (1, 1), enum_budget=8)
    assert (info.value.requested, info.value.budget) == (9, 8)


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
                assert outcome.utility == sg.sequence_utility(
                    m, t, outcome.decoded, truth
                )
                best = sg.best_reports(m, strategy, t, truth)
                assert outcome.options == best.decoded
                assert outcome.decoded in best.decoded


def test_honest_types_always_recover_under_the_naive_strategy():
    checked = 0
    for m in model_pool(40, seed=61):
        seqs = sg.enumerate_sequences(m, 1)
        naive = sg.canonical_strategy(seqs)
        for t in range(m.num_types):
            if sg.classify_type(m, t) != sg.HONEST:
                continue
            checked += 1
            assert sg.robust_recovery_set(m, naive, t) == tuple(seqs)
    assert checked >= 3  # the pool must actually exercise honest types


def test_cross_check_example_all_subsets(example):
    result = sg.cross_check_equivalence(example, 1)
    assert result.image_sets_checked == 7
    assert result.agreed
    assert result.mismatches == ()

    result = sg.cross_check_equivalence(example, 2)
    assert result.image_sets_checked == 511
    assert result.agreed


def test_cross_check_random_mode(example):
    result = sg.cross_check_equivalence(
        example, 2, strategies="random", count=25, seed=5
    )
    assert result.image_sets_checked == 25
    assert result.agreed


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
