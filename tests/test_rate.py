from __future__ import annotations

import random
from fractions import Fraction

import pytest

import screengame as sg

from conftest import X6, make_random_model, model_pool


def only_deceptive_model():
    return sg.Model.from_tables(
        ["0", "1", "2"],
        ["d"],
        {"d": 1},
        {"d": [[1, 2, 1], [2, 1, 1], [0, 0, 0]]},
    )


def test_extraction_rate_exact_roots():
    assert sg.extraction_rate(9, 2) == 3.0
    assert sg.extraction_rate(1, 5) == 1.0
    assert sg.extraction_rate(0, 3) == 0.0
    assert sg.extraction_rate(Fraction(4, 3), 1) == pytest.approx(4 / 3)
    with pytest.raises(ValueError, match="horizon"):
        sg.extraction_rate(1, 0)
    with pytest.raises(ValueError, match="negative"):
        sg.extraction_rate(-1, 2)


def test_finite_bounds_example_one_letter(example):
    bounds = sg.finite_bounds(example, 1, solve=True)
    assert bounds.alpha_union == 1
    assert bounds.alpha_per_type == (3, 1)
    assert bounds.weighted_alpha == Fraction(5, 3)
    assert bounds.achieved == Fraction(4, 3)
    assert bounds.lower_certified
    assert bounds.upper_certified
    assert bounds.achieved_certified
    assert bounds.lower_rate == 1.0
    assert bounds.achieved_rate == pytest.approx(4 / 3)
    assert bounds.upper_rate == pytest.approx(5 / 3)


def test_finite_bounds_example_two_letters(example):
    bounds = sg.finite_bounds(example, 2, solve=True)
    assert bounds.alpha_union == 1
    assert bounds.alpha_per_type == (9, 1)
    assert bounds.weighted_alpha == Fraction(11, 3)
    assert bounds.achieved == 3
    assert bounds.achieved_certified
    assert bounds.achieved_rate == pytest.approx(3**0.5)


def test_bounds_sandwich_the_optimum():
    for m in model_pool(25, seed=71):
        for n in (1, 2):
            if m.num_symbols**n > 16:
                continue
            bounds = sg.finite_bounds(m, n, solve=True)
            assert bounds.achieved_certified
            assert bounds.alpha_union <= bounds.achieved <= bounds.weighted_alpha


def test_bounds_without_solve_have_no_achieved_rate(example):
    bounds = sg.finite_bounds(example, 2)
    assert bounds.achieved is None
    assert bounds.achieved_rate is None
    assert not bounds.achieved_certified


def test_small_mis_budget_degrades_to_uncertified(example):
    bounds = sg.finite_bounds(example, 1, mis_budget=2)
    assert not bounds.lower_certified
    assert not bounds.upper_certified
    # the greedy sizes still happen to be exact on graphs this small
    assert bounds.alpha_per_type == (3, 1)
    assert bounds.alpha_union == 1


def test_ceiling_past_mis_budget_never_understates_alpha():
    # Random(7) draws (3,2), (3,2), (4,2); on the third model at n=4, type 1
    # has a greedy independent set of 8 but independence number 16.
    rng = random.Random(7)
    m = [make_random_model(rng, k, types) for k, types in ((3, 2), (3, 2), (4, 2))][2]
    exact = sg.finite_bounds(m, 4)  # 256 vertices, inside the default budget
    assert exact.upper_certified and exact.lower_certified
    assert exact.alpha_per_type[1] == 16
    past = sg.finite_bounds(m, 4, mis_budget=100)
    assert not past.upper_certified and not past.lower_certified
    assert all(a >= b for a, b in zip(past.alpha_per_type, exact.alpha_per_type))
    assert past.weighted_alpha >= exact.weighted_alpha
    assert past.alpha_union <= exact.alpha_union  # the floor stays greedy


def test_small_subset_budget_degrades_achieved(example):
    bounds = sg.finite_bounds(example, 2, solve=True, subset_budget=8)
    assert bounds.achieved is not None
    assert not bounds.achieved_certified
    assert bounds.achieved <= bounds.weighted_alpha


def test_mis_budget_refuses_before_any_graph_is_built(example, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a graph was built before the budget check")

    monkeypatch.setattr(sg.rate, "build_sender_graph", fail)
    with pytest.raises(sg.BudgetExceededError) as caught:
        sg.asymptotic_bounds(example, 4, mis_budget=30)
    assert (caught.value.what, caught.value.requested, caught.value.budget) == (
        "exact independent set", 81, 30
    )


def test_asymptotic_prices_every_graph_before_building_one(example, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a graph was built before every horizon was priced")

    monkeypatch.setattr(sg.rate, "build_sender_graph", fail)
    with pytest.raises(sg.BudgetExceededError) as caught:
        sg.asymptotic_bounds(example, 7, mis_budget=2187)  # 3^7 fits, but 3^14 pairs do not
    assert (caught.value.what, caught.value.requested, caught.value.budget) == (
        "sender graph", 4782969, 1000000
    )


def test_exact_searches_are_not_repeated(example, monkeypatch):
    searched = []
    solve = sg.rate.max_independent_set

    def counting(graph, **kwargs):
        searched.append((graph.provenance, graph.n))
        return solve(graph, **kwargs)

    monkeypatch.setattr(sg.rate, "max_independent_set", counting)
    single = only_deceptive_model()
    assert sg.finite_bounds(single, 2).alpha_union == 1
    assert searched == [("d", 2)]  # the union is the one type's graph
    searched.clear()
    assert sg.finite_bounds(example, 1).alpha_union == 1
    assert searched == [("h", 1), ("d", 1)]  # the union has only d's edges
    searched.clear()
    assert sg.asymptotic_bounds(example, 3).alphas == (3, 9, 27)
    assert searched == [("h", 1), ("d", 1), ("h", 2), ("h", 3)]


def test_asymptotic_example_golden(example):
    report = sg.asymptotic_bounds(example, 3)
    assert report.alpha_per_type == (3, 1)
    assert report.best_type == example.type_index("h")
    assert report.union_floor == 1
    assert report.alphas == (3, 9, 27)
    assert report.capacity_estimates == (3.0, pytest.approx(3.0), pytest.approx(3.0))
    assert report.certified_floor == 3.0
    assert report.certified_floor_at == 1
    witnesses = [
        (w.m, w.n, w.alpha_m, w.alpha_n, w.alpha_sum) for w in report.fekete_witnesses
    ]
    assert witnesses == [(1, 1, 3, 3, 9), (1, 2, 3, 9, 27)]
    assert all(w.holds for w in report.fekete_witnesses)


def test_asymptotic_deceptive_only_model_is_flat():
    report = sg.asymptotic_bounds(only_deceptive_model(), 4)
    assert report.alpha_per_type == (1,)
    assert report.alphas == (1, 1, 1, 1)
    assert report.capacity_estimates == (1.0, 1.0, 1.0, 1.0)
    assert report.union_floor == 1
    assert report.certified_floor == 1.0
    assert all(w.holds for w in report.fekete_witnesses)


def test_asymptotic_best_type_tie_goes_to_lowest_id():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    m = sg.Model.from_tables(
        ["0", "1", "2"],
        ["a", "b"],
        {"a": "1/2", "b": "1/2"},
        {"a": identity, "b": identity},
    )
    report = sg.asymptotic_bounds(m, 2)
    assert report.alpha_per_type == (3, 3)
    assert report.best_type == 0


def test_asymptotic_floor_moves_to_the_horizon_with_the_largest_root():
    # One letter recovers a single sequence, but the numbers then grow fast
    # enough that the largest root is at the last horizon: 6^(1/4), 20^(1/6).
    m = sg.Model.from_tables(["0", "1"], ["b"], {"b": 1}, {"b": [[-2, -1], [-2, 1]]})
    report = sg.asymptotic_bounds(m, 4)
    assert report.alphas == (1, 2, 3, 6)
    assert (report.certified_floor_at, report.certified_floor) == (4, 6**0.25)
    report = sg.asymptotic_bounds(m, 6)
    assert report.alphas == (1, 2, 3, 6, 10, 20)
    assert report.certified_floor_at == 6
    assert report.certified_floor == pytest.approx(20 ** (1 / 6))


def test_x6_is_its_named_draw_and_type_b_recovers_the_central_binomials():
    rng = random.Random(21)
    draws = [make_random_model(rng, rng.choice((2, 3)), 2) for _ in range(7)]
    assert draws[-1] == X6
    # Sperner: the largest antichain of {0, 1}^n has C(n, n // 2) members.
    alphas = []
    for n in range(1, 7):
        bounds = sg.finite_bounds(X6, n)
        assert bounds.upper_certified
        alphas.append(bounds.alpha_per_type)
    assert alphas == [(1, 1), (1, 2), (1, 3), (1, 6), (1, 10), (1, 20)]


def test_asymptotic_rejects_bad_horizon(example):
    with pytest.raises(ValueError, match="n_max"):
        sg.asymptotic_bounds(example, 0)


def test_independence_numbers_grow_at_least_multiplicatively(example):
    report = sg.asymptotic_bounds(example, 4)
    assert report.alphas == (3, 9, 27, 81)
    alphas = report.alphas
    for m in (1, 2):
        for k in (2, 3, 4):
            if k * m > 4:
                continue
            assert alphas[k * m - 1] >= alphas[m - 1] ** k
