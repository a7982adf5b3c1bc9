from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import screengame as sg

from conftest import X6, first_fit_cover, make_random_model, model_pool


def only_deceptive_model():
    return sg.Model.from_tables(
        ["0", "1", "2"],
        ["d"],
        {"d": 1},
        {"d": [[1, 2, 1], [2, 1, 1], [0, 0, 0]]},
    )


def sperner_model():
    """X6's type b alone: y weakly beats x exactly when y contains x as a 0/1 set."""
    return sg.Model.from_tables(["0", "1"], ["b"], {"b": 1}, {"b": [[-2, -1], [-2, 1]]})


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
    assert sg.extraction_rate(bounds.alpha_union, 1) == 1.0
    assert sg.extraction_rate(bounds.achieved, 1) == 4 / 3
    assert sg.extraction_rate(bounds.weighted_alpha, 1) == 5 / 3


def test_finite_bounds_example_two_letters(example):
    bounds = sg.finite_bounds(example, 2, solve=True)
    assert bounds.alpha_union == 1
    assert bounds.alpha_per_type == (9, 1)
    assert bounds.weighted_alpha == Fraction(11, 3)
    assert bounds.achieved == 3
    assert bounds.achieved_certified
    assert sg.extraction_rate(bounds.achieved, 2) == 3**0.5


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
    assert not hasattr(bounds, "achieved_rate")  # a rate is a root, taken only for display
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


def test_past_budget_ceiling_is_the_first_fit_cover():
    # One vertex past --mis-budget, each type's ceiling is the first-fit
    # clique cover of its whole graph in id order, here the reference one.
    loose = 0
    for m in model_pool(18):
        for n in (1, 2, 3):
            count = m.num_symbols**n
            if count > 81:
                continue
            past = sg.finite_bounds(m, n, mis_budget=count - 1)
            assert not past.upper_certified
            graphs = [sg.build_sender_graph(m, t, n) for t in range(m.num_types)]
            full = (1 << count) - 1
            covers = tuple(first_fit_cover(g.adjacency, full, range(count)) for g in graphs)
            assert past.alpha_per_type == covers
            exact = sg.finite_bounds(m, n).alpha_per_type
            loose += sum(c > a for c, a in zip(covers, exact))
    assert loose  # some cover is strictly above the independence number


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
    assert searched == [("d", 1)]  # alpha(1) meets the letter cover, so nothing is open at 2
    searched.clear()
    assert sg.finite_bounds(sperner_model(), 2).alpha_union == 2
    assert searched == [("b", 1), ("b", 2)]  # each union is the one type's graph
    searched.clear()
    assert sg.finite_bounds(example, 1).alpha_union == 1
    assert searched == [("h", 1), ("d", 1)]  # the union has only d's edges
    searched.clear()
    assert sg.asymptotic_bounds(example, 3).alphas == (3, 9, 27)
    assert searched == [("h", 1), ("d", 1)]  # h is honest: 3 letters, 3 cliques
    searched.clear()
    assert sg.asymptotic_bounds(sperner_model(), 3).alphas == (1, 2, 3)
    assert searched == [("b", 1), ("b", 2), ("b", 3)]


def test_one_letter_numbers_are_searched_under_the_callers_budget(example, monkeypatch):
    budgets = []
    solve = sg.rate.max_independent_set

    def recording(graph, **kwargs):
        budgets.append((graph.n, kwargs.get("mis_budget")))
        return solve(graph, **kwargs)

    monkeypatch.setattr(sg.rate, "max_independent_set", recording)
    assert sg.finite_bounds(example, 2, mis_budget=9).upper_certified
    assert sg.asymptotic_bounds(example, 2, mis_budget=9).alphas == (3, 9)
    assert budgets == [(1, 9)] * 4  # h and d at horizon 1, twice; the unions are d's graphs
    # 513 honest letters, past the default budget, close at n = 2 under a raised one.
    k = 513
    identity = [[int(r == x) for x in range(k)] for r in range(k)]
    honest = sg.Model.from_tables([str(i) for i in range(k)], ["h"], ["1"], [identity])
    bounds = sg.finite_bounds(honest, 2, mis_budget=k**2, enum_budget=k**4)
    assert (bounds.alpha_per_type, bounds.alpha_union, bounds.upper_certified) == ((k**2,), k**2, True)


def test_graphs_are_built_only_for_open_numbers(monkeypatch):
    built = []
    build = sg.rate.build_sender_graph

    def counting(model, type_id, n, **kwargs):
        built.append(n)
        return build(model, type_id, n, **kwargs)

    monkeypatch.setattr(sg.rate, "build_sender_graph", counting)
    closed = sg.finite_bounds(only_deceptive_model(), 6, mis_budget=729)
    assert (closed.alpha_per_type, closed.alpha_union, closed.upper_certified) == ((1,), 1, True)
    assert built == [1]  # the one-letter graph only: none of 729 vertices
    built.clear()
    sperner = sg.finite_bounds(sperner_model(), 6)
    assert (sperner.alpha_per_type, sperner.alpha_union, sperner.upper_certified) == ((20,), 20, True)
    assert built == [1, 6]  # open: its horizon-6 graph, once


def letter_graph_cover(model: sg.Model, type_id: int) -> int:
    """Reference c_t from the raw Fractions: the smaller first-fit cover of S_t(1), both orders."""
    u = model.utility[type_id]
    k = model.num_symbols
    gain = lambda r, x: u[r][x] - u[x][x]
    adjacency = [
        sum(1 << j for j in range(k) if j != i and gain(i, j) + gain(j, i) >= 0) for i in range(k)
    ]
    full = (1 << k) - 1
    return min(first_fit_cover(adjacency, full, order) for order in (range(k), range(k)[::-1]))


def exact_alpha(graph: sg.SenderGraph) -> int:
    return len(sg.max_independent_set(graph, mis_budget=graph.vertex_count).members)


def test_letter_cover_caps_every_type_and_union(pool):
    # Searched directly, never through finite_bounds: alpha_t(n) <= c_t^n and
    # alpha_U(n) <= min_t c_t^n, and alpha(1)^n is a floor for both. finite_bounds,
    # which reads closed numbers off horizon 1, then finds the same numbers.
    cases = 0
    for m in pool:
        covers = [sg.rate._letter_cover(m, t) for t in range(m.num_types)]
        assert covers == [letter_graph_cover(m, t) for t in range(m.num_types)]
        for n in range(1, 7):
            if m.num_symbols**n > 81:
                break
            graphs = [sg.build_sender_graph(m, t, n) for t in range(m.num_types)]
            alphas = [*map(exact_alpha, graphs), exact_alpha(sg.union_graph(graphs))]
            if n == 1:
                ones = alphas
            ceilings = [c**n for c in covers] + [min(covers) ** n]
            assert all(a**n <= got <= c for a, got, c in zip(ones, alphas, ceilings))
            bounds = sg.finite_bounds(m, n)
            assert [*bounds.alpha_per_type, bounds.alpha_union] == alphas
            cases += len(alphas)
    assert cases > 1000


def test_closed_numbers_are_the_exact_search():
    # Wherever alpha(1) meets the letter cover, the exact search at n finds alpha(1)^n.
    path = Path(__file__).parent.parent / "perfbench" / "pool.json"
    closed = 0
    for entry in json.loads(path.read_text())["bounds"]:
        m, n = sg.parse_model(json.dumps(entry["doc"])), entry["n"]
        if m.num_symbols**n > 729:
            continue
        covers = [sg.rate._letter_cover(m, t) for t in range(m.num_types)]
        ones = [sg.build_sender_graph(m, t, 1) for t in range(m.num_types)]
        union_one = exact_alpha(sg.union_graph(ones))
        for t, (graph, cover) in enumerate(zip(ones, covers)):
            if exact_alpha(graph) == cover:
                assert exact_alpha(sg.build_sender_graph(m, t, n)) == cover**n
                closed += 1
        if union_one == min(covers):
            graphs = [sg.build_sender_graph(m, t, n) for t in range(m.num_types)]
            assert exact_alpha(sg.union_graph(graphs)) == union_one**n
            closed += 1
    assert closed >= 163  # type graphs, honest ones included, and unions


def test_letter_cover_goldens(example):
    one_letter = lambda m: sg.finite_bounds(m, 1)
    covers = lambda m: tuple(sg.rate._letter_cover(m, t) for t in range(m.num_types))
    # example1 closes: h is honest (3 letters, no edge), and d's letter graph is complete.
    assert (one_letter(example).alpha_per_type, covers(example)) == ((3, 1), (3, 1))
    # X6's type a closes, its type b does not; P156 stays open.
    assert (one_letter(X6).alpha_per_type, covers(X6)) == ((1, 1), (1, 2))
    p156 = model_pool()[156]
    assert (one_letter(p156).alpha_per_type, covers(p156)) == ((2,), (3,))


def test_asymptotic_example_golden(example):
    report = sg.asymptotic_bounds(example, 3)
    assert report.alpha_per_type == (3, 1)
    assert report.best_type == example.type_index("h")
    assert report.union_floor == 1
    assert report.alphas == (3, 9, 27)  # every root is exactly 3
    # Every pair m <= n with m + n <= 3, as (alpha_m, alpha_n, alpha_(m+n)).
    a = report.alphas
    pairs = [(a[m - 1], a[n - 1], a[m + n - 1]) for m, n in [(1, 1), (1, 2)]]
    assert pairs == [(3, 3, 9), (3, 9, 27)]
    assert all(ab >= am * an for am, an, ab in pairs)


def test_asymptotic_deceptive_only_model_is_flat():
    report = sg.asymptotic_bounds(only_deceptive_model(), 4)
    assert report.alpha_per_type == (1,)
    assert report.alphas == (1, 1, 1, 1)  # every root is exactly 1
    assert report.union_floor == 1
    a = report.alphas
    assert all(a[m + n - 1] >= a[m - 1] * a[n - 1] for m, n in [(1, 1), (1, 2), (1, 3), (2, 2)])


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


def test_asymptotic_best_type_has_positive_prior():
    # Type b has prior 0, so the value never counts its truthful reports;
    # following its larger numbers claimed a floor of 2 over a rate of 1.
    m = sg.Model.from_tables(
        ["0", "1"],
        ["a", "b"],
        {"a": 1, "b": 0},
        {"a": [[0, 1], [1, 0]], "b": [[1, 0], [0, 1]]},
    )
    report = sg.asymptotic_bounds(m, 3)
    assert report.alpha_per_type == (1, 2)
    assert (report.best_type, report.alphas) == (0, (1, 1, 1))
    assert report.union_floor == 1
    achieved = sg.finite_bounds(m, 3, solve=True).achieved
    # The floor's root alphas[0]^(1/1) is at most achieved^(1/3): compared exactly.
    assert achieved == 1 and report.alphas[0] ** 3 <= achieved


def test_asymptotic_floor_moves_to_the_horizon_with_the_largest_root():
    # One letter recovers a single sequence, but the numbers then grow fast
    # enough that the largest root is at the last horizon: 6^(1/4), 20^(1/6).
    m = sg.Model.from_tables(["0", "1"], ["b"], {"b": 1}, {"b": [[-2, -1], [-2, 1]]})
    # a^(1/g) < b^(1/h) iff a^h < b^g: the last horizon's root is above every earlier one.
    report = sg.asymptotic_bounds(m, 4)
    assert report.alphas == (1, 2, 3, 6)
    assert all(a**4 < 6**g for g, a in enumerate(report.alphas[:3], 1))
    report = sg.asymptotic_bounds(m, 6)
    assert report.alphas == (1, 2, 3, 6, 10, 20)
    assert all(a**6 < 20**g for g, a in enumerate(report.alphas[:5], 1))


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
