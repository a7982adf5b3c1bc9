from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import pytest

import screengame as sg

from conftest import X6, brute_best, make_random_model, model_pool, sequence_utility


def test_truthful_subset_known_cases(example):
    d = example.type_index("d")
    h = example.type_index("h")
    assert sg.truthful_subset(example, [(0,), (2,)], d) == ((0,),)
    assert sg.truthful_subset(example, [(0,), (1,), (2,)], d) == ()
    assert sg.truthful_subset(example, [(1,), (2,)], d) == ((1,),)
    assert sg.truthful_subset(example, [(0,), (1,), (2,)], h) == ((0,), (1,), (2,))
    # singletons survive vacuously, even for the deceptive type
    assert sg.truthful_subset(example, [(2,)], d) == ((2,),)


def test_truthful_subset_ignores_order_and_duplicates(example):
    d = example.type_index("d")
    assert sg.truthful_subset(example, [(2,), (0,), (2,)], d) == ((0,),)


def test_evaluate_questionnaire_known_values(example):
    assert sg.evaluate_questionnaire(example, [(0,), (1,), (2,)]).objective == 1
    assert sg.evaluate_questionnaire(example, [(0,), (2,)]).objective == Fraction(4, 3)
    assert sg.evaluate_questionnaire(example, [(1,), (2,)]).objective == Fraction(4, 3)
    assert sg.evaluate_questionnaire(example, [(0,), (1,)]).objective == Fraction(2, 3)
    assert sg.evaluate_questionnaire(example, [(0,)]).objective == 1


def test_objective_never_exceeds_size():
    rng = random.Random(4)
    for m in model_pool(20, seed=31):
        seqs = sg.enumerate_sequences(m, 1)
        for _ in range(8):
            members = rng.sample(seqs, rng.randint(1, len(seqs)))
            assert sg.evaluate_questionnaire(m, members).objective <= len(members)


def test_evaluate_questionnaire(example):
    q = sg.evaluate_questionnaire(example, [(2,), (0,)])
    assert q.members == ((0,), (2,))
    assert q.truthful == (((0,), (2,)), ((0,),))
    assert q.objective == Fraction(4, 3)


def test_canonical_strategy_decodes(example):
    strat = sg.canonical_strategy([(2,), (0,)])
    assert strat.image == ((0,), (2,))
    assert strat.fallback == (0,)  # lexicographically least member by default
    assert strat.decode((0,)) == (0,)
    assert strat.decode((2,)) == (2,)
    assert strat.decode((1,)) == (0,)
    assert strat.mapping == {(0,): (0,), (2,): (2,)}
    named = sg.canonical_strategy([(0,), (2,)], fallback=(2,))
    assert named.decode((1,)) == (2,)


def test_canonical_strategy_rejects_bad_input():
    with pytest.raises(ValueError):
        sg.canonical_strategy([])
    with pytest.raises(ValueError):
        sg.canonical_strategy([(0,)], fallback=(1,))
    with pytest.raises(ValueError):
        sg.canonical_strategy([(0,), (1, 1)])


def _only_d() -> sg.Model:
    """One deceptive type and no honest one, whose closure can shrink."""
    return sg.Model.from_tables(
        ["0", "1", "2"],
        ["d"],
        {"d": 1},
        {"d": [[1, 2, 1], [2, 1, 1], [0, 0, 0]]},
    )


def test_solve_exact_example_one_letter(example):
    result = sg.solve_exact(example, 1)
    assert result.optimum == Fraction(4, 3)
    assert result.maximizers == (((0,), (2,)), ((1,), (2,)))
    assert result.maximizer_count == 2
    assert result.designated.members == ((0,), (2,))
    assert result.designated.truthful == (((0,), (2,)), ((0,),))
    assert result.certified
    assert result.maximizers_complete
    # golden work counters: 6 subsets evaluated, 1 cut in a subtree below
    # the best value
    assert (result.subsets_examined, result.subsets_pruned) == (6, 1)
    assert (result.cover_cuts, result.tie_cuts) == (1, 0)


def test_solve_exact_example_two_letters(example):
    result = sg.solve_exact(example, 2)
    assert result.optimum == 3
    # the full space is the unique maximizer at this horizon
    assert result.maximizer_count == 1 and result.maximizers_complete
    assert result.maximizers[0] == tuple(sg.enumerate_sequences(example, 2))
    # golden work counters: 20 subsets evaluated, the other 491 cut in 19
    # subtrees below the best value
    assert (result.subsets_examined, result.subsets_pruned) == (20, 491)
    assert (result.cover_cuts, result.tie_cuts) == (19, 0)


def test_solve_exact_example_three_letters_past_the_default_budget(example):
    result = sg.solve_exact(example, 3, subset_budget=27)
    assert result.certified
    assert result.optimum == 9
    assert sg.evaluate_questionnaire(example, result.designated.members).objective == 9
    assert result.subsets_examined + result.subsets_pruned == 2**27 - 1
    assert result.subsets_examined == 38
    assert (result.cover_cuts, result.tie_cuts) == (37, 0)
    assert result.maximizer_count == 1 and result.maximizers_complete


def test_solve_exact_x6_four_letters():
    assert sg.solve_exact(X6, 4, subset_budget=16).optimum == Fraction(54, 11)


# SHA-256 over the exact solves of model_pool() at n = 1, 2 of (optimum,
# maximizers, maximizer_count, maximizers_complete, designated members,
# truthful parts), recorded from the walk whose incumbent started at 1.
POOL_SOLVES_SHA256 = "cacfe3e20c34f760a44b0661895ff178f3730684d20f151e38cc4e41fda59595"


def test_greedy_seeds_change_no_result_and_examine_fewer_subsets(pool):
    # Each seed is a real questionnaire, so no node holding a maximizer is cut
    # before the walk meets it; only the work counters may move.
    digest = hashlib.sha256()
    examined = 0
    for m in pool:
        for n in (1, 2):
            result = sg.solve_exact(m, n)
            record = (
                str(result.optimum),
                result.maximizers,
                result.maximizer_count,
                result.maximizers_complete,
                result.designated.members,
                result.designated.truthful,
            )
            digest.update(repr(record).encode())
            examined += result.subsets_examined
    assert digest.hexdigest() == POOL_SOLVES_SHA256
    # 32,665 from a singleton incumbent and 15,020 from the greedy
    # questionnaires alone. A proper closure of the full space beats them on 8
    # of these solves, and 6 of those examine fewer subsets.
    assert examined == 14792 < 15020


def test_solve_exact_constant_model_prefers_singletons():
    m = sg.Model.from_tables(["a", "b"], ["t"], {"t": 1}, {"t": [[0, 0], [0, 0]]})
    result = sg.solve_exact(m, 1)
    assert result.optimum == 1
    assert result.maximizers == (((0,),), ((1,),))
    assert result.designated.members == ((0,),)


def test_solve_exact_agrees_with_bruteforce():
    for m in model_pool(25, seed=43):
        best, sets = brute_best(m, 1)
        result = sg.solve_exact(m, 1, report_cap=1 << 20)
        assert result.optimum == best
        assert list(result.maximizers) == sets
        assert result.maximizer_count == len(sets)


def test_pruned_and_unpruned_agree_exactly():
    # Branch and bound against the unpruned walk and the brute-force scan, on
    # spaces of 2-12 sequences: one letter over 2-12 symbols, or longer words.
    rng = random.Random(61)
    shapes = [(k, 1) for k in range(2, 13)] + [(2, 2), (2, 3), (3, 2)]
    for trial in range(110):
        num_symbols, n = shapes[trial % len(shapes)]
        m = make_random_model(rng, num_symbols, rng.randint(1, 3))
        pruned = sg.solve_exact(m, n, prune=True, report_cap=1 << 20)
        full = sg.solve_exact(m, n, prune=False, report_cap=1 << 20)
        best, sets = brute_best(m, n)
        assert pruned.optimum == full.optimum == best
        assert list(pruned.maximizers) == list(full.maximizers) == sets
        assert pruned.maximizer_count == full.maximizer_count == len(sets)
        assert full.subsets_pruned == 0
        total = 2 ** (num_symbols**n) - 1
        assert full.subsets_examined == total
        assert pruned.subsets_examined + pruned.subsets_pruned == total


def test_cut_walk_keeps_the_optimum_and_the_listed_prefix():
    # The clique-cover ceiling and the tie cut against the unpruned walk, on
    # spaces of 2-16 sequences and caps below and above the maximizer count;
    # brute force joins on spaces of at most 9 sequences.
    rng = random.Random(2026)
    shapes = [(k, 1) for k in range(2, 17)] + [(2, 2), (3, 2), (4, 2), (2, 3), (2, 4)]
    for trial in range(40):
        num_symbols, n = shapes[trial % len(shapes)]
        m = make_random_model(rng, num_symbols, rng.randint(1, 3))
        full = sg.solve_exact(m, n, prune=False, report_cap=1 << 20)
        assert full.maximizers_complete and (full.cover_cuts, full.tie_cuts) == (0, 0)
        if num_symbols**n <= 9:
            best, sets = brute_best(m, n)
            assert full.optimum == best
            assert list(full.maximizers) == sets
        total = full.maximizer_count
        for cap in (0, 1, 2, 16, 1 << 20):
            result = sg.solve_exact(m, n, report_cap=cap)
            assert result.optimum == full.optimum
            assert result.designated == full.designated
            assert result.maximizers == full.maximizers[:cap]
            assert min(cap, total) <= result.maximizer_count <= total
            # Complete means counted exactly. A cut tie's subtree may hold no
            # maximizer, so an incomplete count can still be exact.
            if result.maximizers_complete:
                assert result.maximizer_count == total
            else:
                assert result.tie_cuts > 0
            if cap >= total:
                assert result.maximizer_count == total
            assert result.subsets_examined + result.subsets_pruned == 2 ** (num_symbols**n) - 1


_TABLES = {  # g and h are honest, d is example1's deceptive type
    "g": [[2, 1, 0], [0, 2, 1], [1, 0, 2]],
    "h": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "d": [[1, 2, 1], [2, 1, 1], [0, 0, 0]],
}


def _typed(types: list[str]) -> sg.Model:
    prior = {t: f"1/{len(types)}" for t in types}
    return sg.Model.from_tables(["0", "1", "2"], types, prior, {t: _TABLES[t] for t in types})


_ONE_DECEPTIVE = [["d"], ["g", "d"], ["g", "h", "d"]]  # 0, 1 and 2 honest types


def _deceptive_ids(m: sg.Model) -> list[int]:
    return [t for t in range(m.num_types) if sg.classify_type(m, t) != sg.HONEST]


def test_scorer_covers_are_the_sender_graphs():
    # The walk's clique covers run on the scorer's covers: one per deceptive
    # type, in slot order, each that type's sender graph.
    rng = random.Random(17)
    cases = [_typed(types) for types in _ONE_DECEPTIVE]
    cases += [make_random_model(rng, 3, 3) for _ in range(4)]
    for m in cases:
        deceptive = _deceptive_ids(m)
        for n in (1, 2):
            seqs, scale, _, _, covers = sg.equilibrium.packed_scorer(m, n)
            assert seqs == sg.enumerate_sequences(m, n)
            assert len(covers) == len(deceptive)
            for slot, (t, (weight, shift, graph)) in enumerate(zip(deceptive, covers)):
                assert (weight, shift) == (m.prior[t] * scale, slot * len(seqs))
                assert graph == sg.build_sender_graph(m, t, n).adjacency
    # With every type honest there is no cover, and any set I scores scale * |I|.
    all_honest = _typed(["g", "h"])
    _, scale, beats, score, covers = sg.equilibrium.packed_scorer(all_honest, 2)
    assert covers == [] and beats == [0] * 9
    for members in range(1, 1 << 9):
        assert score(members, 0) == scale * members.bit_count()


def test_packed_scorer_refuses_exactly_past_its_pairs(monkeypatch):
    # The scorer prices its k^n sequences, then its k^(2n) (report, truth)
    # pairs, before it builds any sequence or reads any type, so a refusal
    # never reaches the kernel, and an all-honest model, whose scorer never
    # runs it, is priced all the same.
    rng = random.Random(31)
    cases = [_typed(["g", "h"])]
    cases += [make_random_model(rng, rng.randint(2, 4), rng.randint(1, 3)) for _ in range(5)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the scorer built its tables")

    for m in cases:
        for n in (1, 2):
            space = len(sg.enumerate_sequences(m, n))
            pairs = space**2
            for budget in (pairs - 1, pairs, pairs + 1, rng.randint(1, 2 * pairs)):
                if budget >= pairs:
                    _, scale, _, _, _ = sg.equilibrium.packed_scorer(m, n, enum_budget=budget)
                    assert scale == m.prior_weights[0]
                    continue
                # A budget below the k^n sequences names them first.
                what, requested = ("packed scorer", pairs) if budget >= space else (
                    "sequence enumeration", space
                )
                with monkeypatch.context() as patch:
                    patch.setattr(sg.equilibrium, "_top_bit_masks", forbidden)
                    patch.setattr(sg.equilibrium, "enumerate_sequences", forbidden)
                    with pytest.raises(sg.BudgetExceededError, match=what) as info:
                        sg.equilibrium.packed_scorer(m, n, enum_budget=budget)
                assert (info.value.requested, info.value.budget) == (requested, budget)


def test_solve_exact_runs_the_kernel_once_per_deceptive_type(monkeypatch):
    # One walk per deceptive type serves both the beats and the graph rows.
    kernel = sg.equilibrium._top_bit_masks
    calls = []

    def counted(model, type_id, n, reads):
        calls.append(type_id)
        return kernel(model, type_id, n, reads)

    monkeypatch.setattr(sg.equilibrium, "_top_bit_masks", counted)
    rng = random.Random(5)
    cases = [_typed(types) for types in _ONE_DECEPTIVE]
    cases += [make_random_model(rng, 2, 3) for _ in range(3)]
    for m in cases:
        for call in (
            lambda: sg.equilibrium.packed_scorer(m, 2),
            lambda: sg.solve_exact(m, 2),
        ):
            calls.clear()
            call()
            assert calls == _deceptive_ids(m)


def _count_scans(monkeypatch) -> list[int]:
    """Record the type id of every call of the scan-based `truthful_subset`."""
    calls: list[int] = []
    scan = sg.equilibrium.truthful_subset

    def counting(model, members, type_id):
        calls.append(type_id)
        return scan(model, members, type_id)

    monkeypatch.setattr(sg.equilibrium, "truthful_subset", counting)
    return calls


def test_solve_exact_scores_on_the_packed_scorer_alone(example, monkeypatch):
    # The walk's incumbent starts at the singleton value 1, or at a greedy
    # questionnaire's packed score, so the scan-based objective runs once per
    # type, on the designated set only.
    cases = [(example, 1), (example, 2), (_only_d(), 1), (_only_d(), 2)]
    expected = [brute_best(m, n) for m, n in cases]
    calls = _count_scans(monkeypatch)
    for (m, n), (best, sets) in zip(cases, expected):
        for prune in (True, False):
            calls.clear()
            result = sg.solve_exact(m, n, prune=prune, report_cap=1 << 20)
            assert result.optimum == best
            assert list(result.maximizers) == sets
            assert calls == list(range(m.num_types))


def test_solve_exact_respects_budget(example):
    with pytest.raises(sg.BudgetExceededError):
        sg.solve_exact(example, 3)  # 27 base sequences > default 20
    with pytest.raises(sg.BudgetExceededError):
        sg.solve_exact(example, 2, subset_budget=8)


def test_solve_exact_refuses_before_enumerating(example, monkeypatch):
    # 3^9 sequences: the refusal must come before any table is built.
    def enumerate_forbidden(*args, **kwargs):
        raise AssertionError("sequences enumerated before the subset budget check")

    monkeypatch.setattr(sg.equilibrium, "enumerate_sequences", enumerate_forbidden)
    with pytest.raises(sg.BudgetExceededError, match="questionnaire search") as info:
        sg.solve_exact(example, 9)
    assert info.value.requested == 3**9
    assert info.value.budget == sg.equilibrium.DEFAULT_SUBSET_BUDGET


def test_report_cap_truncates_list_not_count():
    # Both singletons are maximizers. Once the cap's one is listed, the
    # pruned walk cuts the other tie and flags its count as a lower bound;
    # the unpruned walk still counts both.
    m = sg.Model.from_tables(["a", "b"], ["t"], {"t": 1}, {"t": [[0, 0], [0, 0]]})
    result = sg.solve_exact(m, 1, report_cap=1)
    assert result.maximizers == (((0,),),)
    assert (result.maximizer_count, result.maximizers_complete) == (1, False)
    assert result.tie_cuts == 2
    full = sg.solve_exact(m, 1, prune=False, report_cap=1)
    assert full.maximizers == (((0,),),)
    assert (full.maximizer_count, full.maximizers_complete) == (2, True)
    listed = sg.solve_exact(m, 1, report_cap=2)
    assert (listed.maximizer_count, listed.maximizers_complete, listed.tie_cuts) == (2, True, 0)


def test_report_cap_zero_lists_none_and_negative_is_refused(example):
    result = sg.solve_exact(example, 1, report_cap=0)
    assert result.maximizers == ()
    # the designated maximizer is walked whatever the cap; the other is cut
    assert (result.maximizer_count, result.maximizers_complete) == (1, False)
    assert result.designated.members == ((0,), (2,))
    full = sg.solve_exact(example, 1, prune=False, report_cap=0)
    assert full.maximizers == ()
    assert (full.maximizer_count, full.maximizers_complete) == (2, True)
    assert full.designated.members == ((0,), (2,))
    with pytest.raises(ValueError, match="report cap"):
        sg.solve_exact(example, 1, report_cap=-1)


def test_heuristic_finds_the_one_letter_optimum(example):
    for seed in range(5):
        result = sg.solve_heuristic(example, 1, seed=seed)
        assert result.optimum == Fraction(4, 3)
        assert not result.certified
        assert result.maximizer_count == 1


def test_heuristic_is_deterministic_per_seed(example):
    a = sg.solve_heuristic(example, 2, seed=3)
    b = sg.solve_heuristic(example, 2, seed=3)
    assert a == b


def test_heuristic_never_below_a_greedy_questionnaire(pool):
    # A greedy independent set of any type's sender graph, or of their union,
    # is a questionnaire anyone can build; model_pool()[4] at n=2 scored 7/4
    # by local search against 13/4 for such a set.
    for m in pool:
        for n in (1, 2):
            seqs = sg.enumerate_sequences(m, n)
            graphs = [sg.build_sender_graph(m, t, n) for t in range(m.num_types)]
            floor = max(
                sg.evaluate_questionnaire(
                    m, [seqs[v] for v in sg.max_independent_set(g, mode="greedy").members]
                ).objective
                for g in (*graphs, sg.union_graph(graphs))
            )
            for seed in (0, 1):
                assert sg.solve_heuristic(m, n, seed=seed).optimum >= floor, (n, seed)


def test_heuristic_never_below_the_closure_seed(example):
    # Local search alone stalls at 2 (n=2) and 34/3 (n=4); the closure of the
    # full space scores 3 and 27.
    for seed in range(5):
        assert sg.solve_heuristic(example, 2, seed=seed).optimum == 3
    result = sg.solve_heuristic(example, 4)
    assert result.optimum >= 27
    assert sg.evaluate_questionnaire(example, result.designated.members).objective == result.optimum


def _closure(model, n):
    """The full space, cut to the union of its truthful subsets until empty or unchanged."""
    current = tuple(sg.enumerate_sequences(model, n))
    while True:
        parts = (sg.truthful_subset(model, current, t) for t in range(model.num_types))
        kept = tuple(sorted(set().union(*parts)))
        if not kept or kept == current:
            return current
        current = kept


def test_heuristic_returns_the_closure_floor_where_it_binds():
    # Only a model without an honest type can cut its closure. Its twin with
    # one more type, honest and of prior 0, scores, walks and grows the same
    # greedy questionnaires, but the twin's closure is the full space: the
    # twin's result is the best of the local search's and the greedy floor
    # unless the full space scores higher. The greedy floor leaves the
    # closure binding in about one model in 200, so the draw is long.
    rng = random.Random(7)
    shapes = [(2, 1), (3, 1), (4, 1), (6, 1), (9, 1), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]
    shapes.append((2, 4))
    binding = proper = 0
    for trial in range(1200):
        num_symbols, n = shapes[trial % len(shapes)]
        m = make_random_model(rng, num_symbols, rng.randint(1, 3))
        if sg.HONEST in (sg.classify_type(m, t) for t in range(m.num_types)):
            continue
        symbols = range(num_symbols)
        honest = tuple(tuple(Fraction(int(r == t)) for t in symbols) for r in symbols)
        twin = sg.Model(m.alphabet, (*m.types, "z"), (*m.prior, Fraction(0)), (*m.utility, honest))
        floor = _closure(m, n)
        floor_value = sg.evaluate_questionnaire(m, floor).objective
        for seed in (0, 1):
            result = sg.solve_heuristic(m, n, seed=seed)
            local = sg.solve_heuristic(twin, n, seed=seed)
            assert result.optimum == max(floor_value, local.optimum), (trial, seed)
            assert result.subsets_examined == local.subsets_examined
            if local.optimum < floor_value:
                assert result.designated.members == floor, (trial, seed)
                binding += 1
                proper += len(floor) < num_symbols**n
    assert binding >= 5 and proper >= 1


def test_floor_refuses_a_closure_scored_below_the_full_space(pool):
    # Shrinking a questionnaire only grows each truthful subset, so no true
    # score puts the closure below the full space; a stub that counts members
    # does, on a pool model whose closure is proper.
    m, n = next((m, n) for m in pool for n in (1, 2) if len(_closure(m, n)) < m.num_symbols**n)
    seqs, scale, beats, _, covers = sg.equilibrium.packed_scorer(m, n)

    def size(members, _):
        return members.bit_count()

    with pytest.raises(RuntimeError) as info:
        next(sg.equilibrium._floor_questionnaires(m, beats, size, covers))
    assert str(info.value) == (
        "closure reduction decreased the objective "
        f"({Fraction(len(seqs), scale)} -> {Fraction(len(_closure(m, n)), scale)}); "
        "this contradicts the dominance argument"
    )


def test_solve_heuristic_never_calls_the_scan_based_objective(example, monkeypatch):
    # The floor, too, is scored on the packed masks; only the designated set
    # is evaluated by the definition-level scan, once per type.
    calls = _count_scans(monkeypatch)
    for m, n in [(example, 1), (example, 2), (example, 3), (_only_d(), 1), (_only_d(), 2)]:
        calls.clear()
        result = sg.solve_heuristic(m, n)
        assert result.designated.objective == result.optimum
        assert calls == list(range(m.num_types))


def test_heuristic_bounded_by_singleton_and_exact():
    for m in model_pool(20, seed=53):
        exact = sg.solve_exact(m, 1).optimum
        for seed in (0, 1):
            value = sg.solve_heuristic(m, 1, seed=seed).optimum
            assert 1 <= value <= exact


def _member_mask(model, n, result) -> int:
    seqs = sg.enumerate_sequences(model, n)
    return sum(1 << seqs.index(x) for x in result.designated.members)


# (optimum, designated members as a bitmask over enumerate_sequences order,
# subsets_examined), recorded from the reference implementation of the
# heuristic that rescored every trial with the scan-based objective. The packed
# walk must visit the same trials and break ties the same way. Since the greedy
# questionnaires joined the floor, each of them counts one evaluation more, and
# they lift four optima here: random trials 5, 9 and 10 at seed 0 and 6 at seed 1.
HEURISTIC_EXAMPLE_GOLDEN = {
    1: [("4/3", 0x6, 10), ("4/3", 0x5, 10), ("4/3", 0x6, 10)],
    2: [("3", 0x1FF, 53)] * 3,
    3: [("9", 0x7FFFFFF, 421)] * 3,
    4: [("27", (1 << 81) - 1, 3667)] * 3,
}
# Per random model: the same record for seeds 0 and 1.
HEURISTIC_RANDOM_GOLDEN = [
    [("1", 0x2, 5), ("1", 0x1, 5)],
    [("2", 0x7, 9), ("2", 0x7, 9)],
    [("2", 0x9, 14), ("2", 0x9, 21)],
    [("2", 0xE, 21), ("2", 0xE, 15)],
    [("2", 0x4F, 58), ("2", 0x4F, 58)],
    [("3/2", 0x16, 42), ("3/2", 0x17, 48)],
    [("5/2", 0x150C, 130), ("2", 0xA0A0, 111)],
    [("1", 0x9008, 153), ("1", 0x32, 153)],
    [("1", 0x2, 5), ("1", 0x1, 5)],
    [("9/8", 0x5, 10), ("9/8", 0x5, 13)],
    [("33/17", 0x6, 16), ("33/17", 0x6, 17)],
    [("1", 0x8, 9), ("1", 0x2, 9)],
    [("15/4", 0x1B0, 85), ("15/4", 0x1B0, 85)],
    [("3", 0x7E, 50), ("3", 0x16, 41)],
    [("31/7", 0x777, 249), ("31/7", 0x777, 177)],
    [("27/10", 0x20B, 295), ("27/10", 0x20B, 295)],
    [("1", 0x2, 5), ("1", 0x1, 5)],
    [("17/10", 0x5, 16), ("17/10", 0x5, 12)],
    [("2", 0xB, 15), ("2", 0xB, 15)],
    [("1", 0x8, 12), ("1", 0x2, 12)],
]


def test_heuristic_golden_values(example):
    for n, records in HEURISTIC_EXAMPLE_GOLDEN.items():
        for seed, record in zip((0, 1, 7), records):
            result = sg.solve_heuristic(example, n, seed=seed)
            got = (str(result.optimum), _member_mask(example, n, result), result.subsets_examined)
            assert got == record, (n, seed)
    rng = random.Random(89)
    shapes = [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]
    for trial, records in enumerate(HEURISTIC_RANDOM_GOLDEN):
        num_symbols, n = shapes[trial % len(shapes)]
        m = make_random_model(rng, num_symbols, rng.randint(1, 3))
        for seed, record in zip((0, 1), records):
            result = sg.solve_heuristic(m, n, seed=seed)
            got = (str(result.optimum), _member_mask(m, n, result), result.subsets_examined)
            assert got == record, (trial, seed)


def test_heuristic_example_five_letters(example):
    # The closure seed, the whole space, beats the local search's result.
    result = sg.solve_heuristic(example, 5)
    assert result.optimum == 81
    assert len(result.designated.members) == 3**5
    assert result.subsets_examined == 33080


def test_empty_questionnaire_rejected(example):
    with pytest.raises(ValueError):
        sg.evaluate_questionnaire(example, [])
    with pytest.raises(ValueError):
        sg.truthful_subset(example, [], 0)


def pair_graph_optimum(model: sg.Model, n: int) -> int:
    """Maximum-weight independent set of the pair graph H, by a subset DP.

    H has a vertex (t, x) per type t and sequence x, weighing p_t times the
    lcm of the prior's denominators; (t, x) and (s, y), x != y, are adjacent
    when y weakly beats x for t or x weakly beats y for s, by the averaged
    payoff itself rather than the kernel.
    """
    seqs = sg.enumerate_sequences(model, n)
    scale = math.lcm(*(p.denominator for p in model.prior))
    pairs = [(t, x) for t in range(model.num_types) for x in seqs]
    weights = [int(model.prior[t] * scale) for t, _ in pairs]

    def beats(t, y, x):
        return sequence_utility(model, t, y, x) >= sequence_utility(model, t, x, x)

    adjacency = [
        sum(
            1 << j
            for j, (s, y) in enumerate(pairs)
            if x != y and (beats(t, y, x) or beats(s, x, y))
        )
        for t, x in pairs
    ]
    best = [0] * (1 << len(pairs))
    for mask in range(1, len(best)):
        low = mask & -mask
        v = low.bit_length() - 1
        best[mask] = max(best[mask ^ low], weights[v] + best[mask & ~adjacency[v] & ~low])
    return best[-1]


def test_questionnaire_optimum_is_the_pair_graph_weighted_independence_number():
    rng = random.Random(11)
    shapes = [
        (k, types, n)
        for k in (2, 3, 4)
        for types in (1, 2, 3)
        for n in (1, 2, 3, 4)
        if types * k**n <= 16
    ]
    for _ in range(200):
        k, types, n = rng.choice(shapes)
        model = make_random_model(rng, k, types)
        scale = math.lcm(*(p.denominator for p in model.prior))
        optimum = sg.solve_exact(model, n, report_cap=0).optimum
        assert optimum * scale == pair_graph_optimum(model, n), (k, types, n)
