"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Every check here is exact (integer or rational comparison) unless a
criterion states a runtime budget, which is asserted in seconds.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import screengame as sg
from screengame.cli import main as cli_main

from conftest import brute_best, fekete_check


class Gate:
    """Prints `criterion N: PASS (...)` or `criterion N: FAIL (...)`."""

    def __init__(self, num: int):
        self.num = num
        self.note = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            print(f"criterion {self.num}: PASS ({self.note})")
        else:
            print(f"criterion {self.num}: FAIL ({exc_type.__name__}: {exc})")
        return False


def test_criterion_1_example_golden_values(example):
    with Gate(1) as gate:
        started = time.perf_counter()
        naive = sg.canonical_strategy(sg.enumerate_sequences(example, 1))
        assert sg.recovery_report(example, naive).value == 1
        designated = sg.canonical_strategy([(0,), (2,)])
        assert sg.recovery_report(example, designated).value == Fraction(4, 3)
        assert sg.solve_exact(example, 1).optimum == Fraction(4, 3)
        for n in (1, 2):
            constant = sg.canonical_strategy([(0,) * n])
            value = sg.recovery_report(example, constant).value
            assert value == 1
            assert sg.extraction_rate(value, n) == 1.0
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        gate.note = (
            "naive=1, designated=4/3, optimum=4/3, constant=1 at rate 1, "
            f"{elapsed:.3f}s"
        )


def test_criterion_2_played_recovery_equals_formula(pool):
    with Gate(2) as gate:
        started = time.perf_counter()
        assert len(pool) >= 200
        image_sets = 0
        for idx, model in enumerate(pool):
            for n in (1, 2):
                space = model.num_symbols**n
                if space <= 9:
                    result = sg.cross_check_equivalence(model, n)
                    assert result.image_sets_checked == 2**space - 1
                else:
                    result = sg.cross_check_equivalence(
                        model, n, strategies="random", count=50, seed=idx
                    )
                    assert result.image_sets_checked == 50
                assert not result.mismatches, result.mismatches[:3]
                image_sets += result.image_sets_checked
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        gate.note = (
            f"{len(pool)} models, {image_sets} image sets agree exactly, "
            f"{elapsed:.1f}s"
        )


def test_criterion_3_search_matches_exhaustive_ground_truth(pool):
    with Gate(3) as gate:
        instances = 0
        for model in pool:
            for n in (1, 2):
                if model.num_symbols**n > 9:
                    continue
                optimum, maximizers = brute_best(model, n)
                pruned = sg.solve_exact(model, n, report_cap=1 << 20)
                full = sg.solve_exact(model, n, prune=False, report_cap=1 << 20)
                assert pruned.optimum == optimum
                assert full.optimum == optimum
                assert list(pruned.maximizers) == maximizers
                assert pruned.maximizers == full.maximizers
                assert full.subsets_examined == 2 ** (model.num_symbols**n) - 1
                instances += 1
        gate.note = f"{instances} instances, pruned == unpruned == brute force"


def test_criterion_4_independence_numbers_sandwich_the_optimum(example, pool):
    with Gate(4) as gate:
        instances = 0
        for model in pool:
            for n in (1, 2):
                if model.num_symbols**n > 9:
                    continue
                optimum = sg.solve_exact(model, n).optimum
                bounds = sg.finite_bounds(model, n)
                assert bounds.lower_certified and bounds.upper_certified
                assert bounds.alpha_union <= optimum <= bounds.weighted_alpha
                instances += 1
        bounds = sg.finite_bounds(example, 1, solve=True)
        assert (bounds.alpha_union, bounds.achieved, bounds.weighted_alpha) == (
            1,
            Fraction(4, 3),
            Fraction(5, 3),
        )
        gate.note = f"{instances} instances sandwiched, example pins (1, 4/3, 5/3)"


def test_criterion_5_product_floor_and_growth_laws(example, pool):
    with Gate(5) as gate:
        three_symbol = [m for m in pool if m.num_symbols == 3]
        assert three_symbol
        floors = 0
        for model in three_symbol:
            graphs = [
                sg.build_sender_graph(model, t, 1) for t in range(model.num_types)
            ]
            base = len(sg.max_independent_set(sg.union_graph(graphs)).members)
            for n in (2, 3):
                graphs_n = [
                    sg.build_sender_graph(model, t, n)
                    for t in range(model.num_types)
                ]
                alpha_n = len(sg.max_independent_set(sg.union_graph(graphs_n)).members)
                assert alpha_n >= base**n
                floors += 1

        witnesses = 0
        for model in [example, *three_symbol]:
            for type_id in range(model.num_types):
                for m in (1, 2):
                    for n in range(m, 5 - m):
                        assert fekete_check(model, type_id, m, n)
                        witnesses += 1

        report = sg.asymptotic_bounds(example, 4)
        assert report.best_type == example.type_index("h")
        assert report.alphas == (3, 9, 27, 81)  # every root is exactly 3
        d = example.type_index("d")
        for n in range(1, 5):
            graph = sg.build_sender_graph(example, d, n)
            assert len(sg.max_independent_set(graph).members) == 1
        gate.note = (
            f"{floors} product floors, {witnesses} growth witnesses, "
            "example pins best type and flat deceptive graphs"
        )


def test_criterion_6_honest_identity_and_adversarial_play(example, pool):
    with Gate(6) as gate:
        rng = random.Random(20260816)
        honest_checked = 0
        strategies_checked = 0
        for model in [example, *pool]:
            seqs = sg.enumerate_sequences(model, 1)
            image_sets = [tuple(seqs)]
            for _ in range(3):
                image_sets.append(
                    tuple(sorted(rng.sample(seqs, rng.randint(1, len(seqs)))))
                )
            for members in image_sets:
                strategy = sg.canonical_strategy(members)
                strategies_checked += 1
                report = sg.recovery_report(model, strategy)
                for t, robust in enumerate(report.robust):
                    if sg.classify_type(model, t) == sg.HONEST:
                        assert robust == strategy.image
                        honest_checked += 1
                    played = tuple(
                        truth
                        for truth in seqs
                        if sg.simulate(model, strategy, t, truth).decoded == truth
                    )
                    assert played == robust
        assert honest_checked >= 5
        gate.note = (
            f"{strategies_checked} strategies, {honest_checked} honest-type "
            "identities, adversarial play reproduces every robust set"
        )


def test_criterion_7_determinism_and_round_trip(example, pool, capsys, tmp_path):
    with Gate(7) as gate:
        commands = [
            ["solve", "--model", "example1", "--n", "2"],
            ["bounds", "--model", "example1", "--n", "1", "--solve"],
            ["asymptotic", "--model", "example1", "--format", "machine"],
            ["simulate", "--model", "example1", "--type", "d", "--truth", "2"],
        ]
        for argv in commands:
            runs = []
            for _ in range(2):
                assert cli_main(argv) == 0
                out = capsys.readouterr().out
                runs.append(
                    [
                        line
                        for line in out.splitlines()
                        if not line.startswith(("timing_ms: ", "timing_ms="))
                    ]
                )
            assert runs[0] == runs[1]

        round_tripped = 0
        for model in [example, *pool[:50]]:
            text = sg.serialize_model(model)
            again = sg.parse_model(text)
            assert again == model
            assert sg.serialize_model(again) == text
            round_tripped += 1

        path = tmp_path / "example.json"
        path.write_text(sg.serialize_model(example), encoding="utf-8")
        assert cli_main(["validate", "--model", str(path)]) == 0
        capsys.readouterr()
        gate.note = (
            f"{len(commands)} commands byte-stable, {round_tripped} models "
            "round-trip"
        )
