"""Shared fixtures and brute-force oracles for the test suite.

The oracles here recompute results by definition-level scans (all subsets,
all pairs, raw Fraction averages) so library outputs are checked against an
independent route, not against themselves.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import screengame as sg

POOL_SEED = 20260816
POOL_SIZE = 200

# (alphabet size, sender type count) cycled deterministically across the pool
GRID = tuple(itertools.product((2, 3, 4), (1, 2, 3)))


def make_random_model(rng: random.Random, num_symbols: int, num_types: int) -> sg.Model:
    """Random instance: integer payoffs in [-3, 3], random rational prior."""
    alphabet = [str(i) for i in range(num_symbols)]
    types = [chr(ord("a") + t) for t in range(num_types)]
    weights = [rng.randint(1, 9) for _ in types]
    total = sum(weights)
    prior = {lab: f"{w}/{total}" for lab, w in zip(types, weights)}
    utility = {
        lab: [[rng.randint(-3, 3) for _ in alphabet] for _ in alphabet]
        for lab in types
    }
    return sg.Model.from_tables(alphabet, types, prior, utility)


# Labels the JSON encoder escapes or passes through, and literals spelled off
# their canonical form.
ODD_DOC = {
    "alphabet": ['q"x', "b\\s", "t\tb", "c\x01"],
    "types": ["l\u2028s", "\u00e9t\u00e9"],
    "prior": {"l\u2028s": "+1/4", "\u00e9t\u00e9": " 6/8 "},
    "utility": {
        "l\u2028s": [
            [2, "-1", "0/3", "1"], ["1/2", 3, "-0", "4/8"], [0, 0, "7", "-5/3"], [1, "2", 3, "+4"]
        ],
        "\u00e9t\u00e9": [["-2", 1, 1, 1], [0, "9/3", 0, 0], [1, 1, 1, 1], ["1/7", "-2/7", 0, 2]],
    },
}

# "X6": two deceptive types, the seventh draw of
# make_random_model(rng, rng.choice((2, 3)), 2) from Random(21). For b, a
# report y weakly beats the truth x exactly when y contains x as a 0/1 set, so
# b's truthful sets are Sperner antichains; a's mutual graph is complete.
X6 = sg.Model.from_tables(
    ["0", "1"], ["a", "b"], ["2/11", "9/11"], [[[0, 1], [3, 0]], [[-2, -1], [-2, 1]]]
)


def model_pool(count: int = POOL_SIZE, seed: int = POOL_SEED) -> list[sg.Model]:
    rng = random.Random(seed)
    return [make_random_model(rng, *GRID[i % len(GRID)]) for i in range(count)]


@pytest.fixture(scope="session")
def pool() -> list[sg.Model]:
    return model_pool()


@pytest.fixture()
def example() -> sg.Model:
    return sg.parse_model(sg.EXAMPLE1_TEXT)


def brute_alpha(graph: sg.SenderGraph) -> int:
    """Independence number by scanning every vertex subset."""
    best = 0
    for mask in range(1 << graph.vertex_count):
        size = mask.bit_count()
        if size <= best:
            continue
        rest = mask
        independent = True
        while rest and independent:
            v = (rest & -rest).bit_length() - 1
            if graph.adjacency[v] & mask:
                independent = False
            rest &= rest - 1
        if independent:
            best = size
    return best


def first_fit_cover(adjacency, cand: int, order) -> int:
    """Reference: each vertex of `cand`, in `order`, joins the first clique it can."""
    classes: list[int] = []
    for v in order:
        if not cand >> v & 1:
            continue
        for i, cls in enumerate(classes):
            if adjacency[v] & cls == cls:
                classes[i] = cls | 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


def sequence_utility(model: sg.Model, type_id: int, reported, truth) -> Fraction:
    """Average per-letter payoff of `reported` under `truth`, in raw Fractions."""
    payoffs = model.utility[type_id]
    return sum((payoffs[r][x] for r, x in zip(reported, truth)), Fraction(0)) / len(truth)


def fekete_check(model: sg.Model, type_id: int, m: int, n: int) -> bool:
    """Supermultiplicativity: alpha at horizon m + n reaches alpha(m) * alpha(n)."""

    def alpha(h: int) -> int:
        return len(sg.max_independent_set(sg.build_sender_graph(model, type_id, h)).members)

    return alpha(m + n) >= alpha(m) * alpha(n)


def brute_best(model: sg.Model, n: int) -> tuple[Fraction, list[tuple]]:
    """Optimum and all maximizers by evaluating every nonempty questionnaire."""
    seqs = sg.enumerate_sequences(model, n)
    best: Fraction | None = None
    sets: list[tuple] = []
    for size in range(1, len(seqs) + 1):
        for combo in itertools.combinations(seqs, size):
            value = sg.evaluate_questionnaire(model, combo).objective
            if best is None or value > best:
                best, sets = value, [combo]
            elif value == best:
                sets.append(combo)
    assert best is not None
    return best, sorted(tuple(sorted(s)) for s in sets)
