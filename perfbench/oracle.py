"""Reference evaluators written from the definitions, independent of screengame.

Everything here works on model documents (the JSON dicts the benchmark
writes) and recomputes payoffs from the raw utility entries, so a check made
with these functions does not route through the code it checks.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

SYMBOLS = "0123456789ABCDEFGHIJ"  # one character per symbol, so labels need no commas


def random_model(rng: random.Random, num_symbols: int, num_types: int, boost: int = 0) -> dict:
    """Model document with integer payoffs in [-3, 3] plus `boost` on the diagonal.

    A larger diagonal boost makes truth-telling more attractive, so the
    sender graphs get sparser.
    """
    alphabet = [SYMBOLS[i] for i in range(num_symbols)]
    types = [chr(ord("a") + t) for t in range(num_types)]
    weights = [rng.randint(1, 9) for _ in types]
    total = sum(weights)
    return {
        "alphabet": alphabet,
        "types": types,
        "prior": {t: f"{w}/{total}" for t, w in zip(types, weights)},
        "utility": {
            t: [
                [str(rng.randint(-3, 3) + (boost if i == j else 0)) for j in range(num_symbols)]
                for i in range(num_symbols)
            ]
            for t in types
        },
    }


def prior(doc: dict) -> list[Fraction]:
    return [Fraction(doc["prior"][t]) for t in doc["types"]]


def int_table(doc: dict, type_label: str) -> list[list[int]]:
    """Utility table of one type scaled to integers (order-preserving)."""
    rows = [[Fraction(e) for e in row] for row in doc["utility"][type_label]]
    scale = math.lcm(*(e.denominator for row in rows for e in row))
    return [[int(e * scale) for e in row] for row in rows]


def sequences(doc: dict, n: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(len(doc["alphabet"])), repeat=n))


def label(doc: dict, seq) -> str:
    return "".join(doc["alphabet"][s] for s in seq)


def payoff_matrix(table: list[list[int]], seqs) -> list[list[int]]:
    """pay[r][x]: summed payoff for reporting seqs[r] when the truth is seqs[x]."""
    return [[sum(table[a][b] for a, b in zip(rep, tru)) for tru in seqs] for rep in seqs]


def beats_masks(table: list[list[int]], seqs) -> list[int]:
    """beats[x]: bitmask of y != x that the sender weakly prefers to reporting x."""
    pay = payoff_matrix(table, seqs)
    out = []
    for x in range(len(seqs)):
        own = pay[x][x]
        out.append(sum(1 << y for y in range(len(seqs)) if y != x and pay[y][x] >= own))
    return out


def graph_adjacency(doc: dict, type_label: str, n: int) -> list[int]:
    """Sender graph of one type at horizon n: x ~ y when either weakly prefers the other."""
    beats = beats_masks(int_table(doc, type_label), sequences(doc, n))
    adj = list(beats)
    for x, mask in enumerate(beats):
        rest = mask
        while rest:
            y = (rest & -rest).bit_length() - 1
            adj[y] |= 1 << x
            rest &= rest - 1
    return adj


def union_adjacency(graphs: list[list[int]]) -> list[int]:
    return [_or(masks) for masks in zip(*graphs)]


def _or(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def truthful_members(doc: dict, members, type_label: str) -> list[tuple[int, ...]]:
    """Members x such that reporting any other member y pays strictly less than x."""
    table = int_table(doc, type_label)
    members = sorted(set(members))
    out = []
    for x in members:
        own = sum(table[s][s] for s in x)
        if all(
            sum(table[a][b] for a, b in zip(y, x)) < own for y in members if y != x
        ):
            out.append(x)
    return out


def objective(doc: dict, members) -> Fraction:
    """Prior-weighted count of truthfully reported members."""
    return sum(
        (p * len(truthful_members(doc, members, t)) for p, t in zip(prior(doc), doc["types"])),
        Fraction(0),
    )


def brute_optimum(doc: dict, n: int) -> Fraction:
    """Best objective over every nonempty questionnaire, by full enumeration."""
    seqs = sequences(doc, n)
    count = len(seqs)
    weights = prior(doc)
    denominator = math.lcm(*(p.denominator for p in weights))
    scaled = [int(p * denominator) for p in weights]
    beats = [beats_masks(int_table(doc, t), seqs) for t in doc["types"]]
    best = 0
    for mask in range(1, 1 << count):
        members = [x for x in range(count) if mask >> x & 1]
        value = sum(
            w * sum(1 for x in members if not b[x] & mask) for w, b in zip(scaled, beats)
        )
        if value > best:
            best = value
    return Fraction(best, denominator)
