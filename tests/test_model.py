from __future__ import annotations

import collections
import enum
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import screengame as sg
from screengame.model import ModelSyntaxError, _format_members, _parse_members
from screengame.model import _parse_sequence as parse_sequence

from conftest import GRID, ODD_DOC, make_random_model, model_pool, sequence_utility


def test_example_shape(example):
    assert example.alphabet == ("0", "1", "2")
    assert example.types == ("h", "d")
    assert example.prior == (Fraction(1, 3), Fraction(2, 3))
    assert example.utility[1][1][0] == 2  # reporting 1 when truth is 0 pays 2


def test_classify_example(example):
    assert sg.classify_type(example, 0) == sg.HONEST
    assert sg.classify_type(example, 1) == sg.OTHER


def test_classify_diagonal_tie_is_not_honest():
    m = sg.Model.from_tables(["a", "b"], ["t"], {"t": 1}, {"t": [[1, 0], [1, 1]]})
    # reporting b when truth is a ties the truthful payoff
    assert sg.classify_type(m, 0) == sg.OTHER


def test_sequence_utility_known_values(example):
    assert sequence_utility(example, 1, (1, 0), (0, 1)) == 2
    assert sequence_utility(example, 1, (2, 2), (0, 0)) == 0
    assert sequence_utility(example, 0, (0, 1, 2), (0, 1, 2)) == 1


def test_sequence_utility_matches_fraction_average():
    # The kernel's integer totals over `scaled_utility`, divided back out,
    # are the raw Fraction average.
    rng = random.Random(11)
    for m in model_pool(12, seed=3):
        n = rng.randint(1, 4)
        for _ in range(5):
            rep = tuple(rng.randrange(m.num_symbols) for _ in range(n))
            tru = tuple(rng.randrange(m.num_symbols) for _ in range(n))
            t = rng.randrange(m.num_types)
            scale, table = m.scaled_utility[t]
            total = sum(table[r][x] for r, x in zip(rep, tru))
            assert Fraction(total, n * scale) == sequence_utility(m, t, rep, tru)


def test_averaging_consistency_across_concatenation():
    rng = random.Random(5)
    for m in model_pool(8, seed=9):
        for _ in range(10):
            a = rng.randint(1, 3)
            b = rng.randint(1, 3)
            rep = tuple(rng.randrange(m.num_symbols) for _ in range(a + b))
            tru = tuple(rng.randrange(m.num_symbols) for _ in range(a + b))
            t = rng.randrange(m.num_types)
            whole = (a + b) * sequence_utility(m, t, rep, tru)
            left = a * sequence_utility(m, t, rep[:a], tru[:a])
            right = b * sequence_utility(m, t, rep[a:], tru[a:])
            assert whole == left + right


def test_honest_lifts_to_longer_sequences():
    rng = random.Random(2)
    honest = [
        m
        for m in model_pool(40, seed=13)
        if any(sg.classify_type(m, t) == sg.HONEST for t in range(m.num_types))
    ]
    assert honest, "pool has no honest types; widen the sample"
    for m in honest[:6]:
        types = [t for t in range(m.num_types) if sg.classify_type(m, t) == sg.HONEST]
        for n in (2, 3):
            if m.num_symbols**n > 27:
                continue
            seqs = sg.enumerate_sequences(m, n)
            for t in types:
                for x in seqs:
                    own = sequence_utility(m, t, x, x)
                    for y in seqs:
                        if y != x:
                            assert sequence_utility(m, t, y, x) < own


def test_scaled_utility_is_the_exact_table_times_its_scale():
    rng = random.Random(11)
    for _ in range(20):
        utility = {
            lab: [[f"{rng.randint(-50, 50)}/{rng.randint(1, 12)}" for _ in range(3)]
                  for _ in range(3)]
            for lab in ("a", "b")
        }
        m = sg.Model.from_tables(["0", "1", "2"], ["a", "b"], {"a": "1/2", "b": "1/2"}, utility)
        for t, (scale, table) in enumerate(m.scaled_utility):
            exact = m.utility[t]
            assert scale == math.lcm(*(e.denominator for row in exact for e in row))
            for int_row, row in zip(table, exact):
                assert all(type(x) is int and x == e * scale for x, e in zip(int_row, row))


def test_scaled_utility_equals_the_fraction_definition_on_the_pools(pool):
    # The tables read each entry once as an integer ratio; they must equal
    # the lcm of the denominators times each entry, read through the Fraction
    # properties, on the benchmark's search pool and the conftest pool. Both
    # pools have integer payoffs, so 50 draws with rational ones join them.
    search_pool = Path(__file__).parent.parent / "perfbench" / "pool.json"
    docs = [entry["doc"] for entry in json.loads(search_pool.read_text())["search"]]
    assert len(docs) == 87
    rng = random.Random(17)
    rational = []
    for _ in range(50):
        k, labels = rng.randint(2, 4), list("abc"[: rng.randint(1, 3)])
        utility = {
            lab: [[f"{rng.randint(-30, 30)}/{rng.randint(1, 12)}" for _ in range(k)]
                  for _ in range(k)]
            for lab in labels
        }
        prior = {lab: f"1/{len(labels)}" for lab in labels}
        rational.append(sg.Model.from_tables([str(i) for i in range(k)], labels, prior, utility))
    models = [*(sg.parse_model(json.dumps(doc)) for doc in docs), *pool, *rational]
    assert len({scale for m in rational for scale, _ in m.scaled_utility}) > 10
    for m in models:
        expected = []
        for exact in m.utility:
            scale = math.lcm(*(e.denominator for row in exact for e in row))
            table = tuple(
                tuple(e.numerator * (scale // e.denominator) for e in row) for row in exact
            )
            expected.append((scale, table))
        assert m.scaled_utility == tuple(expected)


def test_simulate_rejects_mismatched_lengths(example):
    with pytest.raises(ValueError, match="truth length 2 differs from the strategy's 1"):
        sg.simulate(example, sg.canonical_strategy([(0,)]), 0, (0, 1))


def test_enumerate_is_lexicographic(example):
    seqs = sg.enumerate_sequences(example, 2)
    assert len(seqs) == 9
    assert seqs == sorted(seqs)
    assert seqs[0] == (0, 0) and seqs[-1] == (2, 2)


def test_enumerate_budget(example):
    with pytest.raises(sg.BudgetExceededError):
        sg.enumerate_sequences(example, 13)  # 3^13 > 10^6
    assert len(sg.enumerate_sequences(example, 2, enum_budget=9)) == 9
    with pytest.raises(sg.BudgetExceededError):
        sg.enumerate_sequences(example, 2, enum_budget=8)
    with pytest.raises(ValueError):
        sg.enumerate_sequences(example, 0)


def test_huge_spaces_are_refused_without_building_the_count(example):
    started = time.perf_counter()
    with pytest.raises(sg.BudgetExceededError) as info:
        sg.enumerate_sequences(example, 10**9)
    assert time.perf_counter() - started < 1
    assert info.value.requested == "3^1000000000"
    assert str(info.value) == "sequence enumeration: requested 3^1000000000 exceeds budget 1000000"
    # A small count past the budget's bit length is still written out in full.
    with pytest.raises(sg.BudgetExceededError) as info:
        sg.solve_exact(example, 6)
    assert str(info.value) == "questionnaire search: requested 729 exceeds budget 20"


def test_beaten_masks_match_definition_beyond_nine_sequences():
    # Spaces of 27 to 81 sequences: sampled bits against raw Fraction
    # averages, and the unbeaten members of random subsets against the
    # reference scan in truthful_subset.
    rng = random.Random(29)
    for m in model_pool(9, seed=31):
        for n in range(1, 7):
            if not 27 <= m.num_symbols**n <= 81:
                continue
            seqs = sg.enumerate_sequences(m, n)
            for t in range(m.num_types):
                masks, beats = sg.preference_masks(m, t, n)
                assert beats == _bit_transpose(masks)
                assert len(masks) == len(seqs)
                assert all(not mask >> i & 1 for i, mask in enumerate(masks))
                assert all(0 <= mask < 1 << len(seqs) for mask in masks)
                for _ in range(200):
                    i, j = rng.randrange(len(seqs)), rng.randrange(len(seqs))
                    x, y = seqs[i], seqs[j]
                    expected = i != j and (
                        sequence_utility(m, t, y, x) >= sequence_utility(m, t, x, x)
                    )
                    assert bool(masks[i] >> j & 1) == expected
                for _ in range(20):
                    ids = sorted(rng.sample(range(len(seqs)), rng.randint(1, len(seqs))))
                    subset = sum(1 << v for v in ids)
                    unbeaten = tuple(seqs[v] for v in ids if not masks[v] & subset)
                    assert unbeaten == sg.truthful_subset(m, [seqs[v] for v in ids], t)


def _bit_transpose(masks):
    """Bit i of out[j] is bit j of masks[i], one bit at a time."""
    out = [0] * len(masks)
    for i, mask in enumerate(masks):
        for j in range(len(masks)):
            if mask >> j & 1:
                out[j] |= 1 << i
    return out


def test_beats_is_the_bit_transpose_of_beaten_by(pool, example):
    for m in pool[:40]:
        for n in (1, 2, 3):
            for t in range(m.num_types):
                beaten_by, beats = sg.preference_masks(m, t, n)
                assert beats == _bit_transpose(beaten_by)
    for n in (0, -1):
        with pytest.raises(ValueError, match="sequence length must be >= 1"):
            sg.preference_masks(example, 1, n)


def _assert_masks_match_sequence_utility(m, t, n):
    """Every bit of both directions against raw Fraction averages; returns beaten_by."""
    seqs = sg.enumerate_sequences(m, n)
    beaten_by, beats = sg.preference_masks(m, t, n)
    own = [sequence_utility(m, t, x, x) for x in seqs]
    for i, x in enumerate(seqs):
        expected = sum(
            1 << j
            for j, y in enumerate(seqs)
            if j != i and sequence_utility(m, t, y, x) >= own[i]
        )
        assert beaten_by[i] == expected
    assert beats == _bit_transpose(beaten_by)
    return beaten_by


def test_preference_masks_with_multi_byte_lanes():
    # Denominators 997 and 2^40 scale payoffs of up to 10^9 far past one byte.
    rng = random.Random(3)
    big = 10**9
    for den in (997, 2**40):
        for _ in range(3):
            utility = {
                lab: [[f"{rng.randint(-big, big)}/{rng.choice((1, den))}" for _ in range(3)]
                      for _ in range(3)]
                for lab in ("a", "b")
            }
            m = sg.Model.from_tables(["0", "1", "2"], ["a", "b"], {"a": "1/2", "b": "1/2"}, utility)
            for t in range(2):
                _, table = m.scaled_utility[t]
                reach = max(abs(table[r][c] - table[c][c]) for r in range(3) for c in range(3))
                assert reach >= 2**16
                for n in (1, 2, 3):
                    _assert_masks_match_sequence_utility(m, t, n)
    # n * max|D| on either side of 2^7 and 2^8, where lanes widen to two bytes.
    for a in (63, 64, 127, 128):
        m = sg.Model.from_tables(
            ["0", "1"], ["x", "y"], {"x": "1/2", "y": "1/2"},
            {"x": [[0, a], [-a, 0]], "y": [[a, -a], [0, 0]]},
        )
        for t in range(2):
            for n in (1, 2, 3, 4):
                _assert_masks_match_sequence_utility(m, t, n)


def test_preference_masks_all_zero_table_ties_every_pair():
    m = sg.Model.from_tables(["0", "1", "2"], ["z"], {"z": 1}, {"z": [[0] * 3] * 3})
    for n in (1, 2, 3):
        beaten_by = _assert_masks_match_sequence_utility(m, 0, n)
        everyone = (1 << len(beaten_by)) - 1
        assert beaten_by == [everyone ^ 1 << i for i in range(len(beaten_by))]


def test_preference_masks_strictly_honest_type_beats_nothing():
    m = sg.Model.from_tables(
        ["0", "1", "2"], ["h"], {"h": 1}, {"h": [[5, -2, 0], [1, 3, -7], [4, 2, 9]]}
    )
    assert sg.classify_type(m, 0) == sg.HONEST
    for n in (1, 2, 3):
        assert not any(_assert_masks_match_sequence_utility(m, 0, n))


def test_preference_masks_one_letter_binary():
    m = sg.Model.from_tables(["a", "b"], ["t"], {"t": 1}, {"t": [[1, 0], [1, 1]]})
    # reporting b ties the truth a; reporting a when b holds loses 1
    assert _assert_masks_match_sequence_utility(m, 0, 1) == [0b10, 0b00]


def test_preference_masks_binary_eight_letters():
    m = make_random_model(random.Random(17), 2, 2)
    for t in range(2):
        beaten_by = _assert_masks_match_sequence_utility(m, t, 8)
        assert len(beaten_by) == 256


def test_preference_masks_prices_its_space_before_building_a_lane(example, monkeypatch):
    # 3^40 sequences are refused at once, as are 3^(2n) pairs past the
    # budget: the k^n sequences are named first, then the k^(2n) pairs, and
    # the kernel is never reached.
    def forbidden(*args, **kwargs):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(sg.model, "_top_bit_masks", forbidden)
    start = time.perf_counter()
    with pytest.raises(sg.BudgetExceededError) as info:
        sg.preference_masks(example, 1, 40)
    assert time.perf_counter() - start < 1
    assert (info.value.what, info.value.requested) == ("sequence enumeration", 3**40)
    for budget, what, requested in (
        (3**4 - 1, "sequence enumeration", 3**4),
        (3**4, "preference masks", 3**8),
        (3**8 - 1, "preference masks", 3**8),
    ):
        with pytest.raises(sg.BudgetExceededError) as info:
            sg.preference_masks(example, 1, 4, enum_budget=budget)
        assert (info.value.what, info.value.requested, info.value.budget) == (
            what, requested, budget
        )
    with pytest.raises(AssertionError, match="the kernel ran"):
        sg.preference_masks(example, 1, 4, enum_budget=3**8)


def test_format_sequence(example):
    m = sg.Model.from_tables(
        ["lo", "hi"], ["t"], {"t": 1}, {"t": [[1, 0], [0, 1]]}
    )
    assert sg.format_sequence(m, (0, 1)) == "lo,hi"
    assert sg.format_sequence(example, (2, 0)) == "20"
    # An id outside the alphabet is refused, not read from the end or raised as IndexError.
    for seq, symbol in (((-1, 0), -1), ((5,), 5)):
        with pytest.raises(ValueError, match=f"sequence: symbol id {symbol} out of range"):
            sg.format_sequence(example, seq)


# JSON-escaped labels, and labels of mixed lengths where one is a prefix of another.
SPELLED = [
    sg.Model.from_tables(**ODD_DOC),
    sg.Model.from_tables(["ab", "c", "a", "b"], ["t"], ["1"], [[[1, 0, 0, 0]] * 4]),
]


@pytest.mark.parametrize("n", [1, 2])
def test_the_reader_reads_back_every_sequence_the_writer_writes(pool, n):
    for model in [*pool, *SPELLED]:
        if model.num_symbols**n > 81:
            continue
        seqs = sg.enumerate_sequences(model, n)
        for seq in seqs:
            text = sg.format_sequence(model, seq)
            assert parse_sequence(model, text) == parse_sequence(model, text, n) == seq
        # Every list of at most two members, in either order, and the whole space.
        lists = [[], *([s] for s in seqs), *itertools.product(seqs, repeat=2), seqs, seqs[::-1]]
        for members in lists:
            assert _parse_members(model, _format_members(model, members), n) == list(members)


def test_parse_serialize_roundtrip_example(example):
    text = sg.serialize_model(example)
    again = sg.parse_model(text)
    assert again == example
    assert sg.serialize_model(again) == text


def test_parse_serialize_roundtrip_random():
    for m in model_pool(25, seed=77):
        assert sg.parse_model(sg.serialize_model(m)) == m


# Labels the JSON encoder must escape (a quote, a backslash, a tab, U+0001)
# or must pass through (U+2028, non-ASCII letters).
ODD_LABELS = ('q"x', "b\\s", "t\tb", "c\x01", "l\u2028s", "\u00e9t\u00e9", "\u03b1")


def odd_label_model(rng: random.Random, num_symbols: int, num_types: int) -> sg.Model:
    """`make_random_model` relabelled with symbol and type labels drawn from ODD_LABELS."""
    m = make_random_model(rng, num_symbols, num_types)
    labels = rng.sample(ODD_LABELS, num_symbols + num_types)
    return sg.Model(tuple(labels[:num_symbols]), tuple(labels[num_symbols:]), m.prior, m.utility)


def stdlib_serialization(model: sg.Model) -> str:
    doc = {
        "alphabet": list(model.alphabet),
        "types": list(model.types),
        "prior": {t: str(p) for t, p in zip(model.types, model.prior)},
        "utility": {
            t: [[str(entry) for entry in row] for row in table]
            for t, table in zip(model.types, model.utility)
        },
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def test_serialization_is_the_stdlib_json_layout_byte_for_byte():
    rng = random.Random(61)
    models = model_pool(40, seed=59) + [odd_label_model(rng, k, t) for k, t in GRID]
    for m in models:
        assert sg.serialize_model(m) == stdlib_serialization(m)
        assert sg.parse_model(sg.serialize_model(m)) == m


def test_each_literal_is_parsed_by_its_own_type_and_position(monkeypatch):
    def utility_error(entries, number="1" + "0" * 5000) -> str:
        """The refusal of example1 with table d set to `entries`, each "N" a bare JSON `number`."""
        doc = json.loads(sg.EXAMPLE1_TEXT)
        doc["utility"]["d"] = [entries[:3], entries[3:6], entries[6:]]
        with pytest.raises(sg.ModelError) as info:
            sg.parse_model(json.dumps(doc).replace('"N"', number))
        return str(info.value)

    # An equal int before them is no licence for a boolean or a float.
    assert utility_error([1, 0, 1, 0, True, 0, 0, 0, 0]) == (
        "utility['d'][1][1]: expected a rational, got a boolean"
    )
    assert utility_error([1, 1, 0, 0, 0, 0, 0, 1.0, 0]) == (
        "utility['d'][2][1]: expected an integer or p/q string, got float"
    )
    assert utility_error([0, 0, 0, [1], 0, 0, [1], 0, 0]) == (
        "utility['d'][1][0]: expected an integer or p/q string, got list"
    )
    # A bad literal that repeats is named where it first appears.
    assert utility_error(["1", "2", "1/0", "0", "1/0", "0", "1/0", "0", "0"]) == (
        "utility['d'][0][2]: zero denominator in '1/0'"
    )
    # Last in the document, after every string literal has appeared, each
    # non-literal is still named where it stands.
    for last, message in (
        (True, "expected a rational, got a boolean"),
        (1.0, "expected an integer or p/q string, got float"),
        ([1], "expected an integer or p/q string, got list"),
        ("N", "5001-digit integer is past the decimal conversion limit"),
    ):
        strings = ["1", "2", "1", "2", "1", "1", "0", "0"]
        assert utility_error([*strings, last]) == f"utility['d'][2][2]: {message}"
    # A repeated bad literal first met in a later table is named there.
    assert utility_error(["1/0", "2", "1", "2", "1", "1", "0", "0", "1/0"]) == (
        "utility['d'][0][0]: zero denominator in '1/0'"
    )
    doc = json.loads(sg.EXAMPLE1_TEXT)
    doc["prior"] = {"h": "x", "d": "x"}
    with pytest.raises(sg.ModelError) as info:
        sg.parse_model(json.dumps(doc))
    assert str(info.value) == "prior['h']: 'x' is not an integer or p/q rational"
    # Every spelling of one value, in any order, gives one model.
    models = set()
    for spellings in itertools.permutations((3, "3", "+3", " 3 ")):
        doc = json.loads(sg.EXAMPLE1_TEXT)
        doc["utility"]["d"][0] = list(spellings[:3])
        doc["utility"]["d"][1][0] = spellings[3]
        models.add(sg.parse_model(json.dumps(doc)))
    assert len(models) == 1
    (m,) = models
    assert m.utility[1][0] == (3, 3, 3) and m.utility[1][1][0] == 3
    # A JSON integer is read as its text: up to the 4,300-digit limit, with
    # either sign, it gives the model and canonical text of its string spelling.
    for number in ("9" * 4300, "-" + "9" * 4300, "-7", "-0"):
        doc = json.loads(sg.EXAMPLE1_TEXT)
        doc["utility"]["d"][2][0] = "N"
        bare = sg.parse_model(json.dumps(doc).replace('"N"', number))
        doc["utility"]["d"][2][0] = number
        quoted = sg.parse_model(json.dumps(doc))
        assert bare == quoted and sg.serialize_model(bare) == sg.serialize_model(quoted)
    assert bare.utility[1][2][0] == 0
    assert utility_error(["1", "2", "1", "2", "N", "1", "0", "0", "0"], "9" * 4301) == (
        "utility['d'][1][1]: 4301-digit integer is past the decimal conversion limit"
    )
    # A refused document reads each distinct literal at most twice: once in
    # the build, and once in the scan that names its defect.
    calls = collections.Counter()
    parse_rational = sg.model._parse_rational

    def counted(value):
        calls[value] += 1
        return parse_rational(value)

    monkeypatch.setattr(sg.model, "_parse_rational", counted)
    for literal in ('"7/3"', "9" * 4000):
        calls.clear()
        entries = ["N"] * 8 + ["q"]
        assert utility_error(entries, literal) == (
            "utility['d'][2][2]: 'q' is not an integer or p/q rational"
        )
        assert max(calls.values()) <= 2 and calls[literal.strip('"')] >= 1

    # Entries of a str or an int subclass are read as the literals they spell.
    class Text(str):
        pass

    Level = enum.IntEnum("Level", {"ZERO": 0, "ONE": 1, "TWO": 2})
    doc = json.loads(sg.EXAMPLE1_TEXT)

    def build(spell) -> sg.Model:
        tables = doc["utility"].items()
        utility = {t: [[spell(x) for x in row] for row in table] for t, table in tables}
        prior = {t: Text(p) for t, p in doc["prior"].items()}
        return sg.Model.from_tables(doc["alphabet"], doc["types"], prior, utility)

    plain = sg.parse_model(sg.EXAMPLE1_TEXT)
    mixed = itertools.cycle((Text, int, lambda x: Level(int(x)), str))
    for spell in (Text, lambda x: Level(int(x)), lambda x: next(mixed)(x)):
        m = build(spell)
        assert m == plain and sg.serialize_model(m) == sg.serialize_model(plain)
    doc["utility"]["d"][1][2] = Text("q")
    with pytest.raises(sg.ModelError) as info:
        build(lambda x: x)
    assert str(info.value) == "utility['d'][1][2]: 'q' is not an integer or p/q rational"


def _unshared(m: sg.Model) -> sg.Model:
    """`m` rebuilt from fresh Fractions, so that no two entries are one object."""

    def fresh(values):
        return tuple(Fraction(q.numerator, q.denominator) for q in values)

    utility = tuple(tuple(map(fresh, table)) for table in m.utility)
    return sg.Model(m.alphabet, m.types, fresh(m.prior), utility)


def test_derived_facts_do_not_depend_on_shared_entries():
    # A parsed model shares one Fraction per literal, and the digest text and
    # the integer tables read each distinct object once. A copy whose every
    # entry is its own object must agree on them, as on the prior weights and
    # each type's honesty.
    rng = random.Random(40)
    big = [make_random_model(rng, k, 3) for k in (12, 14, 16)]
    seen = set()
    for m in [*model_pool(), *big]:
        copy = _unshared(m)
        entries = [e for t in copy.utility for row in t for e in row]
        assert copy == m and len(set(map(id, entries))) == len(entries)
        assert sg.serialize_model(copy) == sg.serialize_model(m)
        assert copy.scaled_utility == m.scaled_utility
        assert copy.prior_weights == m.prior_weights
        k = m.num_symbols
        for t, table in enumerate(m.utility):
            honest = all(
                table[r][x] < table[x][x] for x in range(k) for r in range(k) if r != x
            )
            expected = sg.HONEST if honest else sg.OTHER
            assert sg.classify_type(m, t) == sg.classify_type(copy, t) == expected
            seen.add(expected)
    assert seen == {sg.HONEST, sg.OTHER}
    for m in big:
        entries = [e for t in m.utility for row in t for e in row]
        assert len(set(map(id, entries))) <= 7  # one object per literal in [-3, 3]


def test_parse_reports_syntax_position():
    with pytest.raises(ModelSyntaxError) as info:
        sg.parse_model('{"alphabet": ["0", "1"],\n  broken')
    assert info.value.line == 2
    assert "line 2" in str(info.value)


def test_parse_rejects_unnormalized_prior():
    doc = json.loads(sg.EXAMPLE1_TEXT)
    doc["prior"]["h"] = "1/2"
    with pytest.raises(sg.ModelError, match="not normalized"):
        sg.parse_model(json.dumps(doc))


def test_parse_rejects_negative_prior():
    doc = json.loads(sg.EXAMPLE1_TEXT)
    doc["prior"] = {"h": "4/3", "d": "-1/3"}
    with pytest.raises(sg.ModelError, match="negative"):
        sg.parse_model(json.dumps(doc))


def test_parse_rejects_missing_utility():
    doc = json.loads(sg.EXAMPLE1_TEXT)
    del doc["utility"]["d"]
    with pytest.raises(sg.ModelError, match="missing table for type 'd'"):
        sg.parse_model(json.dumps(doc))
    doc = json.loads(sg.EXAMPLE1_TEXT)
    doc["utility"]["d"] = [["1", "2"], ["2", "1"]]
    with pytest.raises(sg.ModelError, match="expected 3 rows"):
        sg.parse_model(json.dumps(doc))


def test_keyed_tables_name_the_missing_or_unknown_type():
    doc = json.loads(sg.EXAMPLE1_TEXT)
    for field, entry in (("prior", "entry"), ("utility", "table")):
        for edit, message in (
            (lambda table: table.pop("d"), f"{field}: missing {entry} for type 'd'"),
            (lambda table: table.update(z=table["d"]), f"{field}: unknown type 'z'"),
        ):
            prior, utility = dict(doc["prior"]), dict(doc["utility"])
            edit(prior if field == "prior" else utility)
            with pytest.raises(sg.ModelError) as info:
                sg.Model.from_tables(doc["alphabet"], doc["types"], prior, utility)
            assert str(info.value) == message


def test_parse_rejects_duplicate_labels():
    doc = json.loads(sg.EXAMPLE1_TEXT)
    doc["alphabet"] = ["0", "1", "0"]
    with pytest.raises(sg.ModelError, match="duplicate label '0'"):
        sg.parse_model(json.dumps(doc))


def test_parse_rejects_labels_with_cli_separators():
    # "," and ";" split sequences and member lists on the command line, and "="
    # or a line break would corrupt a machine report key.
    for char in ",;=\n\r":
        for label in (char, f"x{char}y"):
            doc = json.loads(sg.EXAMPLE1_TEXT)
            doc["alphabet"][1] = label
            with pytest.raises(sg.ModelError) as info:
                sg.parse_model(json.dumps(doc))
            assert f"alphabet: label {label!r} contains one of" in str(info.value)
            doc = json.loads(sg.EXAMPLE1_TEXT)
            doc["types"][1] = label
            doc["prior"][label] = doc["prior"].pop("d")
            doc["utility"][label] = doc["utility"].pop("d")
            with pytest.raises(sg.ModelError) as info:
                sg.parse_model(json.dumps(doc))
            assert f"types: label {label!r} contains one of" in str(info.value)
    # Other punctuation stays a valid label.
    doc = json.loads(sg.EXAMPLE1_TEXT)
    doc["alphabet"] = ["a.b", "c:d", "e f"]
    assert sg.parse_model(json.dumps(doc)).alphabet == ("a.b", "c:d", "e f")


def test_parse_rejects_small_alphabet():
    doc = {
        "alphabet": ["0"],
        "types": ["t"],
        "prior": {"t": 1},
        "utility": {"t": [[0]]},
    }
    with pytest.raises(sg.ModelError, match="at least 2"):
        sg.parse_model(json.dumps(doc))


def test_parse_rejects_unknown_and_missing_fields():
    doc = json.loads(sg.EXAMPLE1_TEXT)
    doc["extra"] = 1
    with pytest.raises(sg.ModelError, match="unknown field 'extra'"):
        sg.parse_model(json.dumps(doc))
    doc = json.loads(sg.EXAMPLE1_TEXT)
    del doc["prior"]
    with pytest.raises(sg.ModelError, match="missing field 'prior'"):
        sg.parse_model(json.dumps(doc))


def test_parse_rejects_inexact_numbers():
    doc = json.loads(sg.EXAMPLE1_TEXT)
    doc["utility"]["h"][0][0] = 0.5
    with pytest.raises(sg.ModelError, match="integer or p/q"):
        sg.parse_model(json.dumps(doc))
    doc = json.loads(sg.EXAMPLE1_TEXT)
    doc["prior"] = {"h": "1/0", "d": "1"}
    with pytest.raises(sg.ModelError, match="zero denominator"):
        sg.parse_model(json.dumps(doc))


def test_rationals_take_ascii_digits_only():
    # int() reads other scripts' digits too, so the pattern must not admit them.
    doc = json.loads(sg.EXAMPLE1_TEXT)
    doc["prior"]["h"] = "\u0663/\u0664"
    with pytest.raises(sg.ModelError) as info:
        sg.parse_model(json.dumps(doc))
    assert str(info.value) == "prior['h']: '\u0663/\u0664' is not an integer or p/q rational"
    doc = json.loads(sg.EXAMPLE1_TEXT)
    doc["prior"] = {"h": "+1/4", "d": " 3/4 "}
    doc["utility"]["h"][0][:2] = [5, "-2"]
    m = sg.parse_model(json.dumps(doc))
    assert m.prior == (Fraction(1, 4), Fraction(3, 4))
    assert m.utility[0][0][:2] == (5, -2)


def test_from_tables_accepts_plain_ints():
    m = sg.Model.from_tables(["x", "y"], ["t"], [1], [[[2, -1], [0, 3]]])
    assert m.utility[0][0][1] == -1
    assert m.prior == (Fraction(1),)
    # A model built directly may hold plain ints, and it parses back from its text.
    direct = sg.Model(("x", "y"), ("t",), (1,), (((2, -1), (0, 3)),))
    assert direct == m and sg.parse_model(sg.serialize_model(direct)) == m


def test_symbol_and_type_lookup(example):
    assert example.symbol_index("2") == 2
    assert example.type_index("d") == 1
    with pytest.raises(sg.ModelError):
        example.symbol_index("9")
    with pytest.raises(sg.ModelError):
        example.type_index("z")


TYPE_ID_CALLS = {
    "build_sender_graph": lambda m, t: sg.build_sender_graph(m, t, 1),
    "truthful_subset": lambda m, t: sg.truthful_subset(m, [(0,), (1,)], t),
    "classify_type": sg.classify_type,
    "preference_masks": lambda m, t: sg.preference_masks(m, t, 1),
    "simulate": lambda m, t: sg.simulate(m, sg.canonical_strategy([(0,)]), t, (0,)),
}


@pytest.mark.parametrize("name", TYPE_ID_CALLS)
def test_type_ids_out_of_range_are_refused(example, name):
    # -1 would otherwise index the last type, and num_types one past it.
    for type_id in (-1, example.num_types):
        with pytest.raises(ValueError, match=f"type id {type_id} out of range"):
            TYPE_ID_CALLS[name](example, type_id)


TINY = {
    "alphabet": ["0", "1"],
    "types": ["t"],
    "prior": {"t": "1"},
    "utility": {"t": [["1", "0"], ["0", "1"]]},
}
IDENTITY = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
TABLE = TINY["utility"]["t"]
EXAMPLE = sg.parse_model(sg.EXAMPLE1_TEXT)


def _parse_tiny(**fields):
    return lambda: sg.parse_model(json.dumps(TINY | fields))


def _parse_tiny_number(**fields):
    """_parse_tiny with each string "N" written as a 5,001-digit JSON number."""
    text = json.dumps(TINY | fields).replace('"N"', "1" + "0" * 5000)
    return lambda: sg.parse_model(text)


REFUSALS = {
    "boolean rational": (
        _parse_tiny(prior={"t": True}), "prior['t']: expected a rational, got a boolean"
    ),
    "empty types": (
        _parse_tiny(types=[], prior={}, utility={}), "at least one sender type is required"
    ),
    "empty label": (_parse_tiny(alphabet=["", "1"]), "alphabet: labels must be nonempty strings"),
    "short utility row": (
        _parse_tiny(utility={"t": [["1", "0"], ["0"]]}), "utility['t'] row 1: expected 2 entries"
    ),
    "non-object document": (lambda: sg.parse_model("[]"), "model document must be a JSON object"),
    "alphabet not strings": (_parse_tiny(alphabet=[0, 1]), "alphabet must be a list of strings"),
    "number type label": (_parse_tiny(types=[7]), "types must be a list of strings"),
    "types not a list": (_parse_tiny(types="t"), "types must be a list of strings"),
    "prior not a map": (
        _parse_tiny(prior=["1"]), "prior must be a map from type label to rational"
    ),
    "utility not a map": (
        _parse_tiny(utility=[TINY["utility"]["t"]]),
        "utility must be a map from type label to matrix",
    ),
    "short prior": (
        lambda: sg.Model(("0", "1"), ("t",), (), (IDENTITY,)),
        "prior must assign a probability to every type",
    ),
    "short utility": (
        lambda: sg.Model(("0", "1"), ("t",), (Fraction(1),), ()),
        "utility must provide a table for every type",
    ),
    # Only exact entries: a float would be written as "0.5", which no parse reads back.
    "float prior in a direct build": (
        lambda: sg.Model(("0", "1"), ("a", "b"), (0.5, 0.5), (IDENTITY, IDENTITY)),
        "prior['a']: expected a Fraction or an int, got float",
    ),
    "boolean prior in a direct build": (
        lambda: sg.Model(("0", "1"), ("t",), (True,), (IDENTITY,)),
        "prior['t']: expected a Fraction or an int, got bool",
    ),
    "float utility entry in a direct build": (
        lambda: sg.Model(("0", "1"), ("t",), (Fraction(1),), (((1.5, 0), (0, 1)),)),
        "utility: expected a Fraction or an int, got float",
    ),
    "non-square table": (
        lambda: sg.Model(("0", "1"), ("t",), (Fraction(1),), (IDENTITY[:1],)),
        "utility['t']: expected a 2x2 matrix",
    ),
    # Tuples only, checked first: a set alphabet has no order, and a list makes
    # the model unhashable and unequal to its tuple twin.
    "set alphabet in a direct build": (
        lambda: sg.Model({"0", "1"}, ("t",), (Fraction(1),), (IDENTITY,)),
        "alphabet: expected a tuple, got set",
    ),
    "list types in a direct build": (
        lambda: sg.Model(("0", "1"), ["t"], (Fraction(1),), (IDENTITY,)),
        "types: expected a tuple, got list",
    ),
    "list prior in a direct build": (
        lambda: sg.Model(("0", "1"), ("t",), [0.5], (IDENTITY,)),
        "prior: expected a tuple, got list",
    ),
    "list utility in a direct build": (
        lambda: sg.Model(("0", "1"), ("t",), (Fraction(1),), [IDENTITY]),
        "utility: expected a tuple, got list",
    ),
    "list table in a direct build": (
        lambda: sg.Model(("0", "1"), ("t",), (Fraction(1),), ([*IDENTITY],)),
        "utility['t']: expected a tuple, got list",
    ),
    "list row in a direct build": (
        lambda: sg.Model(("0", "1"), ("t",), (Fraction(1),), ((IDENTITY[0], [*IDENTITY[1]]),)),
        "utility['t'] row 1: expected a tuple, got list",
    ),
    "empty sequence": (
        lambda: sg.simulate(EXAMPLE, sg.ReceiverStrategy(0, {(): ()}, ()), 0, ()),
        "truth: sequences must have length >= 1",
    ),
    # A negative symbol id would otherwise index the last symbol, and one past
    # the alphabet would raise IndexError; the honest type 0 is checked too.
    "negative member symbol": (
        lambda: sg.evaluate_questionnaire(EXAMPLE, [(-1,), (0,)]),
        "member: symbol id -1 out of range",
    ),
    "member symbol past the alphabet": (
        lambda: sg.truthful_subset(EXAMPLE, [(0,), (7,)], 0),
        "member: symbol id 7 out of range",
    ),
    "negative image symbol": (
        lambda: sg.recovery_report(EXAMPLE, sg.canonical_strategy([(-1,), (0,)])),
        "image: symbol id -1 out of range",
    ),
    "image symbol past the alphabet": (
        lambda: sg.simulate(EXAMPLE, sg.canonical_strategy([(0,), (7,)]), 1, (0,)),
        "image: symbol id 7 out of range",
    ),
    "unseparated labels": (
        lambda: parse_sequence(_parse_tiny(alphabet=["ab", "cd"])(), "abcd"),
        "sequence 'abcd': separate multi-character symbol labels with commas",
    ),
    "literal past the decimal limit": (
        _parse_tiny(utility={"t": [["1", "0"], ["0", "-" + "9" * 5000]]}),
        "utility['t'][1][1]: 5000-digit integer is past the decimal conversion limit",
    ),
    "number past the decimal limit": (
        _parse_tiny_number(utility={"t": [["1", "0"], ["0", "N"]]}),
        "utility['t'][1][1]: 5001-digit integer is past the decimal conversion limit",
    ),
    "number label past the decimal limit": (
        _parse_tiny_number(alphabet=["0", "N"]), "alphabet must be a list of strings"
    ),
    "syntax error after a long number": (
        lambda: sg.parse_model("[" + "1" * 5001 + ", "),
        "not valid JSON: Expecting value (line 1, column 5005)",
    ),
    # Literals past the limit are read in the one parse, so a defect after
    # one is placed where it is.
    "syntax error a line after a long number": (
        lambda: sg.parse_model('{"alphabet":\n [' + "9" * 5000 + ", 1"),
        "not valid JSON: Expecting ',' delimiter (line 2, column 5006)",
    ),
    "trailing comma after a long negative number": (
        lambda: sg.parse_model('{"alphabet": [-' + "9" * 5000 + ",]}"),
        "not valid JSON: Expecting value (line 1, column 5017)",
    ),
    "long prior list": (
        lambda: sg.Model.from_tables(["0", "1"], ["a", "b"], ["1/2", "1/2", "5"], [TABLE] * 3),
        "prior: expected 2 entries, got 3",
    ),
    "short prior list": (
        lambda: sg.Model.from_tables(["0", "1"], ["a", "b"], ["1"], [TABLE] * 2),
        "prior: expected 2 entries, got 1",
    ),
    "long utility list": (
        lambda: sg.Model.from_tables(["0", "1"], ["a", "b"], ["1/2", "1/2"], [TABLE] * 3),
        "utility: expected 2 entries, got 3",
    ),
    "short utility list": (
        lambda: sg.Model.from_tables(["0", "1"], ["a", "b"], ["1/2", "1/2"], [TABLE]),
        "utility: expected 2 entries, got 1",
    ),
    # list() would read a string's characters as the entries: prior (1, 0).
    "prior given as a string": (
        lambda: sg.Model.from_tables(["0", "1"], ["a", "b"], "10", [TABLE] * 2),
        "prior: expected a list or a map, got str",
    ),
    # A set has no order to read types by, and bytes would be read as byte values.
    "prior given as a set": (
        lambda: sg.Model.from_tables(["0", "1"], ["a", "b"], {"1/3", "2/3"}, [TABLE] * 2),
        "prior: expected a list or a map, got set",
    ),
    "prior given as bytes": (
        lambda: sg.Model.from_tables(["0", "1"], ["a", "b"], b"\x01\x00", [TABLE] * 2),
        "prior: expected a list or a map, got bytes",
    ),
    "utility given as a frozenset": (
        lambda: sg.Model.from_tables(["0", "1"], ["t"], ["1"], frozenset([((1, 0), (0, 1))])),
        "utility: expected a list or a map, got frozenset",
    ),
    # Labels are read by the same rule: a set alphabet was read in hash order,
    # so row i of each table named a different symbol from run to run.
    "alphabet given as a set": (
        lambda: sg.Model.from_tables({"x", "y", "z"}, ["t"], ["1"], [[[1, 0, 0]] * 3]),
        "alphabet: expected a list or a tuple, got set",
    ),
    "alphabet given as bytes": (
        lambda: sg.Model.from_tables(b"01", ["t"], ["1"], [TABLE]),
        "alphabet: expected a list or a tuple, got bytes",
    ),
    # A string would be read as its characters: the types a and b.
    "types given as a string": (
        lambda: sg.Model.from_tables(["0", "1"], "ab", ["1/2", "1/2"], [TABLE] * 2),
        "types: expected a list or a tuple, got str",
    ),
    "types given as a frozenset": (
        lambda: sg.Model.from_tables(["0", "1"], frozenset("a"), ["1"], [TABLE]),
        "types: expected a list or a tuple, got frozenset",
    ),
    # The prior is checked on integers, with the messages of the Fraction checks.
    "negative prior": (
        lambda: sg.Model(("0", "1"), ("a", "b", "c"), (2, Fraction(-1, 2), -1), (IDENTITY,) * 3),
        "prior['b'] is negative",
    ),
    "unnormalized prior": (
        lambda: sg.Model(("0", "1"), ("a", "b"), (Fraction(1, 2), Fraction(1, 3)), (IDENTITY,) * 2),
        "prior not normalized: sum is 5/6",
    ),
    # The first two have k items of k characters, so a check of lengths
    # alone would read each as the table [[1, 2], [3, 4]].
    "table given as a map": (
        _parse_tiny(utility={"t": {"12": "x", "34": "y"}}), "utility['t']: expected 2 rows"
    ),
    "rows given as digit strings": (
        _parse_tiny(utility={"t": ["12", "34"]}), "utility['t'] row 0: expected 2 entries"
    ),
    "table given as a string": (
        _parse_tiny(utility={"t": "1234"}), "utility['t']: expected 2 rows"
    ),
    # json.loads would keep the last value of a repeated key.
    "repeated field": (
        lambda: sg.parse_model(json.dumps(TINY)[:-1] + ', "alphabet": ["0", "1"]}'),
        "duplicate key 'alphabet'",
    ),
    "repeated prior key": (
        lambda: sg.parse_model(json.dumps(TINY).replace('"t": "1"', '"t": "1/2", "t": "1"')),
        "duplicate key 't'",
    ),
    "repeated utility key": (
        lambda: sg.parse_model(
            json.dumps(TINY).replace('"t": [[', '"t": [["1", "1"], ["1", "1"]], "t": [[')
        ),
        "duplicate key 't'",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_names_its_defect(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
