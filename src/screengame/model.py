"""Game models: alphabet, sender types, prior, and per-type utility tables.

A model file is a UTF-8 JSON document with exactly these fields:

    alphabet   list of symbol labels (at least 2, unique)
    types      list of sender type labels (at least 1, unique)
               (no label of either list may contain , ; = or a line break)
    prior      map type label -> rational ("p/q" or integer string, or JSON int)
    utility    map type label -> row-major matrix of rationals where entry
               [i][j] is the one-letter payoff for reporting symbol i when
               the true symbol is j

Each key appears once in its object. A JSON integer is read as its text, by the
same rule as a string literal.

All arithmetic is exact: priors and payoffs are `fractions.Fraction`, never
floats. Length-n payoffs average the per-letter payoffs; comparisons are done
on common-denominator integer sums so no precision is ever lost.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring
from operator import methodcaller, sub

DEFAULT_ENUMERATION_BUDGET = 10**6

HONEST = "honest"
OTHER = "other"

# Surrounding whitespace is allowed: \s is exactly what str.strip() removes.
_RATIONAL_RE = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")

_MODEL_FIELDS = ("alphabet", "types", "prior", "utility")

_RESERVED = ",;=\n\r"  # separators of sequence text (`_parse_sequence`) and machine reports
_RESERVED_CHARS = frozenset(_RESERVED)


class ModelError(ValueError):
    """A model document or model datum violates the format contract."""


class ModelSyntaxError(ModelError):
    """Malformed document; carries the 1-based position of the defect."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class BudgetExceededError(RuntimeError):
    """A requested computation is larger than the configured budget."""

    def __init__(self, what: str, requested: int | str, budget: int):
        super().__init__(f"{what}: requested {requested} exceeds budget {budget}")
        self.what = what
        self.requested = requested
        self.budget = budget


class _JsonInt(str):
    """A JSON integer literal, kept as its text so that it is read as a string literal is."""


def _parse_rational(value: object) -> Fraction:
    """An int, or an integer or p/q string, as a Fraction; a ModelError says what is wrong."""
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value)
        if match is None:
            raise ModelError(f"{value!r} is not an integer or p/q rational")
        try:
            num, den = int(match[1]), int(match[2] or 1)
        except ValueError:  # the longer part is past the decimal conversion limit
            digits = max(len(match[1].lstrip("+-")), len(match[2] or ""))
            raise ModelError(f"{digits}-digit integer is past the decimal conversion limit")
        if not den:
            raise ModelError(f"zero denominator in {value!r}")
        return Fraction(num, den)
    if isinstance(value, bool):
        raise ModelError("expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    raise ModelError(f"expected an integer or p/q string, got {type(value).__name__}")


def _in_order(
    value, field: str, expected: str = "a list or a tuple", kinds=(list, tuple)
) -> list | tuple:
    """`value` if it is one of `kinds`: a set has no order, a str or bytes no entries."""
    if not isinstance(value, kinds):
        raise ModelError(f"{field}: expected {expected}, got {type(value).__name__}")
    return value


def _by_type(table, types: tuple[str, ...], field: str, entry: str) -> list | tuple:
    """`table` in type order: a list must have one entry per type, a map name each type exactly."""
    if not isinstance(table, dict):
        if len(_in_order(table, field, "a list or a map")) != len(types):
            raise ModelError(f"{field}: expected {len(types)} entries, got {len(table)}")
        return table
    missing = [t for t in types if t not in table]
    if missing:
        raise ModelError(f"{field}: missing {entry} for type {missing[0]!r}")
    extra = [t for t in table if t not in types]
    if extra:
        raise ModelError(f"{field}: unknown type {extra[0]!r}")
    return [table[t] for t in types]


@dataclass(frozen=True)
class Model:
    """Immutable game description. Construct via `Model.from_tables` or `parse_model`."""

    alphabet: tuple[str, ...]  # symbol labels; symbol ids are indices into this
    types: tuple[str, ...]  # sender type labels; type ids are indices
    prior: tuple[Fraction, ...]  # probability of each type, sums to exactly 1
    utility: tuple[tuple[tuple[Fraction, ...], ...], ...]  # [type][report][truth]

    def __post_init__(self) -> None:
        # Tuples only: a set has no order, and a list makes the model unhashable.
        for field in _MODEL_FIELDS:
            _in_order(getattr(self, field), field, "a tuple", tuple)
        for label, table in zip(self.types, self.utility):
            _in_order(table, f"utility[{label!r}]", "a tuple", tuple)
            for i, row in enumerate(table):
                _in_order(row, f"utility[{label!r}] row {i}", "a tuple", tuple)
        if len(self.alphabet) < 2:
            raise ModelError("alphabet must contain at least 2 symbols")
        if not self.types:
            raise ModelError("at least one sender type is required")
        for name, labels in (("alphabet", self.alphabet), ("types", self.types)):
            seen: set[str] = set()
            for label in labels:
                if not isinstance(label, str) or not label:
                    raise ModelError(f"{name}: labels must be nonempty strings")
                if not _RESERVED_CHARS.isdisjoint(label):
                    raise ModelError(f"{name}: label {label!r} contains one of {_RESERVED!r}")
                if label in seen:
                    raise ModelError(f"{name}: duplicate label {label!r}")
                seen.add(label)
        if len(self.prior) != len(self.types):
            raise ModelError("prior must assign a probability to every type")
        exact = "expected a Fraction or an int, got"  # a float or a bool would not parse back
        for label, p in zip(self.types, self.prior):
            if type(p) is not int and not isinstance(p, Fraction):
                raise ModelError(f"prior[{label!r}]: {exact} {type(p).__name__}")
            if p.numerator < 0:  # the sign of its weight in `prior_weights`
                raise ModelError(f"prior[{label!r}] is negative")
        scale, weights = self.prior_weights
        if sum(weights) != scale:
            raise ModelError(f"prior not normalized: sum is {Fraction(sum(weights), scale)}")
        k = len(self.alphabet)
        if len(self.utility) != len(self.types):
            raise ModelError("utility must provide a table for every type")
        for label, table in zip(self.types, self.utility):
            if len(table) != k or any(len(row) != k for row in table):
                raise ModelError(f"utility[{label!r}]: expected a {k}x{k} matrix")
        for entry in self._entries[1].values():  # each distinct entry object once
            if type(entry) is not int and not isinstance(entry, Fraction):
                raise ModelError(f"utility: {exact} {type(entry).__name__}")

    @classmethod
    def from_tables(
        cls,
        alphabet: list[str] | tuple[str, ...],
        types: list[str] | tuple[str, ...],
        prior: dict[str, object] | list[object],
        utility: dict[str, object] | list[object],
    ) -> Model:
        """Build a model from plain tables, coercing entries to exact rationals.

        `alphabet` and `types` are lists or tuples; `prior` and `utility` may
        be keyed by type label or given as lists in type order. A JSON integer
        comes from `parse_model` as its text and is read as a string is. There
        is one build: each distinct literal is parsed once, and every entry
        spelled by it shares its one Fraction. Only a refused document is
        scanned again, in document order and once per distinct string literal,
        so that the error names its first defective entry.
        """
        types_t = tuple(_in_order(types, "types"))
        prior_seq = _by_type(prior, types_t, "prior", "entry")
        utility_seq = _by_type(utility, types_t, "utility", "table")
        k = len(_in_order(alphabet, "alphabet"))

        def has_k(value) -> bool:
            return isinstance(value, (list, tuple)) and len(value) == k

        if all(map(has_k, utility_seq)) and all(has_k(row) for t in utility_seq for row in t):
            flat = [*prior_seq, *itertools.chain.from_iterable(itertools.chain(*utility_seq))]
            kinds = set(map(type, flat))
            # Keyed by value, so no boolean may come in: True == 1, yet only the int parses.
            if bool not in kinds and all(issubclass(t, (str, int)) for t in kinds):
                try:
                    literals = {value: _parse_rational(value) for value in set(flat)}
                except ModelError:
                    pass
                else:
                    parsed = literals.__getitem__
                    tables = (tuple(tuple(map(parsed, row)) for row in t) for t in utility_seq)
                    prior_t = tuple(map(parsed, prior_seq))
                    return cls(tuple(alphabet), types_t, prior_t, tuple(tables))

        read: set[str] = set()  # string literals met: the first refused one ends the scan

        def scan(values, where) -> None:
            """Raise the first refusal among `values`, with `where(j)` naming entry j."""
            for j, value in enumerate(values):
                if isinstance(value, str):
                    if value in read:  # it parsed where it was first met
                        continue
                    read.add(value)
                try:
                    _parse_rational(value)
                except ModelError as exc:
                    raise ModelError(f"{where(j)}: {exc}") from None

        scan(prior_seq, lambda j: f"prior[{types_t[j]!r}]")
        for label, table in zip(types_t, utility_seq):
            if not has_k(table):
                raise ModelError(f"utility[{label!r}]: expected {k} rows")
            for i, row in enumerate(table):
                if not has_k(row):
                    raise ModelError(f"utility[{label!r}] row {i}: expected {k} entries")
                scan(row, lambda j: f"utility[{label!r}][{i}][{j}]")
        raise AssertionError("unreachable: the build above accepts every document that parses")

    # ------------------------------------------------------------------
    # lookups

    @property
    def num_symbols(self) -> int:
        return len(self.alphabet)

    @property
    def num_types(self) -> int:
        return len(self.types)

    def symbol_index(self, label: str) -> int:
        try:
            return self.alphabet.index(label)
        except ValueError:
            raise ModelError(f"unknown symbol label {label!r}") from None

    def type_index(self, label: str) -> int:
        try:
            return self.types.index(label)
        except ValueError:
            raise ModelError(f"unknown type label {label!r}") from None

    @cached_property
    def _entries(self) -> tuple[list[int], dict[int, Fraction]]:
        """The id of every utility entry, type by type in row-major order, and each distinct one.

        A parsed model shares one Fraction per literal, so what is derived per
        entry is derived once per distinct object here and looked up by id.
        """
        flat = list(itertools.chain(*itertools.chain(*self.utility)))
        ids = list(map(id, flat))
        return ids, dict(zip(ids, flat))

    @cached_property
    def scaled_utility(self) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
        """Per type: (scale, integer table) with table[i][j] == utility[i][j] * scale.

        Lets every length-n payoff comparison run on plain integer sums. Each
        distinct entry object (one per literal when parsed) is read once as
        an integer ratio and scaled as integers.
        """
        ids, objects = self._entries
        ratios = dict(zip(objects, map(methodcaller("as_integer_ratio"), objects.values())))
        k = self.num_symbols
        out = []
        for start in range(0, len(ids), k * k):
            table_ids = ids[start : start + k * k]
            own = {key: ratios[key] for key in set(table_ids)}
            scale = math.lcm(*{den for _, den in own.values()})
            scaled = {key: num * (scale // den) for key, (num, den) in own.items()}
            values = list(map(scaled.__getitem__, table_ids))
            out.append((scale, tuple(tuple(values[i : i + k]) for i in range(0, k * k, k))))
        return tuple(out)

    @cached_property
    def prior_weights(self) -> tuple[int, tuple[int, ...]]:
        """(scale, weights): the lcm of the prior denominators, and each prior times it."""
        scale = math.lcm(*(p.denominator for p in self.prior))
        return scale, tuple(p.numerator * (scale // p.denominator) for p in self.prior)


# ----------------------------------------------------------------------
# parsing and serialization


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object as a dict, refusing its first repeated key."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ModelError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def parse_model(text: str) -> Model:
    """Parse a model document. Raises ModelSyntaxError / ModelError on defects."""
    try:
        doc = json.loads(text, parse_int=_JsonInt, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ModelSyntaxError(f"not valid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except RecursionError:
        raise ModelError("model document nests too deeply") from None
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    missing = [f for f in _MODEL_FIELDS if f not in doc]
    if missing:
        raise ModelError(f"missing field {missing[0]!r}")
    unknown = [f for f in doc if f not in _MODEL_FIELDS]
    if unknown:
        raise ModelError(f"unknown field {unknown[0]!r}")
    for field in ("alphabet", "types"):
        if not isinstance(doc[field], list) or not all(type(s) is str for s in doc[field]):
            raise ModelError(f"{field} must be a list of strings")
    for field, entry in (("prior", "rational"), ("utility", "matrix")):
        if not isinstance(doc[field], dict):
            raise ModelError(f"{field} must be a map from type label to {entry}")
    return Model.from_tables(**doc)


def _json_block(brackets: str, items, pad: str) -> str:
    """Encoded `items` laid out as json.dumps(indent=2) lays out a nonempty container at `pad`."""
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}{brackets[1]}"


def serialize_model(model: Model) -> str:
    """Canonical document for a model: parse(serialize(m)) == m, byte-stable.

    The text of json.dumps(doc, indent=2, ensure_ascii=False) + "\\n", doc holding
    the four fields with each rational as its str(), is written directly: with
    `indent` set, json.dumps runs its pure-Python encoder. Each distinct entry
    object (one per literal when parsed) is written with str() once.
    """
    types = list(map(encode_basestring, model.types))
    entries = '",\n        "'  # no entry needs escaping: each is an integer or p/q
    ids, objects = model._entries
    written = dict(zip(objects, map(str, objects.values())))
    words = list(map(written.__getitem__, ids))
    k = model.num_symbols
    starts = range(0, len(ids), k)
    rows = [f'[\n        "{entries.join(words[i : i + k])}"\n      ]' for i in starts]
    tables = (_json_block("[]", rows[i : i + k], "    ") for i in range(0, len(rows), k))
    fields = {
        "alphabet": _json_block("[]", map(encode_basestring, model.alphabet), "  "),
        "types": _json_block("[]", types, "  "),
        "prior": _json_block("{}", [f'{t}: "{p!s}"' for t, p in zip(types, model.prior)], "  "),
        "utility": _json_block("{}", [f"{t}: {table}" for t, table in zip(types, tables)], "  "),
    }
    return _json_block("{}", [f'"{name}": {text}' for name, text in fields.items()], "") + "\n"


EXAMPLE1_TEXT = """\
{
  "alphabet": ["0", "1", "2"],
  "types": ["h", "d"],
  "prior": {"h": "1/3", "d": "2/3"},
  "utility": {
    "h": [
      ["1", "0", "0"],
      ["0", "1", "0"],
      ["0", "0", "1"]
    ],
    "d": [
      ["1", "2", "1"],
      ["2", "1", "1"],
      ["0", "0", "0"]
    ]
  }
}
"""


# ----------------------------------------------------------------------
# sequences and payoffs

Seq = tuple[int, ...]


def enumerate_sequences(
    model: Model, n: int, *, enum_budget: int = DEFAULT_ENUMERATION_BUDGET
) -> list[Seq]:
    """All length-n symbol-id sequences in lexicographic order."""
    _count_sequences(model, n, enum_budget)
    return list(itertools.product(range(model.num_symbols), repeat=n))


def _count_sequences(model: Model, n: int, enum_budget: int) -> int:
    """k^n, refused as `enumerate_sequences` refuses it, but with no sequence built."""
    return check_space(model, n, enum_budget, "sequence enumeration")


def _check_pairs(model: Model, n: int, enum_budget: int, what: str) -> int:
    """k^n, after its k^n sequences, then its k^(2n) pairs named `what`, are priced."""
    count = _count_sequences(model, n, enum_budget)
    check_space(model, 2 * n, enum_budget, what)
    return count


def check_space(model: Model, n: int, budget: int, what: str) -> int:
    """The number k^n of length-n sequences; BudgetExceededError when it is over `budget`.

    Since k >= 2, k^n > budget once n > budget.bit_length(). Horizons past
    that and past 64 letters are refused without building k^n, and the
    refusal writes the count as "k^n"; shorter ones write it out in full.
    A horizon below 1 is refused by its length first, whatever the budget.
    """
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    k = model.num_symbols
    if n > max(budget.bit_length(), 64):
        raise BudgetExceededError(what, f"{k}^{n}", budget)
    return _within_budget(what, k**n, budget)


def _within_budget(what: str, cost: int, budget: int) -> int:
    """`cost`, or BudgetExceededError naming `what` when it is over `budget`: the one rule."""
    if cost > budget:
        raise BudgetExceededError(what, cost, budget)
    return cost


def _label_separator(model: Model) -> str:
    """What joins a sequence's labels: nothing when every symbol label is one character."""
    return "" if all(len(lab) == 1 for lab in model.alphabet) else ","


def _format_sequences(model: Model, seqs) -> list[str]:
    """Each sequence as its labels joined by `_label_separator`, which is chosen once."""
    join, alphabet = _label_separator(model).join, model.alphabet
    return [join([alphabet[s] for s in seq]) for seq in seqs]


def format_sequence(model: Model, seq: Seq) -> str:
    _check_sequences(model, [seq], "sequence")
    return _format_sequences(model, [seq])[0]


def _format_members(model: Model, seqs) -> str:
    return ";".join(_format_sequences(model, seqs))


def _parse_sequence(model: Model, text: str, n: int | None = None) -> Seq:
    """The sequence `format_sequence` writes as `text`; commas also split one-character labels."""
    if "," in text:
        labels = text.split(",")
    elif not _label_separator(model):
        labels = list(text)
    elif text in model.alphabet:
        labels = [text]  # a single label is a length-1 sequence
    else:
        raise ModelError(f"sequence {text!r}: separate multi-character symbol labels with commas")
    seq = tuple(model.symbol_index(lab) for lab in labels)
    if n is not None and len(seq) != n:
        raise ModelError(f"sequence {text!r} has length {len(seq)}, expected {n}")
    return seq


def _parse_members(model: Model, text: str, n: int | None = None) -> list[Seq]:
    return [_parse_sequence(model, part, n) for part in text.split(";") if part]


def _check_sequences(model: Model, seqs, name: str) -> None:
    k = model.num_symbols
    for seq in seqs:
        if len(seq) < 1:
            raise ValueError(f"{name}: sequences must have length >= 1")
        for s in seq:
            if not 0 <= s < k:
                raise ValueError(f"{name}: symbol id {s} out of range")


def _check_type(model: Model, type_id: int) -> None:
    if not 0 <= type_id < model.num_types:
        raise ValueError(f"type id {type_id} out of range")


# Maps a lane's top byte to b"1" when its high bit is set, else to b"0".
_TOP_BIT = bytes.maketrans(bytes(range(256)), b"0" * 128 + b"1" * 128)

# What a walk of `_top_bit_masks` extracts per vertex: one direction, or the OR of both.
_BEATEN_BY, _BEATS, _EITHER = range(3)


def preference_masks(
    model: Model, type_id: int, n: int, *, enum_budget: int = DEFAULT_ENUMERATION_BUDGET
) -> tuple[list[int], list[int]]:
    """Which length-n sequences this type weakly prefers to report, as (beaten_by, beats).

    Vertex v is the v-th sequence of `enumerate_sequences(model, n)`. Bit j of
    beaten_by[i] and bit i of beats[j] (j != i) are both set when
    U(seqs[j], seqs[i]) >= U(seqs[i], seqs[i]), i.e. when the sum over letters
    p of D[j_p][i_p] is >= 0, where D[r][t] = table[r][t] - table[t][t] on the
    scaled integer table. The k^n sequences, then the k^(2n) pairs, are
    refused past `enum_budget` before any lane is built.
    """
    _check_type(model, type_id)
    _check_pairs(model, n, enum_budget, "preference masks")
    return _top_bit_masks(model, type_id, n, (_BEATEN_BY, _BEATS))


def _top_bit_masks(model: Model, type_id: int, n: int, reads) -> tuple[list[int], ...]:
    """The kernel: per read in `reads`, one mask per vertex (see `preference_masks`).

    Both directions are summed in SIMD-within-a-register style: sequence v
    owns bits v*w .. v*w + w - 1 of one Python int, with w = 8 * nbytes the
    least lane width such that n * max|D| < 2^(w-1). Per position p and
    letter c there is one packed row over candidates for beaten_by (lane j:
    D[j_p][c]) and one over truths for beats (lane i: D[c][i_p]), each lane
    shifted up by max|D| so it is never negative; over the whole space in
    lexicographic order a row is k runs of one chunk, repeated k^p times.
    A bias plus a vertex's n rows leaves lane u at 2^(w-1) + (its sum of D):
    every lane stays in [1, 2^w), so no carry crosses lanes and the lane's
    top bit (in an OR of both sums, either one's) is set exactly when its
    sum is >= 0. One depth-first walk keeps both prefix sums, about one
    big-int addition per vertex and direction, and extracts per vertex the
    sums `reads` names: top bytes cut out by one `to_bytes` and a stride,
    turned into "0"/"1" by `translate`, and read back as a bitmask.
    """
    _, table = model.scaled_utility[type_id]
    k = model.num_symbols
    diagonal = [row[t] for t, row in enumerate(table)]
    delta = [list(map(sub, row, diagonal)) for row in table]
    shift = max(max(map(abs, row)) for row in delta)
    nbytes = 1
    while n * shift >> 8 * nbytes - 1:
        nbytes += 1
    # Little-endian lanes: lane u, the u-th sequence, starts at byte u * nbytes.
    lane = [[(d + shift).to_bytes(nbytes, "little") for d in row] for row in delta]
    rows = []  # rows[p]: the beaten_by rows, then the beats rows, one per vertex letter
    for p in range(n):  # lane u's letter at p is u // k^(n-1-p) % k: runs of k^(n-1-p) lanes
        run = k ** (n - 1 - p)
        spread = [[chunk * run for chunk in row] for row in lane] if run > 1 else lane
        grids = (zip(*spread), spread)  # the vertex letter is the truth, then the report
        rows.append([[int.from_bytes(b"".join(c) * k**p, "little") for c in g] for g in grids])
    offset = (1 << 8 * nbytes - 1) - n * shift  # per lane: the shifts' total comes back out
    bias = int.from_bytes(offset.to_bytes(nbytes, "little") * k**n, "little")
    size = k**n * nbytes
    masks = tuple([] for _ in reads)

    def walk(p: int, beaten_by: int, beats: int) -> None:
        for row_a, row_b in zip(*rows[p]):
            a, b = beaten_by + row_a, beats + row_b
            if p + 1 < n:
                walk(p + 1, a, b)
                continue
            sums = (a, b, a | b)
            for out, read in zip(masks, reads):
                top = sums[read].to_bytes(size, "big")[::nbytes].translate(_TOP_BIT)
                out.append(int(top, 2) ^ 1 << len(out))  # lane v ties itself: clear its bit

    walk(0, bias, bias)
    return masks


def classify_type(model: Model, type_id: int) -> str:
    """HONEST when truth-telling strictly beats every lie for every true symbol.

    Honesty of the one-letter table lifts to all lengths: a sum of strict
    winners strictly wins. Compared on the scaled integer table.
    """
    _check_type(model, type_id)
    _, table = model.scaled_utility[type_id]
    k = model.num_symbols
    for truth in range(k):
        diag = table[truth][truth]
        for report in range(k):
            if report != truth and table[report][truth] >= diag:
                return OTHER
    return HONEST
