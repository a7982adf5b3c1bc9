"""Workload definitions: seeded instance rounds and per-instance output checks.

A workload is an endless sequence of rounds. Every round of a workload has
the same composition (instances per class), shuffled by a `random.Random`
seeded by `--seed`, so a run's mix and its failure fraction do not depend on
how many rounds fit in the measured time. Search and bounds instances come
from the stored pool (pool.json), whose references were computed once by
make_pool.py. Audit models are generated from a fixed seed; the run seed
draws what each audit instance asks, and its checks are recomputed with
oracle.py.

See README.md in this directory for why each workload exists and which
layers it stresses.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent

EXAMPLE1 = {
    "alphabet": ["0", "1", "2"],
    "types": ["h", "d"],
    "prior": {"h": "1/3", "d": "2/3"},
    "utility": {
        "h": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "d": [["1", "2", "1"], ["2", "1", "1"], ["0", "0", "0"]],
    },
}

# A bounds instance still running after this many seconds counts as failed.
# Rounds draw only pool instances that, when the pool was made, finished in under
# a quarter of it or were still running after make_pool.HANG_CHECK_S (40 s),
# so the same instances miss it on every run.
BOUNDS_DEADLINE_S = 5.0
# Search and audit instances finish in about a second at most; their
# deadline only turns a hang into a counted failure.
DEFAULT_DEADLINE_S = 30.0
QUICK_POOL_S = 0.5  # bounds pool instances measured under this are short


class CheckError(Exception):
    """An instance produced output that disagrees with its reference."""


@dataclass
class Instance:
    name: str  # stable id; pool instances keep their pool name
    kind: str  # selects the check
    argv: list[str]  # model path already filled in
    doc: dict | None = None  # model document, for checks that recompute
    ref: dict = field(default_factory=dict)
    passes: int = 1  # runs of this slot in an untraced run; it counts their median


@dataclass
class Outcome:
    """What a check concluded from one instance's output."""

    certified: int = 0  # certified flags reported
    flags: int = 0  # certification flags reported


def parse_machine(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def machine_list(fields: dict[str, str], key: str) -> list[str]:
    return [fields[f"{key}.{i}"] for i in range(int(fields[f"{key}.count"]))]


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ----------------------------------------------------------------------
# checks: each takes (instance, exit code, stdout, stderr) and returns an
# Outcome or raises CheckError


def check_solve_exact(inst, code, out, err):
    _expect(code == 0, f"exit {code}: {err.strip()}")
    fields = parse_machine(out)
    _expect(fields.get("certified") == "true", "exact solve not certified")
    _expect(
        Fraction(fields["objective"]) == Fraction(inst.ref["optimum"]),
        f"objective {fields['objective']} != brute-force optimum {inst.ref['optimum']}",
    )
    return Outcome(certified=1, flags=1)


def check_solve_heuristic(inst, code, out, err):
    _expect(code == 0, f"exit {code}: {err.strip()}")
    fields = parse_machine(out)
    members = machine_list(fields, "designated.members")
    index = {s: i for i, s in enumerate(inst.doc["alphabet"])}
    seqs = [tuple(index[c] for c in m) for m in members]
    value = oracle.objective(inst.doc, seqs)
    _expect(
        Fraction(fields["objective"]) == value,
        f"heuristic objective {fields['objective']} != re-evaluated {value}",
    )
    certified = fields.get("certified") == "true"
    return Outcome(certified=int(certified), flags=1)


def check_refusal(inst, code, out, err):
    _expect(code == 1, f"expected a budget refusal (exit 1), got exit {code}")
    _expect("budget" in err, f"refusal does not name the budget: {err.strip()!r}")
    return Outcome()


def check_bounds(inst, code, out, err):
    _expect(code == 0, f"exit {code}: {err.strip()}")
    fields = parse_machine(out)
    doc, ref = inst.doc, inst.ref
    per_type = [int(fields[f"alpha_per_type.{t}"]) for t in doc["types"]]
    union = int(fields["alpha_union"])
    lower = fields["lower_certified"] == "true"
    upper = fields["upper_certified"] == "true"
    weighted = sum((p * a for p, a in zip(oracle.prior(doc), per_type)), Fraction(0))
    _expect(Fraction(fields["weighted_alpha"]) == weighted, "weighted_alpha is not the prior-weighted sum")
    if lower and ref["alpha_union"] is not None:
        _expect(union == ref["alpha_union"], f"certified alpha_union {union} != reference {ref['alpha_union']}")
    if upper:
        for got, want in zip(per_type, ref["alpha_per_type"]):
            _expect(want is None or got == want, f"certified alpha_per_type {per_type} != reference {ref['alpha_per_type']}")
    if lower and upper:
        _expect(union <= weighted, f"floor {union} above weighted ceiling {weighted}")
    return Outcome(certified=int(lower) + int(upper), flags=2)


def check_asymptotic(inst, code, out, err):
    _expect(code == 0, f"exit {code}: {err.strip()}")
    fields = parse_machine(out)
    ref = inst.ref
    per_type = [int(fields[f"alpha_per_type.{t}"]) for t in inst.doc["types"]]
    alphas = [int(a) for a in machine_list(fields, "alphas")]
    _expect(per_type == ref["alpha_per_type"], f"one-letter alphas {per_type} != {ref['alpha_per_type']}")
    _expect(int(fields["union_floor"]) == ref["union_floor"], "union_floor differs from reference")
    _expect(fields["best_type"] == ref["best_type"], "best_type differs from reference")
    _expect(
        all(w is None or g == w for g, w in zip(alphas, ref["alphas"])) and len(alphas) == len(ref["alphas"]),
        f"alphas {alphas} != reference {ref['alphas']}",
    )
    _expect(fields["fekete_all_hold"] == "true", "a supermultiplicativity witness failed")
    return Outcome()


def check_oracle(inst, code, out, err):
    _expect(code == 0, f"exit {code}: {err.strip()}")
    fields = parse_machine(out)
    _expect(fields["agreed"] == "true", "played-out recovery disagrees with the formula")
    _expect(
        int(fields["image_sets_checked"]) == inst.ref["image_sets"],
        f"checked {fields['image_sets_checked']} image sets, expected {inst.ref['image_sets']}",
    )
    return Outcome()


def check_simulate(inst, code, out, err):
    _expect(code == 0, f"exit {code}: {err.strip()}")
    fields = parse_machine(out)
    doc, members = inst.doc, inst.ref["members"]
    value = oracle.objective(doc, members)
    _expect(Fraction(fields["worst_case_value"]) == value, f"worst_case_value {fields['worst_case_value']} != {value}")
    for t in doc["types"]:
        want = [oracle.label(doc, s) for s in oracle.truthful_members(doc, members, t)]
        _expect(machine_list(fields, f"robust.{t}") == want, f"robust set of type {t} differs from truthful subset")
    _expect((fields["recovered"] == "true") == (fields["decoded"] == fields["truth"]), "recovered flag inconsistent")
    return Outcome()


CHECKS = {
    "solve_exact": check_solve_exact,
    "solve_heuristic": check_solve_heuristic,
    "refusal": check_refusal,
    "bounds": check_bounds,
    "asymptotic": check_asymptotic,
    "oracle_check": check_oracle,
    "simulate": check_simulate,
}


# ----------------------------------------------------------------------
# workloads


class Workload:
    """Rounds built from whole decks: every pool member of a class, shuffled.

    `decks[cls]` full passes over a class go into each round, plus
    `singles[cls]` instances of classes that are not dealt as whole decks.
    Every seed therefore runs the same instances of the dealt classes; the
    seed picks their order, the singles and every free parameter. Whole decks
    keep the figures steady from seed to seed.
    """

    name: str
    decks: dict[str, int] = {}
    singles: dict[str, int] = {}
    deadline_s = DEFAULT_DEADLINE_S
    # In an untraced run a short slot runs `quick_passes` times and a longer
    # one `long_passes` times, and each counts the median of its runs. Which
    # slots are short is fixed per instance class (bounds: by its time when
    # the pool was made), so every run makes the same calls.
    quick_passes = 6
    long_passes = 1
    round_s: float  # loop seconds of one untraced round at nominal machine speed

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.model_files: list[Path] = []
        self.by_class: dict[str, list] = {}
        self._paths: dict[str, str] = {}

    def model_path(self, key: str, doc: dict) -> str:
        """Write a model document once and return its --model path."""
        if key not in self._paths:
            path = self.workdir / f"{key}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            self._paths[key] = str(path)
            self.model_files.append(path)
        return self._paths[key]

    @property
    def composition(self) -> dict[str, int]:
        """Instances per round, by class."""
        counts = {cls: n * len(self.by_class[cls]) for cls, n in self.decks.items()}
        return {**counts, **self.singles}

    @property
    def round_size(self) -> int:
        return sum(self.composition.values())

    def deal(self, cls: str) -> list:
        return [member for _ in range(self.decks[cls]) for member in self.by_class[cls]]

    def make_round(self, index: int) -> list[Instance]:
        raise NotImplementedError

    def rounds(self):
        index = 0
        while True:
            batch = self.make_round(index)
            self.rng.shuffle(batch)
            yield batch
            index += 1


def load_pool() -> dict:
    return json.loads((HERE / "pool.json").read_text(encoding="utf-8"))


class Search(Workload):
    name = "search"
    decks = {"small": 2, "medium": 1, "big": 1}
    singles = {"heuristic": 2, "refusal": 2}
    quick = ("small", "medium")  # 2-13 base sequences: under 0.1 s each
    round_s = 25.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        for entry in load_pool()["search"]:
            self.by_class.setdefault(entry["class"], []).append(entry)
        for entries in self.by_class.values():
            for entry in entries:
                self.model_path(entry["name"], entry["doc"])
        self.example = self.model_path("example1", EXAMPLE1)

    def make_round(self, index):
        batch = []
        for cls in self.decks:
            for entry in self.deal(cls):
                batch.append(
                    Instance(
                        entry["name"],
                        "solve_exact",
                        ["solve", "--model", self._paths[entry["name"]], "--n", str(entry["n"]), "--format", "machine"],
                        entry["doc"],
                        {"optimum": entry["optimum"]},
                        self.quick_passes if cls in self.quick else self.long_passes,
                    )
                )
        for n in (3, 4):
            seed = self.rng.randrange(1000)
            batch.append(
                Instance(
                    f"example1-heuristic-n{n}-seed{seed}",
                    "solve_heuristic",
                    ["solve", "--model", self.example, "--n", str(n), "--mode", "heuristic", "--seed", str(seed), "--format", "machine"],
                    EXAMPLE1,
                    passes=self.quick_passes if n == 3 else self.long_passes,
                )
            )
        for n in (5, 6):
            batch.append(
                Instance(
                    f"example1-refusal-n{n}",
                    "refusal",
                    ["solve", "--model", self.example, "--n", str(n), "--format", "machine"],
                    passes=self.quick_passes if n == 5 else self.long_passes,
                )
            )
        return batch


def bounds_class(entry: dict) -> str:
    """Round class of a bounds pool instance, from its time when the pool was made."""
    if entry["measured_s"] is None:
        return "hang"
    if entry["measured_s"] >= BOUNDS_DEADLINE_S / 4:
        return "slow"
    return entry["class"]


class Bounds(Workload):
    name = "bounds"
    decks = {"small": 1, "medium": 1, "past_budget": 1, "asymptotic": 2}
    singles = {"hang": 1}
    deadline_s = BOUNDS_DEADLINE_S
    # Short slots cost more here, and three runs steady them enough. The seven
    # long ones lie above the 90th percentile and run once to save time.
    quick_passes = 3
    round_s = 35.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        for entry in load_pool()["bounds"]:
            self.by_class.setdefault(bounds_class(entry), []).append(entry)
        self.hangs = self.by_class["hang"][:]
        self.rng.shuffle(self.hangs)
        for cls in (*self.decks, "hang"):
            for entry in self.by_class[cls]:
                self.model_path(entry["name"], entry["doc"])

    def passes(self, entry: dict) -> int:
        if entry["measured_s"] is None:
            return 1  # a deadline miss: its time is the deadline
        return self.quick_passes if entry["measured_s"] < QUICK_POOL_S else self.long_passes

    def make_round(self, index):
        entries = [e for cls in self.decks for e in self.deal(cls)]
        entries.append(self.hangs[index % len(self.hangs)])
        batch = []
        for entry in entries:
            flag = "--n" if entry["command"] == "bounds" else "--n-max"
            batch.append(
                Instance(
                    entry["name"],
                    entry["command"],
                    [entry["command"], "--model", self._paths[entry["name"]], flag, str(entry["n"]), "--format", "machine"],
                    entry["doc"],
                    entry,
                    self.passes(entry),
                )
            )
        return batch


AUDIT_MODEL_SEED = "audit-models"  # the models are fixed; the seed varies what is asked of them
AUDIT_RANDOM_SHAPES = [(3, 3), (2, 5), (6, 2), (4, 3), (8, 2), (2, 6)]  # 27-64 sequences
AUDIT_ALL_SHAPES = [(2, 3), (3, 2), (8, 1), (9, 1)]  # 8-9 sequences, every subset
AUDIT_SIMULATE_SHAPES = [(3, 3), (4, 3), (2, 6), (3, 4)]  # 27-81 sequences
AUDIT_RANDOM_COUNT = 10  # image sets per random oracle-check
TIE_POLICIES = ("adversarial", "lexicographic", "random")


class Audit(Workload):
    name = "audit"
    decks = {"oracle_random": 1, "oracle_all": 1, "simulate": 3}
    quick_passes = 5
    round_s = 8.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        model_rng = random.Random(AUDIT_MODEL_SEED)
        for cls, shapes in (
            ("oracle_random", AUDIT_RANDOM_SHAPES),
            ("oracle_all", AUDIT_ALL_SHAPES),
            ("simulate", AUDIT_SIMULATE_SHAPES),
        ):
            for k, n in shapes:
                for types in (1, 2, 3):
                    doc = oracle.random_model(model_rng, k, types)
                    key = f"audit-{cls}-k{k}n{n}t{types}"
                    self.model_path(key, doc)
                    self.by_class.setdefault(cls, []).append((key, doc, n))

    def make_round(self, index):
        batch = []
        # Every audit instance is short (0.15 s at most), so every slot repeats.
        for key, doc, n in self.deal("oracle_random"):
            # Fixed per model, like the models: how many sequences the drawn
            # image sets hold sets the cost of these, the slowest audit
            # instances, so a draw per run seed would move instance_p90_ms.
            seed = random.Random(f"{AUDIT_MODEL_SEED}:{key}").randrange(10**6)
            batch.append(
                Instance(
                    f"{key}-random-seed{seed}",
                    "oracle_check",
                    ["oracle-check", "--model", self._paths[key], "--n", str(n), "--strategies", "random",
                     "--count", str(AUDIT_RANDOM_COUNT), "--seed", str(seed), "--format", "machine"],
                    doc,
                    {"image_sets": AUDIT_RANDOM_COUNT},
                    self.quick_passes,
                )
            )
        for key, doc, n in self.deal("oracle_all"):
            space = len(doc["alphabet"]) ** n
            batch.append(
                Instance(
                    f"{key}-all",
                    "oracle_check",
                    ["oracle-check", "--model", self._paths[key], "--n", str(n), "--format", "machine"],
                    doc,
                    {"image_sets": 2**space - 1},
                    self.quick_passes,
                )
            )
        for key, doc, n in self.deal("simulate"):
            seqs = oracle.sequences(doc, n)
            members = sorted(self.rng.sample(seqs, self.rng.randint(2, 12)))
            truth = self.rng.choice(seqs)
            type_label = self.rng.choice(doc["types"])
            policy = self.rng.choice(TIE_POLICIES)
            seed = self.rng.randrange(1000)
            batch.append(
                Instance(
                    f"{key}-simulate-{type_label}-{oracle.label(doc, truth)}-{policy}",
                    "simulate",
                    ["simulate", "--model", self._paths[key], "--type", type_label, "--truth", oracle.label(doc, truth),
                     "--members", ";".join(oracle.label(doc, m) for m in members), "--policy", policy,
                     "--seed", str(seed), "--format", "machine"],
                    doc,
                    {"members": members},
                    self.quick_passes,
                )
            )
        return batch


WORKLOADS = {w.name: w for w in (Search, Bounds, Audit)}
