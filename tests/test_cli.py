from __future__ import annotations

import itertools
import json
import math
import random
import re
import time
from fractions import Fraction

import pytest

import screengame as sg
from screengame.cli import main

from conftest import ODD_DOC, X6, make_random_model

EXAMPLE1_DIGEST = "145323e7165a1bd4862143c9299c4305b39d91d0c3bbb79cc045dfb499b2b738"
# The digest of the canonical document for conftest.ODD_DOC.
ODD_DIGEST = "376cb2a67d2c60ac9e8a21e467e88d951d4bdf5a7800c500ae1819792b519e84"
# make_random_model(random.Random(16), 16, 3): 768 entries over 7 literals.
BIG_DIGEST = "5f5be84ba3bfa03dfd67acaf954a5da734225026aba73ece75132aa010431d6c"

D_GRAPH_DOT = """\
graph sender_d_n1 {
  v0 [label="0"];
  v1 [label="1"];
  v2 [label="2"];
  v0 -- v1;
  v0 -- v2;
  v1 -- v2;
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stable_lines(text: str) -> list[str]:
    return [
        line
        for line in text.splitlines()
        if not line.startswith(("timing_ms: ", "timing_ms="))
    ]


def test_example_prints_the_builtin_model(capsys):
    code, out, err = run(capsys, "example")
    assert code == 0
    assert out == sg.EXAMPLE1_TEXT
    assert err == ""


def test_validate_example(capsys):
    code, out, _ = run(capsys, "validate", "--model", "example1")
    assert code == 0
    assert f"digest: {EXAMPLE1_DIGEST}" in out
    assert "h: honest" in out
    assert "d: other" in out
    assert "valid: true" in out


def test_solve_plain_golden(capsys):
    code, out, _ = run(capsys, "solve", "--model", "example1", "--n", "1")
    assert code == 0
    assert "objective: 4/3" in out
    assert "rate: 1.33333333333" in out
    assert "maximizer_count: 2" in out
    assert "  - 0;2" in out
    assert "  - 1;2" in out
    assert "certified: true" in out


def test_solve_machine_golden(capsys):
    code, out, _ = run(
        capsys, "solve", "--model", "example1", "--n", "1", "--format", "machine"
    )
    assert code == 0
    assert "mode=exact" in out.splitlines()
    assert "objective=4/3" in out
    assert "maximizers.count=2" in out
    assert "maximizers.0=0;2" in out
    assert "designated.members.0=0" in out
    assert "designated.members.1=2" in out
    assert "designated.truthful.h.count=2" in out
    assert "designated.truthful.d.0=0" in out


def test_solve_heuristic_mode(capsys):
    code, out, _ = run(
        capsys, "solve", "--model", "example1", "--n", "2", "--mode", "heuristic"
    )
    assert code == 0
    assert "mode: heuristic" in out
    assert "certified: false" in out


def test_graph_report_and_alpha(capsys):
    code, out, _ = run(capsys, "graph", "--model", "example1", "--type", "d")
    assert code == 0
    assert "vertices: 3" in out
    assert "edges: 3" in out
    assert "alpha: 1" in out
    assert "alpha_certified: true" in out

    code, out, _ = run(capsys, "graph", "--model", "example1", "--union")
    assert code == 0
    assert "provenance: union" in out
    assert "edges: 3" in out
    assert "alpha: 1" in out

    # --alpha skip reports the graph alone, with no alpha line.
    for pick, provenance in ((("--type", "d"), "d"), (("--union",), "union")):
        code, out, _ = run(
            capsys, "graph", "--model", "example1", *pick, "--n", "2", "--alpha", "skip",
            "--format", "machine",
        )
        assert code == 0
        assert stable_lines(out) == [
            "command=graph", "model=example1", f"digest={EXAMPLE1_DIGEST}",
            f"provenance={provenance}", "n=2", "vertices=9", "edges=36",
        ]


def test_graph_export_dot(capsys):
    code, out, _ = run(
        capsys, "graph", "--model", "example1", "--type", "d", "--export"
    )
    assert code == 0
    assert out == D_GRAPH_DOT


def test_graph_flag_conflicts(capsys):
    code, _, err = run(capsys, "graph", "--model", "example1")
    assert code == 1
    assert "error:" in err
    code, _, err = run(
        capsys, "graph", "--model", "example1", "--type", "d", "--union"
    )
    assert code == 1
    assert "mutually exclusive" in err


def test_oracle_check_agrees(capsys):
    code, out, _ = run(capsys, "oracle-check", "--model", "example1", "--n", "1")
    assert code == 0
    assert "image_sets_checked: 7" in out
    assert "agreed: true" in out


def test_oracle_check_random_mode(capsys):
    code, out, _ = run(
        capsys,
        "oracle-check",
        "--model",
        "example1",
        "--n",
        "2",
        "--strategies",
        "random",
        "--count",
        "20",
    )
    assert code == 0
    assert "image_sets_checked: 20" in out
    assert "agreed: true" in out


def test_bounds_report(capsys):
    code, out, _ = run(capsys, "bounds", "--model", "example1", "--n", "1", "--solve")
    assert code == 0
    assert "alpha_union: 1" in out
    assert "weighted_alpha: 5/3" in out
    assert "achieved: 4/3" in out
    assert "upper_rate: 1.66666666667" in out
    assert "achieved_certified: true" in out


def test_asymptotic_report(capsys):
    code, out, _ = run(capsys, "asymptotic", "--model", "example1", "--n-max", "3")
    assert code == 0
    assert "best_type: h" in out
    assert "union_floor: 1" in out
    assert "certified_floor: 3" in out
    assert "  - 1+2: 3*9<=27 ok" in out
    assert "fekete_all_hold: true" in out


# Every line of `asymptotic --n-max 4` but timing_ms; {model} is X6's file
# path. The fekete lines come from alphas, one per pair m <= n with m + n <= 4.
ASYMPTOTIC_GOLDEN = {
    ("example1", "plain"): """\
command: asymptotic
model: example1
digest: 145323e7165a1bd4862143c9299c4305b39d91d0c3bbb79cc045dfb499b2b738
n_max: 4
alpha_per_type:
  h: 3
  d: 1
best_type: h
union_floor: 1
alphas:
  - 3
  - 9
  - 27
  - 81
capacity_estimates:
  - 3
  - 3
  - 3
  - 3
certified_floor: 3
certified_floor_at: 1
fekete:
  - 1+1: 3*3<=9 ok
  - 1+2: 3*9<=27 ok
  - 1+3: 3*27<=81 ok
  - 2+2: 9*9<=81 ok
fekete_all_hold: true
""",
    ("example1", "machine"): """\
command=asymptotic
model=example1
digest=145323e7165a1bd4862143c9299c4305b39d91d0c3bbb79cc045dfb499b2b738
n_max=4
alpha_per_type.h=3
alpha_per_type.d=1
best_type=h
union_floor=1
alphas.count=4
alphas.0=3
alphas.1=9
alphas.2=27
alphas.3=81
capacity_estimates.count=4
capacity_estimates.0=3
capacity_estimates.1=3
capacity_estimates.2=3
capacity_estimates.3=3
certified_floor=3
certified_floor_at=1
fekete.count=4
fekete.0=1+1: 3*3<=9 ok
fekete.1=1+2: 3*9<=27 ok
fekete.2=1+3: 3*27<=81 ok
fekete.3=2+2: 9*9<=81 ok
fekete_all_hold=true
""",
    ("X6", "plain"): """\
command: asymptotic
model: {model}
digest: 0354c299b5a710375e6737ea6cad8a076f3a008d7617207353d4c74e93119232
n_max: 4
alpha_per_type:
  a: 1
  b: 1
best_type: a
union_floor: 1
alphas:
  - 1
  - 1
  - 1
  - 1
capacity_estimates:
  - 1
  - 1
  - 1
  - 1
certified_floor: 1
certified_floor_at: 1
fekete:
  - 1+1: 1*1<=1 ok
  - 1+2: 1*1<=1 ok
  - 1+3: 1*1<=1 ok
  - 2+2: 1*1<=1 ok
fekete_all_hold: true
""",
    ("X6", "machine"): """\
command=asymptotic
model={model}
digest=0354c299b5a710375e6737ea6cad8a076f3a008d7617207353d4c74e93119232
n_max=4
alpha_per_type.a=1
alpha_per_type.b=1
best_type=a
union_floor=1
alphas.count=4
alphas.0=1
alphas.1=1
alphas.2=1
alphas.3=1
capacity_estimates.count=4
capacity_estimates.0=1
capacity_estimates.1=1
capacity_estimates.2=1
capacity_estimates.3=1
certified_floor=1
certified_floor_at=1
fekete.count=4
fekete.0=1+1: 1*1<=1 ok
fekete.1=1+2: 1*1<=1 ok
fekete.2=1+3: 1*1<=1 ok
fekete.3=2+2: 1*1<=1 ok
fekete_all_hold=true
""",
}


@pytest.mark.parametrize("name, fmt", list(ASYMPTOTIC_GOLDEN))
def test_asymptotic_golden(capsys, tmp_path, name, fmt):
    spec = "example1"
    if name == "X6":
        spec = tmp_path / "x6.json"
        spec.write_text(sg.serialize_model(X6), encoding="utf-8")
    code, out, _ = run(capsys, "asymptotic", "--model", str(spec), "--n-max", "4", "--format", fmt)
    assert code == 0
    assert stable_lines(out) == ASYMPTOTIC_GOLDEN[name, fmt].format(model=spec).splitlines()


@pytest.mark.parametrize("n_max, floor", [(4, "1.56508458007"), (6, "1.64754897244")])
def test_asymptotic_floor_is_at_the_horizon_of_the_largest_root(capsys, tmp_path, n_max, floor):
    # X6's type b alone: its numbers 1, 2, 3, 6, 10, 20 put the largest root
    # at the last horizon, 6^(1/4) at --n-max 4 and 20^(1/6) at --n-max 6.
    b = sg.Model.from_tables(["0", "1"], ["b"], {"b": 1}, {"b": [[-2, -1], [-2, 1]]})
    spec = tmp_path / "b.json"
    spec.write_text(sg.serialize_model(b), encoding="utf-8")
    argv = ("asymptotic", "--model", str(spec), "--n-max", str(n_max), "--format", "machine")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert [f"certified_floor={floor}", f"certified_floor_at={n_max}"] == [
        line for line in out.splitlines() if line.startswith("certified_floor")
    ]


# The CI's zero-prior model: type b, of prior 0, has the larger one-letter number.
ZERO_PRIOR = sg.Model.from_tables(
    ["0", "1"], ["a", "b"], ["1", "0"], [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]
)


@pytest.mark.parametrize("name", ["example1", "X6", "P156", "zero-prior"])
def test_each_printed_rate_is_the_root_of_a_printed_exact_value(capsys, tmp_path, pool, name):
    # Results hold exact values and the CLI takes every root: each rate line
    # is the root of an exact line, and the floor's horizon is the exact
    # argmax of the roots, ties to the first.
    spec = name
    if name != "example1":
        model = {"X6": X6, "P156": pool[156], "zero-prior": ZERO_PRIOR}[name]
        spec = tmp_path / "model.json"
        spec.write_text(sg.serialize_model(model), encoding="utf-8")

    def fields(*argv) -> dict:
        code, out, _ = run(capsys, *argv, "--model", str(spec), "--format", "machine")
        assert code == 0
        return dict(line.split("=", 1) for line in out.splitlines())

    def root(exact: str, h: int) -> str:
        return format(sg.extraction_rate(Fraction(exact), h), ".12g")

    for n in (1, 2, 3):
        f = fields("bounds", "--n", str(n), "--solve")
        assert f["lower_rate"] == root(f["alpha_union"], n)
        assert f["upper_rate"] == root(f["weighted_alpha"], n)
        assert f["achieved_rate"] == root(f["achieved"], n)
    f = fields("asymptotic", "--n-max", "5")
    alphas = [int(f[f"alphas.{i}"]) for i in range(int(f["alphas.count"]))]
    estimates = [f[f"capacity_estimates.{i}"] for i in range(int(f["capacity_estimates.count"]))]
    assert estimates == [root(a, h) for h, a in enumerate(alphas, 1)]
    at = int(f["certified_floor_at"])
    assert f["certified_floor"] == root(alphas[at - 1], at)
    # a^(1/g) against b^(1/h) is a^h against b^g: smaller before the floor, at most after it.
    assert all(alphas[g - 1] ** at < alphas[at - 1] ** g for g in range(1, at))
    assert all(alphas[g - 1] ** at <= alphas[at - 1] ** g for g in range(at, len(alphas) + 1))


def test_simulate_solved_strategy(capsys):
    code, out, _ = run(
        capsys, "simulate", "--model", "example1", "--type", "d", "--truth", "2"
    )
    assert code == 0
    assert "strategy_origin: solved" in out
    assert "decoded: 0" in out
    assert "reported: 0" in out
    assert "recovered: false" in out
    assert "worst_case_value: 4/3" in out
    assert "  h: 6" in out  # best-response multiplicities
    assert "  d: 8" in out


def test_simulate_given_members(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "--model",
        "example1",
        "--type",
        "h",
        "--truth",
        "1",
        "--members",
        "0;1;2",
    )
    assert code == 0
    assert "strategy_origin: given" in out
    assert "recovered: true" in out
    assert "utility: 1" in out


@pytest.mark.parametrize(
    "policy, decoded, recovered",
    [("adversarial", "12", "false"), ("lexicographic", "00", "true"), ("random", "00", "true")],
)
def test_simulate_prints_the_policy_and_whether_the_truth_is_recovered(
    capsys, policy, decoded, recovered
):
    # At truth 00 of the image {00, 12} the deceptive type is indifferent
    # between both members, so the policy picks the outcome.
    code, out, _ = run(
        capsys, "simulate", "--model", "example1", "--type", "d", "--truth", "00",
        "--members", "00;12", "--policy", policy, "--format", "machine",
    )
    assert code == 0
    lines = out.splitlines()
    assert f"policy={policy}" in lines
    assert f"decoded={decoded}" in lines
    assert f"recovered={recovered}" in lines


@pytest.mark.parametrize("n", [1, 2])
def test_simulate_reads_back_the_sequences_solve_prints(capsys, tmp_path, n):
    # With a two-character label, sequences are comma-joined, and at n = 1
    # each member is a single label.
    doc = {
        "alphabet": ["ab", "c"], "types": ["h", "d"], "prior": {"h": "1/3", "d": "2/3"},
        "utility": {"h": [["1", "0"], ["0", "1"]], "d": [["1", "2"], ["0", "0"]]},
    }
    path = tmp_path / "ab-c.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    model = ("--model", str(path), "--format", "machine")
    code, out, _ = run(capsys, "solve", *model, "--n", str(n))
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.splitlines())
    members = [fields[f"designated.members.{i}"] for i in range(2**n)]
    assert fields["maximizers.0"] == ";".join(members)
    for truth, fallback in itertools.product(members, repeat=2):
        argv = ("--truth", truth, "--members", fields["maximizers.0"], "--fallback", fallback)
        code, out, err = run(capsys, "simulate", *model, "--type", "d", *argv)
        assert (code, err) == (0, "")
        assert f"truth={truth}" in out.splitlines()
        assert [f"image.{i}={m}" for i, m in enumerate(members)] == [
            line for line in out.splitlines() if line.startswith("image.") and "count" not in line
        ]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # --model is required
    assert exc.value.code == 2
    capsys.readouterr()


# The budget flags each subcommand reads, in the parser's subcommand order.
BUDGET_FLAGS = {
    "example": (),
    "validate": (),
    "graph": ("enum", "mis"),
    "solve": ("enum", "subset"),
    "oracle-check": ("enum", "subset"),
    "bounds": ("enum", "mis", "subset"),
    "asymptotic": ("enum", "mis"),
    "simulate": ("enum", "subset"),
}


def test_help_lists_each_subcommands_budget_flags(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    commands = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1)
    assert commands.split(",") == list(BUDGET_FLAGS)
    for command, budgets in BUDGET_FLAGS.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        # Each flag's help follows its metavar, on the same line or the next.
        listed = dict(re.findall(r"^  --(\w+)-budget [A-Z_]+\s+(.*)$", out, re.M))
        assert listed == {budget: sg.cli._BUDGET_HELP[budget] for budget in budgets}, command


def test_domain_errors_exit_one(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--model", str(tmp_path / "missing.json"))
    assert code == 1
    assert err.startswith("error:")

    code, _, err = run(capsys, "graph", "--model", "example1", "--type", "z")
    assert code == 1
    assert "unknown type label" in err

    code, _, err = run(capsys, "solve", "--model", "example1", "--n", "3")
    assert code == 1
    assert "exceeds budget" in err

    code, _, err = run(capsys, "oracle-check", "--model", "example1", "--n", "3")
    assert code == 1
    assert "exhaustive cross-check" in err and "exceeds budget 20" in err

    code, _, err = run(
        capsys, "simulate", "--model", "example1", "--type", "d", "--truth", "1,1",
        "--members", "0,0;1,1", "--enum-budget", "8",
    )
    assert code == 1
    assert "sequence enumeration: requested 9 exceeds budget 8" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"alphabet": ["0"]}', encoding="utf-8")
    code, _, err = run(capsys, "validate", "--model", str(bad))
    assert code == 1
    assert "error:" in err


def test_a_deeply_nested_document_is_a_domain_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"alphabet": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    code, _, err = run(capsys, "validate", "--model", str(deep))
    assert (code, err) == (1, "error: model document nests too deeply\n")


def test_a_fault_in_the_program_is_not_posed_as_a_domain_error(monkeypatch):
    # Only OSError, ValueError (ModelError among them) and BudgetExceededError
    # print as "error: ..."; any other exception keeps its traceback.
    def fault(text):
        raise RuntimeError("closure reduction decreased the objective")

    monkeypatch.setattr(sg.cli, "parse_model", fault)
    with pytest.raises(RuntimeError, match="closure reduction"):
        main(["validate", "--model", "example1"])


def test_oracle_check_refuses_an_empty_random_draw(capsys):
    for count in ("0", "-1"):
        code, out, err = run(
            capsys, "oracle-check", "--model", "example1", "--n", "2",
            "--strategies", "random", "--count", count,
        )
        assert (code, out) == (1, "")
        assert "count >= 1" in err


def test_simulate_refuses_a_fallback_without_members(capsys):
    code, out, err = run(
        capsys, "simulate", "--model", "example1", "--type", "d", "--truth", "2",
        "--fallback", "0",
    )
    assert (code, out) == (1, "")
    assert "--fallback needs --members" in err
    # an empty fallback is a malformed sequence, not "no fallback"
    code, out, err = run(
        capsys, "simulate", "--model", "example1", "--type", "d", "--truth", "2",
        "--members", "0;2", "--fallback", "",
    )
    assert (code, out) == (1, "")
    assert "has length 0, expected 1" in err


def test_solve_heuristic_refuses_no_prune(capsys):
    code, out, err = run(
        capsys, "solve", "--model", "example1", "--mode", "heuristic", "--no-prune"
    )
    assert (code, out) == (1, "")
    assert "--no-prune applies to exact mode only" in err


def test_solve_heuristic_refuses_exact_only_flags(capsys):
    # A flag given at its default value is still refused: it is never read.
    for flag, value in (("--subset-budget", "20"), ("--report-cap", "16"), ("--report-cap", "0")):
        code, out, err = run(
            capsys, "solve", "--model", "example1", "--mode", "heuristic", flag, value
        )
        assert (code, out) == (1, "")
        assert f"{flag} applies to exact mode only" in err
    code, out, _ = run(
        capsys, "solve", "--model", "example1", "--subset-budget", "20", "--report-cap", "16"
    )
    assert code == 0 and "maximizer_count: 2" in out


def test_simulate_refuses_empty_members(capsys):
    # An empty --members is an empty questionnaire, not "solve one instead".
    for extra in ((), ("--fallback", "0")):
        code, out, err = run(
            capsys, "simulate", "--model", "example1", "--type", "d", "--truth", "2",
            "--members", "", *extra,
        )
        assert (code, out) == (1, "")
        assert "questionnaire must be nonempty" in err


def test_flags_do_not_leak_between_calls(capsys):
    # The parser is built once per process; each call still parses afresh.
    code, out, _ = run(
        capsys, "solve", "--model", "example1", "--no-prune", "--format", "machine"
    )
    assert code == 0 and "subsets_pruned=0" in out
    code, out, _ = run(capsys, "solve", "--model", "example1", "--format", "machine")
    assert code == 0
    assert "subsets_examined=6" in out and "subsets_pruned=1" in out
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", "example1", "--n", "x"])
    assert exc.value.code == 2
    code, out, _ = run(capsys, "solve", "--model", "example1")
    assert code == 0
    assert "objective: 4/3" in out and "subsets_pruned: 1" in out


def test_solve_report_cap_zero_and_negative(capsys):
    code, out, _ = run(
        capsys, "solve", "--model", "example1", "--n", "2", "--report-cap", "0",
        "--format", "machine",
    )
    assert code == 0
    assert "maximizers.count=0" in out and "designated.members.count=9" in out

    code, _, err = run(capsys, "solve", "--model", "example1", "--report-cap", "-1")
    assert code == 1
    assert "report cap must be >= 0" in err


def test_solve_search_counters_golden(capsys):
    # example1 at n=1-3 (n=3 past the default subset budget): what the exact
    # search prints about its walk. Each n has one or two maximizers, all
    # listed under the default cap, so no tie is cut.
    expected = {1: (6, 1, 1), 2: (20, 491, 19), 3: (38, 2**27 - 1 - 38, 37)}
    for n, (examined, pruned, cover_cuts) in expected.items():
        code, out, _ = run(
            capsys, "solve", "--model", "example1", "--n", str(n), "--subset-budget", "27",
            "--format", "machine",
        )
        assert code == 0
        assert {
            f"subsets_examined={examined}",
            f"subsets_pruned={pruned}",
            f"cover_cuts={cover_cuts}",
            "tie_cuts=0",
            "maximizers_complete=true",
        } <= set(out.splitlines())


def test_solve_greedy_seed_counters_golden(capsys, tmp_path):
    # X6 at n=4: started from the best greedy questionnaire, the walk examines
    # 161 subsets with 126 cover cuts and 6 tie cuts; started from a singleton
    # it would take 231, 164 and 8. Its 16 maximizers fill the default cap.
    path = tmp_path / "x6.json"
    path.write_text(sg.serialize_model(X6), encoding="utf-8")
    code, out, _ = run(
        capsys, "solve", "--model", str(path), "--n", "4", "--subset-budget", "16",
        "--format", "machine",
    )
    assert code == 0
    assert {
        "objective=54/11",
        "subsets_examined=161",
        f"subsets_pruned={2**16 - 1 - 161}",
        "cover_cuts=126",
        "tie_cuts=6",
        "maximizer_count=16",
        "maximizers_complete=false",
    } <= set(out.splitlines())


def test_solve_report_cap_one_cuts_the_second_tie(capsys):
    code, out, _ = run(
        capsys, "solve", "--model", "example1", "--report-cap", "1", "--format", "machine"
    )
    assert code == 0
    assert {
        "maximizer_count=1",
        "maximizers_complete=false",
        "maximizers.count=1",
        "maximizers.0=0;2",
        "tie_cuts=2",
    } <= set(out.splitlines())
    code, out, _ = run(
        capsys, "solve", "--model", "example1", "--report-cap", "1", "--no-prune",
        "--format", "machine",
    )
    assert code == 0
    assert {
        "maximizer_count=2",
        "maximizers_complete=true",
        "maximizers.count=1",
        "tie_cuts=0",
    } <= set(out.splitlines())


def test_flags_the_mode_never_reads_are_refused(capsys):
    code, out, err = run(capsys, "solve", "--model", "example1", "--seed", "5")
    assert (code, out) == (1, "")
    assert "--seed applies to heuristic mode only" in err
    code, _, _ = run(capsys, "solve", "--model", "example1", "--mode", "heuristic", "--seed", "5")
    assert code == 0
    for flag in ("--count", "--seed"):
        code, out, err = run(capsys, "oracle-check", "--model", "example1", flag, "3")
        assert (code, out) == (1, "")
        assert f"{flag} applies to --strategies random only" in err
    # Only the random tie policy reads simulate's seed, but it is accepted
    # under every policy.
    for policy in sg.TIE_POLICIES:
        code, _, _ = run(
            capsys, "simulate", "--model", "example1", "--type", "d", "--truth", "2",
            "--members", "0;2", "--policy", policy, "--seed", "9",
        )
        assert code == 0


GRAPH_D = ("graph", "--type", "d")
SIMULATE_D = ("simulate", "--type", "d", "--truth", "2")

# One rule for every subcommand: a flag the chosen path never reads is refused.
# Each row is (the path's argv, the flag and its value, what reads the flag).
UNREAD_FLAGS = [
    (("solve", "--mode", "heuristic"), ("--no-prune",), "exact mode"),
    (("solve", "--mode", "heuristic"), ("--report-cap", "1"), "exact mode"),
    (("solve", "--mode", "heuristic"), ("--subset-budget", "5"), "exact mode"),
    (("solve",), ("--seed", "1"), "heuristic mode"),
    (("oracle-check",), ("--count", "3"), "--strategies random"),
    (("oracle-check",), ("--seed", "3"), "--strategies random"),
    (("oracle-check", "--strategies", "random"), ("--subset-budget", "5"), "--strategies all"),
    (("bounds",), ("--subset-budget", "5"), "--solve"),
    ((*SIMULATE_D, "--members", "0;2"), ("--subset-budget", "5"), "a solved strategy"),
    ((*GRAPH_D, "--alpha", "greedy"), ("--mis-budget", "5"), "--alpha exact reports"),
    ((*GRAPH_D, "--alpha", "skip"), ("--mis-budget", "5"), "--alpha exact reports"),
    ((*GRAPH_D, "--export"), ("--mis-budget", "5"), "--alpha exact reports"),
    ((*GRAPH_D, "--export"), ("--alpha", "greedy"), "reports"),
]


@pytest.mark.parametrize(
    "path, flag, reader", UNREAD_FLAGS, ids=[" ".join(row[0] + row[1]) for row in UNREAD_FLAGS]
)
def test_every_flag_the_chosen_path_never_reads_is_refused(capsys, path, flag, reader):
    code, out, err = run(capsys, *path, *flag, "--model", "example1")
    assert (code, out) == (1, "")
    assert err == f"error: {flag[0]} applies to {reader} only\n"


# Each row is (argv, the library call, the keywords it gets). Unset flags are
# not passed, so the library's own defaults apply; given ones are passed as given.
FORWARDED_FLAGS = [
    (("solve",), "solve_exact", {"prune": True}),
    (
        ("solve", "--no-prune", "--report-cap", "3", "--subset-budget", "7", "--enum-budget", "99"),
        "solve_exact",
        {"prune": False, "report_cap": 3, "subset_budget": 7, "enum_budget": 99},
    ),
    (("solve", "--mode", "heuristic"), "solve_heuristic", {}),
    (
        ("solve", "--mode", "heuristic", "--seed", "5", "--enum-budget", "99"),
        "solve_heuristic",
        {"seed": 5, "enum_budget": 99},
    ),
    (("oracle-check",), "cross_check_equivalence", {"strategies": "all"}),
    (
        ("oracle-check", "--subset-budget", "7", "--enum-budget", "99"),
        "cross_check_equivalence",
        {"strategies": "all", "subset_budget": 7, "enum_budget": 99},
    ),
    (
        ("oracle-check", "--strategies", "random", "--count", "4", "--seed", "5"),
        "cross_check_equivalence",
        {"strategies": "random", "count": 4, "seed": 5},
    ),
    (("bounds",), "finite_bounds", {"solve": False}),
    (
        ("bounds", "--solve", "--mis-budget", "7", "--subset-budget", "8", "--enum-budget", "99"),
        "finite_bounds",
        {"solve": True, "mis_budget": 7, "subset_budget": 8, "enum_budget": 99},
    ),
    (("asymptotic",), "asymptotic_bounds", {}),
    (
        ("asymptotic", "--mis-budget", "30", "--enum-budget", "729"),
        "asymptotic_bounds",
        {"mis_budget": 30, "enum_budget": 729},  # 3^6 pairs at --n-max 3
    ),
    (SIMULATE_D, "solve_exact", {"report_cap": 0}),
    (
        (*SIMULATE_D, "--subset-budget", "7", "--enum-budget", "99"),
        "solve_exact",
        {"report_cap": 0, "subset_budget": 7, "enum_budget": 99},
    ),
    (
        (*SIMULATE_D, "--members", "0;2"),
        "simulate",
        {"policy": "adversarial"},
    ),
    (
        (*SIMULATE_D, "--members", "0;2", "--seed", "9", "--enum-budget", "99"),
        "simulate",
        {"policy": "adversarial", "seed": 9},
    ),
    (
        (*SIMULATE_D, "--members", "0;2", "--enum-budget", "99"),
        "recovery_report",
        {"enum_budget": 99},
    ),
    (GRAPH_D, "build_sender_graph", {}),
    ((*GRAPH_D, "--enum-budget", "99"), "build_sender_graph", {"enum_budget": 99}),
    (GRAPH_D, "max_independent_set", {"mode": "exact"}),
    ((*GRAPH_D, "--alpha", "greedy"), "max_independent_set", {"mode": "greedy"}),
    (
        (*GRAPH_D, "--mis-budget", "7"),
        "max_independent_set",
        {"mode": "exact", "mis_budget": 7},
    ),
]


@pytest.mark.parametrize(
    "argv, name, keywords", FORWARDED_FLAGS,
    ids=[f"{' '.join(row[0])}->{row[1]}" for row in FORWARDED_FLAGS],
)
def test_given_flags_are_forwarded_and_unset_ones_are_not(
    capsys, monkeypatch, argv, name, keywords
):
    seen = []
    real = getattr(sg.cli, name)

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(sg.cli, name, spy)
    code, _, err = run(capsys, *argv, "--model", "example1")
    assert (code, err) == (0, "")
    assert seen and all(kwargs == keywords for kwargs in seen)


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (("solve", "--subset-budget", "0"), "questionnaire search"),
        (("solve", "--mode", "heuristic", "--enum-budget", "0"), "sequence enumeration"),
        (("oracle-check", "--subset-budget", "0"), "exhaustive cross-check"),
        (("oracle-check", "--strategies", "random", "--enum-budget", "0"), "sequence enumeration"),
        (("bounds", "--enum-budget", "0"), "sequence enumeration"),
        (("asymptotic", "--mis-budget", "0"), "exact independent set"),
        ((*SIMULATE_D, "--subset-budget", "0"), "questionnaire search"),
        ((*SIMULATE_D, "--members", "0;2", "--enum-budget", "0"), "sequence enumeration"),
        ((*GRAPH_D, "--mis-budget", "0"), "exact independent set"),
        ((*GRAPH_D, "--alpha", "skip", "--enum-budget", "0"), "sequence enumeration"),
    ],
)
def test_a_budget_the_path_reads_is_the_one_it_refuses_by(capsys, argv, refusal):
    code, out, err = run(capsys, *argv, "--model", "example1")
    assert (code, out) == (1, "")
    assert refusal in err and "requested 3 exceeds budget 0" in err


def test_oracle_check_refuses_a_payoff_table_past_the_enumeration_budget(capsys):
    # 3^7 sequences pass --enum-budget, but the 3^14 (truth, report) pairs do
    # not; a budget of 3^14 holds one type's pairs, but not both types' pairs.
    argv = ("oracle-check", "--model", "example1", "--n", "7", "--strategies", "random")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "cross-check payoff table: requested 4782969 exceeds budget 1000000" in err
    code, out, err = run(capsys, *argv, "--enum-budget", "4782969")
    assert (code, out) == (1, "")
    assert "cross-check payoff table: requested 9565938 exceeds budget 4782969" in err


# Every example1 sequence at n=7, as a questionnaire.
ALL_N7 = ";".join(map("".join, itertools.product("012", repeat=7)))


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (("bounds", "--n", "7"), "sender graph"),
        ((*GRAPH_D, "--n", "7", "--alpha", "skip"), "sender graph"),
        (("solve", "--n", "7", "--mode", "heuristic"), "packed scorer"),
        (("solve", "--n", "7", "--subset-budget", "2187"), "packed scorer"),
        (("oracle-check", "--n", "7", "--strategies", "random"), "cross-check payoff table"),
        (("simulate", "--type", "d", "--truth", "0" * 7, "--members", ALL_N7), "played-out scan"),
    ],
)
def test_all_pairs_builds_are_priced_before_the_kernel_runs(capsys, monkeypatch, argv, refusal):
    # 3^7 sequences pass --enum-budget, but their 3^14 pairs do not, nor the
    # played-out scan's 2 * 3^7 * 3^7 payoffs: each is refused before the
    # space is enumerated or the kernel runs (sender graphs go straight to the
    # kernel), and a budget that holds them lets the work begin.
    def fail(*args, **kwargs):
        raise AssertionError("the work began")

    for module in (sg.equilibrium, sg.gameplay):
        monkeypatch.setattr(module, "enumerate_sequences", fail)
    for module in (sg.graph, sg.equilibrium):
        monkeypatch.setattr(module, "_top_bit_masks", fail)
    requested = 2 * 3**14 if refusal == "played-out scan" else 3**14
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--model", "example1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert f"{refusal}: requested {requested} exceeds budget 1000000" in err
    with pytest.raises(AssertionError, match="the work began"):
        main([*argv, "--model", "example1", "--enum-budget", str(2 * 3**14)])


def test_simulate_prices_each_scan_before_it_runs(capsys, monkeypatch):
    # recovery_report prices its k^n sequences, then its T * k^n * |image|
    # played-out scan; the first over the budget is refused.
    simulate = ("simulate", "--model", "example1", "--type", "d")
    n13 = ("--truth", "0" * 13, "--members", "0000000000000;1111111111111")
    for argv, refusal in (
        (n13, "sequence enumeration: requested 1594323 exceeds budget 1000000"),
        ((*n13, "--enum-budget", "2000000"),
         "played-out scan: requested 6377292 exceeds budget 2000000"),
        (("--truth", "000000", "--members", "000000;111111", "--enum-budget", "2000"),
         "played-out scan: requested 2916 exceeds budget 2000"),
    ):
        assert run(capsys, *simulate, *argv) == (1, "", f"error: {refusal}\n")

    # Two members at n=7 cost the scan 2 * 3^7 * 2 payoffs. One budget short
    # of that, the refusal comes before the scan runs; at it, the scan runs.
    def fail(*args, **kwargs):
        raise AssertionError("the played-out scan began")

    monkeypatch.setattr(sg.gameplay, "enumerate_sequences", fail)
    argv = (*simulate, "--truth", "0" * 7, "--members", "0000000;1111111")
    payoffs = 2 * 3**7 * 2
    code, out, err = run(capsys, *argv, "--enum-budget", str(payoffs - 1))
    assert (code, out) == (1, "")
    assert f"played-out scan: requested {payoffs} exceeds budget {payoffs - 1}" in err
    with pytest.raises(AssertionError, match="the played-out scan began"):
        main([*argv, "--enum-budget", str(payoffs)])


def test_simulate_never_plays_a_strategy_the_played_out_scan_refuses(capsys, monkeypatch):
    # recovery_report is the one reader that prices a scan, so it runs first
    # and a strategy it refuses is never played.
    def fail(*args, **kwargs):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(sg.cli, "simulate", fail)
    argv = (
        "simulate", "--model", "example1", "--type", "d", "--truth", "0" * 13,
        "--members", "0000000000000;1111111111111", "--enum-budget", "2000000",
    )
    refusal = "played-out scan: requested 6377292 exceeds budget 2000000"
    assert run(capsys, *argv) == (1, "", f"error: {refusal}\n")


SHORT_HORIZONS = [
    ("solve", "--n", "-1", "--subset-budget", "-5"),
    ("graph", "--type", "d", "--n", "-1", "--mis-budget", "-1"),
    ("oracle-check", "--n", "-1", "--subset-budget", "-1"),
    ("solve", "--n", "0", "--subset-budget", "0"),
    ("graph", "--type", "d", "--n", "0", "--mis-budget", "0"),
    ("oracle-check", "--n", "0", "--subset-budget", "0"),
]


@pytest.mark.parametrize("argv", SHORT_HORIZONS, ids=map(" ".join, SHORT_HORIZONS))
def test_a_horizon_below_one_is_refused_by_its_length_under_any_budget(capsys, argv):
    # Every gate refuses n < 1 before it prices k^n, which would be a fraction
    # for n < 0 and 1 for n = 0.
    n = argv[argv.index("--n") + 1]
    code, out, err = run(capsys, *argv, "--model", "example1")
    assert (code, out, err) == (1, "", f"error: sequence length must be >= 1, got {n}\n")


def test_integers_past_the_decimal_limit_print_in_hex(capsys, example):
    # At n=7 the best-response multiplicities of example1 have over 4,300
    # decimal digits, past what str() converts by default.
    members = "0000000;2222222"
    code, out, err = run(
        capsys, "simulate", "--model", "example1", "--type", "d", "--truth", "2222222",
        "--members", members, "--format", "machine",
    )
    assert (code, err) == (0, "")
    strategy = sg.canonical_strategy([(0,) * 7, (2,) * 7])
    report = sg.recovery_report(example, strategy)
    for label, m in zip(example.types, report.multiplicities):
        assert m.bit_length() * math.log10(2) > 4300
        assert f"best_response_multiplicity.{label}={hex(m)}" in out.splitlines()


def test_rationals_past_the_decimal_limit_print_in_hex(capsys, tmp_path):
    # Each literal is under 1,500 digits, but the optimal utility's
    # denominator has 14,928 bits, past what str() converts by default.
    diagonal = [Fraction(1, 7**1770), Fraction(1, 2**4980), Fraction(1, 3**3140)]
    table = [[str(d if i == j else 0) for j in range(3)] for i, d in enumerate(diagonal)]
    doc = {"alphabet": ["0", "1", "2"], "types": ["a"], "prior": {"a": "1"}, "utility": {"a": table}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(
        capsys, "simulate", "--model", str(path), "--type", "a", "--truth", "012",
        "--members", "012;000", "--format", "machine",
    )
    assert (code, err) == (0, "")
    utility = sum(diagonal) / 3
    assert utility.denominator.bit_length() == 14928
    assert f"utility={hex(utility.numerator)}/{hex(utility.denominator)}" in out.splitlines()


def test_solve_refuses_negative_report_cap_in_both_modes(capsys):
    for mode in ("exact", "heuristic"):
        code, out, err = run(
            capsys, "solve", "--model", "example1", "--mode", mode, "--report-cap", "-1"
        )
        assert (code, out) == (1, "")
        assert "report cap must be >= 0, got -1" in err


def test_graph_refuses_exact_alpha_before_building(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a graph was built before the budget check")

    monkeypatch.setattr(sg.cli, "build_sender_graph", fail)
    code, _, err = run(
        capsys, "graph", "--model", "example1", "--union", "--n", "3", "--mis-budget", "20"
    )
    assert code == 1
    assert "exact independent set: requested 27 exceeds budget 20" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--n", "100000"),
        ("solve", "--n", "100000", "--mode", "heuristic"),
        ("bounds", "--n", "100000"),
        ("graph", "--type", "d", "--n", "100000"),
        ("oracle-check", "--n", "100000"),
        ("simulate", "--type", "d", "--truth", "0" * 100000),
    ],
    ids=["solve", "heuristic", "bounds", "graph", "oracle-check", "simulate"],
)
def test_huge_horizons_are_refused_at_once(capsys, argv):
    started = time.perf_counter()
    code, out, err = run(capsys, *argv, "--model", "example1")
    assert time.perf_counter() - started < 1
    assert (code, out) == (1, "")
    assert "requested 3^100000 exceeds budget" in err


def test_graph_exact_witness_is_a_maximum_independent_set(capsys, tmp_path):
    # Which maximum set is printed is not part of the contract: check that it
    # is independent and of the certified size, not which members it has.
    # Random(7) draws (3,2), (3,2), (4,2); the second model's type b at n=4
    # has 81 vertices and independence number 6.
    rng = random.Random(7)
    model = [make_random_model(rng, k, types) for k, types in ((3, 2), (3, 2), (4, 2))][1]
    path = tmp_path / "r7.json"
    path.write_text(sg.serialize_model(model), encoding="utf-8")
    code, out, _ = run(
        capsys, "graph", "--model", str(path), "--type", "b", "--n", "4",
        "--format", "machine",
    )
    assert code == 0
    assert "alpha=6" in out and "alpha_certified=true" in out
    members = [
        line.split("=", 1)[1]
        for line in out.splitlines()
        if line.startswith("independent_set.") and "count" not in line
    ]
    graph = sg.build_sender_graph(model, 1, 4)
    labels = [sg.format_sequence(model, s) for s in sg.enumerate_sequences(model, 4)]
    ids = sorted(labels.index(label) for label in members)
    assert len(set(ids)) == 6
    assert not any(graph.adjacency[u] >> v & 1 for u in ids for v in ids)


def test_reports_are_deterministic(capsys):
    _, first, _ = run(capsys, "solve", "--model", "example1", "--n", "2")
    _, second, _ = run(capsys, "solve", "--model", "example1", "--n", "2")
    assert stable_lines(first) == stable_lines(second)
    _, first, _ = run(
        capsys, "bounds", "--model", "example1", "--n", "2", "--format", "machine"
    )
    _, second, _ = run(
        capsys, "bounds", "--model", "example1", "--n", "2", "--format", "machine"
    )
    assert stable_lines(first) == stable_lines(second)


def test_models_that_parse_alike_share_one_digest(capsys, tmp_path):
    model = sg.Model.from_tables(**ODD_DOC)
    for name, text in (
        ("ascii.json", json.dumps(ODD_DOC)),
        ("canonical.json", sg.serialize_model(model)),
    ):
        (tmp_path / name).write_text(text, encoding="utf-8")
        argv = ("validate", "--model", str(tmp_path / name), "--format", "machine")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert f"digest={ODD_DIGEST}" in out.splitlines()


def test_a_sixteen_letter_model_keeps_its_digest(capsys, tmp_path):
    model = make_random_model(random.Random(16), 16, 3)
    doc = {
        "alphabet": list(model.alphabet),
        "types": list(model.types),
        "prior": {t: str(p) for t, p in zip(model.types, model.prior)},
        "utility": {t: [list(map(int, r)) for r in u] for t, u in zip(model.types, model.utility)},
    }
    canonical = sg.serialize_model(model)
    for name, text in (("ints.json", json.dumps(doc)), ("canonical.json", canonical)):
        (tmp_path / name).write_text(text, encoding="utf-8")
        argv = ("validate", "--model", str(tmp_path / name), "--format", "machine")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert f"digest={BIG_DIGEST}" in out.splitlines()


def test_model_file_round_trips_through_the_cli(capsys, tmp_path, example):
    path = tmp_path / "example.json"
    path.write_text(sg.serialize_model(example), encoding="utf-8")
    _, from_file, _ = run(capsys, "solve", "--model", str(path), "--n", "1")
    _, builtin, _ = run(capsys, "solve", "--model", "example1", "--n", "1")
    assert f"digest: {EXAMPLE1_DIGEST}" in from_file
    assert f"digest: {EXAMPLE1_DIGEST}" in builtin
    pick = lambda out, key: [l for l in out.splitlines() if l.startswith(key)]
    assert pick(from_file, "objective:") == pick(builtin, "objective:")
    assert pick(from_file, "maximizer_count:") == pick(builtin, "maximizer_count:")
