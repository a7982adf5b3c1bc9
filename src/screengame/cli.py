"""Command line front end.

Reports are deterministic: the same invocation on the same inputs produces
byte-identical output except for the trailing timing field. Exact rationals
are always printed as integers or p/q, never as floating point; root views
carry 12 significant digits and are labeled as rates.

Exit codes: 0 success, 1 domain error (bad model, exceeded budget, failed
cross-check), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from functools import cache
from pathlib import Path

from .model import (
    EXAMPLE1_TEXT,
    Model,
    ModelError,
    BudgetExceededError,
    _format_members,
    _format_sequences,
    _parse_members,
    _parse_sequence,
    classify_type,
    enumerate_sequences,
    parse_model,
    serialize_model,
)
from .graph import (
    build_sender_graph,
    check_mis_budget,
    export_dot,
    max_independent_set,
    union_graph,
)
from .equilibrium import (
    DEFAULT_REPORT_CAP,
    solve_exact,
    solve_heuristic,
)
from .gameplay import (
    TIE_POLICIES,
    canonical_strategy,
    cross_check_equivalence,
    recovery_report,
    simulate,
)
from .rate import asymptotic_bounds, extraction_rate, finite_bounds


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    try:
        return str(value)
    except ValueError:  # an int or p/q past the decimal conversion limit; hex is exact
        num, den = value.as_integer_ratio()
        return hex(num) if den == 1 else f"{hex(num)}/{hex(den)}"


def _render_plain(payload: dict, indent: int = 0) -> list[str]:
    pad = " " * indent
    lines: list[str] = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_plain(value, indent + 2))
        elif isinstance(value, (list, tuple)):
            if not value:
                lines.append(f"{pad}{key}: []")
            else:
                lines.append(f"{pad}{key}:")
                for item in value:
                    lines.append(f"{pad}  - {_format_scalar(item)}")
        else:
            lines.append(f"{pad}{key}: {_format_scalar(value)}")
    return lines


def _render_machine(payload: dict, prefix: str = "") -> list[str]:
    lines: list[str] = []
    for key, value in payload.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_render_machine(value, f"{path}."))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{path}.count={len(value)}")
            for i, item in enumerate(value):
                lines.append(f"{path}.{i}={_format_scalar(item)}")
        else:
            lines.append(f"{path}={_format_scalar(value)}")
    return lines


def _emit(payload: dict, fmt: str, started: float) -> None:
    payload["timing_ms"] = int((time.perf_counter() - started) * 1000)
    lines = _render_plain(payload) if fmt == "plain" else _render_machine(payload)
    sys.stdout.write("\n".join(lines) + "\n")


def _load_model(spec: str) -> tuple[Model, str]:
    """Resolve a --model argument to (model, digest of its canonical form)."""
    if spec == "example1":
        text = EXAMPLE1_TEXT
    else:
        text = Path(spec).read_text(encoding="utf-8")
    model = parse_model(text)
    digest = hashlib.sha256(serialize_model(model).encode("utf-8")).hexdigest()
    return model, digest


# Option flags are None unless given, so an unset one keeps the library default.
def _given(args, *names: str) -> dict:
    """The given flags among `names`, keyed by name: each flag's name is its library keyword."""
    given = {name: getattr(args, name) for name in names}
    return {name: value for name, value in given.items() if value is not None}


def _refuse(args, reader: str, *names: str) -> None:
    """Refuse the first given flag among `names`: the chosen path never reads it."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} applies to {reader} only")


# ----------------------------------------------------------------------
# subcommand handlers; each gets the loaded model and returns (its report
# fields or None, exit code)


def _cmd_validate(args, model: Model) -> tuple[dict | None, int]:
    payload = {
        "alphabet": list(model.alphabet),
        "types": {
            label: classify_type(model, t) for t, label in enumerate(model.types)
        },
        "prior": dict(zip(model.types, model.prior)),
        "valid": True,
    }
    return payload, 0


def _cmd_graph(args, model: Model) -> tuple[dict | None, int]:
    if args.type is None and not args.union:
        raise ModelError("choose a sender type with --type, or --union")
    if args.type is not None and args.union:
        raise ModelError("--type and --union are mutually exclusive")
    type_ids = range(model.num_types) if args.union else [model.type_index(args.type)]
    if args.export:
        _refuse(args, "reports", "alpha")
    alpha = args.alpha or "exact"
    if alpha == "exact" and not args.export:
        check_mis_budget(model, [args.n], **_given(args, "mis_budget"))
    else:
        _refuse(args, "--alpha exact reports", "mis_budget")
    enum = _given(args, "enum_budget")
    graphs = [build_sender_graph(model, t, args.n, **enum) for t in type_ids]
    graph = union_graph(graphs) if args.union else graphs[0]
    seqs = enumerate_sequences(model, args.n, **enum)  # vertex v is seqs[v]
    if args.export:
        sys.stdout.write(export_dot(graph, _format_sequences(model, seqs)))
        return None, 0
    payload = {
        "provenance": graph.provenance,
        "n": graph.n,
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
    }
    if alpha != "skip":
        result = max_independent_set(graph, mode=alpha, **_given(args, "mis_budget"))
        payload["alpha"] = len(result.members)
        payload["alpha_certified"] = result.certified
        payload["independent_set"] = _format_sequences(model, [seqs[v] for v in result.members])
    return payload, 0


def _cmd_solve(args, model: Model) -> tuple[dict | None, int]:
    # Refused in both modes, though only exact mode lists maximizers.
    if args.report_cap is not None and args.report_cap < 0:
        raise ValueError(f"report cap must be >= 0, got {args.report_cap}")
    if args.mode == "exact":
        _refuse(args, "heuristic mode", "seed")
        options = _given(args, "report_cap", "subset_budget", "enum_budget")
        result = solve_exact(model, args.n, prune=not args.no_prune, **options)
    else:
        _refuse(args, "exact mode", "no_prune", "report_cap", "subset_budget")
        result = solve_heuristic(model, args.n, **_given(args, "seed", "enum_budget"))
    designated = result.designated
    payload = {
        "n": args.n,
        "mode": args.mode,
        "certified": result.certified,
        "objective": result.optimum,
        "rate": extraction_rate(result.optimum, args.n),
        "maximizer_count": result.maximizer_count,
        "maximizers_complete": result.maximizers_complete,
        "maximizers": [_format_members(model, members) for members in result.maximizers],
        "designated": {
            "members": _format_sequences(model, designated.members),
            "truthful": {
                label: _format_sequences(model, part)
                for label, part in zip(model.types, designated.truthful)
            },
        },
        "subsets_examined": result.subsets_examined,
        "subsets_pruned": result.subsets_pruned,
        "cover_cuts": result.cover_cuts,
        "tie_cuts": result.tie_cuts,
    }
    return payload, 0


def _cmd_oracle_check(args, model: Model) -> tuple[dict | None, int]:
    if args.strategies == "all":
        _refuse(args, "--strategies random", "count", "seed")
    else:
        _refuse(args, "--strategies all", "subset_budget")
    options = _given(args, "count", "seed", "subset_budget", "enum_budget")
    result = cross_check_equivalence(model, args.n, strategies=args.strategies, **options)
    agreed = not result.mismatches
    payload = {
        "n": args.n,
        "strategies": args.strategies,
        "image_sets_checked": result.image_sets_checked,
        "types": model.num_types,
        "agreed": agreed,
    }
    if not agreed:
        payload["mismatches"] = [
            f"{_format_members(model, members)}: played {played}, formula {formula}"
            for members, played, formula in result.mismatches[:10]
        ]
    return payload, 0 if agreed else 1


def _cmd_bounds(args, model: Model) -> tuple[dict | None, int]:
    if not args.solve:
        _refuse(args, "--solve", "subset_budget")
    options = _given(args, "mis_budget", "subset_budget", "enum_budget")
    bounds = finite_bounds(model, args.n, solve=args.solve, **options)
    payload = {
        "n": args.n,
        "alpha_union": bounds.alpha_union,
        "alpha_per_type": dict(zip(model.types, bounds.alpha_per_type)),
        "weighted_alpha": bounds.weighted_alpha,
        "lower_certified": bounds.lower_certified,
        "upper_certified": bounds.upper_certified,
        "lower_rate": extraction_rate(bounds.alpha_union, args.n),
        "upper_rate": extraction_rate(bounds.weighted_alpha, args.n),
    }
    if bounds.achieved is not None:
        payload["achieved"] = bounds.achieved
        payload["achieved_rate"] = extraction_rate(bounds.achieved, args.n)
        payload["achieved_certified"] = bounds.achieved_certified
    return payload, 0


def _cmd_asymptotic(args, model: Model) -> tuple[dict | None, int]:
    report = asymptotic_bounds(model, args.n_max, **_given(args, "mis_budget", "enum_budget"))
    alphas = report.alphas
    # The largest root by exact comparison (a^(1/h) > b^(1/g) iff a^g > b^h); ties to the first.
    at = 1
    for h, a in enumerate(alphas[1:], 2):
        if a**at > alphas[at - 1] ** h:
            at = h
    # Supermultiplicativity at every pair m <= n with m + n <= n_max, each (line, holds).
    fekete = []
    for m in range(1, args.n_max):
        for n in range(m, args.n_max - m + 1):
            a, b, ab = alphas[m - 1], alphas[n - 1], alphas[m + n - 1]
            fekete.append((f"{m}+{n}: {a}*{b}<={ab}", ab >= a * b))
    payload = {
        "n_max": args.n_max,
        "alpha_per_type": dict(zip(model.types, report.alpha_per_type)),
        "best_type": model.types[report.best_type],
        "union_floor": report.union_floor,
        "alphas": list(alphas),
        "capacity_estimates": [extraction_rate(a, h) for h, a in enumerate(alphas, 1)],
        "certified_floor": extraction_rate(alphas[at - 1], at),
        "certified_floor_at": at,
        "fekete": [f"{line} {'ok' if holds else 'VIOLATED'}" for line, holds in fekete],
        "fekete_all_hold": all(holds for _, holds in fekete),
    }
    return payload, 0


def _cmd_simulate(args, model: Model) -> tuple[dict | None, int]:
    type_id = model.type_index(args.type)
    truth = _parse_sequence(model, args.truth)
    n = len(truth)
    if args.fallback is not None and args.members is None:
        raise ValueError("--fallback needs --members; a solved strategy picks its own")
    enum = _given(args, "enum_budget")
    if args.members is not None:
        _refuse(args, "a solved strategy", "subset_budget")
        members = _parse_members(model, args.members, n)
        fallback = None if args.fallback is None else _parse_sequence(model, args.fallback, n)
        strategy = canonical_strategy(members, fallback)
        origin = "given"
    else:
        solved = solve_exact(  # the designated maximizer alone: none is listed
            model, n, report_cap=0, **_given(args, "subset_budget"), **enum
        )
        strategy = canonical_strategy(solved.designated.members)
        origin = "solved"
    report = recovery_report(model, strategy, **enum)
    outcome = simulate(model, strategy, type_id, truth, policy=args.policy, **_given(args, "seed"))
    shown = [truth, outcome.decoded, outcome.reported]  # in range: skip format_sequence's check
    truth_text, decoded, reported = _format_sequences(model, shown)
    payload = {
        "n": n,
        "type": args.type,
        "strategy_origin": origin,
        "image": _format_sequences(model, strategy.image),
        "truth": truth_text,
        "policy": args.policy,
        "options": _format_sequences(model, outcome.options),
        "decoded": decoded,
        "reported": reported,
        "recovered": outcome.decoded == truth,
        "utility": outcome.utility,
        "worst_case_value": report.value,
        "robust": {
            label: _format_sequences(model, robust)
            for label, robust in zip(model.types, report.robust)
        },
        "best_response_multiplicity": dict(zip(model.types, report.multiplicities)),
    }
    return payload, 0


# ----------------------------------------------------------------------
# parser


_BUDGET_HELP = {
    "enum": "max sequences to enumerate",
    "mis": "max vertices for the certified independent-set search",
    "subset": "max base sequences for exhaustive questionnaire search",
}


def _add_common(sub, *budgets: str) -> None:
    """--model, --format and the named budget flags, which stay None unless given."""
    sub.add_argument("--model", required=True, help="model file path, or example1")
    sub.add_argument(
        "--format", choices=("plain", "machine"), default="plain", help="report style"
    )
    for budget in budgets:
        sub.add_argument(f"--{budget}-budget", type=int, help=_BUDGET_HELP[budget])


@cache  # built on the first `main` call, not at import, and reused after
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="screengame",
        description="Design questionnaires that stay informative against strategic misreporting.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    subs.add_parser("example", help="print the built-in example model file")

    sub = subs.add_parser("validate", help="parse a model and report its shape")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_validate)

    sub = subs.add_parser("graph", help="build a sender graph; stats, alpha, or DOT")
    _add_common(sub, "enum", "mis")
    sub.add_argument("--n", type=int, default=1, help="sequence length")
    sub.add_argument("--type", help="sender type label")
    sub.add_argument("--union", action="store_true", help="union over all types")
    sub.add_argument(
        "--alpha",
        choices=("exact", "greedy", "skip"),
        help="independent-set computation (default exact)",
    )
    sub.add_argument("--export", action="store_true", help="emit DOT instead of a report")
    sub.set_defaults(handler=_cmd_graph)

    sub = subs.add_parser("solve", help="find an optimal questionnaire")
    _add_common(sub, "enum", "subset")
    sub.add_argument("--n", type=int, default=1, help="sequence length")
    sub.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    sub.add_argument("--seed", type=int, help="heuristic seed (default 0)")
    sub.add_argument(
        "--no-prune", action="store_true", default=None, help="exact mode: evaluate every subset"
    )
    sub.add_argument(
        "--report-cap", type=int, help=f"max maximizers listed (default {DEFAULT_REPORT_CAP})"
    )
    sub.set_defaults(handler=_cmd_solve)

    sub = subs.add_parser(
        "oracle-check",
        help="cross-check played-out recovery against the truthful-subset formula",
    )
    _add_common(sub, "enum", "subset")
    sub.add_argument("--n", type=int, default=1, help="sequence length")
    sub.add_argument("--strategies", choices=("all", "random"), default="all")
    sub.add_argument("--count", type=int, help="random image sets to draw (default 50)")
    sub.add_argument("--seed", type=int, help="random draw seed (default 0)")
    sub.set_defaults(handler=_cmd_oracle_check)

    sub = subs.add_parser("bounds", help="sandwich the optimal recovery value")
    _add_common(sub, "enum", "mis", "subset")
    sub.add_argument("--n", type=int, default=1, help="sequence length")
    sub.add_argument("--solve", action="store_true", help="also compute the optimum")
    sub.set_defaults(handler=_cmd_bounds)

    sub = subs.add_parser("asymptotic", help="long-horizon rate bracket")
    _add_common(sub, "enum", "mis")
    sub.add_argument("--n-max", type=int, default=3, help="largest horizon to examine")
    sub.set_defaults(handler=_cmd_asymptotic)

    sub = subs.add_parser("simulate", help="play one round against a chosen type")
    _add_common(sub, "enum", "subset")
    sub.add_argument("--type", required=True, help="sender type label")
    sub.add_argument("--truth", required=True, help="true sequence, e.g. 0,1 or 01")
    sub.add_argument(
        "--members",
        help="questionnaire members, e.g. '0,0;0,2' (default: solve exactly)",
    )
    sub.add_argument("--fallback", help="decode non-members to this member")
    sub.add_argument("--policy", choices=TIE_POLICIES, default="adversarial")
    sub.add_argument("--seed", type=int, help="random tie policy seed (default 0)")
    sub.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "example":
            sys.stdout.write(EXAMPLE1_TEXT)
            return 0
        model, digest = _load_model(args.model)
        fields, code = args.handler(args, model)
        if fields is not None:
            header = {"command": args.command, "model": args.model, "digest": digest}
            _emit(header | fields, args.format, started)
    except (OSError, ValueError, BudgetExceededError) as exc:  # a ModelError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
