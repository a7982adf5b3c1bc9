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
from fractions import Fraction
from functools import cache
from pathlib import Path

from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    EXAMPLE1_TEXT,
    Model,
    ModelError,
    BudgetExceededError,
    Seq,
    check_space,
    classify_type,
    format_sequence,
    parse_model,
    serialize_model,
)
from .graph import (
    DEFAULT_EXACT_MIS_BUDGET,
    build_sender_graph,
    export_dot,
    max_independent_set,
    union_graph,
)
from .equilibrium import (
    DEFAULT_REPORT_CAP,
    DEFAULT_SUBSET_BUDGET,
    canonical_strategy,
    solve_exact,
    solve_heuristic,
)
from .gameplay import (
    TIE_POLICIES,
    cross_check_equivalence,
    recovery_report,
    simulate,
)
from .rate import asymptotic_bounds, extraction_rate, finite_bounds


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


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


def _parse_sequence(model: Model, text: str, n: int | None = None) -> Seq:
    if "," in text:
        labels = text.split(",")
    elif all(len(lab) == 1 for lab in model.alphabet):
        labels = list(text)
    else:
        raise ModelError(
            f"sequence {text!r}: separate multi-character symbol labels with commas"
        )
    seq = tuple(model.symbol_index(lab) for lab in labels)
    if n is not None and len(seq) != n:
        raise ModelError(f"sequence {text!r} has length {len(seq)}, expected {n}")
    return seq


def _parse_members(model: Model, text: str, n: int | None = None) -> list[Seq]:
    return [_parse_sequence(model, part, n) for part in text.split(";") if part]


def _seq_labels(model: Model, seqs) -> list[str]:
    return [format_sequence(model, s) for s in seqs]


# ----------------------------------------------------------------------
# subcommand handlers; each gets the loaded model and returns (its report
# fields or None, exit code)


def _cmd_validate(args, model: Model) -> tuple[dict | None, int]:
    payload = {
        "alphabet": list(model.alphabet),
        "types": {
            label: classify_type(model, t) for t, label in enumerate(model.types)
        },
        "prior": {label: p for label, p in zip(model.types, model.prior)},
        "valid": True,
    }
    return payload, 0


def _cmd_graph(args, model: Model) -> tuple[dict | None, int]:
    if args.type is None and not args.union:
        raise ModelError("choose a sender type with --type, or --union")
    if args.type is not None and args.union:
        raise ModelError("--type and --union are mutually exclusive")
    type_ids = range(model.num_types) if args.union else [model.type_index(args.type)]
    if args.alpha == "exact" and not args.export:
        # the same refusal max_independent_set makes, before the graph exists
        check_space(model, args.n, args.mis_budget, "exact independent set")
    graphs = [build_sender_graph(model, t, args.n, budget=args.enum_budget) for t in type_ids]
    graph = union_graph(graphs) if args.union else graphs[0]
    if args.export:
        sys.stdout.write(export_dot(graph))
        return None, 0
    payload = {
        "provenance": graph.provenance,
        "n": graph.n,
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
    }
    if args.alpha != "skip":
        result = max_independent_set(
            graph, mode=args.alpha, budget=args.mis_budget
        )
        payload["alpha"] = result.size
        payload["alpha_certified"] = result.certified
        payload["independent_set"] = [graph.labels[v] for v in result.members]
    return payload, 0


def _cmd_solve(args, model: Model) -> tuple[dict | None, int]:
    # The exact-mode options are None unless given; unset ones keep the library defaults.
    options = (("report_cap", args.report_cap), ("subset_budget", args.subset_budget))
    exact = {key: value for key, value in options if value is not None}
    # Refused in both modes, though only exact mode lists maximizers.
    if args.report_cap is not None and args.report_cap < 0:
        raise ValueError(f"report cap must be >= 0, got {args.report_cap}")
    if args.mode == "heuristic" and args.no_prune:
        raise ValueError("--no-prune applies to exact mode only")
    if args.mode == "heuristic" and exact:
        raise ValueError(f"--{next(iter(exact)).replace('_', '-')} applies to exact mode only")
    if args.mode == "exact" and args.seed is not None:
        raise ValueError("--seed applies to heuristic mode only")
    if args.mode == "exact":
        result = solve_exact(
            model, args.n, prune=not args.no_prune, enum_budget=args.enum_budget, **exact
        )
    else:
        result = solve_heuristic(model, args.n, seed=args.seed or 0, enum_budget=args.enum_budget)
    designated = result.designated
    payload = {
        "n": args.n,
        "mode": result.mode,
        "certified": result.certified,
        "objective": result.optimum,
        "rate": extraction_rate(result.optimum, args.n),
        "maximizer_count": result.maximizer_count,
        "maximizers_complete": result.maximizers_complete,
        "maximizers": [
            ";".join(_seq_labels(model, members)) for members in result.maximizers
        ],
        "designated": {
            "members": _seq_labels(model, designated.members),
            "truthful": {
                label: _seq_labels(model, part)
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
    # The draw options steer random mode only; unset ones keep the library defaults.
    options = (("count", args.count), ("seed", args.seed))
    draw = {key: value for key, value in options if value is not None}
    if args.strategies == "all" and draw:
        raise ValueError(f"--{next(iter(draw))} applies to --strategies random only")
    result = cross_check_equivalence(
        model,
        args.n,
        strategies=args.strategies,
        subset_cap=args.subset_budget,
        enum_budget=args.enum_budget,
        **draw,
    )
    payload = {
        "n": args.n,
        "strategies": args.strategies,
        "image_sets_checked": result.image_sets_checked,
        "types": model.num_types,
        "agreed": result.agreed,
    }
    if not result.agreed:
        payload["mismatches"] = [
            f"{';'.join(_seq_labels(model, members))}: played {played}, formula {formula}"
            for members, played, formula in result.mismatches[:10]
        ]
    return payload, 0 if result.agreed else 1


def _cmd_bounds(args, model: Model) -> tuple[dict | None, int]:
    bounds = finite_bounds(
        model,
        args.n,
        solve=args.solve,
        mis_budget=args.mis_budget,
        subset_budget=args.subset_budget,
        enum_budget=args.enum_budget,
    )
    payload = {
        "n": args.n,
        "alpha_union": bounds.alpha_union,
        "alpha_per_type": {
            label: a for label, a in zip(model.types, bounds.alpha_per_type)
        },
        "weighted_alpha": bounds.weighted_alpha,
        "lower_certified": bounds.lower_certified,
        "upper_certified": bounds.upper_certified,
        "lower_rate": bounds.lower_rate,
        "upper_rate": bounds.upper_rate,
    }
    if bounds.achieved is not None:
        payload["achieved"] = bounds.achieved
        payload["achieved_rate"] = bounds.achieved_rate
        payload["achieved_certified"] = bounds.achieved_certified
    return payload, 0


def _cmd_asymptotic(args, model: Model) -> tuple[dict | None, int]:
    report = asymptotic_bounds(
        model, args.n_max, mis_budget=args.mis_budget, enum_budget=args.enum_budget
    )
    payload = {
        "n_max": report.n_max,
        "alpha_per_type": {
            label: a for label, a in zip(model.types, report.alpha_per_type)
        },
        "best_type": model.types[report.best_type],
        "union_floor": report.union_floor,
        "alphas": list(report.alphas),
        "capacity_estimates": list(report.capacity_estimates),
        "certified_floor": report.certified_floor,
        "certified_floor_at": report.certified_floor_at,
        "fekete": [
            f"{w.m}+{w.n}: {w.alpha_m}*{w.alpha_n}<={w.alpha_sum} "
            f"{'ok' if w.holds else 'VIOLATED'}"
            for w in report.fekete_witnesses
        ],
        "fekete_all_hold": all(w.holds for w in report.fekete_witnesses),
    }
    return payload, 0


def _cmd_simulate(args, model: Model) -> tuple[dict | None, int]:
    type_id = model.type_index(args.type)
    truth = _parse_sequence(model, args.truth)
    n = len(truth)
    if args.fallback is not None and args.members is None:
        raise ValueError("--fallback needs --members; a solved strategy picks its own")
    if args.members is not None:
        members = _parse_members(model, args.members, n)
        fallback = None if args.fallback is None else _parse_sequence(model, args.fallback, n)
        strategy = canonical_strategy(members, fallback)
        origin = "given"
    else:
        solved = solve_exact(  # the designated maximizer alone: none is listed
            model, n, report_cap=0, subset_budget=args.subset_budget, enum_budget=args.enum_budget
        )
        strategy = canonical_strategy(solved.designated.members)
        origin = "solved"
    outcome = simulate(
        model,
        strategy,
        type_id,
        truth,
        policy=args.policy,
        seed=args.seed,
        enum_budget=args.enum_budget,
    )
    report = recovery_report(model, strategy, enum_budget=args.enum_budget)
    payload = {
        "n": n,
        "type": args.type,
        "strategy_origin": origin,
        "image": _seq_labels(model, strategy.image),
        "truth": format_sequence(model, truth),
        "policy": outcome.policy,
        "options": _seq_labels(model, outcome.options),
        "decoded": format_sequence(model, outcome.decoded),
        "reported": format_sequence(model, outcome.reported),
        "recovered": outcome.recovered,
        "utility": outcome.utility,
        "worst_case_value": report.value,
        "robust": {
            label: _seq_labels(model, robust)
            for label, robust in zip(model.types, report.robust)
        },
        "best_response_multiplicity": {
            label: m for label, m in zip(model.types, report.multiplicities)
        },
    }
    return payload, 0


# ----------------------------------------------------------------------
# parser


def _add_common(sub, *, enum=True, mis=False, subset=False):
    sub.add_argument("--model", required=True, help="model file path, or example1")
    sub.add_argument(
        "--format", choices=("plain", "machine"), default="plain", help="report style"
    )
    if enum:
        sub.add_argument(
            "--enum-budget",
            type=int,
            default=DEFAULT_ENUMERATION_BUDGET,
            help="max sequences to enumerate",
        )
    if mis:
        sub.add_argument(
            "--mis-budget",
            type=int,
            default=DEFAULT_EXACT_MIS_BUDGET,
            help="max vertices for the certified independent-set search",
        )
    if subset:
        sub.add_argument(
            "--subset-budget",
            type=int,
            default=DEFAULT_SUBSET_BUDGET,
            help="max base sequences for exhaustive questionnaire search",
        )


@cache  # built on the first `main` call, not at import, and reused after
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="screengame",
        description="Design questionnaires that stay informative against strategic misreporting.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    subs.add_parser("example", help="print the built-in example model file")

    sub = subs.add_parser("validate", help="parse a model and report its shape")
    _add_common(sub, enum=False)
    sub.set_defaults(handler=_cmd_validate)

    sub = subs.add_parser("graph", help="build a sender graph; stats, alpha, or DOT")
    _add_common(sub, mis=True)
    sub.add_argument("--n", type=int, default=1, help="sequence length")
    sub.add_argument("--type", help="sender type label")
    sub.add_argument("--union", action="store_true", help="union over all types")
    sub.add_argument(
        "--alpha",
        choices=("exact", "greedy", "skip"),
        default="exact",
        help="independent-set computation",
    )
    sub.add_argument("--export", action="store_true", help="emit DOT instead of a report")
    sub.set_defaults(handler=_cmd_graph)

    sub = subs.add_parser("solve", help="find an optimal questionnaire")
    _add_common(sub, subset=True)
    sub.add_argument("--n", type=int, default=1, help="sequence length")
    sub.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    sub.add_argument("--seed", type=int, help="heuristic seed (default 0)")
    sub.add_argument(
        "--no-prune", action="store_true", help="exact mode: evaluate every subset"
    )
    sub.add_argument(
        "--report-cap", type=int, help=f"max maximizers listed (default {DEFAULT_REPORT_CAP})"
    )
    # None tells a given --subset-budget from an unset one, which heuristic mode refuses.
    sub.set_defaults(handler=_cmd_solve, subset_budget=None)

    sub = subs.add_parser(
        "oracle-check",
        help="cross-check played-out recovery against the truthful-subset formula",
    )
    _add_common(sub, subset=True)
    sub.add_argument("--n", type=int, default=1, help="sequence length")
    sub.add_argument("--strategies", choices=("all", "random"), default="all")
    sub.add_argument("--count", type=int, help="random image sets to draw (default 50)")
    sub.add_argument("--seed", type=int, help="random draw seed (default 0)")
    sub.set_defaults(handler=_cmd_oracle_check)

    sub = subs.add_parser("bounds", help="sandwich the optimal recovery value")
    _add_common(sub, mis=True, subset=True)
    sub.add_argument("--n", type=int, default=1, help="sequence length")
    sub.add_argument("--solve", action="store_true", help="also compute the optimum")
    sub.set_defaults(handler=_cmd_bounds)

    sub = subs.add_parser("asymptotic", help="long-horizon rate bracket")
    _add_common(sub, mis=True)
    sub.add_argument("--n-max", type=int, default=3, help="largest horizon to examine")
    sub.set_defaults(handler=_cmd_asymptotic)

    sub = subs.add_parser("simulate", help="play one round against a chosen type")
    _add_common(sub, subset=True)
    sub.add_argument("--type", required=True, help="sender type label")
    sub.add_argument("--truth", required=True, help="true sequence, e.g. 0,1 or 01")
    sub.add_argument(
        "--members",
        help="questionnaire members, e.g. '0,0;0,2' (default: solve exactly)",
    )
    sub.add_argument("--fallback", help="decode non-members to this member")
    sub.add_argument("--policy", choices=TIE_POLICIES, default="adversarial")
    sub.add_argument("--seed", type=int, default=0, help="random tie policy seed")
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
    except (ModelError, BudgetExceededError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if fields is not None:
        header = {"command": args.command, "model": args.model, "digest": digest}
        _emit(header | fields, args.format, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
