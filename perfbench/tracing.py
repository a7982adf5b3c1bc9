"""Span tracing around screengame's public functions, from outside the package.

`Tracer.install` rebinds each traced function in every screengame module
whose namespace holds it, which is where its callers look it up (for example
`screengame.cli.solve_exact` and `screengame.rate.build_sender_graph`).
Nothing in the package changes. A function a later refactor has removed is
listed in `missing` instead of failing the run.

Spans are aggregated as they close: per span name the calls, total time and
self time (duration minus the time its child spans cover), and per
(parent, child) pair the calls. Counters come from public result fields and
are read after a span closes; the time they take is charged to the
benchmark, not to the layer that called the traced function.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "model", "graph", "equilibrium", "gameplay", "rate")


def _mis_span(args, kwargs) -> str:
    return "graph.mis_greedy" if kwargs.get("mode", "exact") == "greedy" else "graph.mis_exact"


def _count_enumerate(tracer, result, args, kwargs):
    tracer.counts["model.sequences"] += len(result)


def _count_build(tracer, result, args, kwargs):
    v = result.vertex_count
    tracer.counts["graph.pairs"] += v * (v - 1) // 2
    tracer.counts["graph.edges"] += result.edge_count


def _count_mis(tracer, result, args, kwargs):
    if result.certified:
        graph = args[0] if args else kwargs["graph"]
        tracer.counts["graph.mis_exact_vertices"] += graph.vertex_count


def _count_solve(tracer, result, args, kwargs):
    tracer.counts["equilibrium.subsets_examined"] += result.subsets_examined
    tracer.counts["equilibrium.subsets_pruned"] += result.subsets_pruned


def _count_heuristic(tracer, result, args, kwargs):
    tracer.counts["equilibrium.heuristic_evaluations"] += result.subsets_examined


def _count_cross_check(tracer, result, args, kwargs):
    tracer.counts["gameplay.image_sets"] += result.image_sets_checked
    tracer.counts["gameplay.mismatches"] += len(result.mismatches)


def _count_bounds(tracer, result, args, kwargs):
    flags = [result.lower_certified, result.upper_certified]
    if result.achieved is not None:
        flags.append(result.achieved_certified)
    tracer.counts["rate.certified_flags"] += sum(flags)
    tracer.counts["rate.flags"] += len(flags)


# (module, function, span name or namer, counter hook)
TRACED = (
    ("cli", "main", "cli", None),
    ("model", "parse_model", "model.parse", None),
    ("model", "enumerate_sequences", "model.enumerate", _count_enumerate),
    ("graph", "build_sender_graph", "graph.build", _count_build),
    ("graph", "union_graph", "graph.union", None),
    ("graph", "max_independent_set", _mis_span, _count_mis),
    ("equilibrium", "solve_exact", "equilibrium.solve_exact", _count_solve),
    ("equilibrium", "solve_heuristic", "equilibrium.heuristic", _count_heuristic),
    ("equilibrium", "reduce_closure", "equilibrium.closure", None),
    ("equilibrium", "receiver_objective", "equilibrium.objective", None),
    ("equilibrium", "truthful_subset", "equilibrium.objective", None),
    ("gameplay", "robust_recovery_set", "gameplay.robust_scan", None),
    ("gameplay", "recovery_report", "gameplay.recovery_report", None),
    ("gameplay", "simulate", "gameplay.simulate", None),
    ("gameplay", "cross_check_equivalence", "gameplay.cross_check", _count_cross_check),
    ("rate", "finite_bounds", "rate.finite_bounds", _count_bounds),
    ("rate", "asymptotic_bounds", "rate.asymptotic", None),
)


class Tracer:
    def __init__(self, deadline_error: type[BaseException]):
        self.deadline_error = deadline_error
        self.stack: list[list] = []  # open spans: [name, start, child seconds]
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()  # (parent name, child name) -> calls
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span if isinstance(span, str) else span(args, kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [name, perf_counter(), 0.0]
            tracer.stack.append(frame)
            error: BaseException | None = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                duration = perf_counter() - frame[1]
                tracer.stack.pop()
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[2]
                tracer.edges[(parent[0] if parent else None, name)] += 1
                if parent is not None:
                    parent[2] += duration
                if error is not None:
                    tracer._on_error(name, error, duration)
            if hook is not None:
                started = perf_counter()
                hook(tracer, result, args, kwargs)
                if parent is not None:  # counter reads are the benchmark's time, not the caller's
                    parent[2] += perf_counter() - started
            return result

        return traced

    def _on_error(self, name, error, duration):
        if name == "graph.mis_exact" and isinstance(error, self.deadline_error):
            self.counts["graph.mis_deadline_hits"] += 1
        if name == "equilibrium.solve_exact" and type(error).__name__ == "BudgetExceededError":
            self.counts["equilibrium.refusals"] += 1
            self.total_s["equilibrium.refusal"] += duration

    def install(self) -> None:
        """Rebind every traced function wherever a screengame module holds it."""
        modules = [importlib.import_module(f"screengame.{m}") for m in MODULES]
        modules.append(sys.modules["screengame"])
        for module_name, func_name, span, hook in TRACED:
            original = getattr(sys.modules[f"screengame.{module_name}"], func_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapped = self._wrap(original, span, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def layer_metrics(self, loop_s: float, untraced_loop_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        s, c = self.self_s, self.counts
        examined = c["equilibrium.subsets_examined"]
        pruned = c["equilibrium.subsets_pruned"]
        flags = c["rate.flags"]
        attributed = sum(s.values())
        out = {
            "cli.self_s": (s["cli"], "s"),
            "cli.calls": (self.calls["cli"], "count"),
            "model.parse_s": (s["model.parse"], "s"),
            "model.enumerate_s": (s["model.enumerate"], "s"),
            "model.sequences": (c["model.sequences"], "count"),
            "graph.build_s": (s["graph.build"], "s"),
            "graph.pairs": (c["graph.pairs"], "count"),
            "graph.edges": (c["graph.edges"], "count"),
            "graph.union_s": (s["graph.union"], "s"),
            "graph.mis_exact_s": (s["graph.mis_exact"], "s"),
            "graph.mis_exact_calls": (self.calls["graph.mis_exact"], "count"),
            "graph.mis_exact_vertices": (c["graph.mis_exact_vertices"], "count"),
            "graph.mis_greedy_s": (s["graph.mis_greedy"], "s"),
            "graph.mis_deadline_hits": (c["graph.mis_deadline_hits"], "count"),
            "equilibrium.solve_exact_s": (s["equilibrium.solve_exact"], "s"),
            "equilibrium.subsets_examined": (examined, "count"),
            "equilibrium.subsets_pruned": (pruned, "count"),
            "equilibrium.prune_ratio": (pruned / (examined + pruned) if examined + pruned else 0.0, "ratio"),
            "equilibrium.refusals": (c["equilibrium.refusals"], "count"),
            "equilibrium.refusal_s": (self.total_s["equilibrium.refusal"], "s"),
            "equilibrium.heuristic_s": (s["equilibrium.heuristic"], "s"),
            "equilibrium.heuristic_evaluations": (c["equilibrium.heuristic_evaluations"], "count"),
            "equilibrium.closure_s": (s["equilibrium.closure"], "s"),
            "equilibrium.objective_s": (s["equilibrium.objective"], "s"),
            "equilibrium.objective_calls": (self.calls["equilibrium.objective"], "count"),
            "gameplay.robust_scan_s": (s["gameplay.robust_scan"], "s"),
            "gameplay.image_sets": (c["gameplay.image_sets"], "count"),
            "gameplay.recovery_report_s": (s["gameplay.recovery_report"], "s"),
            "gameplay.simulate_s": (s["gameplay.simulate"], "s"),
            "gameplay.cross_check_s": (s["gameplay.cross_check"], "s"),
            "gameplay.mismatches": (c["gameplay.mismatches"], "count"),
            "rate.finite_bounds_s": (s["rate.finite_bounds"], "s"),
            "rate.asymptotic_s": (s["rate.asymptotic"], "s"),
            "rate.certified_frac": (c["rate.certified_flags"] / flags if flags else 0.0, "ratio"),
            "trace.loop_s": (loop_s, "s"),
            "trace.bench_s": (loop_s - attributed, "s"),
            "trace.overhead_frac": (loop_s / untraced_loop_s - 1.0, "ratio"),
            "trace.missing": (len(self.missing), "count"),
        }
        return out

    def span_table(self) -> list[str]:
        """Human-readable span tree edges and self times, for the run log."""
        lines = []
        for name in sorted(self.calls):
            lines.append(
                f"  span {name}: calls={self.calls[name]} total_s={self.total_s[name]:.4f} "
                f"self_s={self.self_s[name]:.4f}"
            )
        for (parent, child), calls in sorted(self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
            lines.append(f"  edge {parent} -> {child}: {calls}")
        return lines
