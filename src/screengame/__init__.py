"""Exact solver for a screening game between a receiver and strategic senders.

A receiver commits to how reports will be decoded; senders of hidden type
report whatever maximizes their own payoff. The package computes which
questionnaires survive that pressure, the worst-case number of truthfully
recovered sequences, and per-letter rate bounds from confusability graphs.
"""

from .model import (
    BudgetExceededError,
    EXAMPLE1_TEXT,
    HONEST,
    Model,
    ModelError,
    ModelSyntaxError,
    OTHER,
    classify_type,
    enumerate_sequences,
    format_sequence,
    parse_model,
    preference_masks,
    serialize_model,
)
from .graph import (
    IndependentSetResult,
    SenderGraph,
    build_sender_graph,
    export_dot,
    max_independent_set,
    union_graph,
)
from .equilibrium import (
    EquilibriumResult,
    Questionnaire,
    evaluate_questionnaire,
    solve_exact,
    solve_heuristic,
    truthful_subset,
)
from .gameplay import (
    CrossCheckResult,
    ReceiverStrategy,
    RecoveryReport,
    SimulationOutcome,
    TIE_POLICIES,
    canonical_strategy,
    cross_check_equivalence,
    recovery_report,
    simulate,
)
from .rate import (
    AsymptoticReport,
    RateBounds,
    asymptotic_bounds,
    extraction_rate,
    finite_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticReport",
    "BudgetExceededError",
    "CrossCheckResult",
    "EXAMPLE1_TEXT",
    "EquilibriumResult",
    "HONEST",
    "IndependentSetResult",
    "Model",
    "ModelError",
    "ModelSyntaxError",
    "OTHER",
    "Questionnaire",
    "RateBounds",
    "ReceiverStrategy",
    "RecoveryReport",
    "SenderGraph",
    "SimulationOutcome",
    "TIE_POLICIES",
    "asymptotic_bounds",
    "build_sender_graph",
    "canonical_strategy",
    "classify_type",
    "cross_check_equivalence",
    "enumerate_sequences",
    "evaluate_questionnaire",
    "export_dot",
    "extraction_rate",
    "finite_bounds",
    "format_sequence",
    "max_independent_set",
    "parse_model",
    "preference_masks",
    "recovery_report",
    "serialize_model",
    "simulate",
    "solve_exact",
    "solve_heuristic",
    "truthful_subset",
    "union_graph",
]
