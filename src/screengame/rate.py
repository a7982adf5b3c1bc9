"""Per-letter extraction rates and their independence-number bounds.

The rate of a length-n strategy is the n-th root of its worst-case recovery
value. Independent sets sandwich it: a set independent in every type's graph
is reported truthfully by everyone, while no type can contribute more than
the independence number of its own graph. Results hold exact values only;
`extraction_rate` takes a root where the CLI displays a rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .model import DEFAULT_ENUMERATION_BUDGET, Model, _check_pairs
from .graph import (
    DEFAULT_EXACT_MIS_BUDGET,
    _cover_classes,
    build_sender_graph,
    check_mis_budget,
    max_independent_set,
    union_graph,
)
from .equilibrium import (
    DEFAULT_SUBSET_BUDGET,
    solve_exact,
    solve_heuristic,
)


def extraction_rate(value: Fraction | int, n: int) -> float:
    """Per-letter rate: the real n-th root, taken at the last moment."""
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    if value < 0:
        raise ValueError("recovery value cannot be negative")
    return float(value) ** (1.0 / n)


@dataclass(frozen=True)
class RateBounds:
    """Sandwich for the optimal length-n recovery value, exact: the rates are their n-th roots."""

    n: int
    alpha_union: int  # independent set size in the union graph (floor)
    alpha_per_type: tuple[int, ...]  # per-type independent set sizes
    weighted_alpha: Fraction  # prior-weighted sum of per-type sizes (ceiling)
    achieved: Fraction | None  # optimal (or best-found) recovery value
    lower_certified: bool  # alpha_union is the exact independence number
    upper_certified: bool  # every per-type size is exact
    achieved_certified: bool  # achieved is the proven optimum


def finite_bounds(
    model: Model,
    n: int,
    *,
    solve: bool = False,
    mis_budget: int = DEFAULT_EXACT_MIS_BUDGET,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    enum_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> RateBounds:
    """Bound the optimal recovery value at horizon n by independence numbers.

    Past the exact-search budget both flags are false, but each value stays
    on its side of the true number: a per-type ceiling is the first-fit
    clique cover, which never understates an independence number, and the union
    floor is a greedy independent set, which never overstates it. With
    `solve`, the achieved value comes from the exhaustive search, or from
    the heuristic (uncertified) when the space is over the subset budget.
    """
    graphs = [
        build_sender_graph(model, t, n, enum_budget=enum_budget)
        for t in range(model.num_types)
    ]
    union = union_graph(graphs)
    certified = union.vertex_count <= mis_budget  # every graph has one vertex per sequence
    if certified:
        per_type = [max_independent_set(g, mis_budget=mis_budget).size for g in graphs]
        # A union with no edge beyond one type's graph has that type's number.
        same = [size for g, size in zip(graphs, per_type) if g.adjacency == union.adjacency]
        union_alpha = same[0] if same else max_independent_set(union, mis_budget=mis_budget).size
    else:
        everyone = (1 << union.vertex_count) - 1
        per_type = [len(_cover_classes(g.adjacency, everyone, False)) for g in graphs]
        union_alpha = max_independent_set(union, mode="greedy").size
    scale, weights = model.prior_weights
    weighted = Fraction(sum(map(mul, weights, per_type)), scale)

    achieved: Fraction | None = None
    achieved_certified = False
    if solve:
        if union.vertex_count <= subset_budget:
            achieved = solve_exact(  # the optimum alone: no maximizer is listed
                model, n, report_cap=0, subset_budget=subset_budget, enum_budget=enum_budget
            ).optimum
            achieved_certified = True
        else:
            achieved = solve_heuristic(model, n, enum_budget=enum_budget).optimum

    return RateBounds(
        n=n,
        alpha_union=union_alpha,
        alpha_per_type=tuple(per_type),
        weighted_alpha=weighted,
        achieved=achieved,
        lower_certified=certified,
        upper_certified=certified,
        achieved_certified=achieved_certified,
    )


@dataclass(frozen=True)
class AsymptoticReport:
    """Long-horizon picture from one-letter graphs and a best type, in exact values."""

    alpha_per_type: tuple[int, ...]  # one-letter independence numbers
    best_type: int  # argmax of those over types of positive prior, ties to the lowest id
    union_floor: int  # one-letter union independence number
    alphas: tuple[int, ...]  # best type's numbers at horizons 1..n_max: h-th roots are floors
    certified_floor_at: int  # horizon of the largest root, ties to the first


def asymptotic_bounds(
    model: Model,
    n_max: int,
    *,
    mis_budget: int = DEFAULT_EXACT_MIS_BUDGET,
    enum_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> AsymptoticReport:
    """Bracket the long-run optimal rate using one type's graph family.

    The one-letter union independence number is a floor for every horizon
    (products of one-letter independent sets stay independent), while the
    per-letter growth of the best single type's independence numbers is a
    ceiling target; its numbers are reported for n = 1..n_max, and the CLI
    checks their supermultiplicativity. The best type is chosen among the
    types of positive prior: one of prior 0 recovers nothing in the value,
    so its roots would be no floor.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    check_mis_budget(model, range(1, n_max + 1), mis_budget)
    for h in range(1, n_max + 1):  # every graph, before the first
        _check_pairs(model, h, enum_budget, "sender graph")
    # Horizon 1 is within the budget, so these numbers are certified.
    one_letter = finite_bounds(model, 1, mis_budget=mis_budget, enum_budget=enum_budget)
    alpha1 = one_letter.alpha_per_type
    played = [t for t, weight in enumerate(model.prior_weights[1]) if weight > 0]
    best_type = max(played, key=lambda t: (alpha1[t], -t))
    alphas = [alpha1[best_type]] + [
        max_independent_set(
            build_sender_graph(model, best_type, h, enum_budget=enum_budget),
            mis_budget=mis_budget,
        ).size
        for h in range(2, n_max + 1)
    ]
    # Pick the best root by exact comparison (a^(1/h) > b^(1/g) iff a^g > b^h);
    # first horizon wins ties.
    floor_h = 1
    for h in range(2, n_max + 1):
        if alphas[h - 1] ** floor_h > alphas[floor_h - 1] ** h:
            floor_h = h
    return AsymptoticReport(
        alpha_per_type=alpha1,
        best_type=best_type,
        union_floor=one_letter.alpha_union,
        alphas=tuple(alphas),
        certified_floor_at=floor_h,
    )
