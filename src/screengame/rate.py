"""Per-letter extraction rates and their independence-number bounds.

The rate of a length-n strategy is the n-th root of its worst-case recovery
value. Independent sets sandwich it: a set independent in every type's graph
is reported truthfully by everyone, while no type can contribute more than
the independence number of its own graph. All comparisons are made on the
exact values; roots are taken only for display.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .model import DEFAULT_ENUMERATION_BUDGET, Model
from .graph import (
    DEFAULT_EXACT_MIS_BUDGET,
    _check_graph_space,
    build_sender_graph,
    check_mis_budget,
    clique_cover_bound,
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
    """Sandwich for the optimal length-n rate, exact values plus root views."""

    n: int
    alpha_union: int  # independent set size in the union graph (floor)
    alpha_per_type: tuple[int, ...]  # per-type independent set sizes
    weighted_alpha: Fraction  # prior-weighted sum of per-type sizes (ceiling)
    achieved: Fraction | None  # optimal (or best-found) recovery value
    lower_certified: bool  # alpha_union is the exact independence number
    upper_certified: bool  # every per-type size is exact
    achieved_certified: bool  # achieved is the proven optimum

    @property
    def lower_rate(self) -> float:
        return extraction_rate(self.alpha_union, self.n)

    @property
    def upper_rate(self) -> float:
        return extraction_rate(self.weighted_alpha, self.n)

    @property
    def achieved_rate(self) -> float | None:
        if self.achieved is None:
            return None
        return extraction_rate(self.achieved, self.n)


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
    on its side of the true number: a per-type ceiling is the greedy clique
    cover, which never understates an independence number, and the union
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
        per_type = [clique_cover_bound(g.adjacency, (1 << g.vertex_count) - 1) for g in graphs]
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
class FeketeWitness:
    type_id: int
    m: int
    n: int
    alpha_m: int
    alpha_n: int
    alpha_sum: int  # independence number at horizon m + n
    holds: bool  # alpha_sum >= alpha_m * alpha_n


@dataclass(frozen=True)
class AsymptoticReport:
    """Long-horizon picture built from one-letter graphs and a best type."""

    n_max: int
    alpha_per_type: tuple[int, ...]  # one-letter independence numbers
    best_type: int  # argmax of those, ties to the lowest id
    union_floor: int  # one-letter union independence number
    alphas: tuple[int, ...]  # best type's numbers at horizons 1..n_max
    capacity_estimates: tuple[float, ...]  # n-th roots of those, display only
    certified_floor: float  # largest root attained, a proven lower bound
    certified_floor_at: int  # horizon attaining it
    fekete_witnesses: tuple[FeketeWitness, ...]  # all pairs m <= n, m+n <= n_max


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
    ceiling target; its n-th roots are reported for n = 1..n_max together
    with supermultiplicativity witnesses.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    check_mis_budget(model, range(1, n_max + 1), mis_budget)
    _check_graph_space(model, range(1, n_max + 1), enum_budget)  # every graph, before the first
    # Horizon 1 is within the budget, so these numbers are certified.
    one_letter = finite_bounds(model, 1, mis_budget=mis_budget, enum_budget=enum_budget)
    alpha1 = one_letter.alpha_per_type
    best_type = max(range(model.num_types), key=lambda t: (alpha1[t], -t))
    alphas = [alpha1[best_type]] + [
        max_independent_set(
            build_sender_graph(model, best_type, h, enum_budget=enum_budget),
            mis_budget=mis_budget,
        ).size
        for h in range(2, n_max + 1)
    ]
    estimates = tuple(extraction_rate(a, k + 1) for k, a in enumerate(alphas))
    # Pick the best root by exact comparison (a^(1/h) > b^(1/g) iff a^g > b^h),
    # never by comparing the float views; first horizon wins ties.
    floor_h = 1
    for h in range(2, n_max + 1):
        if alphas[h - 1] ** floor_h > alphas[floor_h - 1] ** h:
            floor_h = h

    witnesses = [
        FeketeWitness(
            type_id=best_type,
            m=m,
            n=n,
            alpha_m=alphas[m - 1],
            alpha_n=alphas[n - 1],
            alpha_sum=alphas[m + n - 1],
            holds=alphas[m + n - 1] >= alphas[m - 1] * alphas[n - 1],
        )
        for m in range(1, n_max)
        for n in range(m, n_max - m + 1)
    ]
    return AsymptoticReport(
        n_max=n_max,
        alpha_per_type=alpha1,
        best_type=best_type,
        union_floor=one_letter.alpha_union,
        alphas=tuple(alphas),
        capacity_estimates=estimates,
        certified_floor=estimates[floor_h - 1],
        certified_floor_at=floor_h,
        fekete_witnesses=tuple(witnesses),
    )
