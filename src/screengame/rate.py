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

    alpha_union: int  # independent set size in the union graph (floor)
    alpha_per_type: tuple[int, ...]  # per-type independent set sizes
    weighted_alpha: Fraction  # prior-weighted sum of per-type sizes (ceiling)
    achieved: Fraction | None  # optimal (or best-found) recovery value
    lower_certified: bool  # alpha_union is the exact independence number
    upper_certified: bool  # every per-type size is exact
    achieved_certified: bool  # achieved is the proven optimum


def _letter_cover(model: Model, type_id: int) -> int:
    """c_t: the smaller first-fit clique cover, in either order, of the letter graph S_t(1).

    Letters i != j are joined when D[i][j] + D[j][i] >= 0, with D[r][c] = table[r][c] -
    table[c][c] on the scaled integer table (r reported, c true), as in `_top_bit_masks`.
    Two length-n sequences joined at every position where they differ gain in at least
    one direction, so they are adjacent in the type's graph: S_t(1)'s strong power lies
    inside G_t(n), whose independence number is therefore at most c_t^n. An honest type's
    letter graph has no edge, and c_t = k.
    """
    _, table = model.scaled_utility[type_id]
    k = model.num_symbols
    adjacency = tuple(
        sum(1 << j for j in range(k) if j != i and row[j] + table[j][i] >= row[i] + table[j][j])
        for i, row in enumerate(table)
    )
    everyone = (1 << k) - 1
    return min(len(_cover_classes(adjacency, everyone, order)) for order in (False, True))


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

    Within the budget and past horizon 1, the one-letter numbers settle what they can
    first. A maximum one-letter independent set I gives I^n, independent at n (where two
    members differ, each letter loses both ways), so alpha(n) >= alpha(1)^n, while
    `_letter_cover` caps alpha(n) at c_t^n. A type with alpha(1) = c_t has alpha(1)^n, and
    the union, whose number is at most every type's, has alpha_U(1)^n when alpha_U(1) is
    the least c_t. A horizon-n graph is built and searched only for a number left open;
    an open union needs every type's graph, since it is their OR.
    """
    count = _check_pairs(model, n, enum_budget, "sender graph")  # k^n: one vertex per sequence
    certified = count <= mis_budget
    types = range(model.num_types)
    build = lambda t: build_sender_graph(model, t, n, enum_budget=enum_budget)
    if certified:
        alpha = lambda g: len(max_independent_set(g, mis_budget=mis_budget).members)
        per_type: list = [None] * model.num_types  # None: still open
        union_alpha = None
        if n > 1:
            one = finite_bounds(model, 1, mis_budget=mis_budget, enum_budget=enum_budget)
            covers = [_letter_cover(model, t) for t in types]
            per_type = [a**n if a == c else None for a, c in zip(one.alpha_per_type, covers)]
            if one.alpha_union == min(covers):
                union_alpha = one.alpha_union**n
        graphs = {t: build(t) for t in types if union_alpha is None or per_type[t] is None}
        for t, g in graphs.items():
            if per_type[t] is None:
                per_type[t] = alpha(g)
        if union_alpha is None:
            union = union_graph(list(graphs.values()))
            # A union with no edge beyond one type's graph has that type's number.
            same = [per_type[t] for t, g in graphs.items() if g.adjacency == union.adjacency]
            union_alpha = same[0] if same else alpha(union)
    else:
        graphs = list(map(build, types))
        everyone = (1 << count) - 1
        per_type = [len(_cover_classes(g.adjacency, everyone, False)) for g in graphs]
        union_alpha = len(max_independent_set(union_graph(graphs), mode="greedy").members)
    scale, weights = model.prior_weights
    weighted = Fraction(sum(map(mul, weights, per_type)), scale)

    achieved: Fraction | None = None
    achieved_certified = False
    if solve:
        if count <= subset_budget:
            achieved = solve_exact(  # the optimum alone: no maximizer is listed
                model, n, report_cap=0, subset_budget=subset_budget, enum_budget=enum_budget
            ).optimum
            achieved_certified = True
        else:
            achieved = solve_heuristic(model, n, enum_budget=enum_budget).optimum

    return RateBounds(
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
    picks their largest root and checks their supermultiplicativity. The
    best type is chosen among the types of positive prior: one of prior 0
    recovers nothing in the value, so its roots would be no floor. A best type
    whose one-letter number meets its letter cover has alpha(1)^h at every
    horizon h (see `finite_bounds`), and no graph past horizon 1 is built.
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
    a = alpha1[best_type]
    if a == _letter_cover(model, best_type):
        alphas = [a**h for h in range(1, n_max + 1)]
    else:
        alphas = [a]
        for h in range(2, n_max + 1):
            graph = build_sender_graph(model, best_type, h, enum_budget=enum_budget)
            alphas.append(len(max_independent_set(graph, mis_budget=mis_budget).members))
    return AsymptoticReport(
        alpha_per_type=alpha1,
        best_type=best_type,
        union_floor=one_letter.alpha_union,
        alphas=tuple(alphas),
    )
