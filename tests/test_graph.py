from __future__ import annotations

import dataclasses
import itertools
import math
import random
import time
from operator import or_

import pytest

import screengame as sg
from screengame.graph import _cover_classes, _cover_conflicts, _swap_descent, clique_cover_bound

from conftest import X6, brute_alpha, make_random_model, model_pool, sequence_utility


def graph_from_edges(count: int, edges) -> sg.SenderGraph:
    adjacency = [0] * count
    for u, v in edges:
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    return sg.SenderGraph(1, tuple(adjacency), "test")


def structured_graph(rng: random.Random) -> sg.SenderGraph:
    """Random core plus isolated, pendant, triangle and dominated vertices, relabelled.

    A triangle vertex is joined to both ends of an edge. A dominated vertex
    u is joined to a vertex v and to some of v's neighbours, so N[u] is
    inside N[v].
    """
    core = rng.randint(0, 10)
    p = rng.choice((0.1, 0.25, 0.5, 0.8))
    edges = {(u, v) for u, v in itertools.combinations(range(core), 2) if rng.random() < p}
    count = core
    for _ in range(rng.randint(0, 16 - core)):
        kind = rng.choice(("isolated", "pendant", "triangle", "dominated")) if count else "isolated"
        if kind == "pendant":
            edges.add((rng.randrange(count), count))
        elif kind == "triangle" and edges:
            u, v = rng.choice(sorted(edges))
            edges.update({(u, count), (v, count)})
        elif kind == "dominated":
            v = rng.randrange(count)
            edges.add((v, count))
            for w in range(count):
                if ((v, w) in edges or (w, v) in edges) and rng.random() < 0.5:
                    edges.add((w, count))
        count += 1
    order = list(range(count))
    rng.shuffle(order)
    return graph_from_edges(count, [(order[u], order[v]) for u, v in edges])


def first_fit_cover(adjacency, cand: int, order) -> int:
    """Reference: each vertex of `cand`, in `order`, joins the first clique it can."""
    classes: list[int] = []
    for v in order:
        if not cand >> v & 1:
            continue
        for i, cls in enumerate(classes):
            if adjacency[v] & cls == cls:
                classes[i] = cls | 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


def matching(count: int) -> sg.SenderGraph:
    return graph_from_edges(count, [(v, v + 1) for v in range(0, count, 2)])


def test_deceptive_one_letter_graph_is_a_triangle(example):
    g = sg.build_sender_graph(example, example.type_index("d"), 1)
    assert g.vertex_count == 3
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]
    assert g.provenance == "d"
    assert g.n == 1


def test_honest_one_letter_graph_is_empty(example):
    g = sg.build_sender_graph(example, example.type_index("h"), 1)
    assert g.edge_count == 0
    assert sg.max_independent_set(g).size == 3


def test_honest_types_skip_the_kernel_for_the_same_adjacency():
    rng = random.Random(53)
    honest = 0
    for _ in range(60):
        m = make_random_model(rng, rng.randint(2, 4), rng.randint(1, 3))
        for t in range(m.num_types):
            if sg.classify_type(m, t) != sg.HONEST:
                continue
            honest += 1
            for n in (1, 2, 3):
                kernel = sg.preference_masks(m, t, sg.enumerate_sequences(m, n))
                assert sg.build_sender_graph(m, t, n).adjacency == tuple(map(or_, *kernel))
    assert honest >= 5


def test_deceptive_two_letter_graph_is_complete(example):
    g = sg.build_sender_graph(example, 1, 2)
    assert g.vertex_count == 9
    # every one of the 36 pairs is adjacent, checked pair by pair
    for u, v in itertools.combinations(range(9), 2):
        assert g.adjacency[u] >> v & 1
    assert g.edge_count == 36
    result = sg.max_independent_set(g)
    assert result.size == 1 and result.certified
    assert result.members == (0,)


def test_no_self_loops_and_symmetry():
    for m in model_pool(10, seed=41):
        g = sg.build_sender_graph(m, 0, 1)
        for v in range(g.vertex_count):
            assert not g.adjacency[v] >> v & 1
            for u in range(g.vertex_count):
                assert g.adjacency[u] >> v & 1 == g.adjacency[v] >> u & 1


def test_edge_rule_matches_direct_average_comparison():
    # Recompute adjacencies from raw Fraction averages, the long way: every
    # pair on spaces of up to 9 sequences, 100 sampled pairs on 27 to 81.
    rng = random.Random(37)
    for m in model_pool(20, seed=23):
        for t in range(m.num_types):
            for n in range(1, 7):
                size = m.num_symbols**n
                if size > 81 or 9 < size < 27:
                    continue
                g = sg.build_sender_graph(m, t, n)
                seqs = sg.enumerate_sequences(m, n)
                if size <= 9:
                    pairs = itertools.combinations(range(size), 2)
                else:
                    pairs = (sorted(rng.sample(range(size), 2)) for _ in range(100))
                for i, j in pairs:
                    x, y = seqs[i], seqs[j]
                    expected = (
                        sequence_utility(m, t, x, x)
                        <= sequence_utility(m, t, y, x)
                    ) or (
                        sequence_utility(m, t, y, y)
                        <= sequence_utility(m, t, x, y)
                    )
                    assert g.adjacency[i] >> j & 1 == g.adjacency[j] >> i & 1 == expected


def test_union_is_edge_union(example):
    gh = sg.build_sender_graph(example, 0, 1)
    gd = sg.build_sender_graph(example, 1, 1)
    u = sg.union_graph([gh, gd])
    assert u.provenance == "union"
    assert u.edges() == gd.edges()
    assert u.vertex_count == gd.vertex_count
    assert sg.max_independent_set(u).size == 1


def test_union_requires_matching_spaces(example):
    g1 = sg.build_sender_graph(example, 0, 1)
    g2 = sg.build_sender_graph(example, 1, 2)
    with pytest.raises(ValueError):
        sg.union_graph([g1, g2])
    with pytest.raises(ValueError):
        sg.union_graph([])


def test_union_alpha_never_exceeds_member_alphas():
    for m in model_pool(30, seed=59):
        if m.num_types < 2:
            continue
        graphs = [sg.build_sender_graph(m, t, 1) for t in range(m.num_types)]
        union = sg.max_independent_set(sg.union_graph(graphs)).size
        for g in graphs:
            assert union <= sg.max_independent_set(g).size


def test_exact_independent_set_matches_bruteforce():
    for m in model_pool(30, seed=67):
        for t in range(m.num_types):
            for n in (1, 2):
                if m.num_symbols**n > 16:
                    continue
                g = sg.build_sender_graph(m, t, n)
                result = sg.max_independent_set(g)
                assert result.certified
                assert result.size == brute_alpha(g)
                assert result.size == len(result.members)
                for u, v in itertools.combinations(result.members, 2):
                    assert not g.adjacency[u] >> v & 1


def test_exact_search_is_deterministic():
    for m in model_pool(6, seed=71):
        g = sg.build_sender_graph(m, 0, 2)
        first = sg.max_independent_set(g)
        second = sg.max_independent_set(g)
        assert first == second


def test_greedy_is_maximal_but_uncertified():
    for m in model_pool(15, seed=73):
        g = sg.build_sender_graph(m, 0, 1)
        greedy = sg.max_independent_set(g, mode="greedy")
        exact = sg.max_independent_set(g)
        assert not greedy.certified
        assert greedy.size <= exact.size
        chosen = set(greedy.members)
        for u, v in itertools.combinations(greedy.members, 2):
            assert not g.adjacency[u] >> v & 1
        for v in range(g.vertex_count):
            if v not in chosen:
                assert any(g.adjacency[v] >> u & 1 for u in chosen)


def test_exact_budget_is_enforced(example):
    g = sg.build_sender_graph(example, 1, 2)
    with pytest.raises(sg.BudgetExceededError):
        sg.max_independent_set(g, mis_budget=8)
    with pytest.raises(ValueError):
        sg.max_independent_set(g, mode="simulated-annealing")


def test_product_construction_floor():
    # An independent set in the one-letter union powers up to any horizon.
    seen = 0
    for m in model_pool(30, seed=79):
        if m.num_symbols != 3:
            continue
        graphs1 = [sg.build_sender_graph(m, t, 1) for t in range(m.num_types)]
        a1 = sg.max_independent_set(sg.union_graph(graphs1)).size
        for n in (2, 3):
            graphs = [sg.build_sender_graph(m, t, n) for t in range(m.num_types)]
            an = sg.max_independent_set(sg.union_graph(graphs)).size
            assert an >= a1**n
        seen += 1
    assert seen >= 5


def test_supermultiplicative_growth_single_type():
    for m in model_pool(12, seed=83):
        if m.num_symbols > 3:
            continue
        t = m.num_types - 1
        a1 = sg.max_independent_set(sg.build_sender_graph(m, t, 1)).size
        a2 = sg.max_independent_set(sg.build_sender_graph(m, t, 2)).size
        a3 = sg.max_independent_set(sg.build_sender_graph(m, t, 3)).size
        assert a2 >= a1 * a1
        assert a3 >= a1 * a2


def test_export_dot_is_frozen_and_deterministic(example):
    g = sg.build_sender_graph(example, 1, 1)
    labels = ["0", "1", "2"]
    dot = sg.export_dot(g, labels)
    assert dot == (
        "graph sender_d_n1 {\n"
        '  v0 [label="0"];\n'
        '  v1 [label="1"];\n'
        '  v2 [label="2"];\n'
        "  v0 -- v1;\n"
        "  v0 -- v2;\n"
        "  v1 -- v2;\n"
        "}\n"
    )
    assert sg.export_dot(g, labels) == dot
    union = sg.union_graph(
        [sg.build_sender_graph(example, t, 1) for t in range(2)]
    )
    assert sg.export_dot(union, labels).startswith("graph sender_union_n1 {")


def test_export_dot_escapes_backslashes_and_quotes():
    labels = ['say "hi"', "back\\slash"]
    m = sg.Model.from_tables(labels, ["t"], {"t": 1}, {"t": [[1, 0], [0, 1]]})
    assert sg.export_dot(sg.build_sender_graph(m, 0, 1), labels) == (
        "graph sender_t_n1 {\n"
        '  v0 [label="say \\"hi\\""];\n'
        '  v1 [label="back\\\\slash"];\n'
        "}\n"
    )


def test_exact_engine_matches_bruteforce_on_structured_and_dense_graphs():
    rng = random.Random(89)
    graphs = [structured_graph(rng) for _ in range(240)]
    for _ in range(80):
        count = rng.randint(1, 16)
        p = rng.choice((0.6, 0.8, 0.95))
        graphs.append(
            graph_from_edges(
                count,
                [e for e in itertools.combinations(range(count), 2) if rng.random() < p],
            )
        )
    for g in graphs:
        result = sg.max_independent_set(g)
        assert result.certified
        assert result.size == len(result.members) == brute_alpha(g)
        chosen = sum(1 << v for v in result.members)
        assert all(not g.adjacency[v] & chosen for v in result.members)
        assert list(result.members) == sorted(set(result.members))


def test_clique_cover_bounds_are_first_fit_partitions():
    rng = random.Random(97)
    for m in model_pool(20, seed=101):
        for t in range(m.num_types):
            for n in (1, 2, 3):
                if m.num_symbols**n > 81:
                    continue
                g = sg.build_sender_graph(m, t, n)
                up = range(g.vertex_count)
                full = (1 << g.vertex_count) - 1
                for cand in (full, rng.getrandbits(g.vertex_count), 0):
                    assert clique_cover_bound(g.adjacency, cand) == first_fit_cover(
                        g.adjacency, cand, up
                    )
                    assert len(_cover_classes(g.adjacency, cand, True)) == first_fit_cover(
                        g.adjacency, cand, reversed(up)
                    )
                alpha = sg.max_independent_set(g).size
                assert clique_cover_bound(g.adjacency, full) >= alpha
                assert len(_cover_classes(g.adjacency, full, True)) >= alpha


def test_search_node_count_is_golden():
    # Random(7) draws (3,2), (3,2), (4,2); the second model's type 1 at n=4
    # has 81 vertices, a greedy set of 4 and independence number 6.
    rng = random.Random(7)
    m = [make_random_model(rng, k, types) for k, types in ((3, 2), (3, 2), (4, 2))][1]
    g = sg.build_sender_graph(m, 1, 4)
    assert sg.max_independent_set(g, mode="greedy") == sg.IndependentSetResult(
        (53, 71, 77, 79), 4, False, 0
    )
    result = sg.max_independent_set(g)
    assert (result.size, result.nodes) == (6, 23)
    assert sg.max_independent_set(g) == result


def test_propagation_cut_node_count_is_golden():
    # P156 at n=4: 81 vertices, independence number 32. The clique covers
    # alone leave 13 nodes; the propagation ceiling cuts it to 7.
    g = sg.build_sender_graph(model_pool()[156], 0, 4)
    result = sg.max_independent_set(g)
    assert (result.size, result.nodes) == (32, 7)


def test_search_node_and_alpha_totals_over_the_pool_are_golden():
    # Every type graph and union of model_pool(60) at n = 1..4 with k^n <= 81.
    graphs = []
    for m in model_pool(60):
        for n in range(1, 5):
            if m.num_symbols**n <= 81:
                types = [sg.build_sender_graph(m, t, n) for t in range(m.num_types)]
                graphs += types + [sg.union_graph(types)]
    results = [sg.max_independent_set(g) for g in graphs]
    assert len(graphs) == 666
    assert sum(r.nodes for r in results) == 1470
    assert sum(r.size for r in results) == 2452


def test_sender_graphs_and_unions_are_invariant_under_position_permutations():
    # Payoffs sum per letter, so permuting the positions of every sequence
    # maps each graph onto itself. The swap (0 1) and the cyclic shift
    # generate every permutation, and the exact search relies on all of them.
    for m in model_pool(60):
        for n in (2, 3):
            words = list(itertools.product(range(m.num_symbols), repeat=n))
            index = {w: v for v, w in enumerate(words)}
            graphs = [sg.build_sender_graph(m, t, n) for t in range(m.num_types)]
            graphs.append(sg.union_graph(graphs))
            for order in ((1, 0, *range(2, n)), (*range(1, n), 0)):
                image = [index[tuple(w[i] for i in order)] for w in words]
                for g in graphs:
                    for u, mask in enumerate(g.adjacency):
                        moved = sum(1 << image[v] for v in range(g.vertex_count) if mask >> v & 1)
                        assert g.adjacency[image[u]] == moved


def test_orbital_search_pins_p156_and_x6_central_binomials():
    g = sg.build_sender_graph(model_pool()[156], 0, 5)
    result = sg.max_independent_set(g)
    assert (result.size, result.nodes) == (80, 177)
    for n in range(1, 11):
        g = sg.build_sender_graph(X6, 1, n, enum_budget=4**n)
        assert sg.max_independent_set(g, mis_budget=2**n).size == math.comb(n, n // 2)


def marked_symmetric(g: sg.SenderGraph) -> sg.SenderGraph:
    """`g` marked as the builders mark theirs, so the exact search uses position symmetry."""
    object.__setattr__(g, "_symmetric", True)
    return g


def orbit_blowup(rng: random.Random, k: int, n: int) -> sg.SenderGraph:
    """A random graph on k^n sequences whose edges depend only on the letter multisets.

    It is invariant under permuting positions, and each orbit of the
    permutations is a clique or an independent set of twins, so the search
    meets pivots dominated from inside their own orbit. It is marked
    symmetric, so the search branches by orbits.
    """
    words = list(itertools.product(range(k), repeat=n))
    orbit = [tuple(sorted(w)) for w in words]
    p = rng.choice((0.2, 0.4, 0.6))
    joined = {}
    edges = []
    for u, v in itertools.combinations(range(len(words)), 2):
        pair = tuple(sorted((orbit[u], orbit[v])))
        if joined.setdefault(pair, rng.random() < p):
            edges.append((u, v))
    return marked_symmetric(sg.SenderGraph(n, graph_from_edges(len(words), edges).adjacency, "test"))


def test_orbital_search_matches_the_search_without_symmetry():
    # Relabelled as one-letter sequences, a graph is searched with the
    # trivial group, so it proves alpha without the position symmetry.
    rng = random.Random(113)
    graphs = [orbit_blowup(rng, *rng.choice(((3, 4), (2, 5)))) for _ in range(60)]
    for m in model_pool(80, seed=113):
        for n in (2, 3, 4):
            if m.num_symbols**n <= 81:
                types = [sg.build_sender_graph(m, t, n) for t in range(m.num_types)]
                graphs += types + [sg.union_graph(types)]
    for g in graphs:
        plain = sg.max_independent_set(sg.SenderGraph(1, g.adjacency, "test"))
        result = sg.max_independent_set(g)
        assert result.size == plain.size
        chosen = sum(1 << v for v in result.members)
        assert all(not g.adjacency[v] & chosen for v in result.members)


def random_sixteen_vertex_adjacencies(count: int) -> list[tuple[int, ...]]:
    """`count` random 16-vertex graphs from Random(5), each edge present with probability 0.3."""
    rng = random.Random(5)
    return [
        graph_from_edges(
            16, [e for e in itertools.combinations(range(16), 2) if rng.random() < 0.3]
        ).adjacency
        for _ in range(count)
    ]


def test_hand_built_graphs_are_searched_without_position_symmetry():
    # Labelled n = 2 over 16 = 4^2 vertices, these graphs are not invariant
    # under swapping the two positions; searched by orbits, some get a wrong
    # certified alpha. A hand-built graph must be searched plainly.
    for adjacency in random_sixteen_vertex_adjacencies(2000):
        result = sg.max_independent_set(sg.SenderGraph(2, adjacency, "test"))
        assert result.size == sg.max_independent_set(sg.SenderGraph(1, adjacency, "test")).size
        chosen = sum(1 << v for v in result.members)
        assert all(not adjacency[v] & chosen for v in result.members)


def test_only_graphs_from_the_builders_keep_position_symmetry():
    honest = sg.Model.from_tables(
        ["0", "1", "2", "3"], ["h"], ["1"], [[[int(r == x) for x in range(4)] for r in range(4)]]
    )
    built = sg.build_sender_graph(honest, 0, 2)  # 16 vertices, no edges
    # The mark is not a field: equality and repr ignore it.
    twin = sg.SenderGraph(2, built.adjacency, built.provenance)
    assert (built, repr(built)) == (twin, repr(twin))
    adjacencies = random_sixteen_vertex_adjacencies(200)
    # Searched by orbits, as if built, some of these graphs get a wrong alpha ...
    plain = [sg.max_independent_set(sg.SenderGraph(1, a, "test")).size for a in adjacencies]
    assert any(
        sg.max_independent_set(marked_symmetric(sg.SenderGraph(2, a, "test"))).size != alpha
        for a, alpha in zip(adjacencies, plain)
    )
    # ... so a union with a hand-built graph, or a copy with new edges, is searched plainly.
    for adjacency, alpha in zip(adjacencies, plain):
        union = sg.union_graph([built, sg.SenderGraph(2, adjacency, "test")])
        copy = dataclasses.replace(built, adjacency=adjacency)
        for g in (union, copy):
            assert g.adjacency == adjacency
            assert sg.max_independent_set(g).size == alpha
    # A union of built graphs keeps the symmetry, and with it the P156 pin.
    g = sg.build_sender_graph(model_pool()[156], 0, 5)
    result = sg.max_independent_set(sg.union_graph([g, g]))
    assert (result.size, result.nodes) == (80, 177)
    assert sg.max_independent_set(dataclasses.replace(g)).nodes > 177


def induced(adjacency, cand: int) -> sg.SenderGraph:
    """The subgraph on the vertices of `cand`, relabelled 0, 1, ... in id order."""
    kept = [v for v in range(len(adjacency)) if cand >> v & 1]
    pairs = itertools.combinations(enumerate(kept), 2)
    return graph_from_edges(len(kept), [(i, j) for (i, u), (j, v) in pairs if adjacency[u] >> v & 1])


def test_propagation_conflicts_lower_the_cover_ceiling():
    # An independent set meets each cover clique at most once and misses at
    # least one clique of each conflict, so alpha <= cliques - conflicts.
    rng = random.Random(103)
    fired = 0
    for trial in range(400):
        g = structured_graph(rng) if trial % 2 else graph_from_edges(
            count := rng.randint(1, 16),
            [e for e in itertools.combinations(range(count), 2) if rng.random() < rng.random()],
        )
        cand = rng.getrandbits(g.vertex_count) | rng.getrandbits(g.vertex_count)
        alpha = brute_alpha(induced(g.adjacency, cand))
        for descending in (False, True):
            classes = _cover_classes(g.adjacency, cand, descending)
            if not descending:
                assert len(classes) == clique_cover_bound(g.adjacency, cand)
            assert sum(classes) == cand  # disjoint, and covering every candidate
            for clique in classes:
                for v in range(g.vertex_count):
                    if clique >> v & 1:
                        assert (g.adjacency[v] | 1 << v) & clique == clique
            conflicts = _cover_conflicts(g.adjacency, classes, len(classes))
            fired += conflicts > 0
            assert alpha <= len(classes) - conflicts
    assert fired >= 50


def test_swap_descent_is_independent_maximal_and_no_smaller_than_its_start():
    # The path u - x - v started at {x}: one swap gives {u, v}.
    path = graph_from_edges(3, [(0, 1), (0, 2)])
    assert _swap_descent(path.adjacency, 0b001) == 0b110
    rng = random.Random(107)
    graphs = [structured_graph(rng) for _ in range(200)]
    for m in model_pool(20, seed=109):
        graphs += [sg.build_sender_graph(m, t, 3) for t in range(m.num_types)]
    for g in graphs:
        greedy = sum(1 << v for v in sg.max_independent_set(g, mode="greedy").members)
        for start in (greedy, 1 << rng.randrange(g.vertex_count)):
            chosen = _swap_descent(g.adjacency, start)
            assert chosen.bit_count() >= start.bit_count()
            tight = {}  # member -> the non-members whose only member neighbour it is
            for v in range(g.vertex_count):
                hits = g.adjacency[v] & chosen
                if chosen >> v & 1:
                    assert not hits  # independent
                else:
                    assert hits  # maximal
                    if hits.bit_count() == 1:
                        tight.setdefault(hits, []).append(v)
            for group in tight.values():  # no (1,2)-swap is left
                for u, v in itertools.combinations(group, 2):
                    assert g.adjacency[u] >> v & 1


def test_perfect_matchings_reduce_without_branching():
    start = time.perf_counter()
    result = sg.max_independent_set(matching(1200), mis_budget=1200)
    assert time.perf_counter() - start < 1.0
    assert (result.size, result.nodes) == (600, 1)
    result = sg.max_independent_set(matching(2400), mis_budget=2400)
    assert result.size == 1200
    assert result.members == tuple(range(0, 2400, 2))


def test_exact_engine_matches_networkx_on_boosted_sparse_graphs():
    nx = pytest.importorskip("networkx")  # an oracle only; the package never imports it
    # One type, payoffs in [-3, 3] plus a diagonal boost that sparsifies
    # the graph; seeds chosen so that networkx settles each in about a second.
    for seed in (0, 1, 28):
        rng = random.Random(seed)
        k, n = rng.choice([(3, 5), (4, 4), (2, 8)])
        boost = rng.randint(1, 3)
        utility = [
            [rng.randint(-3, 3) + (boost if i == j else 0) for j in range(k)]
            for i in range(k)
        ]
        m = sg.Model.from_tables([str(i) for i in range(k)], ["a"], {"a": 1}, {"a": utility})
        g = sg.build_sender_graph(m, 0, n)
        assert 243 <= g.vertex_count <= 256
        h = nx.Graph()
        h.add_nodes_from(range(g.vertex_count))
        h.add_edges_from(g.edges())
        expected = nx.max_weight_clique(nx.complement(h), weight=None)[1]
        result = sg.max_independent_set(g)
        assert result.size == expected
        chosen = sum(1 << v for v in result.members)
        assert all(not g.adjacency[v] & chosen for v in result.members)
