from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from operator import or_
from pathlib import Path

import pytest

import screengame as sg
from screengame.graph import _class_floor, _cover_classes, _cover_conflicts, _swap_descent

from conftest import (
    X6,
    brute_alpha,
    first_fit_cover,
    make_random_model,
    model_pool,
    sequence_utility,
)


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
    assert len(sg.max_independent_set(g).members) == 3


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
                kernel = sg.preference_masks(m, t, n)
                assert sg.build_sender_graph(m, t, n).adjacency == tuple(map(or_, *kernel))
    assert honest >= 5


def test_deceptive_graphs_read_the_or_of_both_directions():
    # The graph extracts one OR of the two direction sums per vertex; it must
    # equal the OR of the two masks extracted apart, one- and multi-byte lanes.
    rng = random.Random(59)
    models = [make_random_model(rng, rng.randint(2, 4), rng.randint(1, 3)) for _ in range(40)]
    big = 10**9
    for den in (997, 2**40):
        utility = {
            lab: [[f"{rng.randint(-big, big)}/{rng.choice((1, den))}" for _ in range(3)]
                  for _ in range(3)]
            for lab in ("a", "b")
        }
        models.append(sg.Model.from_tables(["0", "1", "2"], ["a", "b"], [1, 0], utility))
    deceptive = wide = 0
    for m in models:
        for t in range(m.num_types):
            if sg.classify_type(m, t) == sg.HONEST:
                continue
            deceptive += 1
            _, table = m.scaled_utility[t]
            k = m.num_symbols
            wide += max(abs(table[r][c] - table[c][c]) for r in range(k) for c in range(k)) >= 2**8
            for n in range(1, 5):
                if m.num_symbols**n > 256:
                    break
                kernel = sg.preference_masks(m, t, n)
                assert sg.build_sender_graph(m, t, n).adjacency == tuple(map(or_, *kernel))
    assert deceptive >= 40 and wide >= 2


# Every type graph of model_pool(60) at every n with k^n <= 81 (528 graphs):
# their total edge count and a SHA-256 over their adjacency rows, each graph's
# rows written in decimal, joined by "," and ended by ";".
POOL_GRAPH_EDGES = 255600
POOL_GRAPH_SHA256 = "ff4df4d1848c332666b2c1158ad5a571dcdae6bf689f2c001d29b04e39cc750f"


def test_pool_sender_graphs_are_golden():
    digest = hashlib.sha256()
    graphs = edges = 0
    for m in model_pool(60):
        for t in range(m.num_types):
            n = 1
            while m.num_symbols**n <= 81:
                g = sg.build_sender_graph(m, t, n)
                digest.update(",".join(map(str, g.adjacency)).encode() + b";")
                graphs += 1
                edges += g.edge_count
                n += 1
    assert (graphs, edges, digest.hexdigest()) == (528, POOL_GRAPH_EDGES, POOL_GRAPH_SHA256)


def test_deceptive_two_letter_graph_is_complete(example):
    g = sg.build_sender_graph(example, 1, 2)
    assert g.vertex_count == 9
    # every one of the 36 pairs is adjacent, checked pair by pair
    for u, v in itertools.combinations(range(9), 2):
        assert g.adjacency[u] >> v & 1
    assert g.edge_count == 36
    result = sg.max_independent_set(g)
    assert len(result.members) == 1 and result.certified
    assert result.members == (0,)


def test_no_self_loops_and_symmetry():
    for m in model_pool(10, seed=41):
        g = sg.build_sender_graph(m, 0, 1)
        for v in range(g.vertex_count):
            assert not g.adjacency[v] >> v & 1
            for u in range(g.vertex_count):
                assert g.adjacency[u] >> v & 1 == g.adjacency[v] >> u & 1


def test_sender_graph_refuses_self_loops_and_rows_past_its_vertices():
    # The cover routines never return on a row holding its own bit, so the
    # constructor refuses one. Run in a child process under a timeout, so a
    # missing check fails here instead of hanging the suite.
    repro = """
import random
import screengame as sg
rng = random.Random(1)
refused = 0
for _ in range(200):
    adjacency = [0] * 20
    for u in range(20):
        for v in range(u + 1, 20):
            if rng.random() < 0.4:
                adjacency[u] |= 1 << v
                adjacency[v] |= 1 << u
    loop = rng.randrange(20)
    adjacency[loop] |= 1 << loop
    try:
        graph = sg.SenderGraph(1, tuple(adjacency), "loop")
    except ValueError:
        refused += 1
    else:
        sg.max_independent_set(graph)
try:
    sg.SenderGraph(1, (0b010, 0b011, 0), "x")
except ValueError:
    refused += 1
print(refused)
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sg.__file__))}
    done = subprocess.run(
        [sys.executable, "-c", repro], capture_output=True, text=True, timeout=60, env=env
    )
    assert (done.returncode, done.stdout) == (0, "201\n"), done.stderr
    for adjacency in ((0b100, 0), (0b10, -1), (0b10, 0b1, 0b1000)):
        with pytest.raises(ValueError, match="self-loop or a bit past the vertices"):
            sg.SenderGraph(1, adjacency, "x")
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="adjacency row 1"):
        dataclasses.replace(g, adjacency=(0b010, 0b111, 0b010))
    assert sg.SenderGraph(1, (), "empty").vertex_count == 0


def test_builders_skip_the_row_check_they_cannot_fail(example, monkeypatch):
    checked = []
    monkeypatch.setattr(sg.SenderGraph, "__post_init__", lambda g: checked.append(g.provenance))
    built = [sg.build_sender_graph(example, t, 2) for t in range(2)]
    union = sg.union_graph(built)
    assert checked == []
    assert (union.n, union.provenance, union._letters) == (2, "union", 3)
    assert union.adjacency == built[1].adjacency  # h's graph has no edge
    # Hand-built graphs and copies are still checked.
    sg.SenderGraph(1, (0,), "hand")
    dataclasses.replace(built[0], provenance="copy")
    assert checked == ["hand", "copy"]


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
    assert len(sg.max_independent_set(u).members) == 1


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
        union = len(sg.max_independent_set(sg.union_graph(graphs)).members)
        for g in graphs:
            assert union <= len(sg.max_independent_set(g).members)


def test_exact_independent_set_matches_bruteforce():
    for m in model_pool(30, seed=67):
        for t in range(m.num_types):
            for n in (1, 2):
                if m.num_symbols**n > 16:
                    continue
                g = sg.build_sender_graph(m, t, n)
                result = sg.max_independent_set(g)
                assert result.certified
                assert len(result.members) == brute_alpha(g)
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
        assert len(greedy.members) <= len(exact.members)
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
        a1 = len(sg.max_independent_set(sg.union_graph(graphs1)).members)
        for n in (2, 3):
            graphs = [sg.build_sender_graph(m, t, n) for t in range(m.num_types)]
            an = len(sg.max_independent_set(sg.union_graph(graphs)).members)
            assert an >= a1**n
        seen += 1
    assert seen >= 5


def test_supermultiplicative_growth_single_type():
    for m in model_pool(12, seed=83):
        if m.num_symbols > 3:
            continue
        t = m.num_types - 1
        a1 = len(sg.max_independent_set(sg.build_sender_graph(m, t, 1)).members)
        a2 = len(sg.max_independent_set(sg.build_sender_graph(m, t, 2)).members)
        a3 = len(sg.max_independent_set(sg.build_sender_graph(m, t, 3)).members)
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


def test_export_dot_refuses_a_label_count_other_than_the_vertex_count(example):
    # One label for three vertices wrote edges to v1 and v2 but no node line for them.
    g = sg.build_sender_graph(example, 1, 1)
    for labels in (["0"], ["0", "1", "2", "3"]):
        with pytest.raises(ValueError, match=f"{len(labels)} labels for 3 vertices"):
            sg.export_dot(g, labels)


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
        assert len(result.members) == brute_alpha(g)
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
                    assert len(_cover_classes(g.adjacency, cand, False)) == first_fit_cover(
                        g.adjacency, cand, up
                    )
                    assert len(_cover_classes(g.adjacency, cand, True)) == first_fit_cover(
                        g.adjacency, cand, reversed(up)
                    )
                alpha = len(sg.max_independent_set(g).members)
                assert len(_cover_classes(g.adjacency, full, False)) >= alpha
                assert len(_cover_classes(g.adjacency, full, True)) >= alpha


def test_search_node_count_is_golden():
    # Random(7) draws (3,2), (3,2), (4,2); the second model's type 1 at n=4
    # has 81 vertices, a greedy set of 4 and independence number 6. A union
    # of whole position classes reaches its cover of 6, so no node is searched.
    rng = random.Random(7)
    models = [make_random_model(rng, k, types) for k, types in ((3, 2), (3, 2), (4, 2))]
    g = sg.build_sender_graph(models[1], 1, 4)
    assert sg.max_independent_set(g, mode="greedy") == sg.IndependentSetResult(
        (53, 71, 77, 79), False, 0
    )
    result = sg.max_independent_set(g)
    assert (len(result.members), result.nodes) == (6, 0)
    assert sg.max_independent_set(g) == result
    # The third model's type 1 at n=3 (64 vertices, independence number 8)
    # still branches: its greedy set has 4 members and its class floor 3,
    # against a cover of 8.
    g = sg.build_sender_graph(models[2], 1, 3)
    result = sg.max_independent_set(g)
    assert (len(result.members), result.nodes) == (8, 25)
    assert sg.max_independent_set(g) == result


def test_propagation_cut_node_count_is_golden():
    # P156 at n=4: 81 vertices, independence number 32. The clique covers
    # alone leave 13 nodes; the propagation ceiling cuts it to 7.
    g = sg.build_sender_graph(model_pool()[156], 0, 4)
    result = sg.max_independent_set(g)
    assert (len(result.members), result.nodes) == (32, 7)


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
    assert sum(r.nodes for r in results) == 727
    assert sum(len(r.members) for r in results) == 2452
    # A graph settled with no node must carry its proof: an independent set
    # as large as a clique partition, here the reference first-fit one.
    settled = [(g, r) for g, r in zip(graphs, results) if not r.nodes]
    assert len(settled) == 608
    for g, result in settled:
        chosen = sum(1 << v for v in result.members)
        assert all(not g.adjacency[v] & chosen for v in result.members)
        full = (1 << g.vertex_count) - 1
        assert len(result.members) == first_fit_cover(
            g.adjacency, full, range(g.vertex_count)
        )


def test_edgeless_graphs_are_certified_without_the_search(example, monkeypatch):
    def unreachable(*args):
        raise AssertionError("an edgeless graph needs no greedy set, descent or cover")

    for name in ("_greedy_independent_set", "_swap_descent", "_cover_classes"):
        monkeypatch.setattr(f"screengame.graph.{name}", unreachable)
    honest = example.type_index("h")
    for n in range(1, 9):
        g = sg.build_sender_graph(example, honest, n, enum_budget=3 ** (2 * n))
        assert g.edge_count == 0
        result = sg.max_independent_set(g, mis_budget=3**n)
        assert result == sg.IndependentSetResult(tuple(range(3**n)), True, 0)


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
    assert (len(result.members), result.nodes) == (80, 171)
    for n in range(1, 11):
        g = sg.build_sender_graph(X6, 1, n, enum_budget=4**n)
        assert len(sg.max_independent_set(g, mis_budget=2**n).members) == math.comb(n, n // 2)


def marked_symmetric(g: sg.SenderGraph, k: int) -> sg.SenderGraph:
    """`g` marked as the builders mark theirs on k letters, so the search uses position symmetry."""
    object.__setattr__(g, "_letters", k)
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
    return marked_symmetric(
        sg.SenderGraph(n, graph_from_edges(len(words), edges).adjacency, "test"), k
    )


def test_orbital_search_matches_the_search_without_symmetry():
    # Relabelled as one-letter sequences, a graph is searched with the
    # trivial group, so it proves alpha without the position symmetry.
    # A set as large as a cover settles more than half the graphs before
    # either search starts, so the test counts the graphs both sides searched.
    rng = random.Random(113)
    graphs = [orbit_blowup(rng, *rng.choice(((3, 4), (2, 5)))) for _ in range(200)]
    for m in model_pool(100, seed=113):
        for n in (2, 3, 4):
            if m.num_symbols**n <= 81:
                types = [sg.build_sender_graph(m, t, n) for t in range(m.num_types)]
                graphs += types + [sg.union_graph(types)]
    searched = []
    for g in graphs:
        plain = sg.max_independent_set(sg.SenderGraph(1, g.adjacency, "test"))
        result = sg.max_independent_set(g)
        assert len(result.members) == len(plain.members)
        chosen = sum(1 << v for v in result.members)
        assert all(not g.adjacency[v] & chosen for v in result.members)
        searched.append(result.nodes > 0 and plain.nodes > 0)
    assert sum(searched[:200]) >= 60  # blow-ups
    assert sum(searched[200:]) >= 80  # pool graphs


def reducible(adjacency, cand: int) -> list[int]:
    """The search's reduction rule: candidates whose candidate neighbours are a clique of <= 2."""
    out = []
    for v in range(len(adjacency)):
        near = adjacency[v] & cand
        if cand >> v & 1 and (
            near.bit_count() <= 1
            or near.bit_count() == 2 and adjacency[near.bit_length() - 1] & near
        ):
            out.append(v)
    return out


def test_reductions_reach_one_fixpoint_in_any_order():
    # The exact search keeps each node's group only because the reductions
    # leave a union of its orbits. That holds since they are confluent: every
    # order of steps ends at one fixpoint, which each group element, mapping
    # orders onto orders, keeps. Small random graphs explore every order.
    rng = random.Random(127)
    forked = 0  # graphs where two steps from one set lead to different sets
    for _ in range(2000):
        count = rng.randint(3, 9)
        p = rng.choice((0.2, 0.4, 0.6))
        g = graph_from_edges(
            count, [e for e in itertools.combinations(range(count), 2) if rng.random() < p]
        )
        seen, todo, ends, fork = set(), [(1 << count) - 1], set(), False
        while todo:
            cand = todo.pop()
            if cand in seen:
                continue
            seen.add(cand)
            # each step drops the closed neighbourhood of the vertex it takes
            children = {cand & ~(g.adjacency[v] | 1 << v) for v in reducible(g.adjacency, cand)}
            if not children:
                ends.add(cand)
            todo += children
            fork |= len(children) > 1
        assert len(ends) == 1
        forked += fork
    assert forked == 1548
    # Sender graphs and unions take 10 seeded random orders at the root, and
    # the one fixpoint is a union of position orbits.
    graphs = reduced = 0
    for m in model_pool():
        for n in (2, 3, 4):
            if m.num_symbols**n > 81:
                continue
            words = list(itertools.product(range(m.num_symbols), repeat=n))
            index = {w: v for v, w in enumerate(words)}
            types = [sg.build_sender_graph(m, t, n) for t in range(m.num_types)]
            for g in types + [sg.union_graph(types)]:
                ends = set()
                for seed in range(10):
                    order = random.Random(seed)
                    cand = (1 << g.vertex_count) - 1
                    while steps := reducible(g.adjacency, cand):
                        v = order.choice(steps)
                        cand &= ~(g.adjacency[v] | 1 << v)
                    ends.add(cand)
                assert len(ends) == 1
                (end,) = ends
                for perm in itertools.permutations(range(n)):
                    image = [index[tuple(w[i] for i in perm)] for w in words]
                    assert sum(1 << image[v] for v in range(len(words)) if end >> v & 1) == end
                graphs += 1
                reduced += end.bit_count() < g.vertex_count
    assert (graphs, reduced) == (1599, 189)


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
        plain = sg.max_independent_set(sg.SenderGraph(1, adjacency, "test"))
        assert len(result.members) == len(plain.members)
        chosen = sum(1 << v for v in result.members)
        assert all(not adjacency[v] & chosen for v in result.members)


def test_only_graphs_from_the_builders_keep_position_symmetry():
    honest = sg.Model.from_tables(
        ["0", "1", "2", "3"], ["h"], ["1"], [[[int(r == x) for x in range(4)] for r in range(4)]]
    )
    built = sg.build_sender_graph(honest, 0, 2)  # 16 vertices, no edges
    # The mark is the alphabet size, and not a field: equality and repr ignore it.
    twin = sg.SenderGraph(2, built.adjacency, built.provenance)
    assert (built, repr(built)) == (twin, repr(twin))
    assert (built._letters, twin._letters, sg.union_graph([built, built])._letters) == (4, 0, 4)
    adjacencies = random_sixteen_vertex_adjacencies(200)
    # Searched by orbits, as if built, some of these graphs get a wrong alpha ...
    size = lambda g: len(sg.max_independent_set(g).members)
    plain = [size(sg.SenderGraph(1, a, "test")) for a in adjacencies]
    assert any(
        size(marked_symmetric(sg.SenderGraph(2, a, "test"), 4)) != alpha
        for a, alpha in zip(adjacencies, plain)
    )
    # ... so a union with a hand-built graph, or a copy with new edges, is searched plainly.
    for adjacency, alpha in zip(adjacencies, plain):
        union = sg.union_graph([built, sg.SenderGraph(2, adjacency, "test")])
        copy = dataclasses.replace(built, adjacency=adjacency)
        for g in (union, copy):
            assert (g.adjacency, g._letters) == (adjacency, 0)
            assert size(g) == alpha
    # A union of built graphs keeps the symmetry, and with it the P156 pin.
    g = sg.build_sender_graph(model_pool()[156], 0, 5)
    result = sg.max_independent_set(sg.union_graph([g, g]))
    assert (len(result.members), result.nodes) == (80, 171)
    assert sg.max_independent_set(dataclasses.replace(g)).nodes > 171


def position_classes(k: int, n: int) -> list[int]:
    """The masks of the k^n sequences grouped by their sorted letters, in first-seen order."""
    masks: dict[tuple, int] = {}
    for v, word in enumerate(itertools.product(range(k), repeat=n)):
        key = tuple(sorted(word))
        masks[key] = masks.get(key, 0) | 1 << v
    return list(masks.values())


def class_floor_cases(pool) -> list[tuple[sg.SenderGraph, int]]:
    """Each type graph and union of the pool at 2 <= n, k^n <= 81, and 40 blow-ups, with its floor."""
    graphs = []
    for m in pool:
        for n in (2, 3, 4):
            if m.num_symbols**n <= 81:
                types = [sg.build_sender_graph(m, t, n) for t in range(m.num_types)]
                graphs += types + [sg.union_graph(types)]
    rng = random.Random(131)
    graphs += [orbit_blowup(rng, *rng.choice(((3, 4), (2, 5)))) for _ in range(40)]
    return [(g, _class_floor(g.adjacency, position_classes(g._letters, g.n))) for g in graphs]


def test_class_floor_is_an_independent_union_of_whole_position_classes(pool):
    cases = class_floor_cases(pool)
    assert len(cases) == 1639
    for g, floor in cases:
        assert all(not g.adjacency[v] & floor for v in range(g.vertex_count) if floor >> v & 1)
        assert all(cls & floor in (0, cls) for cls in position_classes(g._letters, g.n))
    # Marked symmetric without being so, a graph may get a wrong alpha from the
    # orbital search, but the floor reads the rows, so every witness stays independent.
    for adjacency in random_sixteen_vertex_adjacencies(2000):
        floor = _class_floor(adjacency, position_classes(4, 2))
        assert all(not adjacency[v] & floor for v in range(16) if floor >> v & 1)
        result = sg.max_independent_set(marked_symmetric(sg.SenderGraph(2, adjacency, "test"), 4))
        chosen = sum(1 << v for v in result.members)
        assert all(not adjacency[v] & chosen for v in result.members)


def test_class_floor_is_at_most_the_independence_number(pool):
    nx = pytest.importorskip("networkx")  # an oracle only; the package never imports it
    alphas = {}
    for g, floor in class_floor_cases(pool):
        if g.adjacency not in alphas:
            h = nx.Graph()
            h.add_nodes_from(range(g.vertex_count))
            h.add_edges_from(g.edges())
            alphas[g.adjacency] = (
                nx.max_weight_clique(nx.complement(h), weight=None)[1] if g.edge_count else g.vertex_count
            )
        assert floor.bit_count() <= alphas[g.adjacency]


def test_class_floor_goldens_on_the_bounds_tail():
    # The bounds-pool graphs that set the benchmark's p90, at their stored n:
    # the class floor settles three at the root and cuts the others' search.
    path = Path(__file__).parent.parent / "perfbench" / "pool.json"
    pool = {entry["name"]: entry for entry in json.loads(path.read_text())["bounds"]}
    expected = {
        ("bounds-small-k5n3b1-3", "b"): (27, 1),
        ("bounds-small-k5n3b1-3", "union"): (6, 0),
        ("bounds-small-k5n3b0-34", "b"): (12, 1),
        ("bounds-small-k5n3b1-21", "b"): (12, 14),
        ("bounds-medium-k3n5b2-1", "a"): (96, 1),
    }
    got = {}
    for name, label in expected:
        entry = pool[name]
        m = sg.parse_model(json.dumps(entry["doc"]))
        types = [sg.build_sender_graph(m, t, entry["n"]) for t in range(m.num_types)]
        g = sg.union_graph(types) if label == "union" else types[m.type_index(label)]
        result = sg.max_independent_set(g)
        got[name, label] = (len(result.members), result.nodes)
    assert got == expected


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
                assert len(classes) == first_fit_cover(g.adjacency, cand, range(g.vertex_count))
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
    assert (len(result.members), result.nodes) == (600, 0)
    result = sg.max_independent_set(matching(2400), mis_budget=2400)
    assert len(result.members) == 1200
    assert result.members == tuple(range(0, 2400, 2))


def test_exact_engine_matches_networkx_on_boosted_sparse_graphs():
    nx = pytest.importorskip("networkx")  # an oracle only; the package never imports it
    # One type, payoffs in [-3, 3] plus a diagonal boost that sparsifies
    # the graph; seeds chosen so that networkx settles each in about a second,
    # and so that the search, not a set as large as a cover, settles three.
    nodes = []
    for seed in (0, 1, 15, 28):
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
        assert len(result.members) == expected
        chosen = sum(1 << v for v in result.members)
        assert all(not g.adjacency[v] & chosen for v in result.members)
        nodes.append(result.nodes)
    assert sum(map(bool, nodes)) >= 3 and max(nodes) > 1
