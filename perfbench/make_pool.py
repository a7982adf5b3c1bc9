"""Regenerate perfbench/pool.json: the stored models and their references.

Run from the repository root:

    python3 perfbench/make_pool.py

The benchmark itself only reads pool.json. This script is the one place that
computes its references, each by a route independent of screengame:

- search optima by evaluating every nonempty questionnaire (oracle.brute_optimum);
- independence numbers as a maximum clique of the complement (networkx) or
  with an integer program over a clique cover (scipy.optimize.milp). A graph
  neither settles within REF_TIME_LIMIT_S gets null, and the benchmark leaves
  that value unchecked. scipy and networkx serve only as oracles here;
  nothing else imports them.

It also times each bounds instance once through `screengame.cli.main` at
the current commit, with a long deadline, and stores the time as
`measured_s`. The benchmark's class of an instance (`hang` or not) comes from
that measurement; the benchmark deadline sits far from every measured time.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import random
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402

POOL_SEED = 20261017
HANG_CHECK_S = 40.0  # an instance still running after this is classed as hanging
REF_TIME_LIMIT_S = 8.0  # per oracle route and graph
POOL_PATH = HERE / "pool.json"
WORK_DIR = HERE.parent / ".perfbench_work"  # temporary model files, removed after use


# ----------------------------------------------------------------------
# independence numbers (oracle route)


def reference_alpha(adjacency: list[int]) -> int | None:
    """Independence number, or None when neither oracle settles it in time.

    Dense graphs go to a maximum clique of the complement first, sparse ones
    to the integer program first; each route gets REF_TIME_LIMIT_S.
    """
    count = len(adjacency)
    edges = sum(mask.bit_count() for mask in adjacency) // 2
    if edges == 0:
        return count
    routes = [_alpha_by_clique, _alpha_by_milp]
    if edges * 2 < count * (count - 1) // 2:
        routes.reverse()
    for route in routes:
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_TIME_LIMIT_S)
        try:
            value = route(adjacency)
        except _Deadline:
            value = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if value is not None:
            return value
    return None


def _alpha_by_clique(adjacency: list[int]) -> int:
    """Maximum clique of the complement graph (networkx)."""
    import networkx as nx

    count = len(adjacency)
    complement = nx.Graph()
    complement.add_nodes_from(range(count))
    for u in range(count):
        rest = ~adjacency[u] & ((1 << count) - 1) & ~((1 << (u + 1)) - 1)
        while rest:
            v = (rest & -rest).bit_length() - 1
            complement.add_edge(u, v)
            rest &= rest - 1
    return int(nx.max_weight_clique(complement, weight=None)[1])


def _alpha_by_milp(adjacency: list[int]) -> int | None:
    """Integer program: at most one vertex from each clique of an edge cover."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    count = len(adjacency)
    cliques = clique_edge_cover(adjacency)
    rows = [i for i, clique in enumerate(cliques) for _ in clique]
    cols = [v for clique in cliques for v in clique]
    matrix = coo_matrix((np.ones(len(cols)), (rows, cols)), shape=(len(cliques), count))
    result = milp(
        -np.ones(count),
        constraints=LinearConstraint(matrix, -np.inf, 1),
        integrality=np.ones(count),
        bounds=Bounds(0, 1),
        options={"time_limit": REF_TIME_LIMIT_S},
    )
    if result.status != 0:
        return None
    return int(round(-result.fun))


def clique_edge_cover(adjacency: list[int]) -> list[list[int]]:
    """Cliques, grown greedily from uncovered edges, that together cover every edge."""
    uncovered = list(adjacency)
    cliques = []
    for u in range(len(adjacency)):
        while uncovered[u]:
            v = (uncovered[u] & -uncovered[u]).bit_length() - 1
            clique = 1 << u | 1 << v
            candidates = adjacency[u] & adjacency[v]
            while candidates:
                w = (candidates & -candidates).bit_length() - 1
                clique |= 1 << w
                candidates &= adjacency[w]
            members = [x for x in range(len(adjacency)) if clique >> x & 1]
            for x in members:
                uncovered[x] &= ~clique
            cliques.append(members)
    return cliques


def graph_refs(doc: dict, n: int) -> dict:
    graphs = [oracle.graph_adjacency(doc, t, n) for t in doc["types"]]
    union = oracle.union_adjacency(graphs)
    return {
        "vertices": len(union),
        "edges_per_type": [sum(m.bit_count() for m in g) // 2 for g in graphs],
        "alpha_per_type": [reference_alpha(g) for g in graphs],
        "alpha_union": reference_alpha(union),
    }


def asymptotic_refs(doc: dict, n_max: int) -> dict:
    one = graph_refs(doc, 1)
    alpha1 = one["alpha_per_type"]
    best = max(range(len(alpha1)), key=lambda t: (alpha1[t], -t))
    label = doc["types"][best]
    alphas = [reference_alpha(oracle.graph_adjacency(doc, label, h)) for h in range(1, n_max + 1)]
    return {
        "vertices": len(doc["alphabet"]) ** n_max,
        "alpha_per_type": alpha1,
        "union_floor": one["alpha_union"],
        "best_type": label,
        "alphas": alphas,
    }


# ----------------------------------------------------------------------
# timing at the current commit


class _Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise _Deadline


def time_instance(main, argv: list[str]) -> float | None:
    """Seconds one CLI call takes, or None past HANG_CHECK_S."""
    signal.signal(signal.SIGALRM, _alarm)
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, HANG_CHECK_S)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
    except _Deadline:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# pools

SEARCH_SHAPES = {
    # class: (alphabet size, length) shapes, base sequences = k ** n
    "small": [(2, 1), (3, 1), (2, 2), (4, 1), (2, 3), (3, 2), (8, 1), (9, 1)],
    "medium": [(12, 1), (13, 1)],
    "big": [(4, 2), (2, 4), (16, 1)],
}
SEARCH_PER_SHAPE = {"small": 6, "medium": 6, "big": 9}

BOUNDS_SHAPES = {
    # class: [(k, n, types, boosts)] drawn uniformly
    "small": [(4, 3), (2, 6), (3, 4), (5, 3)],
    "medium": [(3, 5), (4, 4), (2, 8)],
    "past_budget": [(3, 6), (5, 4)],
}
BOUNDS_COUNTS = {"small": 40, "medium": 36, "past_budget": 8}
ASYMPTOTIC_SHAPES = [(2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (4, 3), (4, 4)]
ASYMPTOTIC_COUNT = 28


def search_pool(rng: random.Random) -> list[dict]:
    out = []
    for cls, shapes in SEARCH_SHAPES.items():
        for k, n in shapes:
            for i in range(SEARCH_PER_SHAPE[cls]):
                doc = oracle.random_model(rng, k, 1 + i % 3)
                out.append(
                    {
                        "name": f"search-{cls}-k{k}n{n}-{i}",
                        "class": cls,
                        "doc": doc,
                        "n": n,
                        "optimum": str(oracle.brute_optimum(doc, n)),
                    }
                )
                print(out[-1]["name"], out[-1]["optimum"], flush=True)
    return out


def bounds_jobs(rng: random.Random) -> list[tuple]:
    jobs = []
    for cls, count in BOUNDS_COUNTS.items():
        for i in range(count):
            k, n = rng.choice(BOUNDS_SHAPES[cls])
            types = rng.randint(1, 2) if cls == "past_budget" else rng.randint(1, 3)
            boost = rng.randint(0, 3)
            name = f"bounds-{cls}-k{k}n{n}b{boost}-{i}"
            jobs.append((name, cls, "bounds", n, boost, oracle.random_model(rng, k, types, boost)))
    for i in range(ASYMPTOTIC_COUNT):
        k, n = rng.choice(ASYMPTOTIC_SHAPES)
        boost = rng.randint(0, 3)
        name = f"asymptotic-k{k}m{n}b{boost}-{i}"
        jobs.append((name, "asymptotic", "asymptotic", n, boost, oracle.random_model(rng, k, rng.randint(1, 3), boost)))
    return jobs


def bounds_entry(job: tuple) -> dict:
    """Time one bounds job at the current commit and compute its references."""
    name, cls, command, n, boost, doc = job
    sys.path.insert(0, str(HERE.parent / "src"))
    from screengame.cli import main as cli_main

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="pool-", dir=WORK_DIR) as tmp:
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        flag = "--n" if command == "bounds" else "--n-max"
        measured = time_instance(cli_main, [command, "--model", str(path), flag, str(n), "--format", "machine"])
    refs = graph_refs(doc, n) if command == "bounds" else asymptotic_refs(doc, n)
    entry = {
        "name": name,
        "class": cls,
        "command": command,
        "doc": doc,
        "n": n,
        "boost": boost,
        "measured_s": None if measured is None else round(measured, 4),
        **refs,
    }
    print(name, entry["measured_s"], refs.get("alpha_union", refs.get("alphas")), flush=True)
    return entry


def main() -> None:
    rng = random.Random(POOL_SEED)
    search = search_pool(rng)
    # Two workers: each job is single-threaded, and a time measured next to
    # the other worker errs on the slow side, away from the deadline.
    with multiprocessing.get_context("spawn").Pool(2) as workers:
        bounds = list(workers.imap(bounds_entry, bounds_jobs(rng), chunksize=1))
    pool = {
        "pool_seed": POOL_SEED,
        "hang_check_s": HANG_CHECK_S,
        "search": search,
        "bounds": bounds,
    }
    POOL_PATH.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
