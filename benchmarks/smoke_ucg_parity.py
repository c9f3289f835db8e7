"""CI smoke: vectorised UCG engine ≡ orientation backtracking, float-exactly.

Runs the batched UCG engine (:func:`repro.engine.ucg_alpha_sets`
and :func:`repro.engine.weighted_ucg_t_sets`) over **every** connected
isomorphism class up to ``--max-n`` vertices and asserts the resulting
α-interval sets are endpoint-for-endpoint float-identical to the per-graph
orientation backtracking references
(:func:`repro.core.unilateral.ucg_nash_alpha_set` /
:func:`repro.costmodels.stability.weighted_ucg_nash_t_set`).  Also pins the
degenerate conventions (edgeless → ``[(inf, inf)]``, disconnected with
edges → empty) and that a memoised canonical record never reaches an answer:
with class ``i`` of each ``n`` carrying class ``i + 1``'s record (wrapping
round), every α-set stays that of a fresh instance.

Run::

    PYTHONPATH=src python benchmarks/smoke_ucg_parity.py [--max-n 6]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.scenarios import build_scenario
from repro.core.unilateral import ucg_nash_alpha_set
from repro.costmodels.stability import weighted_ucg_nash_t_set
from repro.engine import ucg_alpha_sets, weighted_ucg_t_sets
from repro.graphs import Graph, empty_graph, enumerate_connected_graphs
from repro.graphs.isomorphism import canonical_record


def endpoints(interval_set):
    return [(iv.lo, iv.hi) for iv in interval_set.intervals]


def fresh(graph):
    """Same topology, new instance — no shared memo between the two paths."""
    return Graph(graph.n, graph.sorted_edges())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--weighted-n", type=int, default=5)
    args = parser.parse_args(argv)

    total = 0
    start = time.perf_counter()
    for n in range(1, args.max_n + 1):
        graphs = enumerate_connected_graphs(n)
        engine_sets = ucg_alpha_sets([fresh(g) for g in graphs])
        for graph, engine_set in zip(graphs, engine_sets):
            reference = ucg_nash_alpha_set(fresh(graph))
            assert endpoints(engine_set) == endpoints(reference), (
                f"scalar UCG divergence at n={n}: {graph.sorted_edges()} "
                f"engine={endpoints(engine_set)} reference={endpoints(reference)}"
            )
        swapped = [fresh(g) for g in graphs]
        for i, graph in enumerate(swapped):
            graph._canon = canonical_record(graphs[(i + 1) % len(graphs)])
        for graph, a, b in zip(graphs, engine_sets, ucg_alpha_sets(swapped)):
            assert endpoints(a) == endpoints(b), (
                f"another class's canonical record changed the α-set at "
                f"n={n}: {graph.sorted_edges()}"
            )
        total += len(graphs)
        print(f"scalar n={n}: {len(graphs)} classes float-exact")

    # Degenerate conventions the engine must reproduce, not repair.
    for n in (2, 4):
        (edgeless,) = ucg_alpha_sets([empty_graph(n)])
        assert endpoints(edgeless) == [(float("inf"), float("inf"))]
    (disconnected,) = ucg_alpha_sets([Graph(4, [(0, 1)])])
    assert endpoints(disconnected) == []

    n = args.weighted_n
    graphs = enumerate_connected_graphs(n)
    for name in ("random_weights", "two_tier_isp"):
        model = build_scenario(name, n, seed=2).model
        engine_sets = weighted_ucg_t_sets([fresh(g) for g in graphs], model)
        for graph, engine_set in zip(graphs, engine_sets):
            reference = weighted_ucg_nash_t_set(graph, model)
            assert endpoints(engine_set) == endpoints(reference), (
                f"weighted UCG divergence ({name}, n={n}): {graph.sorted_edges()}"
            )
        total += len(graphs)
        print(f"weighted {name} n={n}: {len(graphs)} classes float-exact")

    elapsed = time.perf_counter() - start
    print(f"OK: {total} interval sets engine ≡ backtracking in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
