"""The lock-step canonical labelling equals the per-graph canonical search."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    canonical_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    petersen_graph,
    star_graph,
)
from repro.graphs import _lockstep
from repro.graphs.isomorphism import _compute_record, _schreier_order, _stable_colors


def _block(graphs):
    n = graphs[0].n
    adj = np.zeros((len(graphs), n, n), dtype=bool)
    for k, g in enumerate(graphs):
        for u, v in g.sorted_edges():
            adj[k, u, v] = adj[k, v, u] = True
    return adj


def _neighbors(g):
    return tuple(tuple(sorted(g.neighbors(v))) for v in range(g.n))


def _check_block(graphs):
    """Label ``graphs`` as one block and compare every graph with the oracle."""
    n = graphs[0].n
    adj = _block(graphs)
    colors, counts = _lockstep.stable_colors(adj)
    canon, positions, words = _lockstep.canonical_block(adj, colors, counts)
    for k, g in enumerate(graphs):
        stable = _stable_colors(_neighbors(g))
        assert colors[k].tolist() == stable
        assert counts[k] == len(set(stable))
        # A fresh copy, so the oracle is the per-graph search itself.
        oracle = canonical_graph(Graph(n, g.sorted_edges()))
        expected = oracle._canon
        got = canon[k]._canon
        assert canon[k].adjacency_rows() == oracle.adjacency_rows()
        assert got.bits == expected.bits == _compute_record(g).bits
        assert got.ordering == tuple(range(n))
        assert got.orbit_ids == expected.orbit_ids
        assert got.group_order() == expected.group_order()
        # The generators are automorphisms and generate the whole group.
        edges = canon[k].edges
        for h in got.generators:
            assert {tuple(sorted((h[u], h[v]))) for u, v in edges} == edges
        assert _schreier_order(n, got.generators) == expected.group_order()
        # positions[k, v] is vertex v's canonical label.
        assert g.relabel(positions[k].tolist()) == canon[k]
        bits = canon[k].adjacency_bitstring()
        assert [int(w) for w in words[k]] == [
            (bits >> (64 * w)) & ((1 << 64) - 1) for w in range(words.shape[1])
        ]


def _random_graph(rng, n, density):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [pair for pair in pairs if rng.random() < density])


@st.composite
def relabelled_graphs(draw):
    """A random graph on 1-12 vertices and a few random relabellings of it.

    Half the draws are disjoint unions of copies of one small graph, possibly
    complemented, so large automorphism groups (and the node budget) come up
    as often as rigid graphs do.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = draw(st.sampled_from([0.15, 0.3, 0.5, 0.7]))
    if draw(st.booleans()):
        graph = _random_graph(rng, draw(st.integers(min_value=1, max_value=12)), density)
    else:
        part = _random_graph(rng, draw(st.integers(min_value=1, max_value=4)), density)
        copies = draw(st.integers(min_value=2, max_value=max(2, 9 // part.n)))
        graph = Graph(
            part.n * copies,
            [(u + c * part.n, v + c * part.n) for c in range(copies) for u, v in part.sorted_edges()],
        )
        if draw(st.booleans()):
            graph = graph.complement()
    n = graph.n
    copies = [graph]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        perm = list(range(n))
        rng.shuffle(perm)
        copies.append(graph.relabel(perm))
    return copies


@settings(max_examples=150, deadline=None)
@given(relabelled_graphs())
def test_block_matches_per_graph_search(graphs):
    _check_block(graphs)


@pytest.mark.parametrize(
    "graph",
    [
        complete_graph(7),
        complete_graph(9),
        star_graph(8),
        star_graph(11),
        empty_graph(8),
        empty_graph(10),
        cycle_graph(8),
        cycle_graph(12),
        complete_bipartite_graph(3, 3),
        petersen_graph(),
    ],
    ids=["K7", "K9", "star8", "star11", "E8", "E10", "C8", "C12", "K33", "petersen"],
)
def test_named_graphs_match_per_graph_search(graph):
    # K_n, stars and empty graphs pass the node budget and take the pruned
    # per-graph search; the others run the lock-step search in full.
    rng = random.Random(graph.n)
    perm = list(range(graph.n))
    rng.shuffle(perm)
    _check_block([graph, graph.relabel(perm)])


def test_over_budget_graphs_take_the_per_graph_search():
    adj = _block([complete_graph(7), cycle_graph(7)])
    colors, counts = _lockstep.stable_colors(adj)
    _, _, over = _lockstep._search(adj, colors.copy(), counts.copy())
    assert over.tolist() == [True, False]


def test_mixed_block_keeps_graph_order():
    # One block holding graphs of very different search widths.
    rng = random.Random(5)
    pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    graphs = [complete_graph(8), cycle_graph(8), empty_graph(8)] + [
        Graph(8, [p for p in pairs if rng.random() < 0.4]) for _ in range(20)
    ]
    _check_block(graphs)


def test_orders_past_the_refinement_keys_run_per_graph():
    # n = 16 keys would overflow int64: every graph takes the per-graph search.
    rng = random.Random(16)
    graph = _random_graph(rng, 16, 0.3)
    perm = list(range(16))
    rng.shuffle(perm)
    _check_block([graph, graph.relabel(perm), cycle_graph(16)])
