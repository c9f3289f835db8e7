"""Unit tests for exhaustive graph enumeration up to isomorphism."""

import hashlib
import json
import os
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.graphs import (
    Graph,
    are_isomorphic,
    canonical_form,
    canonical_graph,
    canonical_record,
    class_sort_key,
    count_connected_graphs,
    count_graphs,
    count_trees,
    enumerate_connected_graphs,
    enumerate_graphs,
    enumerate_graphs_with_edge_count,
    enumerate_labeled_graphs,
    enumerate_trees,
    is_connected,
    is_tree,
    iter_connected_graphs,
    iter_graphs,
    iter_graphs_from,
)
from repro.graphs.enumeration import _subset_candidates, clear_cache
from repro.graphs.graph import iter_bits
from repro.graphs.isomorphism import _compute_record

PINS = json.loads(
    (Path(__file__).parent / "data" / "enumeration_pins.json").read_text()
)

# OEIS A000088: number of graphs on n unlabelled nodes.
GRAPH_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
# OEIS A001349: number of connected graphs on n unlabelled nodes.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
# OEIS A000055: number of trees with n unlabelled nodes.
TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
    11: 235, 12: 551,
}


@pytest.mark.parametrize("n,expected", sorted(GRAPH_COUNTS.items()))
def test_graph_counts_match_oeis(n, expected):
    assert count_graphs(n) == expected


@pytest.mark.parametrize("n,expected", sorted(CONNECTED_COUNTS.items()))
def test_connected_graph_counts_match_oeis(n, expected):
    assert count_connected_graphs(n) == expected


@pytest.mark.parametrize("n,expected", sorted(TREE_COUNTS.items()))
def test_tree_counts_match_oeis(n, expected):
    assert count_trees(n) == expected


def test_enumerated_graphs_are_pairwise_non_isomorphic():
    graphs = enumerate_graphs(5)
    forms = {canonical_form(g) for g in graphs}
    assert len(forms) == len(graphs)


def test_enumerated_connected_graphs_are_connected():
    assert all(is_connected(g) for g in enumerate_connected_graphs(6))


def test_enumerated_trees_are_trees():
    assert all(is_tree(t) for t in enumerate_trees(7))


def test_every_labeled_graph_has_a_representative():
    representatives = enumerate_graphs(4)
    for labelled in enumerate_labeled_graphs(4):
        assert any(are_isomorphic(labelled, rep) for rep in representatives)


def test_labeled_graph_count():
    assert sum(1 for _ in enumerate_labeled_graphs(4)) == 2 ** 6


def test_edge_count_filter():
    # Unlabelled graphs on 5 vertices with 4 edges: 6 of them.
    graphs = enumerate_graphs_with_edge_count(5, 4)
    assert len(graphs) == 6
    assert all(g.num_edges == 4 for g in graphs)


def test_enumeration_cache_survives_clear():
    clear_cache()
    first = enumerate_graphs(4)
    second = enumerate_graphs(4)
    assert [g.edge_key() for g in first] == [g.edge_key() for g in second]


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        enumerate_graphs(-1)
    with pytest.raises(ValueError):
        enumerate_trees(-1)
    with pytest.raises(ValueError):
        list(iter_graphs(-1))


def test_tree_cache_survives_clear():
    clear_cache()
    first = enumerate_trees(6)
    cached = enumerate_trees(6)
    assert [t.edge_key() for t in first] == [t.edge_key() for t in cached]
    clear_cache()
    cold = enumerate_trees(6)
    assert [t.edge_key() for t in first] == [t.edge_key() for t in cold]


class TestStreaming:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_streamed_classes_match_materialised(self, n):
        streamed = sorted(canonical_form(g) for g in iter_graphs(n))
        materialised = sorted(canonical_form(g) for g in enumerate_graphs(n))
        assert streamed == materialised

    def test_streamed_connected_filter(self):
        streamed = sorted(canonical_form(g) for g in iter_connected_graphs(6))
        materialised = sorted(
            canonical_form(g) for g in enumerate_connected_graphs(6)
        )
        assert streamed == materialised

    def test_streaming_yields_no_duplicates_cold(self):
        clear_cache()
        forms = [canonical_form(g) for g in iter_graphs(6)]
        assert len(forms) == len(set(forms)) == 156

    def test_sharded_subtrees_partition_the_level(self):
        # Every level-7 class must be generated below exactly one level-4 root.
        roots = enumerate_graphs(4)
        forms = [
            canonical_form(g)
            for root in roots
            for g in iter_graphs_from(root, 7)
        ]
        assert len(forms) == len(set(forms)) == 1044

    def test_iter_graphs_from_level_boundaries(self):
        roots = enumerate_graphs(3)
        assert [canonical_form(g) for root in roots for g in iter_graphs_from(root, 3)] == [
            canonical_form(root) for root in roots
        ]
        with pytest.raises(ValueError):
            list(iter_graphs_from(enumerate_graphs(4)[0], 3))


def _augment_dedup_level(parents: List[Graph]) -> List[Graph]:
    """One generation level by augment-and-deduplicate: the independent oracle.

    Every ``(parent, neighbourhood)`` candidate is canonicalised by the
    per-graph search and deduplicated through a global ``seen`` dictionary.
    """
    seen: Dict[Tuple[int, int], Graph] = {}
    for base in parents:
        n = base.n + 1
        for size in range(n):
            for neighborhood in combinations(range(n - 1), size):
                candidate = base.add_vertex(neighborhood)
                key = canonical_form(candidate)
                if key not in seen:
                    seen[key] = canonical_graph(candidate)
    return sorted(seen.values(), key=class_sort_key)


def test_canonical_augmentation_matches_augment_dedup():
    # The orderly generator must produce exactly the classes of
    # augment-and-deduplicate, in the same order.
    for n in (6, 7):
        legacy = _augment_dedup_level(enumerate_graphs(n - 1))
        assert [g.edge_key() for g in legacy] == [
            g.edge_key() for g in enumerate_graphs(n)
        ]


def _level_digest(graphs) -> str:
    """sha256 over each class's labelled edges, bits, orbit ids and group order."""
    digest = hashlib.sha256()
    for g in graphs:
        record = canonical_record(g)
        digest.update(
            repr(
                (g.edge_key(), record.bits, record.orbit_ids, record.group_order())
            ).encode()
        )
    return digest.hexdigest()


@pytest.mark.parametrize("n", range(9))
def test_enumeration_matches_pins(n):
    # Captured before the lock-step labelling replaced the per-candidate
    # search: every class, canonical bit, orbit and sort position is pinned.
    assert _level_digest(enumerate_graphs(n)) == PINS["levels"][str(n)]


@pytest.mark.skipif(
    not os.environ.get("REPRO_SLOW_TESTS"),
    reason="n=9 sweep takes ~20-60s; set REPRO_SLOW_TESTS=1 to run",
)
def test_oeis_counts_n9():
    # One streamed pass checks the counts and an order-independent digest of
    # every class's canonical bits and (canonically labelled) orbits.
    total = connected = 0
    entries = []
    for g in iter_graphs(9):
        total += 1
        connected += is_connected(g)
        record = canonical_record(canonical_graph(g))
        entries.append((record.bits, record.orbit_ids))
    entries.sort()
    digest = hashlib.sha256()
    for entry in entries:
        digest.update(repr(entry).encode())
    pin = PINS["stream"]["9"]
    assert total == pin["graphs"] == 274668  # A000088
    assert connected == pin["connected"] == 261080  # A001349
    assert digest.hexdigest() == pin["sha256"]


def _oracle_children(parent: Graph) -> List[Graph]:
    """Accepted children of ``parent`` by the per-graph canonical search."""
    n = parent.n
    children = []
    for mask in _subset_candidates(parent, canonical_record(parent)):
        child = parent.add_vertex(iter_bits(int(mask)))
        record = _compute_record(child)
        if record.orbit_ids[n] == record.orbit_ids[record.ordering[-1]]:
            child._canon = record
            children.append(canonical_graph(child))
    return children


def _signature(g: Graph):
    canon = canonical_graph(g)
    record = canonical_record(canon)
    return (canon.edge_key(), record.bits, record.orbit_ids, record.group_order())


@pytest.mark.parametrize(
    "root,level",
    [
        (Graph(9, [(i, i + 1) for i in range(8)]), 10),
        (Graph(10), 11),
        (Graph(10, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7)]), 11),
        (Graph(11, [(i, (i + 1) % 11) for i in range(11)]), 12),
        (Graph(11, [(0, v) for v in range(1, 11)] + [(1, 2), (3, 4)]), 12),
    ],
)
def test_wide_levels_match_per_graph_oracle(root, level):
    # Levels 10-12 need two-word leaf certificates (n = 12) and hit the
    # per-graph fallback (the empty and near-star roots).
    expected = [root]
    for _ in range(root.n, level):
        expected = [c for p in expected for c in _oracle_children(p)]
    streamed = list(iter_graphs_from(root, level))
    assert sorted(map(_signature, streamed)) == sorted(map(_signature, expected))


def test_class_sort_key_is_public_and_orders_enumerations():
    graphs = enumerate_graphs(5)
    keys = [class_sort_key(g) for g in graphs]
    assert keys == sorted(keys)
    # Edge count is the primary key, edge-list lexicographic order the tie-break.
    assert class_sort_key(graphs[0])[0] == 0
    assert class_sort_key(graphs[-1])[0] == 10
