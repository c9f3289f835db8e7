"""Unit tests for automorphism groups, orbits, and stability probes of graphs
that carry a canonical record."""

import random

import pytest

from repro.engine import DistanceOracle, batch_stability_deltas
from repro.graphs import (
    Graph,
    automorphism_count_brute_force,
    automorphism_generators,
    automorphism_group_order,
    canonical_graph,
    canonical_record,
    complete_graph,
    cycle_graph,
    edge_orbits,
    enumerate_connected_graphs,
    enumerate_graphs,
    nonedge_orbits,
    ordered_pair_orbits,
    path_graph,
    petersen_graph,
    random_graph,
    star_graph,
    vertex_orbits,
)


class TestGroupOrder:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_brute_force_on_all_graphs(self, n):
        for graph in enumerate_graphs(n):
            assert automorphism_group_order(graph) == automorphism_count_brute_force(
                graph
            ), sorted(graph.edges)

    def test_known_groups(self):
        assert automorphism_group_order(complete_graph(5)) == 120
        assert automorphism_group_order(cycle_graph(6)) == 12
        assert automorphism_group_order(path_graph(5)) == 2
        assert automorphism_group_order(star_graph(6)) == 120
        assert automorphism_group_order(petersen_graph()) == 120

    def test_huge_groups_never_materialised(self):
        # Orbit-stabilizer recursion: these orders (12! ≈ 4.8e8) would be
        # impossible to enumerate element by element.
        import math

        assert automorphism_group_order(star_graph(12)) == math.factorial(11)
        assert automorphism_group_order(complete_graph(12)) == math.factorial(12)

    def test_generators_are_automorphisms(self):
        for graph in (cycle_graph(7), petersen_graph(), star_graph(5)):
            edges = graph.edges
            for g in automorphism_generators(graph):
                mapped = {
                    (min(g[u], g[v]), max(g[u], g[v])) for u, v in edges
                }
                assert mapped == edges


class TestOrbits:
    def test_orbits_partition_their_domains(self):
        rng = random.Random(5)
        for _ in range(15):
            graph = random_graph(7, rng.uniform(0.2, 0.8), rng)
            assert sorted(v for orbit in vertex_orbits(graph) for v in orbit) == list(
                range(7)
            )
            assert sorted(e for orbit in edge_orbits(graph) for e in orbit) == sorted(
                graph.edges
            )
            assert sorted(
                e for orbit in nonedge_orbits(graph) for e in orbit
            ) == graph.non_edges()

    def test_vertex_transitive_graphs_have_one_orbit(self):
        for graph in (cycle_graph(5), complete_graph(6), petersen_graph()):
            assert len(vertex_orbits(graph)) == 1
        assert len(edge_orbits(cycle_graph(6))) == 1
        assert len(edge_orbits(petersen_graph())) == 1

    def test_star_orbits(self):
        star = star_graph(6)  # centre 0, five leaves
        orbits = vertex_orbits(star)
        assert [len(orbit) for orbit in orbits] == [1, 5]
        assert len(edge_orbits(star)) == 1
        assert len(nonedge_orbits(star)) == 1

    def test_orbit_size_multiset_is_isomorphism_invariant(self):
        rng = random.Random(9)
        for seed in range(10):
            graph = random_graph(7, 0.5, random.Random(seed))
            perm = list(range(7))
            rng.shuffle(perm)
            relabelled = graph.relabel(perm)
            assert sorted(len(o) for o in vertex_orbits(graph)) == sorted(
                len(o) for o in vertex_orbits(relabelled)
            )

    def test_ordered_pair_orbits_cover_all_pairs_and_respect_adjacency(self):
        graph = cycle_graph(6)
        orbits = ordered_pair_orbits(graph)
        pairs = sorted(p for orbit in orbits for p in orbit)
        assert pairs == [(u, v) for u in range(6) for v in range(6) if u != v]
        for orbit in orbits:
            adjacency = {graph.has_edge(u, v) for u, v in orbit}
            assert len(adjacency) == 1

    def test_orbit_stabilizer_consistency(self):
        # |orbit of v| * |stabiliser| = |group|; check via counting: the sum
        # over orbits of their size equals n, and each orbit size divides the
        # group order.
        for graph in (cycle_graph(6), star_graph(5), path_graph(6)):
            order = automorphism_group_order(graph)
            for orbit in vertex_orbits(graph):
                assert order % len(orbit) == 0


class TestCanonicalRecord:
    def test_memoised_per_instance(self):
        graph = cycle_graph(8)
        first = canonical_record(graph)
        assert canonical_record(graph) is first

    def test_canonical_graph_inherits_conjugated_record(self):
        graph = cycle_graph(7).relabel([3, 1, 4, 0, 2, 6, 5])
        canon = canonical_graph(graph)
        record = canon._canon
        assert record is not None
        assert record.ordering == tuple(range(7))
        assert automorphism_group_order(canon) == 14

    def test_pickling_strips_the_record(self):
        import pickle

        graph = cycle_graph(5)
        canonical_record(graph)
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert clone._canon is None


class TestOrbitPrunedProbes:
    """The Δ probes never depend on a memoised canonical record: instances
    with the graph's own record, with another graph's record and with none
    all equal the oracle's full probing."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_equal_to_full_probing_on_all_connected_graphs(self, n, delta_tables):
        # Enumerated classes carry their canonical records; the tensor path
        # must still equal the oracle's full probing on every one of them.
        graphs = enumerate_connected_graphs(n)
        oracle = DistanceOracle()
        assert delta_tables(graphs, batch_stability_deltas(graphs)) == [
            oracle.stability_deltas(graph) for graph in graphs
        ]

    def test_auto_mode_prunes_only_cached_records(self, delta_tables):
        # A fresh graph without a memoised record must not trigger a
        # canonical search, on the tensor path or the wide per-graph path ...
        for fresh in (cycle_graph(6), cycle_graph(64)):
            assert fresh._canon is None
            batch_stability_deltas([fresh])
            assert fresh._canon is None
        # ... and a memoised record leaves the wide path's values unchanged.
        memoised = cycle_graph(64)
        canonical_record(memoised)
        columns = batch_stability_deltas([memoised])
        assert delta_tables([memoised], columns) == [
            DistanceOracle().stability_deltas(cycle_graph(64))
        ]

    def test_disconnected_graphs(self, delta_tables):
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        # Two disjoint 32-cycles: wide and disconnected.
        two_cycles = Graph(
            64, [(base + i, base + (i + 1) % 32) for base in (0, 32) for i in range(32)]
        )
        for graph in (two_triangles, two_cycles):
            canonical_record(graph)
            columns = batch_stability_deltas([graph])
            assert delta_tables([graph], columns) == [
                DistanceOracle().stability_deltas(graph)
            ]

    def test_foreign_record_changes_nothing(self, delta_tables):
        # P_66 carrying C_66's record: the wide path must probe the path's
        # own edges, not the cycle's automorphism orbits.
        carrier = path_graph(66)
        carrier._canon = canonical_record(cycle_graph(66))
        columns = batch_stability_deltas([carrier])
        assert delta_tables([carrier], columns) == [
            DistanceOracle().stability_deltas(path_graph(66))
        ]
