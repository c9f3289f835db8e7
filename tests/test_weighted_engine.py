"""Tests for the weighted vectorised engine path and the weighted sweep.

Pins the acceptance contract of the heterogeneous-cost subsystem: with
``UniformCost`` the weighted columns, masks and windows are **float-exactly**
the scalar-α store path for every connected class up to ``n = 7``;
with heterogeneous models the vectorised path is decision-identical to the
per-graph ``WeightedStabilityProfile`` reference loop.
"""

import random

import numpy as np
import pytest

from repro.analysis.scenarios import build_scenario
from repro.analysis.weighted import (
    weighted_census,
    weighted_python_sweep_bcg,
    weighted_sweep,
    weighted_t_windows,
)
from repro.costmodels import UniformCost, weighted_stability_profile
from repro.graphs import Graph, enumerate_connected_graphs, random_connected_graph

TS = [0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 9.0, 20.0, 50.0]


class TestWeightedColumns:

    def test_column_layout_and_values(self):
        from repro.engine.batch import batch_weighted_columns

        rng = random.Random(3)
        graphs = [random_connected_graph(6, 0.5, rng) for _ in range(5)]
        scenario = build_scenario("random_weights", 6, seed=1)
        columns = batch_weighted_columns(graphs, scenario.model.matrix(6))
        rem_counts = np.diff(columns["rem_indptr"]).tolist()
        add_counts = np.diff(columns["add_indptr"]).tolist()
        for i, graph in enumerate(graphs):
            assert rem_counts[i] == 2 * graph.num_edges
            assert add_counts[i] == len(graph.non_edges())
            assert columns["num_edges"][i] == graph.num_edges
            # Values agree probe-for-probe with the per-graph profile.
            profile = weighted_stability_profile(graph, scenario.model)
            start = columns["rem_indptr"][i]
            for k, (u, v) in enumerate(graph.sorted_edges()):
                for off, endpoint in ((0, u), (1, v)):
                    w, delta = profile.removal[((u, v), endpoint)]
                    assert columns["rem_w"][start + 2 * k + off] == w
                    assert columns["rem_delta"][start + 2 * k + off] == delta
            start = columns["add_indptr"][i]
            for k, (u, v) in enumerate(graph.non_edges()):
                w_u, s_u = profile.addition[((u, v), u)]
                w_v, s_v = profile.addition[((u, v), v)]
                assert columns["add_w_u"][start + k] == w_u
                assert columns["add_s_u"][start + k] == s_u
                assert columns["add_w_v"][start + k] == w_v
                assert columns["add_s_v"][start + k] == s_v


class TestUniformMaskEquivalence:
    """Acceptance: uniform weights ⇒ float-exact scalar census masks, n ≤ 7."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_bcg_masks_equal_store_masks(self, n):
        from repro.analysis.store import CensusStore

        store = CensusStore.build(n, include_ucg=False)
        result = weighted_census(n, UniformCost(1.0), TS)
        assert np.array_equal(np.asarray(result.bcg_mask), store.stable_mask(TS, "bcg"))
        t_min, t_max = store.stability_windows()
        assert result.t_min == t_min.tolist()
        assert result.t_max == t_max.tolist()

    @pytest.mark.parametrize("n", [4, 5])
    def test_ucg_masks_equal_store_masks(self, n):
        from repro.analysis.store import CensusStore

        store = CensusStore.build(n, include_ucg=True)
        result = weighted_census(n, UniformCost(1.0), TS, include_ucg=True)
        assert np.array_equal(np.asarray(result.ucg_mask), store.stable_mask(TS, "ucg"))

    def test_counts_equal_store_counts(self):
        from repro.analysis.store import CensusStore

        store = CensusStore.build(6, include_ucg=False)
        result = weighted_census(6, UniformCost(1.0), TS)
        assert result.bcg_counts == [
            int(c) for c in store.equilibrium_counts(TS, "bcg")
        ]


class TestHeterogeneousSweep:

    def test_vectorised_equals_python_loop(self):
        scenario = build_scenario("random_weights", 6, seed=9)
        graphs = enumerate_connected_graphs(6)
        result = weighted_sweep(graphs, scenario.model, TS)
        expected = weighted_python_sweep_bcg(graphs, scenario.model, TS)
        assert [
            [bool(x) for x in row] for row in result.bcg_mask
        ] == expected

    def test_windows_match_per_graph_profiles(self):
        scenario = build_scenario("two_tier_isp", 6)
        graphs = enumerate_connected_graphs(6)[:40]
        t_min, t_max = weighted_t_windows(graphs, scenario.model)
        for i, graph in enumerate(graphs):
            profile = weighted_stability_profile(graph, scenario.model)
            assert t_min[i] == profile.t_min
            assert t_max[i] == profile.t_max

    def test_sweep_aggregates_are_consistent(self):
        scenario = build_scenario("hub_discounted", 5)
        result = weighted_sweep(
            enumerate_connected_graphs(5), scenario.model, TS, include_ucg=True
        )
        assert len(result.bcg_counts) == len(TS) == len(result.average_links)
        for column, count in enumerate(result.bcg_counts):
            stable = result.stable_graphs_at(column)
            assert len(stable) == count
            if count:
                assert result.average_links[column] == sum(
                    g.num_edges for g in stable
                ) / count
            else:
                assert result.average_links[column] != result.average_links[column]
        assert result.ucg_counts is not None
        assert all(0 <= c <= len(result.graphs) for c in result.ucg_counts)

    def test_ucg_sweep_matches_per_graph_t_sets(self):
        from repro.costmodels import weighted_ucg_nash_t_set

        scenario = build_scenario("random_weights", 4, seed=5)
        graphs = enumerate_connected_graphs(4)
        result = weighted_sweep(graphs, scenario.model, TS, include_ucg=True)
        for i, graph in enumerate(graphs):
            t_set = weighted_ucg_nash_t_set(graph, scenario.model)
            for column, t in enumerate(TS):
                assert bool(result.ucg_mask[i][column]) == t_set.contains(t)

    def test_parallel_sweep_matches_serial(self):
        scenario = build_scenario("random_weights", 4, seed=2)
        graphs = enumerate_connected_graphs(4)
        serial = weighted_sweep(graphs, scenario.model, TS, include_ucg=True)
        fanned = weighted_sweep(
            graphs, scenario.model, TS, include_ucg=True, jobs=2
        )
        assert serial.bcg_counts == fanned.bcg_counts
        assert serial.ucg_counts == fanned.ucg_counts

    def test_mixed_vertex_counts_rejected(self):
        with pytest.raises(ValueError):
            weighted_sweep(
                [Graph(4, [(0, 1)]), Graph(5, [(0, 1)])], UniformCost(1.0), TS
            )


class TestKernelWeightGuards:
    """Regression: unvalidated coefficients used to NaN/inf silently."""

    ZERO = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    NEGATIVE = [[0.0, -1.0, 1.0], [-1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]

    def test_batch_weighted_columns_rejects_bad_matrices(self):
        from repro.engine.batch import batch_weighted_columns

        graphs = enumerate_connected_graphs(3)
        for matrix in (self.ZERO, self.NEGATIVE):
            with pytest.raises(ValueError, match="strictly positive"):
                batch_weighted_columns(graphs, matrix)
        with pytest.raises(ValueError, match="square"):
            batch_weighted_columns(graphs, [[0.0, 1.0], [1.0, 0.0], [1.0]])
        with pytest.raises(ValueError, match="diagonal"):
            batch_weighted_columns(
                graphs, [[1.0, 1.0, 1.0]] + self.ZERO[1:]
            )

    def test_validate_weight_matrix_passthrough(self):
        from repro.engine import validate_weight_matrix

        good = [[0.0, 2.0], [0.5, 0.0]]  # asymmetric is fine (per-player)
        assert validate_weight_matrix(good) is good

    def test_window_kernel_rejects_bad_columns(self):
        """Hand-built columns with a zero weight raise instead of dividing."""
        from repro.engine.columnar import (
            weighted_bcg_stable_mask,
            weighted_stability_windows,
        )

        indptr = np.asarray([0, 2], dtype=np.int64)
        good = dict(
            rem_w=np.asarray([1.0, 1.0]),
            rem_delta=np.asarray([2.0, 3.0]),
            rem_indptr=indptr,
            add_w_u=np.asarray([1.0, 1.0]),
            add_s_u=np.asarray([1.0, 1.0]),
            add_w_v=np.asarray([1.0, 1.0]),
            add_s_v=np.asarray([1.0, 1.0]),
            add_indptr=indptr,
        )
        weighted_stability_windows(*good.values())  # sanity: valid columns pass
        for column in ("rem_w", "add_w_u", "add_w_v"):
            for bad_value in (0.0, -1.0, float("nan"), float("inf")):
                bad = dict(good)
                bad[column] = np.asarray([bad_value, 1.0])
                with pytest.raises(ValueError, match="strictly positive"):
                    weighted_stability_windows(*bad.values())
                with pytest.raises(ValueError, match="strictly positive"):
                    weighted_bcg_stable_mask(*bad.values(), [1.0])
