"""Tests for the weighted store's vectorised columns and sweeps.

Pins the acceptance contract of the heterogeneous-cost subsystem: with
``UniformCost`` the weighted store's masks and windows are **float-exactly**
the scalar-α census store's for every connected class up to ``n = 7``;
with heterogeneous models the store is decision-identical to the per-graph
``WeightedStabilityProfile`` reference loop.
"""

import numpy as np
import pytest

from repro.analysis.scenarios import build_scenario
from repro.analysis.weighted import weighted_python_sweep_bcg
from repro.analysis.weighted_store import WeightedStore
from repro.costmodels import UniformCost, weighted_stability_profile
from repro.graphs import enumerate_connected_graphs

TS = [0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 9.0, 20.0, 50.0]


class TestWeightedColumns:

    def test_column_layout_and_values(self):
        scenario = build_scenario("random_weights", 6, seed=1)
        store = WeightedStore.build(6, scenario.model)
        rem_counts = np.diff(store.rem_indptr).tolist()
        add_counts = np.diff(store.add_indptr).tolist()
        for i, graph in enumerate(store.graphs()):
            assert rem_counts[i] == 2 * graph.num_edges
            assert add_counts[i] == len(graph.non_edges())
            assert store.num_edges[i] == graph.num_edges
            # Values agree probe-for-probe with the per-graph profile.
            profile = weighted_stability_profile(graph, scenario.model)
            start = store.rem_indptr[i]
            for k, (u, v) in enumerate(graph.sorted_edges()):
                for off, endpoint in ((0, u), (1, v)):
                    w, delta = profile.removal[((u, v), endpoint)]
                    assert store.rem_w[start + 2 * k + off] == w
                    assert store.rem_delta[start + 2 * k + off] == delta
            start = store.add_indptr[i]
            for k, (u, v) in enumerate(graph.non_edges()):
                w_u, s_u = profile.addition[((u, v), u)]
                w_v, s_v = profile.addition[((u, v), v)]
                assert store.add_w_u[start + k] == w_u
                assert store.add_s_u[start + k] == s_u
                assert store.add_w_v[start + k] == w_v
                assert store.add_s_v[start + k] == s_v


class TestUniformMaskEquivalence:
    """Acceptance: uniform weights ⇒ float-exact scalar census masks, n ≤ 7."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_bcg_masks_equal_store_masks(self, n):
        from repro.analysis.store import CensusStore

        store = CensusStore.build(n, include_ucg=False)
        weighted = WeightedStore.build(n, UniformCost(1.0))
        assert np.array_equal(weighted.stable_mask(TS), store.stable_mask(TS, "bcg"))
        t_min, t_max = store.stability_windows()
        w_min, w_max = weighted.stability_windows()
        assert w_min.tolist() == t_min.tolist()
        assert w_max.tolist() == t_max.tolist()

    @pytest.mark.parametrize("n", [4, 5])
    def test_ucg_masks_equal_store_masks(self, n):
        from repro.analysis.store import CensusStore

        store = CensusStore.build(n, include_ucg=True)
        weighted = WeightedStore.build(n, UniformCost(1.0), include_ucg=True)
        assert np.array_equal(weighted.ucg_nash_mask(TS), store.stable_mask(TS, "ucg"))

    def test_counts_equal_store_counts(self):
        from repro.analysis.store import CensusStore

        store = CensusStore.build(6, include_ucg=False)
        weighted = WeightedStore.build(6, UniformCost(1.0))
        assert weighted.aggregates(TS)["bcg_counts"] == [
            int(c) for c in store.equilibrium_counts(TS, "bcg")
        ]


class TestHeterogeneousSweep:

    def test_vectorised_equals_python_loop(self):
        scenario = build_scenario("random_weights", 6, seed=9)
        store = WeightedStore.from_scenario(scenario)
        expected = weighted_python_sweep_bcg(
            enumerate_connected_graphs(6), scenario.model, TS
        )
        assert store.stable_mask(TS).tolist() == expected

    def test_windows_match_per_graph_profiles(self):
        scenario = build_scenario("two_tier_isp", 6)
        store = WeightedStore.from_scenario(scenario)
        t_min, t_max = store.stability_windows()
        for i, graph in enumerate(enumerate_connected_graphs(6)):
            profile = weighted_stability_profile(graph, scenario.model)
            assert t_min[i] == profile.t_min
            assert t_max[i] == profile.t_max

    def test_sweep_aggregates_are_consistent(self):
        scenario = build_scenario("hub_discounted", 5)
        store = WeightedStore.from_scenario(scenario, include_ucg=True)
        aggregates = store.aggregates(TS)
        counts = aggregates["bcg_counts"]
        assert len(counts) == len(TS) == len(aggregates["average_links"])
        for column, count in enumerate(counts):
            stable = store.stable_graphs_at(TS[column])
            assert len(stable) == count
            if count:
                assert aggregates["average_links"][column] == sum(
                    g.num_edges for g in stable
                ) / count
            else:
                links = aggregates["average_links"][column]
                assert links != links
        ucg_counts = store.ucg_nash_counts(TS)
        assert len(ucg_counts) == len(TS)
        assert all(0 <= c <= len(store) for c in ucg_counts)

    def test_ucg_sweep_matches_per_graph_t_sets(self):
        from repro.costmodels import weighted_ucg_nash_t_set

        scenario = build_scenario("random_weights", 4, seed=5)
        store = WeightedStore.from_scenario(scenario, include_ucg=True)
        mask = store.ucg_nash_mask(TS)
        for i, graph in enumerate(enumerate_connected_graphs(4)):
            t_set = weighted_ucg_nash_t_set(graph, scenario.model)
            for column, t in enumerate(TS):
                assert bool(mask[i][column]) == t_set.contains(t)

    def test_parallel_sweep_matches_serial(self):
        """UCG-inclusive builds fan out over workers without changing a bit."""
        scenario = build_scenario("random_weights", 5, seed=2)
        serial = WeightedStore.from_scenario(scenario, include_ucg=True)
        fanned = WeightedStore.from_scenario(scenario, include_ucg=True, jobs=2)
        assert fanned.content_checksum() == serial.content_checksum()
        assert fanned.stable_counts(TS) == serial.stable_counts(TS)
        assert fanned.ucg_nash_counts(TS) == serial.ucg_nash_counts(TS)


class TestKernelWeightGuards:
    """Regression: unvalidated coefficients used to NaN/inf silently."""

    ZERO = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    NEGATIVE = [[0.0, -1.0, 1.0], [-1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]

    def test_batch_weighted_columns_rejects_bad_matrices(self):
        """The check every weighted build runs (via
        ``CostModel.coefficient_matrix``) before any column is priced."""
        from repro.engine import validate_weight_matrix

        for matrix in (self.ZERO, self.NEGATIVE):
            with pytest.raises(ValueError, match="strictly positive"):
                validate_weight_matrix(matrix)
        with pytest.raises(ValueError, match="square"):
            validate_weight_matrix([[0.0, 1.0], [1.0, 0.0], [1.0]])
        with pytest.raises(ValueError, match="diagonal"):
            validate_weight_matrix([[1.0, 1.0, 1.0]] + self.ZERO[1:])

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
