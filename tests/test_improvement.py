"""Unit tests for the improvement dynamics / stochastic stability module."""

import numpy as np
import pytest

from repro.analysis import (
    build_improvement_graph,
    graph_to_mask,
    mask_to_graph,
    myopic_move,
    perturbed_transition_matrix,
    stationary_distribution,
    stochastic_stability_analysis,
)
from repro.core import is_pairwise_stable
from repro.graphs import Graph, complete_graph, cycle_graph, is_complete, is_empty, star_graph


class TestEncoding:
    def test_mask_round_trip(self):
        for graph in (complete_graph(4), star_graph(4), Graph(4), cycle_graph(4)):
            assert mask_to_graph(4, graph_to_mask(graph)) == graph

    def test_mask_values(self):
        assert graph_to_mask(Graph(3)) == 0
        assert graph_to_mask(complete_graph(3)) == 0b111


class TestMyopicMove:
    def test_adds_mutually_beneficial_link(self):
        # Two leaves of a star at α < 1 both gain 1 - α > 0 by linking.
        star = star_graph(4)
        moved = myopic_move(star, 1, 2, alpha=0.5)
        assert moved.has_edge(1, 2)

    def test_keeps_link_when_not_beneficial(self):
        star = star_graph(4)
        assert myopic_move(star, 1, 2, alpha=2.0) == star

    def test_severs_link_when_one_side_gains(self):
        triangle = complete_graph(3)
        moved = myopic_move(triangle, 0, 1, alpha=3.0)
        assert not moved.has_edge(0, 1)

    def test_never_severs_bridge(self):
        path = Graph(3, [(0, 1), (1, 2)])
        assert myopic_move(path, 0, 1, alpha=100.0) == path


class TestImprovementGraph:
    @pytest.fixture(scope="class")
    def improvement(self):
        return build_improvement_graph(4, alpha=1.5)

    def test_state_space_size(self, improvement):
        assert improvement.num_states == 2 ** 6
        assert len(improvement.successors) == improvement.num_states

    def test_sinks_are_exactly_the_pairwise_stable_networks(self, improvement):
        for state in range(improvement.num_states):
            graph = mask_to_graph(4, state, improvement.pairs)
            assert (not improvement.successors[state]) == is_pairwise_stable(graph, 1.5)

    def test_is_sink_helper(self, improvement):
        assert improvement.is_sink(star_graph(4))
        assert not improvement.is_sink(complete_graph(4))

    def test_sink_graphs_match_sinks(self, improvement):
        assert len(improvement.sink_graphs()) == len(improvement.sinks())

    def test_requires_positive_alpha(self):
        with pytest.raises(ValueError):
            build_improvement_graph(4, 0.0)


class TestPerturbedDynamics:
    def test_transition_matrix_is_stochastic(self):
        improvement = build_improvement_graph(4, alpha=1.5)
        matrix = perturbed_transition_matrix(improvement, epsilon=0.1)
        assert matrix.shape == (64, 64)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_epsilon_validation(self):
        improvement = build_improvement_graph(3, alpha=1.5)
        with pytest.raises(ValueError):
            perturbed_transition_matrix(improvement, epsilon=0.0)
        with pytest.raises(ValueError):
            perturbed_transition_matrix(improvement, epsilon=1.0)

    def test_stationary_distribution_sums_to_one(self):
        improvement = build_improvement_graph(4, alpha=1.5)
        matrix = perturbed_transition_matrix(improvement, epsilon=0.05)
        pi = stationary_distribution(matrix)
        assert pi.shape == (64,)
        assert np.isclose(pi.sum(), 1.0)
        assert np.all(pi >= 0)
        # Verify it really is stationary: π P ≈ π.
        assert np.allclose(pi @ matrix, pi, atol=1e-8)


class TestStochasticStability:
    def test_cheap_links_select_the_complete_graph(self):
        analysis = stochastic_stability_analysis(4, alpha=0.5, epsilon=0.05)
        assert is_complete(analysis.modal_graph)
        assert analysis.mass_on_sinks > 0.5

    def test_expensive_links_select_the_empty_network(self):
        analysis = stochastic_stability_analysis(4, alpha=3.0, epsilon=0.05)
        assert is_empty(analysis.modal_graph)

    def test_mass_by_class_sums_to_one(self):
        analysis = stochastic_stability_analysis(4, alpha=1.5, epsilon=0.05)
        assert sum(analysis.mass_by_canonical_class.values()) == pytest.approx(1.0)
        assert analysis.modal_class_mass() <= 1.0
