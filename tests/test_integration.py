"""Cross-module integration tests tying the whole pipeline together."""

import random

import pytest

from repro.analysis import CensusStore, census_figure_series, deduplicate_up_to_isomorphism
from repro.core import (
    BilateralConnectionGame,
    UnilateralConnectionGame,
    best_response_dynamics_ucg,
    pairwise_dynamics_bcg,
    price_of_anarchy,
)
from repro.graphs import are_isomorphic, canonical_form, random_connected_graph


@pytest.fixture(scope="module")
def census5():
    return CensusStore.build(5)


class TestDynamicsAgainstCensus:
    """Networks reached by the dynamics must appear in the exhaustive census."""

    def test_bcg_dynamics_outcomes_are_in_the_stable_census(self, census5):
        alpha = 2.0
        stable_forms = {canonical_form(g) for g in census5.stable_graphs_bcg(alpha)}
        for seed in range(6):
            rng = random.Random(seed)
            start = random_connected_graph(5, 0.4, rng)
            outcome = pairwise_dynamics_bcg(5, alpha, initial=start, rng=rng)
            assert outcome.converged
            assert canonical_form(outcome.graph) in stable_forms

    def test_ucg_dynamics_outcomes_are_in_the_nash_census(self, census5):
        alpha = 3.0
        nash_forms = {canonical_form(g) for g in census5.nash_graphs_ucg(alpha)}
        for seed in range(6):
            outcome = best_response_dynamics_ucg(5, alpha, rng=random.Random(seed))
            assert outcome.converged
            assert canonical_form(outcome.graph) in nash_forms


class TestGameObjectsAgainstCensus:
    def test_game_filters_match_census(self, census5):
        alpha = 2.5
        bcg = BilateralConnectionGame(n=5, alpha=alpha)
        ucg = UnilateralConnectionGame(n=5, alpha=alpha)
        graphs = census5.graphs()
        assert {g.edge_key() for g in bcg.equilibrium_networks(graphs)} == {
            g.edge_key() for g in census5.stable_graphs_bcg(alpha)
        }
        assert {g.edge_key() for g in ucg.equilibrium_networks(graphs)} == {
            g.edge_key() for g in census5.nash_graphs_ucg(alpha)
        }

    def test_worst_case_poa_is_attained_by_a_census_graph(self, census5):
        alpha = 6.0
        stable = census5.stable_graphs_bcg(alpha)
        worst = census5.worst_price_of_anarchy(alpha, "bcg")
        assert any(
            price_of_anarchy(g, alpha, "bcg") == pytest.approx(worst) for g in stable
        )


class TestPaperStorySmallCensus:
    """The qualitative story of Section 5, end to end on the 5-vertex census."""

    def test_cheap_links_bcg_weakly_better_expensive_links_bcg_weakly_worse(self, census5):
        figure = census_figure_series(census5, "average_poa", [0.8, 1.2, 30.0, 50.0])
        cheap_gaps = [
            bcg.value - ucg.value
            for ucg, bcg in zip(figure.ucg.points[:2], figure.bcg.points[:2])
        ]
        expensive_gaps = [
            bcg.value - ucg.value
            for ucg, bcg in zip(figure.ucg.points[2:], figure.bcg.points[2:])
        ]
        assert all(gap <= 1e-9 for gap in cheap_gaps)
        assert all(gap >= -1e-9 for gap in expensive_gaps)

    def test_bcg_networks_carry_at_least_as_many_links(self, census5):
        figure = census_figure_series(census5, "average_links", [2.0, 6.0, 20.0])
        for ucg_point, bcg_point in zip(figure.ucg.points, figure.bcg.points):
            assert bcg_point.value >= ucg_point.value - 1e-9


class TestIsomorphismDeduplicationPipeline:
    def test_census_and_sampler_agree_on_representatives(self, census5):
        alpha = 2.0
        stable = census5.stable_graphs_bcg(alpha)
        duplicated = stable + [g.relabel(list(reversed(range(5)))) for g in stable]
        unique = deduplicate_up_to_isomorphism(duplicated)
        assert len(unique) == len(stable)
        for graph in unique:
            assert any(are_isomorphic(graph, other) for other in stable)
