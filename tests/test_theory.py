"""Unit tests for the closed-form theory oracle."""

import math

import pytest

from repro.core import theory
from repro.core import social_cost
from repro.graphs import complete_graph, cycle_graph, path_graph, star_graph, total_distance


class TestTotalDistanceFormulas:
    def test_complete_graph(self):
        for n in (3, 5, 8):
            assert theory.complete_graph_total_distance(n) == total_distance(complete_graph(n))

    def test_star(self):
        for n in (2, 4, 7):
            assert theory.star_total_distance(n) == total_distance(star_graph(n))
        assert theory.star_total_distance(1) == 0

    def test_cycle(self):
        for n in (3, 4, 5, 8, 9):
            assert theory.cycle_total_distance(n) == total_distance(cycle_graph(n))
        with pytest.raises(ValueError):
            theory.cycle_total_distance(2)

    def test_path(self):
        for n in (2, 5, 8):
            assert theory.path_total_distance(n) == total_distance(path_graph(n))


class TestSocialCostFormulas:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 7.0])
    def test_match_direct_computation(self, alpha):
        n = 7
        assert theory.star_social_cost(n, alpha, "bcg") == social_cost(star_graph(n), alpha, "bcg")
        assert theory.complete_graph_social_cost(n, alpha, "ucg") == social_cost(
            complete_graph(n), alpha, "ucg"
        )
        assert theory.cycle_social_cost(n, alpha, "bcg") == social_cost(
            cycle_graph(n), alpha, "bcg"
        )

    def test_degenerate_star(self):
        # A star on fewer than two players has no links and no pairs.
        assert theory.star_social_cost(0, 1.0) == 0.0
        assert theory.star_social_cost(1, 1.0, "ucg") == 0.0

    @pytest.mark.parametrize(
        "formula",
        ["star_social_cost", "complete_graph_social_cost", "cycle_social_cost"],
    )
    def test_unknown_game_is_refused(self, formula):
        with pytest.raises(ValueError, match="game must be 'bcg' or 'ucg'"):
            getattr(theory, formula)(4, 1.0, "foo")


class TestCycleWindow:
    def test_window_cases(self):
        # n ≡ 2 (mod 4)
        assert theory.cycle_stability_window(6) == ((36 - 24 + 4) / 8, 6 * 4 / 4)
        # n ≡ 0 (mod 4)
        assert theory.cycle_stability_window(8) == ((64 - 32 + 8) / 8, 8 * 6 / 4)
        # odd n
        assert theory.cycle_stability_window(9) == ((9 - 3) * (9 + 1) / 8, (9 + 1) * (9 - 1) / 4)
        with pytest.raises(ValueError):
            theory.cycle_stability_window(2)

    def test_window_scale_is_quadratic(self):
        lo_small, _ = theory.cycle_stability_window(8)
        lo_large, _ = theory.cycle_stability_window(16)
        assert lo_large / lo_small == pytest.approx((16 / 8) ** 2, rel=0.35)

    def test_cycle_poa_is_bounded(self):
        for n in (6, 10, 20, 40):
            lo, hi = theory.cycle_stability_window(n)
            assert theory.cycle_poa_is_constant(n, (lo + hi) / 2) < 2.0


class TestBoundShapes:
    def test_lower_bound_shape(self):
        assert theory.poa_lower_bound_shape(0.5) == 1.0
        assert theory.poa_lower_bound_shape(8.0) == pytest.approx(3.0)

    def test_upper_bound_shape(self):
        assert theory.poa_upper_bound_shape(9.0) == pytest.approx(3.0)
        assert theory.poa_upper_bound_shape(9.0, n=6) == pytest.approx(2.0)
        assert theory.poa_upper_bound_shape(4.0, n=100) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            theory.poa_upper_bound_shape(0.0)

    def test_moore_bound_reexport(self):
        assert theory.moore_bound_order(3, 2) == 10

    def test_proposition3_alpha_estimate(self):
        assert theory.proposition3_alpha_estimate(5) == 32.0

    def test_thresholds(self):
        assert theory.bcg_efficiency_threshold() == 1.0
        assert theory.ucg_efficiency_threshold() == 2.0
