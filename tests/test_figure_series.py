"""Unit tests for the Figure 2/3 data-series builders and text reports."""

import pytest

from repro.analysis import (
    CensusStore,
    census_figure_series,
    format_ascii_series,
    format_figure,
    format_table,
    sampled_figure_series,
)
from repro.graphs import cycle_graph, star_graph


@pytest.fixture(scope="module")
def census5():
    return CensusStore.build(5)


class TestCensusSeries:
    def test_series_alignment(self, census5):
        figure = census_figure_series(census5, "average_poa", [2.0, 8.0])
        assert [p.alpha for p in figure.ucg.points] == [2.0, 8.0]
        assert [p.alpha for p in figure.bcg.points] == [1.0, 4.0]
        assert figure.n == 5
        assert figure.quantity == "average_poa"

    def test_unaligned_series(self, census5):
        figure = census_figure_series(
            census5, "average_links", [2.0], align_per_edge_cost=False
        )
        assert figure.ucg.points[0].alpha == 2.0
        assert figure.bcg.points[0].alpha == 2.0

    def test_quantities(self, census5):
        for quantity in ("average_poa", "worst_poa", "average_links"):
            figure = census_figure_series(census5, quantity, [3.0])
            assert figure.quantity == quantity
            assert len(figure.ucg.points) == 1
        with pytest.raises(ValueError):
            census_figure_series(census5, "median_poa", [3.0])

    def test_point_row_and_series_accessors(self, census5):
        figure = census_figure_series(census5, "average_poa", [2.0, 4.0])
        assert len(figure.ucg.values()) == 2
        assert figure.bcg.alphas() == [1.0, 2.0]
        row = figure.ucg.points[0].as_row()
        assert len(row) == 4

    def test_default_grid(self, census5):
        figure = census_figure_series(census5, "average_poa")
        assert len(figure.ucg.points) > 10

    def test_crossover_detection(self, census5):
        figure = census_figure_series(census5, "average_poa")
        crossover = figure.crossover_cost()
        # On the 5-vertex census the BCG eventually becomes (weakly) worse.
        assert crossover is None or crossover > 0


class TestSampledSeries:
    def test_sampled_series_from_explicit_graphs(self):
        equilibria = {
            4.0: {"ucg": [star_graph(6)], "bcg": [star_graph(6), cycle_graph(6)]},
            16.0: {"ucg": [star_graph(6)], "bcg": [star_graph(6)]},
        }
        figure = sampled_figure_series(6, "average_links", equilibria)
        assert figure.bcg.points[0].value == pytest.approx((5 + 6) / 2)
        assert figure.ucg.points[1].num_equilibria == 1

    def test_sampled_series_handles_empty_sets(self):
        figure = sampled_figure_series(6, "average_poa", {4.0: {"ucg": [], "bcg": []}})
        assert figure.ucg.points[0].value != figure.ucg.points[0].value  # NaN

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            sampled_figure_series(6, "oops", {4.0: {"ucg": [], "bcg": []}})


class TestReports:
    def test_format_table_alignment(self):
        table = format_table(["a", "bbbb"], [[1, 2.34567], ["x", "y"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "2.346" in table

    def test_format_figure_contains_series(self, census5):
        figure = census_figure_series(census5, "average_poa", [2.0, 8.0])
        text = format_figure(figure, title="Figure 2 test")
        assert "Figure 2 test" in text
        assert "alpha_ucg" in text
        assert "population" in text

    def test_format_ascii_series(self):
        text = format_ascii_series([1.0, 2.0, float("nan"), 3.0], label="demo ")
        assert text.startswith("demo ")
        assert "?" in text
        assert "min=1" in text

    def test_format_ascii_series_all_nan(self):
        assert "no finite data" in format_ascii_series([float("nan")])
