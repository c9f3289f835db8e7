"""Benchmark: regenerate Figure 3 (average number of links vs link cost).

Uses the shared n = 6 census fixture; asserts the paper's claim that the
BCG's equilibrium networks carry at least as many links as the UCG's on
average across the grid.
"""

from repro.analysis import census_figure_series
from repro.analysis.sweeps import log_spaced_alphas
from repro.experiments import figure3


def test_figure3_series_from_store(benchmark, census6):
    grid = log_spaced_alphas(0.4, 72.0, 22)
    figure = benchmark(census_figure_series, census6, "average_links", grid)
    gaps = [
        bcg.value - ucg.value
        for ucg, bcg in zip(figure.ucg.points, figure.bcg.points)
        if bcg.value == bcg.value and ucg.value == ucg.value
    ]
    assert sum(gaps) / len(gaps) > 0


def test_figure3_full_experiment(benchmark, census6):
    result = benchmark.pedantic(figure3.run, rounds=1, iterations=1)
    assert result.all_passed


def test_figure3_edge_histogram(benchmark, census6):
    """Edge-count histogram of the BCG stable set at an intermediate cost."""
    histogram = benchmark(census6.edge_count_histogram, 3.0, "bcg")
    assert sum(histogram.values()) == census6.equilibrium_count(3.0, "bcg")
