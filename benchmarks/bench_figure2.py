"""Benchmark: regenerate Figure 2 (average PoA vs link cost, UCG vs BCG).

The heavy step is building the exhaustive equilibrium census (one deviation
analysis per connected topology); producing the figure's series from a built
census is then nearly free, and both are measured separately.  The series'
qualitative shape — BCG better for cheap links, worse for expensive links —
is asserted inside the benchmarked function.
"""

from repro.analysis import CensusStore, census_figure_series
from repro.analysis.sweeps import log_spaced_alphas
from repro.experiments import figure2


def test_figure2_census_build(benchmark):
    """Cost of the exhaustive per-topology analysis (n = 5, both games)."""
    census = benchmark.pedantic(
        CensusStore.build, args=(5,), rounds=1, iterations=1
    )
    assert len(census) == 21


def test_figure2_series_from_store(benchmark, census6):
    """Cost of producing the Figure 2 series once the census store exists (n = 6)."""
    grid = log_spaced_alphas(0.4, 72.0, 22)
    figure = benchmark(census_figure_series, census6, "average_poa", grid)
    assert len(figure.bcg.points) == 22


def test_figure2_full_experiment(benchmark, census6):
    """End-to-end Figure 2 experiment including the claim checks (n = 6)."""
    result = benchmark.pedantic(figure2.run, rounds=1, iterations=1)
    assert result.all_passed


def test_figure2_sampled_ten_agents(benchmark):
    """Dynamics-sampled Figure 2 point at the paper's n = 10 (one cost value)."""
    figure = benchmark.pedantic(
        figure2.compute_figure2_sampled,
        kwargs={"n": 10, "total_edge_costs": [4.0], "num_samples": 4, "seed": 3},
        rounds=1,
        iterations=1,
    )
    assert figure.bcg.points[0].num_equilibria >= 1
    assert figure.ucg.points[0].num_equilibria >= 1
