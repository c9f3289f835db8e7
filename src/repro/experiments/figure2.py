"""Figure 2: average price of anarchy of equilibrium networks, UCG vs BCG.

The paper computes, for ten agents, every pairwise-stable network of the BCG
and every Nash network of the UCG by enumerating all connected topologies,
and plots the *average* price of anarchy of the two equilibrium sets against
the (log of the) link cost.  The qualitative findings are:

1. the average PoA of the BCG is *lower* than the UCG's when links are cheap;
2. the order reverses as links become expensive;
3. the average PoA rises for intermediate link costs because many suboptimal
   topologies join the stable set.

As documented in DESIGN.md we reproduce the exhaustive census at a smaller
player count (default 6, optionally 7) and add a dynamics-sampled census for
the paper's n = 10.  The claims above are about the *shape* of the curves and
are checked on the reproduced series.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.figure_series import FigureData, census_figure_series, sampled_figure_series
from ..analysis.report import format_figure
from ..analysis.sampling import sample_equilibria_over_grid
from ..analysis.store import cached_store
from ..analysis.sweeps import figure_cost_grid, log_spaced_alphas
from .base import ExperimentResult

#: Default number of players of the exhaustive census (paper: 10; see DESIGN.md).
DEFAULT_EXHAUSTIVE_N = 6


def exhaustive_census_source(n: int, jobs: Optional[int] = None):
    """The exhaustive equilibrium source for the figure experiments.

    The columnar :class:`~repro.analysis.store.CensusStore` (whole α-grids
    answered vectorised); the test suite asserts its answers
    element-for-element identical to the per-graph stability, Nash and
    price-of-anarchy references.
    """
    return cached_store(n, jobs=jobs)


def compute_figure2(
    n: int = DEFAULT_EXHAUSTIVE_N,
    total_edge_costs: Optional[Sequence[float]] = None,
    jobs: Optional[int] = None,
) -> FigureData:
    """The Figure 2 dataset from the exhaustive census on ``n`` players."""
    census = exhaustive_census_source(n, jobs=jobs)
    if total_edge_costs is None:
        total_edge_costs = figure_cost_grid(n, 22)
    return census_figure_series(census, "average_poa", total_edge_costs)


def compute_figure2_sampled(
    n: int = 10,
    total_edge_costs: Optional[Sequence[float]] = None,
    num_samples: int = 12,
    seed: int = 7,
    jobs: Optional[int] = None,
) -> FigureData:
    """The Figure 2 dataset from dynamics-sampled equilibria (paper-sized n)."""
    if total_edge_costs is None:
        total_edge_costs = log_spaced_alphas(0.5, float(n * n), 8)
    sampled = sample_equilibria_over_grid(
        n, total_edge_costs, num_samples=num_samples, seed=seed, jobs=jobs
    )
    return sampled_figure_series(n, "average_poa", sampled)


def _low_high_cost_comparison(figure: FigureData) -> tuple:
    """Average PoA gap (BCG - UCG) at the cheap and the expensive end of the grid."""
    def finite_pairs():
        for u, b in zip(figure.ucg.points, figure.bcg.points):
            if u.value == u.value and b.value == b.value:
                yield u, b

    pairs = list(finite_pairs())
    if not pairs:
        return float("nan"), float("nan")
    low_count = max(1, len(pairs) // 4)
    cheap = pairs[:low_count]
    expensive = pairs[-low_count:]
    cheap_gap = sum(b.value - u.value for u, b in cheap) / len(cheap)
    expensive_gap = sum(b.value - u.value for u, b in expensive) / len(expensive)
    return cheap_gap, expensive_gap


def run(
    n: int = DEFAULT_EXHAUSTIVE_N,
    include_sampled: bool = False,
    sampled_n: int = 10,
    jobs: Optional[int] = None,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """Run the Figure 2 reproduction and check the paper's qualitative claims.

    ``jobs`` parallelises the census build (and the sampled sweep when
    enabled); ``seed`` overrides the default seed of the sampled variant.
    """
    result = ExperimentResult(
        experiment_id="figure2",
        title="Figure 2 — average price of anarchy vs link cost (UCG vs BCG)",
    )
    result.notes.append(
        f"paper uses an exhaustive census on 10 agents; this exhaustive census uses "
        f"n = {n} (see DESIGN.md for the substitution rationale)"
    )
    figure = compute_figure2(n, jobs=jobs)
    cheap_gap, expensive_gap = _low_high_cost_comparison(figure)
    result.add_claim(
        description="BCG average PoA is no worse than UCG for cheap links",
        expected="average PoA(BCG) - average PoA(UCG) <= 0 at the low-cost end",
        observed=f"gap = {cheap_gap:+.4f}",
        passed=cheap_gap <= 1e-9,
    )
    result.add_claim(
        description="BCG average PoA is worse than UCG for expensive links",
        expected="average PoA(BCG) - average PoA(UCG) > 0 at the high-cost end",
        observed=f"gap = {expensive_gap:+.4f}",
        passed=expensive_gap > 0,
    )
    peak = max(v for v in figure.bcg.values() if v == v)
    ends = [figure.bcg.points[0].value, figure.bcg.points[-1].value]
    result.add_claim(
        description="average PoA peaks at intermediate link costs (BCG)",
        expected="interior maximum above both endpoints",
        observed=f"peak {peak:.4f} vs endpoints {ends[0]:.4f}, {ends[1]:.4f}",
        passed=peak > max(e for e in ends if e == e) - 1e-12,
    )
    result.tables.append(format_figure(figure, "Figure 2 (exhaustive census)"))

    if include_sampled:
        sampled_kwargs = {"jobs": jobs}
        if seed is not None:
            sampled_kwargs["seed"] = seed
        sampled_figure = compute_figure2_sampled(sampled_n, **sampled_kwargs)
        result.tables.append(
            format_figure(sampled_figure, f"Figure 2 (sampled, n = {sampled_n})")
        )
    return result
