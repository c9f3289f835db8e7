"""Link-cost grids and axis conventions shared by the figure experiments.

Figures 2 and 3 of the paper plot quantities against the *logarithm* of the
link cost, and align the two games by per-edge total cost: the x-axis shows
``log(α)`` for the UCG but ``log(2α)`` for the BCG (a BCG edge costs ``2α``
in total because both endpoints pay).  The helpers here produce the grids and
the per-game link costs corresponding to a common axis value.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from ..core.efficiency import _check_game
from ..engine import parallel_map

GridValue = TypeVar("GridValue")
GridResult = TypeVar("GridResult")


def log_spaced_alphas(
    minimum: float, maximum: float, count: int
) -> List[float]:
    """``count`` link costs spaced uniformly in log scale over ``[minimum, maximum]``."""
    if minimum <= 0 or maximum <= minimum:
        raise ValueError("need 0 < minimum < maximum")
    if count < 2:
        raise ValueError("need at least two grid points")
    log_lo, log_hi = math.log(minimum), math.log(maximum)
    step = (log_hi - log_lo) / (count - 1)
    return [math.exp(log_lo + k * step) for k in range(count)]


def linear_alphas(minimum: float, maximum: float, count: int) -> List[float]:
    """``count`` link costs spaced uniformly over ``[minimum, maximum]``."""
    if count < 2:
        raise ValueError("need at least two grid points")
    step = (maximum - minimum) / (count - 1)
    return [minimum + k * step for k in range(count)]


def default_alpha_grid(n: int, count: int = 24) -> List[float]:
    """The default grid used by the Figure 2/3 experiments.

    Spans from well below the ``α = 1`` efficiency threshold to ``n²`` (the
    paper notes all BCG equilibrium networks are trees for ``α > n²``), in
    log scale, so both the cheap-link and the expensive-link regimes of the
    figures are covered.
    """
    return log_spaced_alphas(0.2, float(n * n), count)


def figure_cost_grid(n: int, points: int) -> List[float]:
    """The total per-edge cost grid of ``census --grid`` and ``QueryAPI.figure``.

    ``max(2, points)`` costs, log-spaced over ``[0.4, 2n²]``: the BCG link
    costs of the aligned games then span ``[0.2, n²]``, the range of
    :func:`default_alpha_grid`.  An ``n < 1`` census has no such grid, and
    ``points < 1`` asks for none.
    """
    if n < 1:
        raise ValueError(f"an n = {n} census has no link-cost grid")
    if points < 1:
        raise ValueError(f"a grid needs at least one point, got {points}")
    return log_spaced_alphas(0.4, 2.0 * n * n, max(2, points))


def per_edge_cost_axis(alpha: float, game: str) -> float:
    """The paper's x-axis value for a given per-player link cost.

    ``log(α)`` in the UCG and ``log(2α)`` in the BCG, i.e. the logarithm of
    the *total* cost of building one edge.
    """
    per_edge = 2.0 if _check_game(game) == "bcg" else 1.0
    return math.log(per_edge * alpha)


def aligned_link_costs(total_edge_cost: float) -> Tuple[float, float]:
    """Per-player link costs ``(α_ucg, α_bcg)`` with the same total per-edge cost.

    A UCG edge costs ``α`` in total while a BCG edge costs ``2α``; aligning
    on total edge cost ``c`` therefore gives ``α_ucg = c`` and
    ``α_bcg = c / 2``.  This is the comparison the paper's figures make.
    """
    if total_edge_cost <= 0:
        raise ValueError("total edge cost must be positive")
    return total_edge_cost, total_edge_cost / 2.0


def aligned_cost_grid(n: int, count: int = 24) -> List[Tuple[float, float, float]]:
    """Grid of ``(total_edge_cost, α_ucg, α_bcg)`` triples for the figures."""
    grid = []
    for cost in figure_cost_grid(n, count):
        alpha_ucg, alpha_bcg = aligned_link_costs(cost)
        grid.append((cost, alpha_ucg, alpha_bcg))
    return grid


def map_over_grid(
    fn: Callable[[GridValue], GridResult],
    grid: Sequence[GridValue],
    jobs: Optional[int] = None,
) -> List[GridResult]:
    """Evaluate ``fn`` at every grid point, optionally over a process pool.

    Grid points (link costs, total edge costs, ...) are independent, so the
    sweep fans out through :func:`repro.engine.parallel_map`; results come
    back in grid order for any ``jobs`` value.  ``fn`` must be picklable
    (module-level) when ``jobs > 1``.
    """
    return parallel_map(fn, grid, jobs=jobs)
