"""Data series behind Figures 2 and 3 of the paper.

Figure 2 plots the *average price of anarchy* of equilibrium networks and
Figure 3 the *average number of links*, for the UCG and the BCG, against the
link cost (on the aligned log axis described in :mod:`repro.analysis.sweeps`).
This module turns a columnar :class:`~repro.analysis.store.CensusStore` or
a sampled collection of equilibria into those series, as plain dataclasses
that the experiments and benchmarks render as text tables.  A store answers
the whole α-grid of both games with two ``grid_aggregates`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.anarchy import average_price_of_anarchy, worst_case_price_of_anarchy
from ..graphs import Graph
from .sweeps import aligned_link_costs, default_alpha_grid, per_edge_cost_axis


@dataclass
class SeriesPoint:
    """One point of a figure series."""

    alpha: float
    axis: float
    value: float
    num_equilibria: int

    def as_row(self) -> List[float]:
        """The point as a list (alpha, axis, value, count) for table rendering."""
        return [self.alpha, self.axis, self.value, float(self.num_equilibria)]


@dataclass
class FigureSeries:
    """A named series of (link cost, value) points for one game."""

    game: str
    quantity: str
    points: List[SeriesPoint] = field(default_factory=list)

    def values(self) -> List[float]:
        """The y-values of the series."""
        return [p.value for p in self.points]

    def alphas(self) -> List[float]:
        """The link costs of the series."""
        return [p.alpha for p in self.points]


@dataclass
class FigureData:
    """The full content of one of the paper's empirical figures."""

    n: int
    quantity: str
    ucg: FigureSeries
    bcg: FigureSeries
    description: str = ""

    def crossover_cost(self) -> Optional[float]:
        """Smallest total per-edge cost at which the UCG series beats the BCG series.

        For Figure 2 the paper reports that the BCG has the better (lower)
        average PoA when links are cheap and the worse one when links are
        expensive; the crossover summarises that shape in a single number.
        Returns ``None`` when the series never cross.
        """
        for ucg_point, bcg_point in zip(self.ucg.points, self.bcg.points):
            if _is_number(ucg_point.value) and _is_number(bcg_point.value):
                if bcg_point.value > ucg_point.value + 1e-12:
                    return ucg_point.alpha
        return None


def _is_number(x: float) -> bool:
    return x == x and x not in (float("inf"), float("-inf"))


def figure_to_payload(figure: FigureData) -> Dict[str, object]:
    """A :class:`FigureData` as a plain JSON-safe dict (service wire shape).

    The inverse of :func:`figure_from_payload`; round-tripping preserves
    every float bit-for-bit (Python's JSON encoder emits ``repr`` floats),
    so a figure rendered from the payload is byte-identical to one
    rendered from the original dataclass.
    """
    def series(s: FigureSeries) -> Dict[str, object]:
        return {
            "game": s.game,
            "quantity": s.quantity,
            "points": [
                {
                    "alpha": p.alpha,
                    "axis": p.axis,
                    "value": p.value,
                    "num_equilibria": p.num_equilibria,
                }
                for p in s.points
            ],
        }

    return {
        "n": figure.n,
        "quantity": figure.quantity,
        "description": figure.description,
        "ucg": series(figure.ucg),
        "bcg": series(figure.bcg),
    }


def figure_from_payload(payload: Dict[str, object]) -> FigureData:
    """Rebuild a :class:`FigureData` from a :func:`figure_to_payload` dict."""
    def series(entry: Dict[str, object]) -> FigureSeries:
        return FigureSeries(
            game=entry["game"],
            quantity=entry["quantity"],
            points=[
                SeriesPoint(
                    alpha=float(p["alpha"]),
                    axis=float(p["axis"]),
                    value=float(p["value"]),
                    num_equilibria=int(p["num_equilibria"]),
                )
                for p in entry["points"]
            ],
        )

    return FigureData(
        n=int(payload["n"]),
        quantity=payload["quantity"],
        ucg=series(payload["ucg"]),
        bcg=series(payload["bcg"]),
        description=payload.get("description", ""),
    )


# --------------------------------------------------------------------------- #
# Census-based (exhaustive) series
# --------------------------------------------------------------------------- #


def census_figure_series(
    store,
    quantity: str,
    total_edge_costs: Optional[Sequence[float]] = None,
    align_per_edge_cost: bool = True,
    aggregates=None,
) -> FigureData:
    """Compute a Figure 2/3-style dataset from an exhaustive census.

    Parameters
    ----------
    store:
        The :class:`~repro.analysis.store.CensusStore` (or anything with its
        ``n`` and ``grid_aggregates``).
    quantity:
        ``"average_poa"`` (Figure 2), ``"average_links"`` (Figure 3) or
        ``"worst_poa"`` (the worst-case PoA used by Proposition 4 checks).
    total_edge_costs:
        Grid of total per-edge costs; defaults to a log grid suited to the
        census size.
    align_per_edge_cost:
        When true (the paper's convention) the UCG is evaluated at
        ``α = cost`` and the BCG at ``α = cost / 2`` so that one x-value
        corresponds to the same total price of an edge in both games.  When
        false both games are evaluated at ``α = cost``.
    aggregates:
        Optional ``(alphas, game) -> grid-aggregates dict`` override for
        ``store.grid_aggregates``.  The service layer injects its batched
        :meth:`~repro.service.QueryAPI.grid_aggregates` here so concurrent
        figure requests coalesce into shared kernel calls; results are
        identical because the kernels are per-column independent.
    """
    if quantity not in ("average_poa", "worst_poa", "average_links"):
        raise ValueError(f"unknown quantity {quantity!r}")
    if total_edge_costs is None:
        total_edge_costs = default_alpha_grid(store.n)
    alphas_ucg: List[float] = []
    alphas_bcg: List[float] = []
    for cost in total_edge_costs:
        if align_per_edge_cost:
            alpha_ucg, alpha_bcg = aligned_link_costs(cost)
        else:
            alpha_ucg = alpha_bcg = cost
        alphas_ucg.append(alpha_ucg)
        alphas_bcg.append(alpha_bcg)
    if aggregates is None:
        aggregates = store.grid_aggregates
    ucg_series = FigureSeries(game="ucg", quantity=quantity)
    bcg_series = FigureSeries(game="bcg", quantity=quantity)
    for game, alphas, series in (
        ("ucg", alphas_ucg, ucg_series),
        ("bcg", alphas_bcg, bcg_series),
    ):
        grid = aggregates(alphas, game)
        values = grid[quantity]
        counts = grid["counts"]
        for alpha, value, count in zip(alphas, values, counts):
            series.points.append(
                SeriesPoint(
                    alpha=alpha,
                    axis=per_edge_cost_axis(alpha, game),
                    value=value,
                    num_equilibria=count,
                )
            )
    return FigureData(
        n=store.n,
        quantity=quantity,
        ucg=ucg_series,
        bcg=bcg_series,
        description=(
            f"exhaustive census of all connected topologies on {store.n} vertices"
        ),
    )


# --------------------------------------------------------------------------- #
# Sample-based series (for player counts beyond exhaustive reach)
# --------------------------------------------------------------------------- #


def sampled_figure_series(
    n: int,
    quantity: str,
    equilibria_by_cost: Dict[float, Dict[str, List[Graph]]],
) -> FigureData:
    """Build a Figure 2/3-style dataset from pre-sampled equilibrium networks.

    ``equilibria_by_cost[cost][game]`` must hold the sampled equilibrium
    graphs of ``game`` at total per-edge cost ``cost`` (the per-game α split
    is applied here, mirroring :func:`census_figure_series`).
    """
    ucg_series = FigureSeries(game="ucg", quantity=quantity)
    bcg_series = FigureSeries(game="bcg", quantity=quantity)
    for cost in sorted(equilibria_by_cost):
        alpha_ucg, alpha_bcg = aligned_link_costs(cost)
        by_game = equilibria_by_cost[cost]
        for game, alpha, series in (
            ("ucg", alpha_ucg, ucg_series),
            ("bcg", alpha_bcg, bcg_series),
        ):
            graphs = by_game.get(game, [])
            if quantity == "average_poa":
                value = average_price_of_anarchy(graphs, alpha, game)
            elif quantity == "worst_poa":
                value = worst_case_price_of_anarchy(graphs, alpha, game)
            elif quantity == "average_links":
                value = (
                    sum(g.num_edges for g in graphs) / len(graphs)
                    if graphs
                    else float("nan")
                )
            else:
                raise ValueError(f"unknown quantity {quantity!r}")
            series.points.append(
                SeriesPoint(
                    alpha=alpha,
                    axis=per_edge_cost_axis(alpha, game),
                    value=value,
                    num_equilibria=len(graphs),
                )
            )
    return FigureData(
        n=n,
        quantity=quantity,
        ucg=ucg_series,
        bcg=bcg_series,
        description=f"dynamics-sampled equilibria on {n} vertices",
    )
