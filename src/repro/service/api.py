"""The transport-free query layer of census-as-a-service.

:class:`QueryAPI` is the one surface through which presentation code — the
asyncio HTTP server, tests and benchmarks — asks questions of census,
weighted and delta artifacts.  It speaks artifact
**ids** (resolved by an :class:`~repro.service.catalog.ArtifactCatalog`)
and returns plain dicts, lists and ndarrays; it never renders tables, never
parses HTTP, and callers never touch store internals.

Every answer is produced by the same vectorised kernels the stores expose
directly, so responses are bit-identical to single-threaded direct kernel
calls — including when an attached
:class:`~repro.service.batching.GridBatcher` coalesces concurrent grid
requests into shared kernel calls (the kernels are per-column independent;
the batcher only merges and re-slices grids).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .. import obs
from .._version import __version__
from ..analysis.figure_series import census_figure_series, figure_to_payload
from ..analysis.report import summary_dict
from ..analysis.scenarios import available_scenarios, default_t_grid
from ..analysis.sweeps import figure_cost_grid
from ..core.efficiency import _check_game
from .batching import GridBatcher
from .catalog import ArtifactCatalog

__all__ = ["QueryAPI"]


def _tolist(values) -> list:
    """A JSON-safe list from an ndarray / list of numpy scalars."""
    if hasattr(values, "tolist"):
        return values.tolist()
    return [float(v) for v in values]


def _stats_payload(stats: Dict[str, object]) -> Dict[str, object]:
    """An ensemble stats dict with JSON-safe lists and string quantile keys."""
    payload = {
        key: _tolist(value)
        for key, value in stats.items()
        if key != "quantiles"
    }
    payload["quantiles"] = {
        str(q): _tolist(values) for q, values in stats["quantiles"].items()
    }
    return payload


class QueryAPI:
    """Layered query API over an artifact catalog.

    Parameters
    ----------
    catalog:
        The artifact I/O layer.  Defaults to an empty catalog that
        resolves bare filesystem paths on demand, as the CLI's ``--load``
        catalog does.
    batcher:
        Optional :class:`GridBatcher`.  When present, grid-shaped queries
        (masks, aggregates, weighted sweeps) are routed through it so
        concurrent requests against the same artifact coalesce; when
        absent every call computes immediately.  Results are identical
        either way.
    """

    def __init__(
        self,
        catalog: Optional[ArtifactCatalog] = None,
        batcher: Optional[GridBatcher] = None,
    ) -> None:
        self.catalog = catalog if catalog is not None else ArtifactCatalog()
        self.batcher = batcher

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def version(self) -> str:
        """The library version the service is running."""
        return __version__

    def artifacts(self) -> List[Dict[str, object]]:
        """The catalog listing as plain dicts (cheap; nothing is loaded)."""
        return [info.as_dict() for info in self.catalog.list()]

    def summary(self, ref: str) -> Dict[str, object]:
        """The machine-readable artifact summary (kind-tagged).

        The same shape :func:`repro.analysis.report.format_store_summary`
        renders, so the CLI table and the service JSON can never drift.
        """
        info, store = self.catalog.get(ref)
        return summary_dict(store, source=info.path)

    def verify(self, ref: str) -> Dict[str, object]:
        """The artifact's own audit (checksum + structural invariants)."""
        _info, store = self.catalog.get(ref)
        return store.verify()

    def stats(self) -> Dict[str, object]:
        """The process telemetry snapshot (metrics + spans + version)."""
        return obs.snapshot()

    # ------------------------------------------------------------------ #
    # Census (scalar-α) queries
    # ------------------------------------------------------------------ #

    def _batched(self, key, alphas, compute):
        if self.batcher is None:
            return compute([float(a) for a in alphas])
        return self.batcher.submit(key, alphas, compute)

    def grid_mask(self, ref: str, alphas: Sequence[float], game: str = "bcg"):
        """``bool[n_classes, n_alphas]`` equilibrium membership on a grid.

        ``game="bcg"`` is exact Definition 3 pairwise stability,
        ``game="ucg"`` Nash supportability — the store's own
        :meth:`~repro.analysis.store.CensusStore.stable_mask`.
        """
        info, store = self.catalog.get(ref, kind="census")
        return self._batched(
            (info.id, "census-mask", game),
            alphas,
            lambda merged: store.stable_mask(merged, game),
        )

    def grid_aggregates(
        self, ref: str, alphas: Sequence[float], game: str = "bcg"
    ) -> Dict[str, list]:
        """Whole-grid Figure 2/3 aggregates (counts, PoA, link counts)."""
        info, store = self.catalog.get(ref, kind="census")
        return self._aggregates(info, store, alphas, game)

    def _aggregates(self, info, store, alphas, game: str) -> Dict[str, list]:
        result = self._batched(
            (info.id, "census-agg", game),
            alphas,
            lambda merged: store.grid_aggregates(merged, game),
        )
        result = dict(result)
        result["alphas"] = [float(a) for a in alphas]
        result["game"] = game
        return result

    def figure(
        self, ref: str, quantity: str = "average_poa", points: int = 24
    ) -> Dict[str, object]:
        """The ``census --grid`` figure series as a plain payload.

        Replicates the CLI path exactly: the same
        :func:`~repro.analysis.sweeps.figure_cost_grid`, the same
        :func:`~repro.analysis.figure_series.census_figure_series`
        construction — with the aggregates routed through the batcher, so
        concurrent figure requests share kernel calls without changing a
        single output element.  The artifact is resolved once for both
        games.
        """
        info, store = self.catalog.get(ref, kind="census")
        costs = figure_cost_grid(store.n, points)
        figure = census_figure_series(
            store,
            quantity,
            costs,
            aggregates=lambda alphas, game: self._aggregates(
                info, store, alphas, game
            ),
        )
        payload = figure_to_payload(figure)
        payload["points"] = len(costs)
        return payload

    def windows(self, ref: str, game: str = "bcg") -> Dict[str, object]:
        """Per-class stability windows of a census or weighted artifact.

        Census artifacts answer the BCG Lemma 2 ``(α_min, α_max)`` pairs;
        weighted artifacts answer the scale-grid twin ``(t_min, t_max)``
        (``game="ucg"`` for the UCG supportability hulls where the
        artifact carries UCG columns).  Any other ``game`` is a
        :class:`ValueError`, as in :meth:`grid_aggregates`.
        """
        info, store = self.catalog.get(ref)
        if info.kind == "census":
            if game != "bcg":
                raise ValueError(
                    "census artifacts answer BCG windows; use grid_mask "
                    "with game='ucg' for UCG membership"
                )
            lo, hi = store.stability_windows()
            axis = "alpha"
        elif info.kind == "weighted":
            game = _check_game(game)
            if game == "ucg":
                lo, hi = store.ucg_windows()
            else:
                lo, hi = store.stability_windows()
            axis = "t"
        else:
            raise ValueError(
                "delta artifacts are model-free; query windows through a "
                "census or weighted artifact"
            )
        return {
            "kind": info.kind,
            "game": game,
            "classes": len(store),
            f"{axis}_min": _tolist(lo),
            f"{axis}_max": _tolist(hi),
        }

    # ------------------------------------------------------------------ #
    # Weighted (scenario) queries
    # ------------------------------------------------------------------ #

    def weighted_grid(
        self,
        ref: str,
        ts: Optional[Sequence[float]] = None,
        points: int = 8,
        ucg: bool = False,
    ) -> Dict[str, object]:
        """The ``scenarios`` sweep table as a plain payload.

        Stable counts, average links and average social cost per scale
        grid point — :meth:`WeightedStore.aggregates
        <repro.analysis.weighted_store.WeightedStore.aggregates>`, the same
        numbers ``scenarios`` prints — plus the UCG Nash
        counts when ``ucg`` is requested and the artifact carries the
        columns.
        """
        info, store = self.catalog.get(ref, kind="weighted")
        if ts is None:
            ts = default_t_grid(store.n, points)
        result = self._batched(
            (info.id, "weighted-agg"),
            ts,
            lambda merged: store.aggregates(merged),
        )
        result = dict(result)
        if ucg:
            counts = self._batched(
                (info.id, "weighted-ucg"),
                ts,
                lambda merged: {"ucg_counts": store.ucg_nash_counts(merged)},
            )
            result["ucg_counts"] = counts["ucg_counts"]
        result["scenario"] = (store.scenario_params or {}).get("name")
        return result

    # ------------------------------------------------------------------ #
    # Delta / ensemble queries
    # ------------------------------------------------------------------ #

    def delta_counts(
        self,
        ref: str,
        scenario: str,
        seeds: Sequence[int],
        ts: Optional[Sequence[float]] = None,
        points: int = 8,
        params: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Per-draw stable counts straight off a delta artifact.

        One stacked-kernel call answers every seed at once
        (:meth:`DeltaStore.stable_counts_multi`), row-for-row
        bit-identical to building each draw's weighted store and counting.
        """
        from ..analysis.scenarios import build_scenario

        _info, delta = self.catalog.get(ref, kind="delta")
        if ts is None:
            ts = default_t_grid(delta.n, points)
        ts = [float(t) for t in ts]
        matrices = [
            build_scenario(
                scenario, delta.n, seed=int(seed), **dict(params or {})
            ).model.coefficient_matrix(delta.n)
            for seed in seeds
        ]
        counts = delta.stable_counts_multi(matrices, ts)
        return {
            "scenario": scenario,
            "n": delta.n,
            "seeds": [int(s) for s in seeds],
            "ts": ts,
            "counts": counts.tolist(),
        }

    def ensemble_stats(
        self,
        scenario: str = "random_weights",
        n: int = 6,
        draws: int = 8,
        seed: int = 0,
        grid: int = 8,
        delta: Optional[str] = None,
        jobs: Optional[int] = None,
    ) -> Dict[str, object]:
        """Aggregated seeded-ensemble statistics as a plain payload.

        Runs :func:`repro.analysis.ensembles.run_ensemble` — ``delta``
        may name a delta artifact in the catalog to amortise the
        deviation analysis across requests.
        """
        from ..analysis.ensembles import run_ensemble

        if scenario not in available_scenarios():
            raise ValueError(
                f"unknown scenario {scenario!r}; available: "
                f"{', '.join(available_scenarios())}"
            )
        kwargs = {}
        if delta is not None:
            kwargs["delta"] = self.catalog.get(delta, kind="delta")[1]
        result = run_ensemble(
            scenario=scenario,
            n=n,
            draws=draws,
            seed=seed,
            grid=grid,
            jobs=jobs,
            **kwargs,
        )
        return {
            "scenario": result.scenario,
            "n": result.n,
            "draws": result.draws,
            "seed": result.seed,
            "seeds": list(result.seeds),
            "ts": list(result.ts),
            "classes": result.classes,
            "counts": _tolist(result.counts),
            "count_stats": _stats_payload(result.count_stats),
            "t_min_stats": _stats_payload(result.t_min_stats),
            "t_max_stats": _stats_payload(result.t_max_stats),
        }
