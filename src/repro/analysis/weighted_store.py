"""Persistent weighted scenario artifacts: columnar stores for ``t·W`` sweeps.

:func:`~repro.analysis.weighted.weighted_sweep` answers a whole scale grid
from one deviation-analysis pass, but its
:class:`~repro.analysis.weighted.WeightedSweepResult` is in-memory only —
every new grid, every new process and every ensemble draw re-runs the
boolean-matmul probe batch from scratch.  :class:`WeightedStore` is the
weighted counterpart of :class:`~repro.analysis.store.CensusStore`: the
per-probe ``(w, Δdist)`` coefficient columns of one ``(graph list, cost
model)`` pair, persisted once and queried forever:

* **columns, not recomputation** — per class: a packed upper-triangle
  certificate, the edge count, the total ordered-pair distance sum, the
  unscaled link spend ``Σ_e (w(u,v) + w(v,u))``, and the ragged CSR probe
  columns of :func:`repro.engine.batch.batch_weighted_columns` (removal
  ``(w, Δ)`` pairs, per-non-edge endpoint ``(w, save)`` 4-tuples);
* **query = the existing kernels** — stability masks, windows and sweep
  aggregates come straight from
  :func:`repro.engine.columnar.weighted_bcg_stable_mask` /
  :func:`~repro.engine.columnar.weighted_stability_windows` over the stored
  columns, float-for-float identical to the in-memory sweep (asserted for
  every connected class up to ``n = 7`` in the test suite, including across
  a save → load round trip in a separate process);
* **versioned, provenance-stamped persistence** — one ``.npz`` or a
  directory of mmap-able ``.npy`` columns, carrying the schema tag,
  :data:`FORMAT_VERSION`, ``n``, the dense weight matrix and (when built
  from the scenario library) the full :attr:`Scenario.params` recipe, so an
  artifact knows exactly which seeded scenario produced it and
  :func:`repro.analysis.scenarios.scenario_from_params` can rebuild the
  model bit-for-bit.

Persistence, the audit, ordering, part merging and the streamed build
come from the shared :class:`~repro.analysis.artifact.ColumnArtifact`
base: :meth:`build` chunks the canonical class list over pool workers;
:meth:`build_streamed` walks the sharded canonical-augmentation tree
(resumable via ``shard_dir``) and sorts the merged columns into canonical
census order, element-for-element identical to :meth:`build`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..costmodels.models import CostModel
from ..engine.columnar import (
    certificate_to_graph,
    pack_certificates,
    ucg_nash_mask,
    weighted_bcg_stable_mask,
    weighted_stability_windows,
    weighted_ucg_windows,
)
from ..graphs import Graph
from .artifact import ColumnArtifact, ColumnSpec

#: On-disk format version; bump on any incompatible schema change.
#: v2: optional UCG t-interval CSR columns (``ucg_lo``/``ucg_hi``/``ucg_indptr``).
FORMAT_VERSION = 2

#: Schema tag written into every artifact (guards against loading foreign files).
SCHEMA = "repro-weighted-store"


class WeightedStore(ColumnArtifact):
    """One weighted sweep's coefficient columns, persistent and queryable.

    Instances are produced by :meth:`build`, :meth:`build_streamed`,
    :meth:`from_scenario` or :meth:`load`; the constructor just wires up
    pre-validated columns.  Classes are kept in canonical census order, so
    row ``i`` here, row ``i`` of the scalar :class:`CensusStore` and graph
    ``i`` of :func:`weighted_census` describe the same isomorphism class.
    """

    KIND = "weighted"
    SCHEMA = SCHEMA
    FORMAT_VERSION = FORMAT_VERSION
    SHARD_PREFIX = "wshard"
    META_KEYS = ("scenario",)
    #: The :func:`~repro.engine.batch.batch_weighted_columns` layout —
    #: removal ``(w, Δ)`` pairs, two per edge, and per-non-edge endpoint
    #: ``(w, save)`` 4-tuples — plus the per-class link spend, optional UCG
    #: t-intervals and the dense weight matrix the artifact was priced under.
    SPEC = ColumnSpec(
        dense={
            "num_edges": "int32",
            "dist_total": "float64",
            "edge_cost_total": "float64",
            "cert_words": "uint64",
        },
        groups={
            "rem_indptr": {"rem_w": "float64", "rem_delta": "float64"},
            "add_indptr": {
                "add_w_u": "float64",
                "add_s_u": "float64",
                "add_w_v": "float64",
                "add_s_v": "float64",
            },
            "ucg_indptr": {"ucg_lo": "float64", "ucg_hi": "float64"},
        },
        optional="ucg_indptr",
        constants=("weight_matrix",),
        removal_per_edge=2,
    )

    def __init__(
        self,
        n: int,
        columns: Dict[str, object],
        scenario_params: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(n, columns)
        self.scenario_params = dict(scenario_params) if scenario_params else None

    def _meta(self) -> Dict[str, object]:
        return {"scenario": self.scenario_params}

    @classmethod
    def _restore(cls, n: int, columns: Dict[str, object], meta: Dict[str, object]):
        return cls(n, columns, meta.get("scenario"))

    def _describe(self) -> Dict[str, object]:
        scenario = self.scenario_params or {}
        return {
            "scenario": scenario.get("name"),
            "seed": scenario.get("seed"),
            "scenario_params": dict(scenario) or None,
            "format_version": FORMAT_VERSION,
            "include_ucg": self.include_ucg,
        }

    def _verify_kind(self) -> List[str]:
        """The weight matrix must be a finite ``(n, n)`` array."""
        matrix = np.asarray(self.weight_matrix)
        if matrix.shape != (self.n, self.n):
            return [
                f"weight_matrix has shape {matrix.shape}, expected "
                f"({self.n}, {self.n})"
            ]
        if not bool(np.all(np.isfinite(matrix))):
            return ["weight_matrix contains non-finite values"]
        return []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        n: int,
        model: CostModel,
        jobs: Optional[int] = None,
        scenario_params: Optional[Dict[str, object]] = None,
        include_ucg: bool = False,
    ) -> "WeightedStore":
        """Weighted columns for every connected class on ``n`` vertices.

        The class list, order and deviation analysis are exactly those of
        :func:`repro.analysis.weighted.weighted_census`; each pool worker
        emits column chunks (a dict of NumPy arrays), so the artifact never
        exists as per-graph Python objects.  ``include_ucg`` additionally
        runs the vectorised orientation engine per class and persists the
        UCG Nash t-interval endpoints (float-exact against
        :func:`~repro.costmodels.stability.weighted_ucg_nash_t_set`).
        """
        matrix = model.coefficient_matrix(n)
        return cls._build(
            n,
            _weighted_part,
            {"model": model, "matrix": matrix, "include_ucg": include_ucg},
            jobs,
            constants={"weight_matrix": np.asarray(matrix, dtype=np.float64)},
            meta={"scenario": scenario_params},
        )

    @classmethod
    def from_scenario(
        cls,
        scenario,
        jobs: Optional[int] = None,
        streamed: bool = False,
        include_ucg: bool = False,
        progress=None,
    ) -> "WeightedStore":
        """Build the artifact of one scenario-library :class:`Scenario`.

        The scenario's full :attr:`Scenario.params` recipe (name, ``n``,
        seed and family parameters) is stamped into the artifact metadata.
        ``progress`` (streamed builds only) is forwarded to
        :func:`repro.engine.run_shards` as its manifest-snapshot callback.
        """
        if streamed:
            return cls.build_streamed(
                scenario.n,
                scenario.model,
                jobs=jobs,
                scenario_params=dict(scenario.params),
                include_ucg=include_ucg,
                progress=progress,
            )
        if progress is not None:
            raise ValueError(
                "progress reporting requires streamed=True (the in-memory "
                "build has no shard events to report)"
            )
        return cls.build(
            scenario.n,
            scenario.model,
            jobs=jobs,
            scenario_params=dict(scenario.params),
            include_ucg=include_ucg,
        )

    @classmethod
    def build_streamed(
        cls,
        n: int,
        model: CostModel,
        jobs: Optional[int] = None,
        shard_level: Optional[int] = None,
        batch_size: int = 512,
        shard_dir: Optional[str] = None,
        scenario_params: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        progress=None,
        fault_plan=None,
        include_ucg: bool = False,
    ) -> "WeightedStore":
        """Build the columns by streaming the canonical-augmentation tree.

        Same sharding, resume and ordering contract as the census store
        (:meth:`ColumnArtifact._build_streamed
        <repro.analysis.artifact.ColumnArtifact._build_streamed>`), with
        ``wshard_XXXX_of_YYYY.npz`` shard files.  Workers canonicalise each
        generated graph before pricing it, so the weights land on the same
        labelled representatives as :meth:`build`; shards are fingerprinted
        over ``n``, ``include_ucg`` *and* the weight matrix, so a directory
        reused with a different cost model raises instead of merging
        silently.  The result is element-for-element identical to
        :meth:`build`.
        """
        matrix = model.coefficient_matrix(n)
        weights = np.asarray(matrix, dtype=np.float64)
        return cls._build_streamed(
            n,
            _weighted_part,
            {"model": model, "matrix": matrix, "include_ucg": include_ucg},
            {"include_ucg": bool(include_ucg), "matrix": weights},
            jobs=jobs,
            shard_level=shard_level,
            batch_size=batch_size,
            shard_dir=shard_dir,
            timeout=timeout,
            max_retries=max_retries,
            progress=progress,
            fault_plan=fault_plan,
            constants={"weight_matrix": weights},
            meta={"scenario": scenario_params},
        )

    @classmethod
    def from_delta(
        cls,
        delta,
        model: CostModel,
        scenario_params: Optional[Dict[str, object]] = None,
        include_ucg: bool = False,
    ) -> "WeightedStore":
        """Materialise one draw's artifact from a shared model-independent
        :class:`~repro.analysis.delta_store.DeltaStore` — no deviation pass.

        The weight columns are a dense gather of the cost model's
        coefficient matrix at the delta store's probe endpoints, and the
        per-class link spend replicates :meth:`CostModel.bcg_edge_cost_total`
        term for term, so the result is float-for-float identical to
        :meth:`build` with the same model (asserted across the scenario
        registry in the test suite) at a tiny fraction of the cost.  This
        is what makes ``WeightedStore`` a thin (DeltaStore, weight-vector)
        view: every existing kernel, artifact format and test keeps
        working, while ensembles pay the delta pass once per ``n``.
        """
        matrix = np.asarray(model.coefficient_matrix(delta.n), dtype=np.float64)
        players = max(delta.n, 1)
        # reshape keeps the n = 0 edge case indexable (asarray([]) is 1-D)
        matrix = matrix.reshape(players, players) if delta.n else matrix.reshape(0, 0)
        rem_w = matrix[delta.rem_pay, delta.rem_other] if delta.n else np.zeros(0)
        ucg = {}
        if include_ucg:
            # The delta columns are model-independent, so UCG intervals
            # cannot be gathered from them — run the orientation engine over
            # the decoded class representatives instead.
            from ..engine.batch import batch_ucg_columns

            graphs = [
                certificate_to_graph(delta.cert_words[i], delta.n)
                for i in range(int(np.asarray(delta.num_edges).shape[0]))
            ]
            ucg = batch_ucg_columns(graphs, model=model)
        columns = {
            "weight_matrix": matrix,
            "num_edges": np.asarray(delta.num_edges),
            "dist_total": np.asarray(delta.dist_total),
            "edge_cost_total": _edge_cost_totals(delta, model, rem_w),
            "cert_words": np.asarray(delta.cert_words),
            "rem_w": rem_w,
            "rem_delta": np.asarray(delta.rem_delta).astype(np.float64),
            "rem_indptr": np.asarray(delta.rem_indptr),
            "add_w_u": matrix[delta.add_u, delta.add_v] if delta.n else np.zeros(0),
            "add_s_u": np.asarray(delta.add_s_u).astype(np.float64),
            "add_w_v": matrix[delta.add_v, delta.add_u] if delta.n else np.zeros(0),
            "add_s_v": np.asarray(delta.add_s_v).astype(np.float64),
            "add_indptr": np.asarray(delta.add_indptr),
            **ucg,
        }
        return cls(delta.n, columns, scenario_params)

    # ------------------------------------------------------------------ #
    # Vectorised scale-grid queries (no recomputation, ever)
    # ------------------------------------------------------------------ #

    def _probe_columns(self) -> Tuple:
        return (
            self.rem_w, self.rem_delta, self.rem_indptr,
            self.add_w_u, self.add_s_u,
            self.add_w_v, self.add_s_v, self.add_indptr,
        )

    def stable_mask(self, ts: Sequence[float]):
        """``bool[n_classes, n_ts]`` weighted pairwise stability on a grid.

        Bit-identical to :func:`weighted_bcg_grid_mask` over the same
        graphs and model — the stored columns *are* that call's inputs.
        """
        return weighted_bcg_stable_mask(*self._probe_columns(), ts)

    def stable_counts(self, ts: Sequence[float]) -> List[int]:
        """Number of stable classes at every grid point."""
        return [int(count) for count in self.stable_mask(ts).sum(axis=0)]

    def stability_windows(self):
        """Per-class weighted Lemma 2 ``(t_min, t_max)`` arrays."""
        return weighted_stability_windows(*self._probe_columns())

    def _require_ucg(self) -> None:
        if not self.include_ucg:
            raise ValueError(
                "this weighted-store artifact carries no UCG columns; "
                "rebuild with include_ucg=True (CLI: scenarios --ucg)"
            )

    def ucg_nash_mask(self, ts: Sequence[float]):
        """``bool[n_classes, n_ts]`` UCG Nash supportability on a grid.

        Bit-identical to :meth:`AlphaIntervalSet.contains` over the stored
        t-interval endpoints — and those endpoints are float-exact against
        :func:`~repro.costmodels.stability.weighted_ucg_nash_t_set`.
        """
        self._require_ucg()
        return ucg_nash_mask(self.ucg_lo, self.ucg_hi, self.ucg_indptr, ts)

    def ucg_nash_counts(self, ts: Sequence[float]) -> List[int]:
        """Number of UCG Nash-supportable classes at every grid point."""
        return [int(count) for count in self.ucg_nash_mask(ts).sum(axis=0)]

    def ucg_windows(self):
        """Per-class UCG supportability hulls ``(t_min, t_max)``.

        Classes with no supportable threshold report ``(inf, -inf)``.
        """
        self._require_ucg()
        return weighted_ucg_windows(self.ucg_lo, self.ucg_hi, self.ucg_indptr)

    def aggregates(self, ts: Sequence[float]) -> Dict[str, list]:
        """Whole-grid sweep aggregates, float-exact vs :func:`weighted_sweep`.

        Returns ``bcg_counts``, ``average_links`` and
        ``average_social_cost`` lists (one entry per grid point), computed
        by the *same* aggregation code the in-memory sweep runs
        (:func:`repro.analysis.weighted.sweep_grid_aggregates`), so the
        numbers match to the last bit (``nan`` for grid points with no
        stable class).
        """
        from .weighted import sweep_grid_aggregates

        ts = [float(t) for t in ts]
        bcg_counts, average_links, average_social_cost = sweep_grid_aggregates(
            self.stable_mask(ts),
            ts,
            [int(m) for m in self.num_edges],
            self.edge_cost_total.tolist(),
            self.dist_total.tolist(),
        )
        return {
            "ts": ts,
            "bcg_counts": bcg_counts,
            "average_links": average_links,
            "average_social_cost": average_social_cost,
        }

    # ------------------------------------------------------------------ #
    # Introspection and decoding
    # ------------------------------------------------------------------ #

    def matrix(self) -> List[List[float]]:
        """The dense weight matrix the artifact was priced under."""
        return [[float(w) for w in row] for row in self.weight_matrix]

    def stable_graphs_at(self, t: float) -> List[Graph]:
        """The stable topologies under ``t·W`` (decoded from certificates)."""
        selected = self.stable_mask([t])[:, 0]
        return [self.graph_at(int(i)) for i in np.nonzero(selected)[0]]


# --------------------------------------------------------------------------- #
# Per-chunk analysis (module-level for pickling)
# --------------------------------------------------------------------------- #


def _edge_cost_totals(delta, model: CostModel, rem_w):
    """Per-class BCG link spend from delta columns, exact vs the Python path.

    :meth:`CostModel.bcg_edge_cost_total` sums ``w(u,v) + w(v,u)`` over
    ``sorted_edges`` left to right — and the removal probes sit in exactly
    that order, endpoint ``u`` first.  Pairing consecutive probe weights
    and accumulating one edge rank at a time replays the identical float64
    addition sequence per class; the uniform family keeps its ``2α·m``
    closed form.  The edge-rank loop is bounded by ``n(n-1)/2``, not the
    class count, so it stays cheap at any census size.
    """
    alpha = model.uniform_alpha()
    num_edges = np.asarray(delta.num_edges)
    if alpha is not None:
        return 2.0 * alpha * num_edges.astype(np.float64)
    pair = rem_w[0::2] + rem_w[1::2]
    indptr = np.asarray(delta.rem_indptr)
    starts = indptr[:-1] // 2
    counts = np.diff(indptr) // 2
    totals = np.zeros(counts.shape[0], dtype=np.float64)
    for rank in range(int(counts.max()) if counts.size else 0):
        active = counts > rank
        totals[active] = totals[active] + pair[starts[active] + rank]
    return totals


def _weighted_part(
    graphs: List[Graph],
    n: int,
    oracle,
    model: CostModel,
    matrix,
    include_ucg: bool = False,
) -> dict:
    """One column chunk: probe columns + dense provenance for ``graphs``.

    ``edge_cost_total`` goes through :meth:`CostModel.bcg_edge_cost_total`
    (not a matrix summation) so family-specific exact closed forms — the
    uniform model's ``2α·m`` — survive into the artifact and the
    aggregates stay float-exact against the in-memory sweep.
    """
    from ..engine.batch import batch_ucg_columns, batch_weighted_columns

    if not graphs:
        return WeightedStore._empty_part(n, include_ucg)
    part = batch_weighted_columns(graphs, matrix, oracle=oracle)
    part["edge_cost_total"] = np.asarray(
        [model.bcg_edge_cost_total(graph) for graph in graphs], dtype=np.float64
    )
    part["cert_words"] = pack_certificates(
        [graph.adjacency_bitstring() for graph in graphs], n
    )
    if include_ucg:
        part.update(batch_ucg_columns(graphs, model=model, oracle=oracle))
    return part
