"""Persistent weighted scenario artifacts: columnar stores for ``t·W`` sweeps.

:class:`WeightedStore` is the weighted counterpart of
:class:`~repro.analysis.store.CensusStore` and the one engine behind every
weighted sweep — the ``scenarios`` CLI, the ensembles and the server: the
per-probe ``(w, Δdist)`` coefficient columns of one ``(class list, cost
model)`` pair, built once and queried for any scale grid:

* **columns, not recomputation** — per class: a packed upper-triangle
  certificate, the edge count, the total ordered-pair distance sum, the
  unscaled link spend ``Σ_e (w(u,v) + w(v,u))``, and ragged CSR probe
  columns (removal ``(w, Δ)`` pairs, per-non-edge endpoint ``(w, save)``
  4-tuples), priced from the model-independent delta columns in one place
  (:func:`_priced_columns`);
* **query = the existing kernels** — stability masks, windows and sweep
  aggregates come straight from
  :func:`repro.engine.columnar.weighted_bcg_stable_mask` /
  :func:`~repro.engine.columnar.weighted_stability_windows` over the stored
  columns, float-exact against the per-graph
  :class:`~repro.costmodels.stability.WeightedStabilityProfile` references
  (asserted for every connected class up to ``n = 7`` in the test suite,
  including across a save → load round trip in a separate process);
* **versioned, provenance-stamped persistence** — one ``.npz`` or a
  directory of mmap-able ``.npy`` columns, carrying the schema tag,
  :data:`FORMAT_VERSION`, ``n``, the dense weight matrix and (when built
  from the scenario library) the full :attr:`Scenario.params` recipe, so an
  artifact knows exactly which seeded scenario produced it and
  :func:`repro.analysis.scenarios.scenario_from_params` can rebuild the
  model bit-for-bit.

Every build path is one :class:`~repro.analysis.delta_store.DeltaStore`
priced under the model: :meth:`build` and :meth:`build_streamed` run the
delta store's own builds (so a streamed build writes the model-independent
``dshard_*`` files, and one shard directory resumes for every cost model)
and :meth:`from_delta` prices an existing delta store.  With
``include_ucg`` the weighted orientation engine runs after the delta pass,
over row-order chunks that decode their own representatives.  Persistence,
the audit and ordering come from the shared
:class:`~repro.analysis.artifact.ColumnArtifact` base.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..costmodels.models import CostModel
from ..engine import parallel_map, resolve_jobs
from ..engine.batch import batch_ucg_columns
from ..engine.columnar import (
    certificate_to_graph,
    concat_csr,
    ucg_nash_mask,
    weighted_bcg_stable_mask,
    weighted_stability_windows,
    weighted_ucg_windows,
)
from ..graphs import Graph
from .artifact import ColumnArtifact, ColumnSpec
from .delta_store import DeltaStore

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
    row ``i`` here, row ``i`` of the scalar :class:`CensusStore` and row
    ``i`` of the :class:`DeltaStore` it is priced from describe the same
    isomorphism class.
    """

    KIND = "weighted"
    SCHEMA = SCHEMA
    FORMAT_VERSION = FORMAT_VERSION
    META_KEYS = ("scenario",)
    #: The priced delta layout (:func:`_priced_columns`) — removal
    #: ``(w, Δ)`` pairs, two per edge, and per-non-edge endpoint
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

        :meth:`DeltaStore.build <repro.analysis.delta_store.DeltaStore.build>`
        over ``jobs`` pool workers, priced under ``model`` as in
        :meth:`from_delta`, so the class list, order and deviation analysis
        are exactly the delta store's.  ``include_ucg`` additionally runs
        the vectorised orientation engine per class, fanned out over the
        same ``jobs``, and persists the UCG Nash t-interval endpoints
        (float-exact against
        :func:`~repro.costmodels.stability.weighted_ucg_nash_t_set`).
        """
        weights = _weights(model, n)
        delta = DeltaStore.build(n, jobs=jobs)
        return cls._priced(delta, model, weights, scenario_params, include_ucg, jobs)

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

        :meth:`DeltaStore.build_streamed
        <repro.analysis.delta_store.DeltaStore.build_streamed>`, priced under
        ``model`` as in :meth:`from_delta`: the shards under ``shard_dir``
        are the delta store's ``dshard_XXXX_of_YYYY.npz`` files,
        fingerprinted on ``n`` only, so one directory resumes for every
        cost model.  ``include_ucg`` runs the orientation engine after the
        merge, as in :meth:`build`; those columns are not persisted per
        shard.  The result is element-for-element identical to
        :meth:`build`.
        """
        weights = _weights(model, n)
        delta = DeltaStore.build_streamed(
            n,
            jobs=jobs,
            shard_level=shard_level,
            batch_size=batch_size,
            shard_dir=shard_dir,
            timeout=timeout,
            max_retries=max_retries,
            progress=progress,
            fault_plan=fault_plan,
        )
        return cls._priced(delta, model, weights, scenario_params, include_ucg, jobs)

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

        The columns are the delta store's, priced by :func:`_priced_columns`,
        which every build path goes through, so the result is
        float-for-float identical to :meth:`build` with the same model
        (asserted across the scenario registry in the test suite) at a tiny
        fraction of the cost.  This is what makes ``WeightedStore`` a thin
        (DeltaStore, weight-vector) view: every existing kernel, artifact
        format and test keeps working, while ensembles pay the delta pass
        once per ``n``.  ``include_ucg`` runs the orientation engine
        serially.
        """
        weights = _weights(model, delta.n)
        return cls._priced(delta, model, weights, scenario_params, include_ucg)

    @classmethod
    def _priced(
        cls, delta, model, weights, scenario_params, include_ucg, jobs=None
    ) -> "WeightedStore":
        """``delta`` priced under ``model``, plus UCG columns over ``jobs``."""
        columns = {"weight_matrix": weights}
        if include_ucg:
            # The delta columns are model-independent, so UCG intervals
            # cannot be gathered from them — run the orientation engine over
            # the class representatives instead (before pricing, so its
            # tables never sit beside the priced columns).
            columns.update(_ucg_columns(delta.cert_words, delta.n, model, jobs))
        columns.update(_priced_columns(delta._columns(), model, weights))
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

        Decision-identical to the per-graph reference
        :func:`~repro.analysis.weighted.weighted_python_sweep_bcg` over the
        decoded classes and the same model.
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
        """Whole-grid sweep aggregates: stable counts and their averages.

        Returns ``bcg_counts``, ``average_links`` and
        ``average_social_cost`` lists, one entry per grid point.  The
        averages run over the stable classes in row order, summed left to
        right — the social cost at ``t`` is ``t·edge_cost_total +
        dist_total`` per class — and are ``nan`` for grid points with no
        stable class.
        """
        ts = [float(t) for t in ts]
        mask = self.stable_mask(ts)
        num_edges = [int(m) for m in self.num_edges]
        edge_cost_totals = self.edge_cost_total.tolist()
        dist_totals = self.dist_total.tolist()
        bcg_counts: List[int] = []
        average_links: List[float] = []
        average_social_cost: List[float] = []
        for column, t in enumerate(ts):
            selected = np.flatnonzero(mask[:, column]).tolist()
            bcg_counts.append(len(selected))
            if not selected:
                average_links.append(float("nan"))
                average_social_cost.append(float("nan"))
                continue
            average_links.append(
                sum(num_edges[i] for i in selected) / len(selected)
            )
            average_social_cost.append(
                sum(t * edge_cost_totals[i] + dist_totals[i] for i in selected)
                / len(selected)
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
# Pricing and the UCG pass (module-level for pickling)
# --------------------------------------------------------------------------- #


def _weights(model: CostModel, n: int):
    """The model's validated ``(n, n)`` float64 coefficient matrix."""
    # reshape keeps the n = 0 edge case indexable (asarray([]) is 1-D)
    return np.asarray(model.coefficient_matrix(n), dtype=np.float64).reshape(n, n)


def _priced_columns(delta: Dict[str, object], model: CostModel, weights) -> dict:
    """Price delta probe columns under one cost model: the weighted columns.

    ``delta`` maps the :class:`~repro.analysis.delta_store.DeltaStore`
    column names to arrays — one build chunk or a whole store — and
    ``weights`` is the model's ``(n, n)`` coefficient matrix.  Each probe's
    coefficient is one gather ``W[payer, other]`` at the stored endpoints,
    the float32 Δ/savings are upcast to float64 exactly (every payoff is an
    integer-valued float or ``±inf``) and the link spend is the vectorised
    replay :func:`_edge_cost_totals`.  :meth:`WeightedStore.build`,
    :meth:`~WeightedStore.build_streamed` and :meth:`~WeightedStore.from_delta`
    all price a whole delta store here, so their columns cannot drift apart.
    """
    rem_w = weights[delta["rem_pay"], delta["rem_other"]]
    return {
        "num_edges": np.asarray(delta["num_edges"]),
        "dist_total": np.asarray(delta["dist_total"]),
        "rem_w": rem_w,
        "rem_delta": np.asarray(delta["rem_delta"]).astype(np.float64),
        "rem_indptr": np.asarray(delta["rem_indptr"]),
        "add_w_u": weights[delta["add_u"], delta["add_v"]],
        "add_s_u": np.asarray(delta["add_s_u"]).astype(np.float64),
        "add_w_v": weights[delta["add_v"], delta["add_u"]],
        "add_s_v": np.asarray(delta["add_s_v"]).astype(np.float64),
        "add_indptr": np.asarray(delta["add_indptr"]),
        "edge_cost_total": _edge_cost_totals(delta, model, rem_w),
        "cert_words": np.asarray(delta["cert_words"]),
    }


def _edge_cost_totals(delta: Dict[str, object], model: CostModel, rem_w):
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
    num_edges = np.asarray(delta["num_edges"])
    if alpha is not None:
        return 2.0 * alpha * num_edges.astype(np.float64)
    pair = rem_w[0::2] + rem_w[1::2]
    indptr = np.asarray(delta["rem_indptr"])
    starts = indptr[:-1] // 2
    counts = np.diff(indptr) // 2
    totals = np.zeros(counts.shape[0], dtype=np.float64)
    for rank in range(int(counts.max()) if counts.size else 0):
        active = counts > rank
        totals[active] = totals[active] + pair[starts[active] + rank]
    return totals


def _ucg_columns(cert_words, n: int, model: CostModel, jobs=None) -> dict:
    """UCG t-interval CSR columns of the classes ``cert_words`` encode.

    The weighted orientation engine runs over row-order chunks fanned out
    over ``jobs`` pool workers (serially for ``None``), and the chunks'
    columns are concatenated in row order.  Each chunk decodes its own
    representatives (:func:`_ucg_chunk`), so no process holds every class
    as a :class:`~repro.graphs.graph.Graph` at once.
    """
    words = np.asarray(cert_words)
    pieces = max(1, min(len(words), resolve_jobs(jobs) * 4))
    tasks = [(chunk, n, model) for chunk in np.array_split(words, pieces)]
    # Denser classes sit later in canonical order and cost the engine more,
    # so the pool takes the chunks last first; the parts return in row order.
    parts = parallel_map(_ucg_chunk, tasks[::-1], jobs=jobs)[::-1]
    lo, indptr = concat_csr([(part["ucg_lo"], part["ucg_indptr"]) for part in parts])
    hi = np.concatenate([part["ucg_hi"] for part in parts])
    return {"ucg_lo": lo, "ucg_hi": hi, "ucg_indptr": indptr}


def _ucg_chunk(task) -> dict:
    """One UCG chunk: decode its certificates, run the weighted engine."""
    words, n, model = task
    graphs = [certificate_to_graph(row, n) for row in words]
    return batch_ucg_columns(graphs, model=model)
