"""Shared Δdist artifacts: model-independent probe columns, built once per n.

A weighted sweep pairs every single-link deviation payoff with a coefficient
``w(payer, other)`` — but the payoffs themselves depend only on the topology
class list.  The PR-5 ensemble runner nevertheless re-ran the boolean-matmul
deviation analysis once *per draw*, making a 1000-draw ensemble cost 1000
identical delta passes.  :class:`DeltaStore` is the amortisation layer: the
per-probe Δdist columns **plus the probe endpoint indices**, persisted once
per ``n`` and shared by every cost model, draw and ensemble that follows.

* **columns** — per class: a packed upper-triangle certificate, the edge
  count, the total ordered-pair distance sum, and the ragged CSR probe
  columns of :func:`repro.engine.batch_stability_deltas`: removal
  ``(Δ, payer, other)`` triples (two per edge, ``sorted_edges`` order) and
  per-non-edge ``(save_u, save_v, u, v)`` 4-tuples (``non_edges`` order).
  The endpoint indices are what make the artifact model-independent — any
  draw's coefficient columns are one dense gather
  ``W[rem_pay, rem_other]`` away (see
  :func:`repro.engine.columnar.stacked_weight_columns`, which reads flat
  ``i·n + j`` positions the store derives once, on first use);
* **query = the stacked kernels** — K draws are answered at once by
  :meth:`stable_counts_multi` / :meth:`stability_windows_multi` (one
  weight gather and one kernel call per :data:`DRAW_SLICE` draws; the
  counts call can fill the windows from the same pass), each row
  bit-identical to the per-draw weighted kernels over that draw's own
  :class:`~repro.analysis.weighted_store.WeightedStore`;
* **same persistence story as the census stores** — the shared
  :class:`~repro.analysis.artifact.ColumnArtifact` base: one versioned
  ``.npz`` or an mmap-able directory of ``.npy`` columns, shard-resumable
  :meth:`build_streamed`, and the one process-wide store LRU
  (:func:`cached_delta_store`).

Delta columns are also what every weighted build prices:
:class:`~repro.analysis.weighted_store.WeightedStore` runs :func:`_delta_part`
over each build chunk and gathers the coefficients in one pricing function,
and :meth:`WeightedStore.from_delta <repro.analysis.weighted_store.WeightedStore.from_delta>`
prices a whole delta store the same way — so a per-draw artifact is
float-for-float identical to building that store from scratch, and the
delta artifact composes with every existing kernel, file format and test.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.batch import batch_stability_deltas
from ..engine.columnar import (
    pack_certificates,
    stacked_weight_columns,
    weighted_bcg_stable_mask_multi,
    weighted_stability_windows_multi,
)
from ..graphs import Graph
from .artifact import ColumnArtifact, ColumnSpec, cached, cached_load

#: On-disk format version; bump on any incompatible schema change.
FORMAT_VERSION = 1

#: Schema tag written into every artifact (guards against loading foreign files).
SCHEMA = "repro-delta-store"

#: Draws per stacked-kernel call: each slice gathers its own ``(slice, P)``
#: weight stacks, which bounds them and the kernels' temporaries whatever K.
DRAW_SLICE = 8


class DeltaStore(ColumnArtifact):
    """Model-independent Δdist probe columns for every connected class on n.

    Instances are produced by :meth:`build`, :meth:`build_streamed` or
    :meth:`load`; the constructor just wires up pre-validated columns.
    Classes are kept in canonical census order, so row ``i`` here, row ``i``
    of :class:`~repro.analysis.store.CensusStore` and row ``i`` of any
    :class:`~repro.analysis.weighted_store.WeightedStore` on the same ``n``
    describe the same isomorphism class.
    """

    KIND = "delta"
    SCHEMA = SCHEMA
    FORMAT_VERSION = FORMAT_VERSION
    SHARD_PREFIX = "dshard"
    #: The :func:`~repro.engine.batch.batch_stability_deltas` layout: removal
    #: ``(Δ, payer, other)`` triples, two per edge, and per-non-edge
    #: ``(save_u, save_v, u, v)`` 4-tuples.
    SPEC = ColumnSpec(
        dense={"num_edges": "int32", "dist_total": "float64", "cert_words": "uint64"},
        groups={
            "rem_indptr": {"rem_delta": "float32", "rem_pay": "int32", "rem_other": "int32"},
            "add_indptr": {
                "add_s_u": "float32",
                "add_s_v": "float32",
                "add_u": "int32",
                "add_v": "int32",
            },
        },
        removal_per_edge=2,
    )

    def __init__(self, n: int, columns: Dict[str, object]) -> None:
        super().__init__(n, columns)
        self._flat = None  # lazy flat gather positions of the probe endpoints

    def _describe(self) -> Dict[str, object]:
        return {
            "removal_probes": int(self.rem_indptr[-1]),
            "addition_probes": int(self.add_indptr[-1]),
            "format_version": FORMAT_VERSION,
        }

    def _verify_kind(self) -> List[str]:
        """Probe endpoint indices must lie within ``[0, n)``."""
        errors = []
        for name in ("rem_pay", "rem_other", "add_u", "add_v"):
            indices = np.asarray(getattr(self, name))
            if bool(np.any(indices < 0)) or bool(np.any(indices >= self.n)):
                errors.append(f"{name}: endpoint indices outside [0, {self.n})")
        return errors

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, n: int, jobs: Optional[int] = None) -> "DeltaStore":
        """Delta columns for every connected class on ``n`` vertices.

        The class list, order and deviation analysis are exactly those of
        :meth:`WeightedStore.build`, which prices these very columns chunk
        by chunk — minus the coefficients, which is the point: one build
        serves every cost model on ``n`` players.
        """
        return cls._build(n, _delta_part, {}, jobs)

    @classmethod
    def build_streamed(
        cls,
        n: int,
        jobs: Optional[int] = None,
        shard_level: Optional[int] = None,
        batch_size: int = 512,
        shard_dir: Optional[str] = None,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        progress=None,
        fault_plan=None,
    ) -> "DeltaStore":
        """Build the columns by streaming the canonical-augmentation tree.

        Same sharding, resume and ordering contract as the census store
        (:meth:`ColumnArtifact._build_streamed
        <repro.analysis.artifact.ColumnArtifact._build_streamed>`), with
        ``dshard_XXXX_of_YYYY.npz`` shard files.  Shards are fingerprinted
        on ``n`` only — delta columns are model-independent, so one shard
        directory serves every cost model.  The result is
        element-for-element identical to :meth:`build`.
        """
        return cls._build_streamed(
            n,
            _delta_part,
            {},
            {},
            jobs=jobs,
            shard_level=shard_level,
            batch_size=batch_size,
            shard_dir=shard_dir,
            timeout=timeout,
            max_retries=max_retries,
            progress=progress,
            fault_plan=fault_plan,
        )

    # ------------------------------------------------------------------ #
    # Stacked multi-draw queries
    # ------------------------------------------------------------------ #

    def _flat_positions(self) -> Tuple:
        """Intp ``i·n + j`` positions of every probe's coefficient.

        ``(rem, add_uv, add_vu)``: ``(payer, other)`` of each removal probe
        and ``(u, v)``, ``(v, u)`` of each addition probe.  Derived on first
        use, so building or loading a store does not pay for them.
        """
        if self._flat is None:
            pay, other, u, v = (
                np.asarray(column, dtype=np.intp)
                for column in (self.rem_pay, self.rem_other, self.add_u, self.add_v)
            )
            self._flat = (pay * self.n + other, u * self.n + v, v * self.n + u)
        return self._flat

    def stacked_weights(self, weight_matrices) -> Tuple:
        """``(rem_w, add_w_u, add_w_v)`` ``(K, P)`` stacks for K matrices."""
        return stacked_weight_columns(
            weight_matrices, self.n, *self._flat_positions()
        )

    def _sliced_weights(self, weight_matrices):
        """``(rows, stacks)`` per :data:`DRAW_SLICE` draws of the K matrices.

        ``rows`` is the slice's ``slice`` of the K draws and ``stacks`` its
        :meth:`stacked_weights`.
        """
        stack = np.asarray(weight_matrices, dtype=np.float64)
        if stack.ndim == 2:
            stack = stack[None]
        # An empty stack still yields one (empty) slice.
        for first in range(0, stack.shape[0], DRAW_SLICE) or [0]:
            rows = slice(first, first + DRAW_SLICE)
            yield rows, self.stacked_weights(stack[rows])

    def stable_mask_multi(self, weight_matrices, ts: Sequence[float], windows=None):
        """``bool[K, n_classes, n_ts]`` stability for K draws at once.

        Row ``k`` is bit-identical to
        ``WeightedStore.from_delta(self, model_k).stable_mask(ts)``.  Each
        :data:`DRAW_SLICE` of draws is one pass: one weight gather and one
        :func:`~repro.engine.columnar.weighted_bcg_stable_mask_multi` call.
        With ``windows=(t_min, t_max)``, two writable float64
        ``(K, n_classes)`` arrays, that same pass fills them slice by slice
        with :meth:`stability_windows_multi`'s rows.
        """
        return np.concatenate([
            weighted_bcg_stable_mask_multi(
                self.rem_delta, self.rem_indptr,
                self.add_s_u, self.add_s_v, self.add_indptr,
                *stacks, ts,
                windows=None if windows is None else tuple(w[rows] for w in windows),
            )
            for rows, stacks in self._sliced_weights(weight_matrices)
        ])

    def stable_counts_multi(self, weight_matrices, ts: Sequence[float], windows=None):
        """``int64[K, n_ts]`` stable-class counts for K draws at once.

        ``windows`` is filled as in :meth:`stable_mask_multi`.
        """
        return self.stable_mask_multi(weight_matrices, ts, windows=windows).sum(
            axis=1, dtype=np.int64
        )

    def stability_windows_multi(self, weight_matrices):
        """``(t_min[K, C], t_max[K, C])`` weighted windows for K draws."""
        t_min, t_max = zip(*(
            weighted_stability_windows_multi(
                self.rem_delta, self.rem_indptr,
                self.add_s_u, self.add_s_v, self.add_indptr,
                *stacks,
            )
            for _rows, stacks in self._sliced_weights(weight_matrices)
        ))
        return np.concatenate(t_min), np.concatenate(t_max)


# --------------------------------------------------------------------------- #
# Per-chunk analysis (module-level for pickling)
# --------------------------------------------------------------------------- #


def _delta_part(graphs: List[Graph], n: int, oracle) -> dict:
    """One column chunk: delta probe columns + certificates for ``graphs``."""
    part = batch_stability_deltas(graphs, oracle=oracle)
    part["cert_words"] = pack_certificates(
        [graph.adjacency_bitstring() for graph in graphs], n
    )
    return part


def cached_delta_store(
    n: Optional[int] = None,
    jobs: Optional[int] = None,
    path: Optional[str] = None,
    mmap: bool = False,
) -> DeltaStore:
    """Build, load or fetch a delta store through the shared store LRU.

    The :func:`~repro.analysis.store.cached_store` pattern applied to delta
    artifacts: with ``n`` the store is built in process; with ``path`` it
    is loaded (optionally memory-mapped) through
    :func:`~repro.analysis.artifact.cached_load`, so a regenerated artifact
    misses the cache instead of serving stale columns.  ``jobs`` only
    affects how a build miss is computed and is not part of the key.
    Entries share one bounded LRU with every other store — repeated
    ensembles on one machine never reload the delta artifact, and a
    process cycling through many artifacts stays bounded.
    """
    if (n is None) == (path is None):
        raise ValueError("exactly one of n and path is required")
    if path is not None:
        return cached_load(DeltaStore, path, mmap)
    return cached(
        ("delta-build", int(n)), "delta-store", lambda: DeltaStore.build(n, jobs=jobs)
    )
