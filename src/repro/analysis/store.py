"""Columnar, persistent census store with vectorised α-grid queries.

:class:`~repro.analysis.census.EquilibriumCensus` keeps one
:class:`~repro.analysis.census.GraphRecord` per isomorphism class — a full
:class:`Graph` plus two dict-of-dicts — which makes the ``n = 9`` census a
multi-gigabyte object graph and forces every Figure 2/3 grid point to walk
all records in Python.  :class:`CensusStore` is the struct-of-arrays
refactor of the same information:

* **columns, not objects** — per class: a packed upper-triangle certificate
  (enough to rebuild the canonical representative), the edge count, the
  total ordered-pair distance sum, the exact BCG α-decision data (per-edge
  minimum removal increase and per-non-edge ``(min, max)`` addition-saving
  pairs in ragged CSR layout) and the UCG
  :class:`~repro.core.stability_intervals.AlphaIntervalSet` endpoints;
* **whole-grid queries** — Definition 3 stability masks, Nash masks,
  equilibrium counts, average/worst price of anarchy and link-count
  aggregates for an entire α-grid in a few segmented NumPy reductions
  (:mod:`repro.engine.columnar`), **bit-identical** to the per-record path
  (the BCG deviation payoffs are integer-valued floats, so the compact
  float32 columns and the reductions are exact; scalar float expressions
  are replicated operation for operation);
* **a versioned on-disk format** — one ``.npz`` (or a directory of
  memory-mappable ``.npy`` columns), resumable shard-by-shard when built
  with :meth:`build_streamed`.

:class:`EquilibriumCensus` remains the readable reference implementation and
compatibility view; the test suite asserts the store's answers equal the
record path element for element, including across a save → load round trip
in a separate process.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zipfile
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

try:  # NumPy backs every column; the store refuses to build without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on minimal installs
    _np = None

from .. import obs
from ..core.efficiency import efficient_social_cost
from ..core.stability_intervals import AlphaIntervalSet, PairwiseStabilityProfile
from ..engine import (
    batch_stability_deltas,
    chunk_evenly,
    content_checksum,
    get_default_oracle,
    parallel_map,
    resolve_jobs,
    run_shards,
    ucg_alpha_sets,
)
from ..engine.columnar import (
    addition_frontier,
    bcg_stable_mask,
    canonical_sort_indices,
    certificate_to_graph,
    certificate_words,
    concat_csr,
    csr_invariant_errors,
    gather_segments,
    pack_certificates,
    segment_min,
    stability_windows,
    ucg_nash_mask,
)
from ..graphs import Graph, enumerate_connected_graphs, enumerate_graphs, is_connected
from ..graphs import canonical_graph, iter_graphs_from, total_distance
from ..graphs.isomorphism import clear_canonical_record

#: On-disk format version; bump on any incompatible schema change.
FORMAT_VERSION = 1

#: Schema tag written into every artifact (guards against loading foreign files).
SCHEMA = "repro-census-store"

#: Everything a store ``load`` can raise on a missing/corrupt/foreign
#: artifact — the one tuple CLI handlers and resume paths should catch.
LOAD_ERRORS = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)

#: Dense per-class columns (name → dtype); ragged columns are listed below.
_DENSE_COLUMNS = ("num_edges", "dist_total", "cert_words")
_BCG_COLUMNS = ("rem_values", "rem_indptr", "add_lo", "add_hi", "add_indptr")
_UCG_COLUMNS = ("ucg_lo", "ucg_hi", "ucg_indptr")


def store_available() -> bool:
    """Whether the columnar store can be used (NumPy importable)."""
    return _np is not None


def _require_numpy():
    if _np is None:  # pragma: no cover - exercised only on minimal installs
        raise RuntimeError(
            "CensusStore requires NumPy; install numpy or use the "
            "per-record EquilibriumCensus path instead"
        )
    return _np


def _check_game(game: str) -> str:
    game = game.lower()
    if game not in ("bcg", "ucg"):
        raise ValueError("game must be 'bcg' or 'ucg'")
    return game


class CensusStore:
    """All connected topologies on ``n`` vertices, as queryable columns.

    Instances are produced by :meth:`build`, :meth:`build_streamed`,
    :meth:`from_census` or :meth:`load`; the constructor just wires up
    pre-validated columns.  Classes are kept in the library's canonical
    census order (:func:`repro.graphs.class_sort_key`), so row ``i`` of the
    store and ``census.records[i]`` describe the same isomorphism class.
    """

    def __init__(
        self,
        n: int,
        include_ucg: bool,
        num_edges,
        dist_total,
        cert_words,
        rem_values,
        rem_indptr,
        add_lo,
        add_hi,
        add_indptr,
        ucg_lo=None,
        ucg_hi=None,
        ucg_indptr=None,
    ) -> None:
        _require_numpy()
        self.n = int(n)
        self.include_ucg = bool(include_ucg)
        self.num_edges = num_edges
        self.dist_total = dist_total
        self.cert_words = cert_words
        self.rem_values = rem_values
        self.rem_indptr = rem_indptr
        self.add_lo = add_lo
        self.add_hi = add_hi
        self.add_indptr = add_indptr
        self.ucg_lo = ucg_lo
        self.ucg_hi = ucg_hi
        self.ucg_indptr = ucg_indptr
        self._rem_min = None  # lazy per-class α_max column
        self._frontier = None  # lazy per-class Pareto frontier of add pairs
        self._m64 = None  # lazy float64 copy of num_edges
        self._artifact_checksum = None  # checksum stamped on the loaded artifact

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls, n: int, include_ucg: bool = True, jobs: Optional[int] = None
    ) -> "CensusStore":
        """Enumerate all connected graphs on ``n`` vertices into columns.

        The enumeration and analysis mirror
        :meth:`EquilibriumCensus.build` exactly — same graphs, same order,
        same deviation analysis — but each pool worker emits **column
        chunks** (a dict of NumPy arrays) instead of pickled
        ``GraphRecord`` objects, so the artifact never exists in
        array-of-objects form.
        """
        _require_numpy()
        graphs = enumerate_connected_graphs(n)
        workers = resolve_jobs(jobs)
        chunks = chunk_evenly(graphs, max(1, workers * 4))
        tasks = [(chunk, n, include_ucg) for chunk in chunks]
        parts = parallel_map(_columns_chunk, tasks, jobs=jobs)
        # enumerate_connected_graphs is already canonically sorted and the
        # chunks preserve order, so no global sort is needed here.
        return cls._from_parts(n, include_ucg, parts)

    @classmethod
    def build_streamed(
        cls,
        n: int,
        include_ucg: bool = True,
        jobs: Optional[int] = None,
        shard_level: Optional[int] = None,
        batch_size: int = 512,
        shard_dir: Optional[str] = None,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        progress=None,
        fault_plan=None,
    ) -> "CensusStore":
        """Build the columns by streaming the canonical-augmentation tree.

        The sharding scheme is identical to
        :meth:`EquilibriumCensus.build_streamed` (disjoint, jointly
        exhaustive subtrees below level-``shard_level`` roots), but workers
        return column chunks.  The fan-out runs through
        :func:`repro.engine.run_shards`: with ``shard_dir`` every finished
        shard persists as a checksummed, config-fingerprinted
        ``shard_XXXX_of_YYYY.npz`` and an interrupted build **resumes**
        from every shard that verifies (corrupt files are recomputed, a
        shard from a different configuration is rejected), with progress
        and retry tallies in the directory's ``manifest.json``.  Worker
        crashes and per-shard ``timeout`` expiries re-queue only the
        incomplete shards (``max_retries`` pool attempts, then an in-parent
        serial fallback).  The merged store is sorted into canonical census
        order, element-for-element identical to :meth:`build` regardless of
        ``jobs``, retries or resume history.
        """
        _require_numpy()
        if n < 0:
            raise ValueError("n must be non-negative")
        workers = resolve_jobs(jobs)
        if shard_level is None:
            shard_level = max(0, min(6, n - 2))
        shard_level = max(0, min(shard_level, n))
        roots = enumerate_graphs(shard_level)
        chunks = chunk_evenly(roots, max(1, workers * 4))
        tasks = [(chunk, n, include_ucg, batch_size) for chunk in chunks]

        report = run_shards(
            _stream_columns_chunk,
            tasks,
            jobs=jobs,
            shard_dir=shard_dir,
            prefix="shard",
            fingerprint={
                "kind": SCHEMA,
                "format_version": FORMAT_VERSION,
                "n": int(n),
                "include_ucg": bool(include_ucg),
            },
            timeout=timeout,
            max_retries=max_retries,
            progress=progress,
            fault_plan=fault_plan,
        )

        store = cls._from_parts(n, include_ucg, report.parts)
        return store.sort_canonical()

    @classmethod
    def from_census(cls, census) -> "CensusStore":
        """Convert a built :class:`EquilibriumCensus` into columns.

        Distance totals are recomputed (exact integers, so the build path
        does not matter); the deviation data is read straight out of the
        record profiles.
        """
        _require_numpy()
        cols = _ColumnAccumulator(census.include_ucg)
        for record in census.records:
            cols.append(
                record.graph,
                record.bcg_profile.removal_increase,
                record.bcg_profile.addition_saving,
                total_distance(record.graph),
                record.ucg_alpha_set,
            )
        return cls._from_parts(census.n, census.include_ucg, [cols.arrays(census.n)])

    @classmethod
    def _from_parts(cls, n: int, include_ucg: bool, parts: List[dict]) -> "CensusStore":
        np = _require_numpy()
        parts = [part for part in parts if part["num_edges"].shape[0]] or [
            _ColumnAccumulator(include_ucg).arrays(n)
        ]
        rem_values, rem_indptr = concat_csr(
            [(p["rem_values"], p["rem_indptr"]) for p in parts]
        )
        add_lo, add_indptr = concat_csr(
            [(p["add_lo"], p["add_indptr"]) for p in parts]
        )
        add_hi = np.concatenate([p["add_hi"] for p in parts])
        kwargs = {}
        if include_ucg:
            ucg_lo, ucg_indptr = concat_csr(
                [(p["ucg_lo"], p["ucg_indptr"]) for p in parts]
            )
            kwargs = {
                "ucg_lo": ucg_lo,
                "ucg_hi": np.concatenate([p["ucg_hi"] for p in parts]),
                "ucg_indptr": ucg_indptr,
            }
        return cls(
            n=n,
            include_ucg=include_ucg,
            num_edges=np.concatenate([p["num_edges"] for p in parts]),
            dist_total=np.concatenate([p["dist_total"] for p in parts]),
            cert_words=np.concatenate([p["cert_words"] for p in parts]),
            rem_values=rem_values,
            rem_indptr=rem_indptr,
            add_lo=add_lo,
            add_hi=add_hi,
            add_indptr=add_indptr,
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    # Ordering
    # ------------------------------------------------------------------ #

    def sort_canonical(self) -> "CensusStore":
        """A copy of the store in canonical census order (stable no-op key)."""
        order = canonical_sort_indices(self.num_edges, self.cert_words, self.n)
        return self.permute(order)

    def permute(self, order) -> "CensusStore":
        """A copy with class ``order[i]`` moved to row ``i`` (all columns)."""
        rem_values, rem_indptr = gather_segments(
            self.rem_values, self.rem_indptr, order
        )
        add_lo, add_indptr = gather_segments(self.add_lo, self.add_indptr, order)
        add_hi, _ = gather_segments(self.add_hi, self.add_indptr, order)
        kwargs = {}
        if self.include_ucg:
            ucg_lo, ucg_indptr = gather_segments(
                self.ucg_lo, self.ucg_indptr, order
            )
            ucg_hi, _ = gather_segments(self.ucg_hi, self.ucg_indptr, order)
            kwargs = {
                "ucg_lo": ucg_lo,
                "ucg_hi": ucg_hi,
                "ucg_indptr": ucg_indptr,
            }
        return CensusStore(
            n=self.n,
            include_ucg=self.include_ucg,
            num_edges=self.num_edges[order],
            dist_total=self.dist_total[order],
            cert_words=self.cert_words[order],
            rem_values=rem_values,
            rem_indptr=rem_indptr,
            add_lo=add_lo,
            add_hi=add_hi,
            add_indptr=add_indptr,
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    # Vectorised α-grid queries
    # ------------------------------------------------------------------ #

    def _rem_min_column(self):
        if self._rem_min is None:
            self._rem_min = segment_min(self.rem_values, self.rem_indptr)
        return self._rem_min

    def _frontier_columns(self):
        """``(lo, hi, indptr)`` of the per-class addition frontier.

        The pairs :func:`bcg_stable_mask` can decide on — at n = 8, 13,011
        of the 151,056 stored pairs.
        """
        if self._frontier is None:
            self._frontier = addition_frontier(
                self.add_lo, self.add_hi, self.add_indptr
            )
        return self._frontier

    def stable_mask(self, alphas: Sequence[float], game: str = "bcg"):
        """``bool[n_classes, n_alphas]`` equilibrium membership on a grid.

        ``game="bcg"`` gives exact Definition 3 pairwise stability,
        ``game="ucg"`` Nash-supportability — bit-identical per element to
        :meth:`GraphRecord.is_bcg_stable_at` /
        :meth:`GraphRecord.is_ucg_nash_at`.
        """
        game = _check_game(game)
        if game == "bcg":
            return bcg_stable_mask(
                self._rem_min_column(), *self._frontier_columns(), alphas
            )
        if not self.include_ucg:
            raise ValueError("census was built without the UCG analysis")
        return ucg_nash_mask(self.ucg_lo, self.ucg_hi, self.ucg_indptr, alphas)

    def equilibrium_counts(self, alphas: Sequence[float], game: str):
        """Number of equilibrium classes at every grid point."""
        return self.stable_mask(alphas, game).sum(axis=0)

    def stability_windows(self):
        """Per-class Lemma 2 ``(α_min, α_max)`` arrays (BCG)."""
        return stability_windows(self._rem_min_column(), self.add_lo, self.add_indptr)

    def _poa_entries(self, alphas: List[float], points, rows, game: str):
        """``ρ(G, α)`` for each ``(alphas[points[i]], class rows[i])`` entry.

        ``social_cost`` is ``per_edge·α·m + Σd`` evaluated elementwise with
        the exact operation order of :func:`repro.core.costs.social_cost_bcg`
        (IEEE elementwise ops equal the scalar ops, so each entry is
        bit-identical to :func:`repro.core.anarchy.price_of_anarchy`).
        """
        np = _np
        if self._m64 is None:
            self._m64 = np.asarray(self.num_edges, dtype=np.float64)
        per_edge = 2.0 if game == "bcg" else 1.0
        optimum = np.array(
            [efficient_social_cost(self.n, alpha, game) for alpha in alphas],
            dtype=np.float64,
        )
        free = optimum == 0
        optimum[free] = 1.0
        # np.asarray: index a plain view, not the (possibly mapped) column.
        cost = (per_edge * np.asarray(alphas))[points] * self._m64[rows] + (
            np.asarray(self.dist_total)[rows]
        )
        poa = cost / optimum[points]
        poa[free[points]] = 1.0
        return poa

    def grid_aggregates(self, alphas: Sequence[float], game: str) -> Dict[str, list]:
        """Whole-grid Figure 2/3 aggregates in one vectorised pass.

        Returns ``counts``, ``average_poa``, ``worst_poa`` and
        ``average_links`` lists (one entry per grid point), each equal to
        the corresponding :class:`EquilibriumCensus` aggregate — including
        the sequential left-to-right float summation of the record path,
        so averages match to the last bit, and ``nan`` for empty
        equilibrium sets.  Only the equilibrium rows of each grid point
        are read.
        """
        np = _np
        game = _check_game(game)
        alphas = [float(alpha) for alpha in alphas]
        rows, points = np.divmod(
            np.flatnonzero(self.stable_mask(alphas, game)), len(alphas)
        )
        # Group by grid point; a stable sort keeps each point's equilibrium
        # rows ascending, i.e. in record order.
        by_point = np.argsort(points, kind="stable")
        rows, points = rows[by_point], points[by_point]
        sizes = np.bincount(points, minlength=len(alphas))
        starts = np.cumsum(sizes) - sizes
        filled = starts[sizes > 0]
        poa = self._poa_entries(alphas, points, rows, game)
        worst = np.maximum.reduceat(poa, filled)
        links = np.add.reduceat(
            np.asarray(self.num_edges)[rows].astype(np.int64), filled
        )
        values = poa.tolist()
        counts: List[int] = []
        average_poa: List[float] = []
        worst_poa: List[float] = []
        average_links: List[float] = []
        k = 0
        for start, count in zip(starts.tolist(), sizes.tolist()):
            counts.append(count)
            if count == 0:
                average_poa.append(float("nan"))
                worst_poa.append(float("nan"))
                average_links.append(float("nan"))
                continue
            total = 0
            for value in values[start:start + count]:
                total = total + value
            average_poa.append(total / count)
            worst_poa.append(float(worst[k]))
            average_links.append(int(links[k]) / count)
            k += 1
        return {
            "counts": counts,
            "average_poa": average_poa,
            "worst_poa": worst_poa,
            "average_links": average_links,
        }

    # ------------------------------------------------------------------ #
    # Scalar compatibility API (mirrors EquilibriumCensus)
    # ------------------------------------------------------------------ #

    def equilibrium_count(self, alpha: float, game: str) -> int:
        """Number of equilibrium topologies at ``alpha``."""
        return int(self.stable_mask([alpha], game).sum())

    def average_price_of_anarchy(self, alpha: float, game: str) -> float:
        """Mean ``ρ(G)`` over the equilibrium topologies at ``alpha``."""
        return self.grid_aggregates([alpha], game)["average_poa"][0]

    def worst_price_of_anarchy(self, alpha: float, game: str) -> float:
        """Maximum ``ρ(G)`` over the equilibrium topologies at ``alpha``."""
        return self.grid_aggregates([alpha], game)["worst_poa"][0]

    def average_num_links(self, alpha: float, game: str) -> float:
        """Mean edge count over the equilibrium topologies at ``alpha``."""
        return self.grid_aggregates([alpha], game)["average_links"][0]

    def edge_count_histogram(self, alpha: float, game: str) -> Dict[int, int]:
        """Histogram of edge counts over the equilibrium topologies."""
        np = _np
        selected = self.stable_mask([alpha], game)[:, 0]
        values, counts = np.unique(self.num_edges[selected], return_counts=True)
        return {int(v): int(c) for v, c in zip(values.tolist(), counts.tolist())}

    def graph_at(self, index: int) -> Graph:
        """Rebuild the canonical representative stored at row ``index``."""
        return certificate_to_graph(self.cert_words[index], self.n)

    def graphs(self) -> List[Graph]:
        """Rebuild every stored representative (canonical census order)."""
        return [self.graph_at(i) for i in range(len(self))]

    def equilibrium_graphs(self, alpha: float, game: str) -> List[Graph]:
        """Equilibrium topologies of either game at ``alpha`` (decoded)."""
        np = _np
        selected = self.stable_mask([alpha], game)[:, 0]
        return [self.graph_at(int(i)) for i in np.nonzero(selected)[0]]

    def stable_graphs_bcg(self, alpha: float) -> List[Graph]:
        """All pairwise-stable topologies at link cost ``alpha``."""
        return self.equilibrium_graphs(alpha, "bcg")

    def nash_graphs_ucg(self, alpha: float) -> List[Graph]:
        """All UCG-Nash topologies at link cost ``alpha``."""
        return self.equilibrium_graphs(alpha, "ucg")

    def __len__(self) -> int:
        return int(self.num_edges.shape[0])

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def _columns(self) -> Dict[str, object]:
        columns = {name: getattr(self, name) for name in _DENSE_COLUMNS}
        columns.update({name: getattr(self, name) for name in _BCG_COLUMNS})
        if self.include_ucg:
            columns.update({name: getattr(self, name) for name in _UCG_COLUMNS})
        return columns

    @property
    def nbytes(self) -> int:
        """Resident bytes across every column."""
        return sum(array.nbytes for array in self._columns().values())

    def content_checksum(self) -> str:
        """sha256 over every column's name, dtype, shape and bytes."""
        return content_checksum(self._columns())

    def verify(self) -> Dict[str, object]:
        """Audit the artifact: checksum + structural invariants.

        Returns ``{"ok", "classes", "checksum", "errors"}`` where
        ``checksum`` is ``"ok"`` / ``"mismatch"`` (vs the stamp written by
        :meth:`save`, when the artifact carries one) / ``"absent"``.
        Structural checks: CSR layout of every ragged column, per-class
        probe counts against the edge counts (each class has one removal
        probe per edge and one addition probe per non-edge), edge counts
        within ``[0, C(n,2)]``, finite distance totals, and ordered UCG
        interval endpoints.  A corrupt artifact is caught here, at audit
        time, instead of mid-query.
        """
        np = _require_numpy()
        classes = len(self)
        errors: List[str] = []
        errors += csr_invariant_errors(
            "rem", self.rem_values.shape[0], self.rem_indptr, classes
        )
        errors += csr_invariant_errors(
            "add", self.add_lo.shape[0], self.add_indptr, classes
        )
        if self.add_hi.shape != self.add_lo.shape:
            errors.append("add: add_hi and add_lo lengths differ")
        pairs = self.n * (self.n - 1) // 2
        edges = np.asarray(self.num_edges, dtype=np.int64)
        if classes:
            if bool(np.any(edges < 0)) or bool(np.any(edges > pairs)):
                errors.append(f"num_edges outside [0, {pairs}]")
            elif not errors:
                # One removal probe per edge, one addition probe per non-edge.
                if bool(np.any(np.diff(self.rem_indptr) != edges)):
                    errors.append("rem: per-class probe counts != num_edges")
                if bool(np.any(np.diff(self.add_indptr) != pairs - edges)):
                    errors.append("add: per-class probe counts != non-edges")
            if not bool(np.all(np.isfinite(np.asarray(self.dist_total)))):
                errors.append("dist_total contains non-finite values")
        if self.include_ucg:
            errors += csr_invariant_errors(
                "ucg", self.ucg_lo.shape[0], self.ucg_indptr, classes
            )
            if self.ucg_hi.shape != self.ucg_lo.shape:
                errors.append("ucg: ucg_hi and ucg_lo lengths differ")
            elif self.ucg_lo.shape[0] and bool(
                np.any(np.asarray(self.ucg_lo) > np.asarray(self.ucg_hi))
            ):
                errors.append("ucg: interval lo > hi")
        if self._artifact_checksum is None:
            checksum = "absent"
        elif self.content_checksum() == self._artifact_checksum:
            checksum = "ok"
        else:
            checksum = "mismatch"
            errors.append("content checksum does not match the saved stamp")
        return {
            "ok": not errors,
            "classes": classes,
            "checksum": checksum,
            "errors": errors,
        }

    def summary(self) -> Dict[str, object]:
        """Artifact metadata (used by the CLI and the report renderer)."""
        return {
            "n": self.n,
            "classes": len(self),
            "include_ucg": self.include_ucg,
            "format_version": FORMAT_VERSION,
            "nbytes": self.nbytes,
            "column_bytes": {
                name: array.nbytes for name, array in self._columns().items()
            },
        }

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path: str, format: Optional[str] = None, compress: bool = False) -> str:
        """Write the store to ``path``; returns the path written.

        ``format="npz"`` (default for ``*.npz`` paths) writes one NumPy
        archive; ``format="dir"`` writes a directory of raw ``.npy``
        columns plus ``meta.json`` — the directory layout can be loaded
        with ``mmap=True`` so multi-hundred-MB artifacts never enter
        resident memory at once.  Both carry the schema tag and
        :data:`FORMAT_VERSION`.
        """
        start = time.perf_counter()
        written = self._save_impl(path, format, compress)
        obs.record_artifact_io(
            "save", "census", written, time.perf_counter() - start
        )
        return written

    def _save_impl(self, path: str, format: Optional[str], compress: bool) -> str:
        np = _require_numpy()
        format = self._resolve_format(path, format)
        if format == "npz":
            if not str(path).endswith(".npz"):
                # np.savez appends the suffix itself; make that explicit so
                # the returned path is the file actually written.
                path = f"{path}.npz"
            payload = dict(self._columns())
            payload["schema"] = np.str_(SCHEMA)
            payload["format_version"] = np.int64(FORMAT_VERSION)
            payload["n"] = np.int64(self.n)
            payload["include_ucg"] = np.bool_(self.include_ucg)
            payload["checksum"] = np.str_(self.content_checksum())
            writer = np.savez_compressed if compress else np.savez
            writer(path, **payload)
            return path
        os.makedirs(path, exist_ok=True)
        columns = self._columns()
        meta = {
            "schema": SCHEMA,
            "format_version": FORMAT_VERSION,
            "n": self.n,
            "include_ucg": self.include_ucg,
            "columns": sorted(columns),
            "checksum": self.content_checksum(),
        }
        with open(os.path.join(path, "meta.json"), "w") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)
            handle.write("\n")
        for name, array in columns.items():
            np.save(os.path.join(path, f"{name}.npy"), array)
        return path

    @staticmethod
    def _resolve_format(path: str, format: Optional[str]) -> str:
        if format is None:
            format = "npz" if str(path).endswith(".npz") else "dir"
        if format not in ("npz", "dir"):
            raise ValueError("format must be 'npz' or 'dir'")
        return format

    @classmethod
    def load(cls, path: str, mmap: bool = False) -> "CensusStore":
        """Load a store written by :meth:`save`.

        ``mmap=True`` memory-maps the columns and is only supported for the
        directory format (zip archives cannot be mapped page-aligned).
        """
        start = time.perf_counter()
        store = cls._load_impl(path, mmap)
        obs.record_artifact_io(
            "load", "census", path, time.perf_counter() - start
        )
        return store

    @classmethod
    def _load_impl(cls, path: str, mmap: bool) -> "CensusStore":
        np = _require_numpy()
        if os.path.isdir(path):
            with open(os.path.join(path, "meta.json")) as handle:
                meta = json.load(handle)
            cls._check_meta(meta.get("schema"), meta.get("format_version"), path)
            mmap_mode = "r" if mmap else None
            columns = {
                name: np.load(
                    os.path.join(path, f"{name}.npy"), mmap_mode=mmap_mode
                )
                for name in meta["columns"]
            }
            store = cls(n=meta["n"], include_ucg=meta["include_ucg"], **columns)
            store._artifact_checksum = meta.get("checksum")
            return store
        if mmap:
            raise ValueError(
                "mmap loading requires the directory format; save with "
                "format='dir' for memory-mappable artifacts"
            )
        with np.load(path, allow_pickle=False) as data:
            schema = str(data["schema"]) if "schema" in data else None
            version = (
                int(data["format_version"]) if "format_version" in data else None
            )
            cls._check_meta(schema, version, path)
            include_ucg = bool(data["include_ucg"])
            columns = {name: data[name] for name in _DENSE_COLUMNS + _BCG_COLUMNS}
            if include_ucg:
                columns.update({name: data[name] for name in _UCG_COLUMNS})
            store = cls(n=int(data["n"]), include_ucg=include_ucg, **columns)
            if "checksum" in data:
                store._artifact_checksum = str(data["checksum"])
            return store

    @staticmethod
    def _check_meta(schema: Optional[str], version: Optional[int], path: str) -> None:
        if schema != SCHEMA:
            raise ValueError(f"{path!r} is not a census-store artifact")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{path!r} has store format version {version}; this build "
                f"reads version {FORMAT_VERSION}"
            )


# --------------------------------------------------------------------------- #
# Column assembly (shared by every build path and the pool workers)
# --------------------------------------------------------------------------- #


class _ColumnAccumulator:
    """Builds the per-class columns of one chunk in plain Python lists.

    The float32 value columns are exact: every BCG deviation payoff is an
    integer-valued float (or ``±inf``) far below 2**24 (distance sums on
    ``n <= 63`` vertices), so narrowing and widening round-trips bit-exactly.
    The UCG endpoints come from divisions and stay float64.
    """

    def __init__(self, include_ucg: bool) -> None:
        self.include_ucg = include_ucg
        self.certs: List[int] = []
        self.num_edges: List[int] = []
        self.dist_total: List[float] = []
        self.rem_values: List[float] = []
        self.rem_counts: List[int] = []
        self.add_lo: List[float] = []
        self.add_hi: List[float] = []
        self.add_counts: List[int] = []
        self.ucg_lo: List[float] = []
        self.ucg_hi: List[float] = []
        self.ucg_counts: List[int] = []

    def append(
        self,
        graph: Graph,
        removal: Dict,
        addition: Dict,
        total: float,
        ucg_set: Optional[AlphaIntervalSet],
    ) -> None:
        self.certs.append(graph.adjacency_bitstring())
        self.num_edges.append(graph.num_edges)
        self.dist_total.append(float(total))
        edges = graph.sorted_edges()
        for (u, v) in edges:
            self.rem_values.append(
                min(removal[((u, v), u)], removal[((u, v), v)])
            )
        self.rem_counts.append(len(edges))
        non_edges = graph.non_edges()
        for (u, v) in non_edges:
            save_u = addition[((u, v), u)]
            save_v = addition[((u, v), v)]
            if save_u <= save_v:
                self.add_lo.append(save_u)
                self.add_hi.append(save_v)
            else:
                self.add_lo.append(save_v)
                self.add_hi.append(save_u)
        self.add_counts.append(len(non_edges))
        if self.include_ucg:
            intervals = ucg_set.intervals
            for interval in intervals:
                self.ucg_lo.append(interval.lo)
                self.ucg_hi.append(interval.hi)
            self.ucg_counts.append(len(intervals))

    def arrays(self, n: int) -> dict:
        np = _require_numpy()

        def indptr(counts: List[int]):
            out = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(np.asarray(counts, dtype=np.int64), out=out[1:])
            return out

        part = {
            "num_edges": np.asarray(self.num_edges, dtype=np.int32),
            "dist_total": np.asarray(self.dist_total, dtype=np.float64),
            "cert_words": pack_certificates(self.certs, n),
            "rem_values": np.asarray(self.rem_values, dtype=np.float32),
            "rem_indptr": indptr(self.rem_counts),
            "add_lo": np.asarray(self.add_lo, dtype=np.float32),
            "add_hi": np.asarray(self.add_hi, dtype=np.float32),
            "add_indptr": indptr(self.add_counts),
        }
        if self.include_ucg:
            part["ucg_lo"] = np.asarray(self.ucg_lo, dtype=np.float64)
            part["ucg_hi"] = np.asarray(self.ucg_hi, dtype=np.float64)
            part["ucg_indptr"] = indptr(self.ucg_counts)
        return part


def bcg_alpha_columns(profiles: Sequence[PairwiseStabilityProfile]):
    """BCG α-decision columns for an ad-hoc batch of stability profiles.

    Returns ``(rem_min, add_lo, add_hi, add_indptr)`` ready for
    :func:`repro.engine.columnar.bcg_stable_mask` /
    :func:`~repro.engine.columnar.stability_windows`.  Unlike the store,
    the graphs may have heterogeneous vertex counts (the masks never look
    at ``n``) — this is how the Figure 1 experiment pushes its six named
    graphs through the same vectorised kernels as the censuses.
    """
    np = _require_numpy()
    rem_min: List[float] = []
    add_lo: List[float] = []
    add_hi: List[float] = []
    indptr: List[int] = [0]
    for profile in profiles:
        removal = profile.removal_increase
        rem_min.append(min(removal.values()) if removal else float("inf"))
        for (u, v) in profile.graph.non_edges():
            save_u = profile.addition_saving[((u, v), u)]
            save_v = profile.addition_saving[((u, v), v)]
            add_lo.append(min(save_u, save_v))
            add_hi.append(max(save_u, save_v))
        indptr.append(len(add_lo))
    return (
        np.asarray(rem_min, dtype=np.float64),
        np.asarray(add_lo, dtype=np.float64),
        np.asarray(add_hi, dtype=np.float64),
        np.asarray(indptr, dtype=np.int64),
    )


# --------------------------------------------------------------------------- #
# Pool workers (module-level for pickling)
# --------------------------------------------------------------------------- #


def _analyse_columns(graphs: List[Graph], n: int, include_ucg: bool, oracle) -> dict:
    """Column chunk for a batch of graphs (same analysis as ``_make_records``)."""
    results = batch_stability_deltas(graphs, oracle=oracle, return_totals=True)
    cols = _ColumnAccumulator(include_ucg)
    ucg_sets = (
        ucg_alpha_sets(graphs, oracle=oracle) if include_ucg else [None] * len(graphs)
    )
    for graph, ((removal, addition), total), ucg_set in zip(
        graphs, results, ucg_sets
    ):
        cols.append(graph, removal, addition, total, ucg_set)
    return cols.arrays(n)


def _columns_chunk(task: Tuple[List[Graph], int, bool]) -> dict:
    graphs, n, include_ucg = task
    return _analyse_columns(graphs, n, include_ucg, get_default_oracle())


def _stream_columns_chunk(task: Tuple[List[Graph], int, bool, int]) -> dict:
    """Generate-and-analyse one generation-tree shard into columns."""
    roots, n, include_ucg, batch_size = task
    oracle = get_default_oracle()
    cols = _ColumnAccumulator(include_ucg)
    pending: List[Graph] = []

    def flush() -> None:
        results = batch_stability_deltas(pending, oracle=oracle, return_totals=True)
        # Graphs arrive canonical with their automorphism record memoised,
        # so the batched UCG engine orbit-prunes automatically.
        ucg_sets = (
            ucg_alpha_sets(pending, oracle=oracle)
            if include_ucg
            else [None] * len(pending)
        )
        for graph, ((removal, addition), total), ucg_set in zip(
            pending, results, ucg_sets
        ):
            cols.append(graph, removal, addition, total, ucg_set)
            clear_canonical_record(graph)
        obs.counter(
            "repro_stream_classes_total",
            "Graph classes analysed by streamed store builds",
            store="census",
        ).inc(len(pending))
        pending.clear()

    for root in roots:
        for graph in iter_graphs_from(root, n):
            if not is_connected(graph):
                continue
            pending.append(canonical_graph(graph))
            if len(pending) >= batch_size:
                flush()
    if pending:
        flush()
    return cols.arrays(n)


# --------------------------------------------------------------------------- #
# Process-wide store cache (mirrors cached_census)
# --------------------------------------------------------------------------- #


_STORE_CACHE: "OrderedDict[tuple, CensusStore]" = OrderedDict()

#: One re-entrant lock guards every mutation of :data:`_STORE_CACHE` — the
#: cache is shared by :func:`cached_store`, :func:`cached_delta_store` and
#: :func:`cached_weighted_store`, and the service layer calls all three from
#: concurrent request threads.  The lock is held across a whole miss
#: (including the build/load) so the hit/miss/eviction counters stay exact
#: and two threads never build the same artifact twice; artifact loads are
#: milliseconds, and the expensive kernel queries run outside the lock.
_STORE_CACHE_LOCK = threading.RLock()

#: Upper bound on cached stores.  Small on purpose: an n = 8 store is a few
#: MB resident but an n = 9 store is tens of MB, and a long-lived process
#: cycling through artifacts (the ensemble/experiment runners) must not
#: accumulate every store it ever touched.
STORE_CACHE_MAX = 8


def _artifact_stamp(path: str) -> tuple:
    """``(mtime_ns, size)`` of an artifact, so rewrites miss the cache.

    Load-keyed cache entries are not determined by the path alone — a
    long-lived process may regenerate an artifact in place and must not
    keep being served the old columns.  The directory format aggregates
    over every file in the directory (newest mtime, total size), so
    rewriting any single column in place also invalidates the entry.
    """
    if os.path.isdir(path):
        # Per-file stamps, not an aggregate: a same-clock-tick in-place
        # rewrite of one column leaves the directory-wide max mtime (and
        # total size) unchanged but never that file's own pre-write mtime.
        return tuple(
            (name,) + _artifact_stamp(os.path.join(path, name))
            for name in sorted(os.listdir(path))
        )
    stat = os.stat(path)
    return (stat.st_mtime_ns, stat.st_size)


def _cache_store(key: tuple, store: CensusStore) -> CensusStore:
    """Insert (or touch) one cache entry, evicting least-recently-used.

    Callers must hold :data:`_STORE_CACHE_LOCK`.
    """
    _STORE_CACHE[key] = store
    _STORE_CACHE.move_to_end(key)
    while len(_STORE_CACHE) > max(1, STORE_CACHE_MAX):
        _STORE_CACHE.popitem(last=False)
        obs.counter(
            "repro_cache_evictions_total", "LRU evictions from the store cache",
            cache="store-lru",
        ).inc()
    return store


def _count_cache_lookup(cache: str, hit: bool) -> None:
    """One hit-or-miss tick for a store-cache lookup."""
    obs.counter(
        "repro_cache_hits_total" if hit else "repro_cache_misses_total",
        "Store-cache lookups served from memory"
        if hit
        else "Store-cache lookups that had to build or load",
        cache=cache,
    ).inc()


def cached_store(
    n: Optional[int] = None,
    include_ucg: bool = True,
    jobs: Optional[int] = None,
    path: Optional[str] = None,
    mmap: bool = False,
) -> CensusStore:
    """Build, load or fetch the columnar store (bounded LRU cache).

    With ``n`` the store is built in process (or converted from a record
    census already sitting in the census cache —
    :meth:`CensusStore.from_census` skips the whole deviation + UCG
    orientation pass).  With ``path`` it is loaded from an on-disk
    artifact instead, optionally memory-mapped.

    Every option that changes what the returned *object* is — ``n`` and
    ``include_ucg`` for builds; the absolute path, ``mmap`` and the file's
    modification stamp for loads — is part of the cache key, so a resident
    store can never be handed out where a mapped view was requested (or
    vice versa), and an artifact rewritten in place on disk misses the
    cache instead of serving its old columns.  ``jobs`` only
    affects how a build miss is computed; the contents are identical for
    any value and it is therefore *not* part of the key.  The cache keeps
    at most :data:`STORE_CACHE_MAX` stores, evicting least-recently-used.
    """
    if (n is None) == (path is None):
        raise ValueError("exactly one of n and path is required")
    if path is not None:
        key = ("load", os.path.abspath(path), bool(mmap), _artifact_stamp(path))
        with _STORE_CACHE_LOCK:
            store = _STORE_CACHE.get(key)
            _count_cache_lookup("census-store", hit=store is not None)
            if store is None:
                store = CensusStore.load(path, mmap=mmap)
            return _cache_store(key, store)

    from .census import _CENSUS_CACHE

    key = ("build", int(n), bool(include_ucg))
    with _STORE_CACHE_LOCK:
        store = _STORE_CACHE.get(key)
        _count_cache_lookup("census-store", hit=store is not None)
        if store is None:
            cached = _CENSUS_CACHE.get((int(n), bool(include_ucg)))
            if cached is not None:
                store = CensusStore.from_census(cached)
            else:
                store = CensusStore.build(n, include_ucg=include_ucg, jobs=jobs)
        return _cache_store(key, store)


def clear_store_cache() -> None:
    """Drop the store cache (used by cold-start benchmarks and tests)."""
    with _STORE_CACHE_LOCK:
        _STORE_CACHE.clear()


# Pre-register the cache counter families at import so a fresh exposition
# always carries them — a build-only run never performs a cache lookup,
# and a dashboard watching hit rate needs the zero series to exist.
if obs.metrics_enabled():
    obs.counter(
        "repro_cache_hits_total",
        "Store-cache lookups served from memory",
        cache="census-store",
    )
    obs.counter(
        "repro_cache_misses_total",
        "Store-cache lookups that had to build or load",
        cache="census-store",
    )
    obs.counter(
        "repro_cache_evictions_total",
        "LRU evictions from the store cache",
        cache="store-lru",
    )
