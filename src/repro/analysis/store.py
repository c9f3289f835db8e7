"""Columnar, persistent census store with vectorised α-grid queries.

The empirical study of Section 5 asks one question of every connected
topology on ``n`` vertices: is it pairwise stable (BCG) or Nash (UCG) at
link cost α?  The per-graph deviation analysis behind that answer does not
depend on α, so :class:`CensusStore` runs it once per isomorphism class and
keeps the results as columns:

* **columns, not objects** — per class: a packed upper-triangle certificate
  (enough to rebuild the canonical representative), the edge count, the
  total ordered-pair distance sum, the exact BCG α-decision data (per-edge
  minimum removal increase and per-non-edge ``(min, max)`` addition-saving
  pairs in ragged CSR layout) and the UCG
  :class:`~repro.core.stability_intervals.AlphaIntervalSet` endpoints;
* **whole-grid queries** — Definition 3 stability masks, Nash masks,
  equilibrium counts, average/worst price of anarchy and link-count
  aggregates for an entire α-grid in a few segmented NumPy reductions
  (:mod:`repro.engine.columnar`), **bit-identical** to the per-graph
  references (the BCG deviation payoffs are integer-valued floats, so the
  compact float32 columns and the reductions are exact; scalar float
  expressions are replicated operation for operation);
* **a versioned on-disk format** — one ``.npz`` (or a directory of
  memory-mappable ``.npy`` columns), resumable shard-by-shard when built
  with :meth:`build_streamed`.

The test suite asserts the store's answers equal the per-graph references
(:func:`~repro.core.stability_intervals.pairwise_stability_profile`,
:func:`~repro.core.unilateral.ucg_nash_alpha_set` and
:func:`~repro.core.anarchy.price_of_anarchy`) element for element,
including across a save → load round trip in a separate process.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.efficiency import _check_game, efficient_social_cost
from ..core.stability_intervals import AlphaIntervalSet, PairwiseStabilityProfile
from ..engine import (
    batch_stability_deltas,
    chunk_evenly,
    parallel_map,
    resolve_jobs,
    ucg_alpha_sets,
)
from ..engine.columnar import (
    addition_frontier,
    bcg_stable_mask,
    pack_certificates,
    segment_min,
    stability_windows,
    ucg_interval_columns,
    ucg_nash_mask,
)
from ..graphs import Graph, enumerate_connected_graphs
from .artifact import ColumnArtifact, ColumnSpec, cached, cached_load
from .artifact import clear_store_cache  # noqa: F401 - re-exported beside cached_store

#: On-disk format version; bump on any incompatible schema change.
FORMAT_VERSION = 1

#: Schema tag written into every artifact (guards against loading foreign files).
SCHEMA = "repro-census-store"


class CensusStore(ColumnArtifact):
    """All connected topologies on ``n`` vertices, as queryable columns.

    Instances are produced by :meth:`build`, :meth:`build_streamed` or
    :meth:`load`; the constructor just wires up pre-validated columns.
    Classes are kept in the library's canonical census order
    (:func:`repro.graphs.class_sort_key`), so row ``i`` of the store is
    ``enumerate_connected_graphs(n)[i]``.
    """

    KIND = "census"
    SCHEMA = SCHEMA
    FORMAT_VERSION = FORMAT_VERSION
    SHARD_PREFIX = "shard"
    #: Per class: certificate, edge count, distance total, the minimum
    #: removal increase per edge, the ``(min, max)`` addition saving per
    #: non-edge and (optionally) the UCG α-interval endpoints.
    SPEC = ColumnSpec(
        dense={"num_edges": "int32", "dist_total": "float64", "cert_words": "uint64"},
        groups={
            "rem_indptr": {"rem_values": "float32"},
            "add_indptr": {"add_lo": "float32", "add_hi": "float32"},
            "ucg_indptr": {"ucg_lo": "float64", "ucg_hi": "float64"},
        },
        optional="ucg_indptr",
    )

    def __init__(self, n: int, columns: Dict[str, object]) -> None:
        super().__init__(n, columns)
        self._rem_min = None  # lazy per-class α_max column
        self._frontier = None  # lazy per-class Pareto frontier of add pairs
        self._m64 = None  # lazy float64 copy of num_edges

    def _meta(self) -> Dict[str, object]:
        return {"include_ucg": self.include_ucg}

    def _describe(self) -> Dict[str, object]:
        return {"include_ucg": self.include_ucg, "format_version": FORMAT_VERSION}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls, n: int, include_ucg: bool = True, jobs: Optional[int] = None
    ) -> "CensusStore":
        """Enumerate all connected graphs on ``n`` vertices into columns.

        ``include_ucg=False`` skips the (more expensive) UCG orientation
        search when only the BCG side is needed.  ``jobs`` fans the analysis
        out over a process pool (``None``/``1`` = serial); each worker runs
        the batch kernels on a contiguous chunk of graphs and emits a
        **column chunk** (a dict of NumPy arrays), so the result is
        identical and identically ordered for any value.
        """
        graphs = enumerate_connected_graphs(n)
        workers = resolve_jobs(jobs)
        chunks = chunk_evenly(graphs, max(1, workers * 4))
        tasks = [(chunk, n, include_ucg) for chunk in chunks]
        parts = parallel_map(_columns_chunk, tasks, jobs=jobs)
        # enumerate_connected_graphs is already canonically sorted and the
        # chunks preserve order, so no global sort is needed here.
        return cls._from_parts(n, parts, include_ucg)

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

        The generation tree is sharded at level ``shard_level``: each worker
        re-generates the subtrees below its chunk of roots in-process and
        analyses graphs in bounded batches as they stream past, so no
        worker materialises the class list.  Shards are fingerprinted on
        ``n`` and ``include_ucg`` and persist as
        ``shard_XXXX_of_YYYY.npz`` under ``shard_dir`` (see
        :meth:`ColumnArtifact._build_streamed
        <repro.analysis.artifact.ColumnArtifact._build_streamed>` for the
        resume, retry and ordering contract).  The result is
        element-for-element identical to :meth:`build`.
        """
        return cls._build_streamed(
            n,
            _analyse_columns,
            {"include_ucg": include_ucg},
            {"include_ucg": bool(include_ucg)},
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
        :meth:`PairwiseStabilityProfile.is_stable_at
        <repro.core.stability_intervals.PairwiseStabilityProfile.is_stable_at>`
        / :meth:`AlphaIntervalSet.contains
        <repro.core.stability_intervals.AlphaIntervalSet.contains>` of the
        class.
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
        ``average_links`` lists (one entry per grid point).  Averages sum
        the per-class :func:`~repro.core.anarchy.price_of_anarchy` values
        left to right in class order, as
        :func:`~repro.core.anarchy.average_price_of_anarchy` does over the
        equilibrium graphs, so they match it to the last bit; empty
        equilibrium sets give ``nan``.  Only the equilibrium rows of each
        grid point are read.
        """
        game = _check_game(game)
        alphas = [float(alpha) for alpha in alphas]
        rows, points = np.divmod(
            np.flatnonzero(self.stable_mask(alphas, game)), len(alphas)
        )
        # Group by grid point; a stable sort keeps each point's equilibrium
        # rows ascending, i.e. in class order.
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
    # Scalar queries at one link cost
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
        selected = self.stable_mask([alpha], game)[:, 0]
        values, counts = np.unique(self.num_edges[selected], return_counts=True)
        return {int(v): int(c) for v, c in zip(values.tolist(), counts.tolist())}

    def equilibrium_graphs(self, alpha: float, game: str) -> List[Graph]:
        """Equilibrium topologies of either game at ``alpha`` (decoded)."""
        selected = self.stable_mask([alpha], game)[:, 0]
        return [self.graph_at(int(i)) for i in np.nonzero(selected)[0]]

    def stable_graphs_bcg(self, alpha: float) -> List[Graph]:
        """All pairwise-stable topologies at link cost ``alpha``."""
        return self.equilibrium_graphs(alpha, "bcg")

    def nash_graphs_ucg(self, alpha: float) -> List[Graph]:
        """All UCG-Nash topologies at link cost ``alpha``."""
        return self.equilibrium_graphs(alpha, "ucg")


# --------------------------------------------------------------------------- #
# Column assembly (shared by every build path and the pool workers)
# --------------------------------------------------------------------------- #


def census_bcg_columns(deltas: Dict[str, object]) -> Dict[str, object]:
    """The census's BCG α-decision columns, reduced from delta columns.

    ``deltas`` is the :func:`repro.engine.batch_stability_deltas` layout.
    Each edge keeps the smaller of its two directed removal probes
    (``rem_values``, one per edge in ``sorted_edges`` order) and each
    non-edge the ``(min, max)`` of its two savings (``add_lo``/``add_hi``),
    so the α-decision data of Definition 3 are segmented reductions of the
    probe columns.  The float32 values stay exact: every BCG deviation
    payoff is an integer-valued float (or ``inf``) far below 2**24.
    """
    rem_delta = deltas["rem_delta"]
    return {
        "rem_values": np.minimum(rem_delta[0::2], rem_delta[1::2]),
        "rem_indptr": deltas["rem_indptr"] // 2,
        "add_lo": np.minimum(deltas["add_s_u"], deltas["add_s_v"]),
        "add_hi": np.maximum(deltas["add_s_u"], deltas["add_s_v"]),
        "add_indptr": deltas["add_indptr"],
    }


class _ColumnAccumulator:
    """Assembles the census columns of one chunk from its probe results.

    :meth:`append` takes a batch of graphs with their delta columns
    (:func:`census_bcg_columns` reduces them) and, with ``include_ucg``,
    their UCG :class:`AlphaIntervalSet` results (packed by
    :func:`~repro.engine.columnar.ucg_interval_columns`, float64 endpoints
    from divisions); :meth:`arrays` returns the chunk's census part.
    """

    def __init__(self, n: int, include_ucg: bool) -> None:
        self.n = n
        self.include_ucg = include_ucg
        self.parts: List[dict] = []

    def append(
        self,
        graphs: Sequence[Graph],
        deltas: Dict[str, object],
        ucg_sets: Optional[Sequence[AlphaIntervalSet]] = None,
    ) -> None:
        part = census_bcg_columns(deltas)
        part["num_edges"] = deltas["num_edges"]
        part["dist_total"] = deltas["dist_total"]
        part["cert_words"] = pack_certificates(
            [graph.adjacency_bitstring() for graph in graphs], self.n
        )
        if self.include_ucg:
            part["ucg_lo"], part["ucg_hi"], part["ucg_indptr"] = (
                ucg_interval_columns(ucg_sets)
            )
        self.parts.append(part)

    def arrays(self) -> dict:
        return CensusStore._merge_parts(self.parts, self.n, self.include_ucg)


def bcg_alpha_columns(profiles: Sequence[PairwiseStabilityProfile]):
    """BCG α-decision columns for an ad-hoc batch of stability profiles.

    Returns ``(rem_min, add_lo, add_hi, add_indptr)`` ready for
    :func:`repro.engine.columnar.bcg_stable_mask` /
    :func:`~repro.engine.columnar.stability_windows`.  Unlike the store,
    the graphs may have heterogeneous vertex counts (the masks never look
    at ``n``) — this is how the Figure 1 experiment pushes its six named
    graphs through the same vectorised kernels as the censuses.
    """
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


def _analyse_columns(graphs: List[Graph], n: int, include_ucg: bool) -> dict:
    """Column chunk for a batch of graphs: Δ probes, totals and UCG sets."""
    deltas = batch_stability_deltas(graphs)
    cols = _ColumnAccumulator(n, include_ucg)
    cols.append(graphs, deltas, ucg_alpha_sets(graphs) if include_ucg else None)
    return cols.arrays()


def _columns_chunk(task: Tuple[List[Graph], int, bool]) -> dict:
    return _analyse_columns(*task)


def cached_store(
    n: Optional[int] = None,
    include_ucg: bool = True,
    jobs: Optional[int] = None,
    path: Optional[str] = None,
    mmap: bool = False,
) -> CensusStore:
    """Build, load or fetch the columnar store (the shared store LRU).

    With ``n`` the store is built in process.  With ``path`` it is loaded
    from an on-disk artifact instead, optionally memory-mapped
    (:func:`~repro.analysis.artifact.cached_load`).

    Every option that changes what the returned *object* is — ``n`` and
    ``include_ucg`` for builds; the absolute path, ``mmap`` and the file's
    modification stamp for loads — is part of the cache key.  ``jobs`` only
    affects how a build miss is computed; the contents are identical for
    any value and it is therefore *not* part of the key.
    """
    if (n is None) == (path is None):
        raise ValueError("exactly one of n and path is required")
    if path is not None:
        return cached_load(CensusStore, path, mmap)

    def make() -> CensusStore:
        return CensusStore.build(n, include_ucg=include_ucg, jobs=jobs)

    return cached(("census-build", int(n), bool(include_ucg)), "census-store", make)
