"""One columnar artifact base for the census, delta and weighted stores.

:class:`~repro.analysis.store.CensusStore`,
:class:`~repro.analysis.delta_store.DeltaStore` and
:class:`~repro.analysis.weighted_store.WeightedStore` share one shape:
dense columns with one row per isomorphism class (canonical census order),
and ragged CSR groups whose ``<group>_indptr`` offsets slice each class's
probes out of flat value columns.  :class:`ColumnArtifact` owns everything
that follows from that shape, driven by each kind's :class:`ColumnSpec`:

* **persistence** — one versioned ``.npz`` or a directory of
  memory-mappable ``.npy`` columns plus ``meta.json``, carrying the schema
  tag, the format version, ``n``, the kind's metadata and a content
  checksum stamped on :meth:`~ColumnArtifact.save`;
* **the audit** — :meth:`~ColumnArtifact.verify` checks the CSR layout,
  probe counts, value ranges and the stamped checksum;
* **ordering and merging** — :meth:`~ColumnArtifact.permute`,
  :meth:`~ColumnArtifact.sort_canonical` and the part merge every build
  path funnels through;
* **streamed builds** — one resumable, sharded generate → canonicalise →
  analyse worker behind the census and delta ``build_streamed`` (the
  weighted one prices the delta store's);
* **the store LRU** — :func:`cached` / :func:`cached_load`, one bounded,
  thread-safe, single-flight cache for every kind.

Each kind keeps only what differs: its column spec and metadata, its
queries and how its columns are made — the census and delta stores by
their own per-chunk analysis, the weighted store by pricing a delta store.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zipfile
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .. import obs
from ..engine import (
    chunk_evenly,
    content_checksum,
    parallel_map,
    resolve_jobs,
    run_shards,
)
from ..engine.columnar import (
    canonical_sort_indices,
    certificate_to_graph,
    concat_csr,
    csr_invariant_errors,
    gather_segments,
    pack_certificates,
)
from ..graphs import (
    Graph,
    canonical_graph,
    enumerate_connected_graphs,
    enumerate_graphs,
    is_connected,
    iter_graphs_from,
)
from ..graphs.isomorphism import clear_canonical_record

#: Everything a store ``load`` can raise on a missing/corrupt/foreign
#: artifact — the one tuple CLI handlers and resume paths should catch.
LOAD_ERRORS = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)

#: Header keys every artifact carries next to its kind's own metadata.
_HEADER = ("schema", "format_version", "n", "checksum")


@dataclass(frozen=True)
class ColumnSpec:
    """The column layout of one artifact kind.

    ``dense`` maps each per-class column to its dtype; ``groups`` maps each
    CSR group's ``<group>_indptr`` column to its value columns and dtypes
    (the first value column fixes the group's length).  ``optional`` names
    the indptr of the one group an artifact may omit (the UCG intervals),
    ``constants`` the per-artifact arrays (the weighted store's weight
    matrix), and ``removal_per_edge`` the removal probes stored per edge.
    Column order is persistence order: dense, then each group's values
    followed by its indptr, then the constants.
    """

    dense: Dict[str, str]
    groups: Dict[str, Dict[str, str]]
    optional: Optional[str] = None
    constants: Tuple[str, ...] = ()
    removal_per_edge: int = 1

    def group_items(self, optional: bool) -> List[Tuple[str, Dict[str, str]]]:
        """``(indptr, {value: dtype})`` for every group an artifact holds."""
        return [
            (indptr, values)
            for indptr, values in self.groups.items()
            if optional or indptr != self.optional
        ]

    def names(self, optional: bool) -> Tuple[str, ...]:
        """Every column name in persistence order."""
        names = list(self.dense)
        for indptr, values in self.group_items(optional):
            names += list(values) + [indptr]
        return tuple(names) + self.constants


class ColumnArtifact:
    """Per-class columns described by a :class:`ColumnSpec`.

    Subclasses set :attr:`KIND` (catalog kind, cache label and telemetry
    ``store`` label), :attr:`SCHEMA`, :attr:`FORMAT_VERSION`, :attr:`SPEC`
    and, if they stream their own builds, :attr:`SHARD_PREFIX`; a kind with
    its own metadata overrides :meth:`_meta` (what :meth:`save` writes next
    to the common header) and :meth:`_restore` (what a load reads back, the
    keys in :attr:`META_KEYS`), and :meth:`_verify_kind` adds kind-specific
    audits.
    """

    KIND: str = ""
    SCHEMA: str = ""
    FORMAT_VERSION: int = 1
    SPEC: ColumnSpec
    SHARD_PREFIX: str = ""
    META_KEYS: Tuple[str, ...] = ()

    def __init__(self, n: int, columns: Dict[str, object]) -> None:
        self.n = int(n)
        for name in self.SPEC.names(optional=True):
            setattr(self, name, columns.get(name))
        self._artifact_checksum = None  # checksum stamped on the loaded artifact

    # ------------------------------------------------------------------ #
    # Per-kind metadata hooks
    # ------------------------------------------------------------------ #

    def _meta(self) -> Dict[str, object]:
        """The kind's metadata, JSON-safe."""
        return {}

    @classmethod
    def _restore(cls, n: int, columns: Dict[str, object], meta: Dict[str, object]):
        """An artifact over ``columns`` carrying the metadata ``meta``."""
        return cls(n, columns)

    def _verify_kind(self) -> List[str]:
        """Kind-specific audit errors (see :meth:`verify`)."""
        return []

    def _describe(self) -> Dict[str, object]:
        """The kind's :meth:`summary` fields between ``classes`` and ``nbytes``."""
        return {"format_version": self.FORMAT_VERSION}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def include_ucg(self) -> bool:
        """Whether the artifact carries its optional (UCG) column group."""
        optional = self.SPEC.optional
        return optional is not None and getattr(self, optional) is not None

    def _columns(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.SPEC.names(self.include_ucg)}

    def __len__(self) -> int:
        return int(self.num_edges.shape[0])

    @property
    def nbytes(self) -> int:
        """Resident bytes across every column."""
        return sum(array.nbytes for array in self._columns().values())

    def content_checksum(self) -> str:
        """sha256 over every column's name, dtype, shape and bytes."""
        return content_checksum(self._columns())

    def graph_at(self, index: int) -> Graph:
        """Rebuild the canonical representative stored at row ``index``."""
        return certificate_to_graph(self.cert_words[index], self.n)

    def graphs(self) -> List[Graph]:
        """Rebuild every stored representative (canonical census order)."""
        return [self.graph_at(i) for i in range(len(self))]

    def summary(self) -> Dict[str, object]:
        """Artifact metadata (used by the CLI, the service and the reports)."""
        return {
            "n": self.n,
            "classes": len(self),
            **self._describe(),
            "nbytes": self.nbytes,
            "column_bytes": {
                name: array.nbytes for name, array in self._columns().items()
            },
        }

    def verify(self) -> Dict[str, object]:
        """Audit the artifact: checksum + structural invariants.

        Returns ``{"ok", "classes", "checksum", "errors"}`` where
        ``checksum`` is ``"ok"`` / ``"mismatch"`` (vs the stamp written by
        :meth:`save`, when the artifact carries one) / ``"absent"``.
        Structural checks: the row count of every dense column, the CSR
        layout of every group and the lengths of its sibling columns,
        per-class probe counts against the edge counts
        (``removal_per_edge`` removal probes per edge, one addition probe
        per non-edge), edge counts within ``[0, C(n,2)]``, finite float
        totals, ordered UCG interval endpoints, and the kind's own checks
        (delta endpoint ranges, the weighted matrix).  A corrupt artifact
        is caught here, at audit time, instead of mid-query.
        """
        spec = self.SPEC
        classes = len(self)
        errors: List[str] = []
        for name in spec.dense:
            rows = np.shape(getattr(self, name))[0]
            if rows != classes:
                errors.append(f"{name}: {rows} rows, expected {classes}")
        for indptr, values in spec.group_items(self.include_ucg):
            group = indptr[: -len("_indptr")]
            first, *siblings = values
            length = getattr(self, first).shape
            errors += csr_invariant_errors(
                group, length[0], getattr(self, indptr), classes
            )
            for name in siblings:
                if getattr(self, name).shape != length:
                    errors.append(f"{group}: {name} and {first} lengths differ")
        pairs = self.n * (self.n - 1) // 2
        edges = np.asarray(self.num_edges, dtype=np.int64)
        if classes:
            if bool(np.any(edges < 0)) or bool(np.any(edges > pairs)):
                errors.append(f"num_edges outside [0, {pairs}]")
            elif not errors:
                per_edge = spec.removal_per_edge
                if bool(np.any(np.diff(self.rem_indptr) != per_edge * edges)):
                    scale = "" if per_edge == 1 else f"{per_edge}*"
                    errors.append(f"rem: per-class probe counts != {scale}num_edges")
                if bool(np.any(np.diff(self.add_indptr) != pairs - edges)):
                    errors.append("add: per-class probe counts != non-edges")
            for name, dtype in spec.dense.items():
                if dtype == "float64" and not bool(
                    np.all(np.isfinite(np.asarray(getattr(self, name))))
                ):
                    errors.append(f"{name} contains non-finite values")
        if (
            self.include_ucg
            and self.ucg_lo.shape == self.ucg_hi.shape
            and bool(np.any(np.asarray(self.ucg_lo) > np.asarray(self.ucg_hi)))
        ):
            errors.append("ucg: interval lo > hi")
        errors += self._verify_kind()
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

    # ------------------------------------------------------------------ #
    # Ordering and part merging
    # ------------------------------------------------------------------ #

    def sort_canonical(self):
        """A copy of the artifact in canonical census order (stable no-op key)."""
        return self.permute(
            canonical_sort_indices(self.num_edges, self.cert_words, self.n)
        )

    def permute(self, order):
        """A copy with class ``order[i]`` moved to row ``i`` (all columns)."""
        columns = {name: getattr(self, name)[order] for name in self.SPEC.dense}
        for indptr, values in self.SPEC.group_items(self.include_ucg):
            for name in values:
                columns[name], columns[indptr] = gather_segments(
                    getattr(self, name), getattr(self, indptr), order
                )
        columns.update({name: getattr(self, name) for name in self.SPEC.constants})
        return self._restore(self.n, columns, self._meta())

    @classmethod
    def _empty_part(cls, n: int, include_ucg: bool = False) -> dict:
        """A zero-class column chunk with the spec's dtypes."""
        part = {name: np.zeros(0, dtype=dtype) for name, dtype in cls.SPEC.dense.items()}
        part["cert_words"] = pack_certificates([], n)
        for indptr, values in cls.SPEC.group_items(include_ucg):
            part.update({name: np.zeros(0, dtype=dtype) for name, dtype in values.items()})
            part[indptr] = np.zeros(1, dtype=np.int64)
        return part

    @classmethod
    def _merge_parts(cls, parts: List[dict], n: int, include_ucg: bool = False) -> dict:
        """Concatenate column chunks (CSR offsets rebased) into one dict.

        The single merge site for every build path — in-process chunks,
        shard files, streamed in-worker batches — so the column set cannot
        drift between them.
        """
        parts = [part for part in parts if part["num_edges"].shape[0]] or [
            cls._empty_part(n, include_ucg)
        ]
        merged = {
            name: np.concatenate([part[name] for part in parts])
            for name in cls.SPEC.dense
        }
        for indptr, values in cls.SPEC.group_items(include_ucg):
            first, *siblings = values
            merged[first], merged[indptr] = concat_csr(
                [(part[first], part[indptr]) for part in parts]
            )
            for name in siblings:
                merged[name] = np.concatenate([part[name] for part in parts])
        return merged

    @classmethod
    def _from_parts(cls, n: int, parts: List[dict], include_ucg: bool = False):
        """One artifact from column chunks."""
        return cls(n, cls._merge_parts(parts, n, include_ucg))

    # ------------------------------------------------------------------ #
    # Builds
    # ------------------------------------------------------------------ #

    @classmethod
    def _build(cls, n: int, analyse: Callable, jobs: Optional[int]):
        """``analyse(graphs, n)`` over every connected class on ``n``
        vertices, fanned out in order-preserving pool chunks."""
        graphs = enumerate_connected_graphs(n)
        chunks = chunk_evenly(graphs, max(1, resolve_jobs(jobs) * 4))
        parts = parallel_map(
            _analyse_chunk, [(analyse, chunk, n) for chunk in chunks], jobs=jobs
        )
        # enumerate_connected_graphs is already canonically sorted and the
        # chunks preserve order, so no global sort is needed here.
        return cls._from_parts(n, parts)

    @classmethod
    def _build_streamed(
        cls,
        n: int,
        analyse: Callable,
        options: Dict[str, object],
        fingerprint: Dict[str, object],
        *,
        jobs: Optional[int],
        shard_level: Optional[int],
        batch_size: int,
        shard_dir: Optional[str],
        timeout: Optional[float],
        max_retries: Optional[int],
        progress,
        fault_plan,
    ):
        """Build by streaming the canonical-augmentation tree.

        Disjoint, jointly exhaustive subtrees below level-``shard_level``
        roots are generated, canonicalised and analysed in batches of
        ``batch_size`` by ``analyse(graphs, n, **options)``.  The
        fan-out runs through :func:`repro.engine.run_shards`: with
        ``shard_dir`` every finished shard persists as a checksummed
        ``<SHARD_PREFIX>_XXXX_of_YYYY.npz`` fingerprinted on the schema,
        format version, ``n`` and ``fingerprint``, so an interrupted build
        resumes from every shard that verifies (corrupt files are
        recomputed, a shard from another configuration is rejected), with
        progress and retry tallies in the directory's ``manifest.json``.
        Worker crashes and per-shard ``timeout`` expiries re-queue only the
        incomplete shards (``max_retries`` pool attempts, then an in-parent
        serial fallback).  The merged artifact is sorted into canonical
        census order, element-for-element identical to the in-memory build
        regardless of ``jobs``, retries or resume history.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if shard_level is None:
            shard_level = max(0, min(6, n - 2))
        shard_level = max(0, min(shard_level, n))
        roots = enumerate_graphs(shard_level)
        chunks = chunk_evenly(roots, max(1, resolve_jobs(jobs) * 4))
        report = run_shards(
            _stream_shard,
            [(cls, analyse, chunk, n, batch_size, options) for chunk in chunks],
            jobs=jobs,
            shard_dir=shard_dir,
            prefix=cls.SHARD_PREFIX,
            fingerprint={
                "kind": cls.SCHEMA,
                "format_version": cls.FORMAT_VERSION,
                "n": int(n),
                **fingerprint,
            },
            timeout=timeout,
            max_retries=max_retries,
            progress=progress,
            fault_plan=fault_plan,
        )
        include_ucg = bool(options.get("include_ucg", False))
        return cls._from_parts(n, report.parts, include_ucg).sort_canonical()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path: str, format: Optional[str] = None) -> str:
        """Write the artifact to ``path``; returns the path written.

        ``format="npz"`` (default for ``*.npz`` paths) writes one NumPy
        archive; ``format="dir"`` writes a directory of raw ``.npy``
        columns plus ``meta.json`` — the directory layout can be loaded
        with ``mmap=True`` so multi-hundred-MB artifacts never enter
        resident memory at once.  Both carry the schema tag,
        the format version, ``n``, the kind's metadata and the content
        checksum :meth:`verify` checks against.
        """
        start = time.perf_counter()
        if format is None:
            format = "npz" if str(path).endswith(".npz") else "dir"
        if format not in ("npz", "dir"):
            raise ValueError("format must be 'npz' or 'dir'")
        columns = self._columns()
        meta = {
            "schema": self.SCHEMA,
            "format_version": self.FORMAT_VERSION,
            "n": self.n,
            **self._meta(),
        }
        checksum = content_checksum(columns)
        if format == "npz":
            if not str(path).endswith(".npz"):
                # np.savez appends the suffix itself; make that explicit so
                # the returned path is the file actually written.
                path = f"{path}.npz"
            payload = dict(columns)
            for key, value in list(meta.items()) + [("checksum", checksum)]:
                payload.update(_npz_field(key, value))
            np.savez(path, **payload)
        else:
            os.makedirs(path, exist_ok=True)
            meta.update(columns=sorted(columns), checksum=checksum)
            with open(os.path.join(path, "meta.json"), "w") as handle:
                json.dump(meta, handle, indent=2, sort_keys=True)
                handle.write("\n")
            for name, array in columns.items():
                np.save(os.path.join(path, f"{name}.npy"), array)
        obs.record_artifact_io("save", self.KIND, path, time.perf_counter() - start)
        return path

    @classmethod
    def load(cls, path: str, mmap: bool = False):
        """Load an artifact written by :meth:`save`.

        ``mmap=True`` memory-maps the columns and is only supported for the
        directory format (zip archives cannot be mapped page-aligned).
        Only the spec's column files are opened: a ``meta.json`` whose
        column list disagrees with the schema raises :class:`ValueError`.
        """
        start = time.perf_counter()
        if os.path.isdir(path):
            meta = read_meta(path)
            cls._check_header(meta, path)
            mode = "r" if mmap else None
            columns = {
                name: np.load(os.path.join(path, f"{name}.npy"), mmap_mode=mode)
                for name in cls._column_names(meta.get("columns", ()), path)
            }
        elif mmap:
            raise ValueError(
                "mmap loading requires the directory format; save with "
                "format='dir' for memory-mappable artifacts"
            )
        else:
            with open(path, "rb") as handle, np.load(
                handle, allow_pickle=False
            ) as data:
                meta = _npz_header(data, _HEADER + cls.META_KEYS)
                cls._check_header(meta, path)
                known = cls.SPEC.names(optional=True)
                names = cls._column_names(
                    [name for name in data.files if name in known], path
                )
                columns = {name: data[name] for name in names}
        store = cls._restore(meta["n"], columns, meta)
        store._artifact_checksum = meta.get("checksum")
        obs.record_artifact_io("load", cls.KIND, path, time.perf_counter() - start)
        return store

    @classmethod
    def _check_header(cls, meta: Dict[str, object], path: str) -> None:
        if meta.get("schema") != cls.SCHEMA:
            raise ValueError(f"{path!r} is not a {cls.KIND}-store artifact")
        version = meta.get("format_version")
        if version != cls.FORMAT_VERSION:
            raise ValueError(
                f"{path!r} has {cls.KIND}-store format version {version}; "
                f"this build reads version {cls.FORMAT_VERSION}"
            )

    @classmethod
    def _column_names(cls, listed: Iterable[str], path: str) -> Tuple[str, ...]:
        """The spec's columns for an artifact listing ``listed``.

        The optional group is expected iff its indptr is listed; any
        missing or unexpected name raises :class:`ValueError`.
        """
        listed = [str(name) for name in listed]
        expected = cls.SPEC.names(cls.SPEC.optional in listed)
        missing = [name for name in expected if name not in listed]
        unexpected = sorted(set(listed) - set(expected))
        if missing or unexpected:
            raise ValueError(
                f"{path!r} does not match the {cls.KIND}-store schema: "
                f"missing columns {missing}, unexpected columns {unexpected}"
            )
        return expected


def _npz_field(key: str, value) -> Dict[str, object]:
    """One npz header member: scalars as 0-d arrays, anything else as JSON
    text under ``<key>_json``."""
    if isinstance(value, bool):
        return {key: np.bool_(value)}
    if isinstance(value, int):
        return {key: np.int64(value)}
    if isinstance(value, str):
        return {key: np.str_(value)}
    return {f"{key}_json": np.str_(json.dumps(value, sort_keys=True))}


def read_meta(path: str, keys: Iterable[str] = ("schema", "n")) -> Dict[str, object]:
    """The metadata header of the artifact at ``path``; reads no columns.

    A directory artifact's header is its whole ``meta.json``; from an npz
    archive only the members named in ``keys`` are read.
    """
    if os.path.isdir(path):
        with open(os.path.join(path, "meta.json"), encoding="utf-8") as handle:
            meta = json.load(handle)
        if not isinstance(meta, dict):
            raise ValueError(f"{path!r}: meta.json is not a JSON object")
        return meta
    with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as data:
        return _npz_header(data, keys)


def _npz_header(data, keys: Iterable[str]) -> Dict[str, object]:
    """Decode the 0-d header members ``keys`` of an open npz archive (a
    ``<key>_json`` member decodes to ``key``); absent keys are left out."""
    meta: Dict[str, object] = {}
    for key in keys:
        if key in data:
            meta[key] = data[key].item()
        elif f"{key}_json" in data:
            meta[key] = json.loads(str(data[f"{key}_json"]))
    return meta


# --------------------------------------------------------------------------- #
# Pool workers (module-level for pickling)
# --------------------------------------------------------------------------- #


def _analyse_chunk(task: Tuple) -> dict:
    """One in-memory build chunk: ``analyse`` over a slice of the class list."""
    analyse, graphs, n = task
    return analyse(graphs, n)


def _stream_shard(task: Tuple) -> dict:
    """Generate, canonicalise and analyse one generation-tree shard."""
    cls, analyse, roots, n, batch_size, options = task
    parts: List[dict] = []
    pending: List[Graph] = []

    def flush() -> None:
        parts.append(analyse(pending, n, **options))
        # Graphs arrive canonical with the automorphism record the
        # enumerator memoised; no engine reads it, so drop it once analysed.
        for graph in pending:
            clear_canonical_record(graph)
        obs.counter(
            "repro_stream_classes_total",
            "Graph classes analysed by streamed store builds",
            store=cls.KIND,
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
    return cls._merge_parts(parts, n, bool(options.get("include_ucg", False)))


# --------------------------------------------------------------------------- #
# Process-wide store LRU (every kind, one budget)
# --------------------------------------------------------------------------- #


_STORE_CACHE: "OrderedDict[tuple, ColumnArtifact]" = OrderedDict()

#: Builds and loads in flight, one :class:`Future` per key.
_IN_FLIGHT: Dict[tuple, Future] = {}

#: Guards :data:`_STORE_CACHE` and :data:`_IN_FLIGHT` — bookkeeping only.
#: A miss builds or loads outside it, so a cold n = 8 build never stalls a
#: lookup of another artifact (the service calls :func:`cached` from
#: concurrent request threads).
_STORE_CACHE_LOCK = threading.Lock()

#: Upper bound on cached stores.  Small on purpose: an n = 8 store is a few
#: MB resident but an n = 9 store is tens of MB, and a long-lived process
#: cycling through artifacts (the ensemble/experiment runners) must not
#: accumulate every store it ever touched.
STORE_CACHE_MAX = 8


def _count_lookup(label: str, hit: bool) -> None:
    obs.counter(
        "repro_cache_hits_total" if hit else "repro_cache_misses_total",
        "Store-cache lookups served from memory"
        if hit
        else "Store-cache lookups that had to build or load",
        cache=label,
    ).inc()


def cached(key: tuple, label: str, make: Callable[[], ColumnArtifact]):
    """The cached artifact for ``key``, calling ``make()`` on a miss.

    Single-flight: the first miss on a key runs ``make`` outside the lock;
    later lookups of that key wait for that one outcome (counted as hits,
    re-raising its exception), a failure caches nothing, and lookups of
    other keys never wait.  ``label`` is the ``cache`` label of the
    ``repro_cache_{hits,misses}_total`` counters.  The cache keeps at most
    :data:`STORE_CACHE_MAX` artifacts, evicting least-recently-used.
    """
    with _STORE_CACHE_LOCK:
        store = _STORE_CACHE.get(key)
        if store is not None:
            _STORE_CACHE.move_to_end(key)
            _count_lookup(label, hit=True)
            return store
        flight = _IN_FLIGHT.get(key)
        leader = flight is None
        if leader:
            flight = _IN_FLIGHT[key] = Future()
        _count_lookup(label, hit=not leader)
    if not leader:
        return flight.result()
    try:
        store = make()
    except BaseException as error:
        with _STORE_CACHE_LOCK:
            del _IN_FLIGHT[key]
        flight.set_exception(error)
        raise
    with _STORE_CACHE_LOCK:
        del _IN_FLIGHT[key]
        _STORE_CACHE[key] = store
        while len(_STORE_CACHE) > max(1, STORE_CACHE_MAX):
            _STORE_CACHE.popitem(last=False)
            obs.counter(
                "repro_cache_evictions_total",
                "LRU evictions from the store cache",
                cache="store-lru",
            ).inc()
    flight.set_result(store)
    return store


def _artifact_stamp(path: str) -> tuple:
    """``(mtime_ns, size)`` of an artifact, so rewrites miss the cache.

    Load-keyed cache entries are not determined by the path alone — a
    long-lived process may regenerate an artifact in place and must not
    keep being served the old columns.
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


def cached_load(cls, path: str, mmap: bool = False):
    """Load (or fetch) a ``cls`` artifact through the store LRU.

    The key carries the kind, the absolute path, ``mmap`` and the
    artifact's on-disk stamp, so a resident load is never handed out where
    a mapped view was requested (or vice versa) and an artifact rewritten
    in place misses instead of serving its old columns.
    """
    key = (f"{cls.KIND}-load", os.path.abspath(path), bool(mmap), _artifact_stamp(path))
    return cached(key, f"{cls.KIND}-store", lambda: cls.load(path, mmap=mmap))


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
