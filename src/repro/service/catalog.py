"""Artifact discovery and thread-safe loading for the query service.

:class:`ArtifactCatalog` is the I/O layer of census-as-a-service: it owns
*which* artifacts exist (a directory scan keyed by each artifact's embedded
schema tag) and *how* they are materialised (the process-wide, thread-safe
store LRUs — :func:`~repro.analysis.store.cached_store`,
:func:`~repro.analysis.delta_store.cached_delta_store` and
:func:`~repro.analysis.weighted_store.cached_weighted_store` — with
memory-mapped columns by default, so a multi-hundred-MB artifact never
enters resident memory for the sake of one query).  Everything above it
(:class:`~repro.service.api.QueryAPI`, the HTTP server, the CLI) talks in
artifact **ids** and never touches paths, formats or store constructors.

Discovery is cheap: the directory format reads ``meta.json`` and the npz
format reads only the zip's header entries for the small metadata arrays —
no column data is loaded until a query actually asks for the artifact.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..analysis import delta_store as _delta_store
from ..analysis import store as _store
from ..analysis import weighted_store as _weighted_store
from ..analysis.delta_store import cached_delta_store
from ..analysis.store import LOAD_ERRORS, cached_store
from ..analysis.weighted_store import cached_weighted_store

__all__ = ["ArtifactCatalog", "ArtifactInfo", "KINDS"]

#: Schema tag → catalog kind for every artifact family the service mounts.
_SCHEMA_KINDS = {
    _store.SCHEMA: "census",
    _weighted_store.SCHEMA: "weighted",
    _delta_store.SCHEMA: "delta",
}

#: The artifact kinds a catalog can hold.
KINDS = tuple(sorted(_SCHEMA_KINDS.values()))


@dataclass(frozen=True)
class ArtifactInfo:
    """One discovered artifact: identity and cheap metadata, no columns."""

    id: str
    kind: str  # "census" | "weighted" | "delta"
    path: str
    format: str  # "npz" | "dir"
    n: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "kind": self.kind,
            "path": self.path,
            "format": self.format,
            "n": self.n,
        }


def _peek_artifact(path: str) -> Optional[Tuple[str, str, int]]:
    """``(kind, format, n)`` of the artifact at ``path``, or ``None``.

    Foreign, corrupt or unrecognised files are skipped silently — a serve
    directory may legitimately hold manifests, metrics dumps or shard
    spools next to the artifacts.
    """
    try:
        if os.path.isdir(path):
            meta_path = os.path.join(path, "meta.json")
            if not os.path.isfile(meta_path):
                return None
            with open(meta_path, encoding="utf-8") as handle:
                meta = json.load(handle)
            kind = _SCHEMA_KINDS.get(meta.get("schema"))
            if kind is None or "n" not in meta:
                return None
            return kind, "dir", int(meta["n"])
        if not str(path).endswith(".npz"):
            return None
        try:
            import numpy as np
        except ImportError:  # pragma: no cover - minimal installs
            return None
        with np.load(path, allow_pickle=False) as data:
            if "schema" not in data or "n" not in data:
                return None
            kind = _SCHEMA_KINDS.get(str(data["schema"]))
            if kind is None:
                return None
            return kind, "npz", int(data["n"])
    except LOAD_ERRORS:
        return None


class ArtifactCatalog:
    """Discovers artifacts under a root and serves loaded stores by id.

    All methods are thread-safe: an :class:`threading.RLock` guards the
    registry and the underlying store caches carry their own shared lock.
    Ids are paths relative to ``root`` (or absolute for artifacts
    registered explicitly with :meth:`add`), so they are stable across
    restarts of the server process.
    """

    def __init__(self, root: Optional[str] = None, mmap: bool = True) -> None:
        self.root = os.path.abspath(root) if root else None
        self.mmap = bool(mmap)
        self._lock = threading.RLock()
        self._artifacts: Dict[str, ArtifactInfo] = {}
        if self.root is not None:
            self.refresh()

    # ------------------------------------------------------------------ #
    # Discovery / registry
    # ------------------------------------------------------------------ #

    def refresh(self) -> List[ArtifactInfo]:
        """Re-scan ``root`` for artifacts; returns the current listing.

        Entries registered via :meth:`add` survive refreshes; entries that
        vanished from disk are dropped.
        """
        with self._lock:
            if self.root is not None:
                if not os.path.isdir(self.root):
                    raise FileNotFoundError(
                        f"artifact directory {self.root!r} does not exist"
                    )
                found: Dict[str, ArtifactInfo] = {}
                for name in sorted(os.listdir(self.root)):
                    path = os.path.join(self.root, name)
                    peeked = _peek_artifact(path)
                    if peeked is None:
                        continue
                    kind, format, n = peeked
                    found[name] = ArtifactInfo(
                        id=name, kind=kind, path=path, format=format, n=n
                    )
                # Keep explicit out-of-root registrations, drop stale scans.
                for art_id, info in self._artifacts.items():
                    if art_id not in found and os.path.exists(info.path):
                        if self.root is None or not info.path.startswith(
                            self.root + os.sep
                        ):
                            found[art_id] = info
                self._artifacts = found
            self._set_gauges()
            return list(self._artifacts.values())

    def add(self, path: str, art_id: Optional[str] = None) -> ArtifactInfo:
        """Register one artifact by path (id defaults to the path itself)."""
        path = os.path.abspath(path)
        peeked = _peek_artifact(path)
        if peeked is None:
            raise ValueError(f"{path!r} is not a recognised artifact")
        kind, format, n = peeked
        info = ArtifactInfo(
            id=art_id if art_id is not None else path,
            kind=kind,
            path=path,
            format=format,
            n=n,
        )
        with self._lock:
            self._artifacts[info.id] = info
            self._set_gauges()
        return info

    def list(self) -> List[ArtifactInfo]:
        """Every known artifact, id-sorted."""
        with self._lock:
            return sorted(self._artifacts.values(), key=lambda a: a.id)

    def info(self, ref: str) -> ArtifactInfo:
        """The registry entry for ``ref``.

        A rooted catalog knows only what its directory scan and :meth:`add`
        registered, so a served ref can never reach outside the root.  A
        root-less catalog (the CLI's ``--load`` mode) also treats ``ref``
        as a filesystem path and registers it on first use.
        """
        with self._lock:
            found = self._artifacts.get(ref)
            if found is not None:
                return found
            if self.root is None and os.path.exists(ref):
                return self.add(ref)
            raise KeyError(f"unknown artifact {ref!r}")

    def __len__(self) -> int:
        with self._lock:
            return len(self._artifacts)

    def _set_gauges(self) -> None:
        counts = {kind: 0 for kind in KINDS}
        for info in self._artifacts.values():
            counts[info.kind] += 1
        for kind, count in counts.items():
            obs.gauge(
                "repro_catalog_artifacts",
                "Artifacts registered in the service catalog",
                kind=kind,
            ).set(count)

    # ------------------------------------------------------------------ #
    # Loading (through the shared thread-safe LRUs)
    # ------------------------------------------------------------------ #

    def get(self, ref: str, kind: Optional[str] = None):
        """``(info, store)`` for ``ref``, loaded through the shared LRU.

        Directory-format artifacts are memory-mapped when the catalog was
        built with ``mmap=True`` (the default); npz artifacts load
        resident — both land in the same bounded cache, so repeated
        queries against one artifact never re-read the disk.  With
        ``kind``, an artifact of another kind raises :class:`ValueError`
        before anything is loaded.
        """
        info = self.info(ref)
        if kind is not None and info.kind != kind:
            raise ValueError(
                f"artifact {info.id!r} is a {info.kind} store; this query "
                f"needs a {kind} store"
            )
        mmap = self.mmap and info.format == "dir"
        if info.kind == "census":
            return info, cached_store(path=info.path, mmap=mmap)
        if info.kind == "weighted":
            return info, cached_weighted_store(info.path, mmap=mmap)
        return info, cached_delta_store(path=info.path, mmap=mmap)
