"""Artifact discovery and thread-safe loading for the query service.

:class:`ArtifactCatalog` is the I/O layer of census-as-a-service: it owns
*which* artifacts exist (a directory scan keyed by each artifact's embedded
schema tag) and *how* they are materialised (the process-wide, thread-safe
store LRU, :func:`~repro.analysis.artifact.cached_load`, keyed by each
store class's ``KIND`` — with memory-mapped columns by default, so a
multi-hundred-MB artifact never enters resident memory for the sake of
one query).  Everything above it
(:class:`~repro.service.api.QueryAPI`, the HTTP server, the CLI) talks in
artifact **ids** and never touches paths, formats or store constructors.

Discovery is cheap: :func:`~repro.analysis.artifact.read_meta` reads a
directory artifact's ``meta.json`` or an npz archive's small header members
only — no column data is loaded until a query actually asks for the
artifact.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..analysis.artifact import LOAD_ERRORS, cached_load, read_meta
from ..analysis.delta_store import DeltaStore
from ..analysis.store import CensusStore
from ..analysis.weighted_store import WeightedStore

__all__ = ["ArtifactCatalog", "ArtifactInfo", "KINDS"]

#: Catalog kind → store class for every artifact family the service mounts.
_CLASSES = {cls.KIND: cls for cls in (CensusStore, DeltaStore, WeightedStore)}

#: Schema tag → catalog kind.
_SCHEMA_KINDS = {cls.SCHEMA: kind for kind, cls in _CLASSES.items()}

#: The artifact kinds a catalog can hold.
KINDS = tuple(sorted(_CLASSES))


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
    format = "dir" if os.path.isdir(path) else "npz"
    if format == "npz" and not str(path).endswith(".npz"):
        return None
    try:
        meta = read_meta(path)
        kind = _SCHEMA_KINDS.get(meta.get("schema"))
        if kind is None or "n" not in meta:
            return None
        return kind, format, int(meta["n"])
    except LOAD_ERRORS:
        return None


class ArtifactCatalog:
    """Discovers artifacts under a root and serves loaded stores by id.

    All methods are thread-safe: an :class:`threading.RLock` guards the
    registry and the store LRU carries its own lock.
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
    # Loading (through the shared thread-safe LRU)
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
        return info, cached_load(_CLASSES[info.kind], info.path, mmap)
