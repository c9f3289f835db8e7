"""Fault-tolerant shard work queue: retries, timeouts, checksummed resume.

Every sharded build in the library — census, weighted and delta
``build_streamed``, and the ensemble block runner — has the same shape:
a list of independent shard payloads, a picklable worker, optional
per-shard persistence so an interrupted build resumes, and a merge step
that needs the results back in index order.  Before this module each
store carried its own copy of that loop, built on ``parallel_map``'s
all-or-nothing ``pool.map`` — one dead worker lost the whole wave, a hung
worker stalled the build forever, and resume validation stopped at "the
file loads".

:func:`run_shards` is the one coordinator they all share now:

* **individual futures, sliding window** — at most ``workers`` shards are
  in flight; each future's deadline starts at its actual submission, so a
  per-shard ``timeout`` means what it says;
* **survives dead workers** — when the pool breaks
  (:class:`~concurrent.futures.BrokenExecutor`: a worker was killed, the
  executor cannot say which shard did it), only the shards that were in
  flight are re-queued; completed work is never recomputed.  The pool is
  rebuilt after an exponential backoff (:data:`DEFAULT_BACKOFF_BASE`
  ``·2^k`` seconds, capped at :data:`DEFAULT_BACKOFF_MAX`);
* **survives hangs** — a shard past its deadline has its pool killed
  (``ProcessPoolExecutor`` cannot cancel a running task; terminating the
  worker processes is the only way to reclaim them), the timed-out shard
  is charged an attempt, and the innocent in-flight shards are re-queued
  free of charge;
* **bounded retries, serial fallback** — a shard that fails
  ``1 + max_retries`` pool attempts runs serially in the parent, where
  worker-side fault injection is off and a real exception finally
  propagates instead of looping forever;
* **checksummed, fingerprinted resume** — with ``shard_dir`` each finished
  shard persists atomically as ``{prefix}_XXXX_of_YYYY.npz`` carrying a
  sha256 content checksum and the build's config fingerprint.  On resume a
  shard is reused only if both verify: unreadable/corrupt/legacy files are
  recomputed (with a warning and a tally), while a readable shard from a
  *different* configuration raises — silently merging it would corrupt the
  final artifact;
* **heartbeat manifest + progress hook** — ``manifest.json`` in the shard
  directory records done/total, per-shard attempt tallies and state,
  resume/retry/timeout counters, the config fingerprint and last-heartbeat
  timestamps, rewritten atomically on every event and at least every
  :data:`DEFAULT_HEARTBEAT` seconds; ``progress`` receives the same
  snapshot dict;
* **in-order streaming** — pass ``consume`` to have ``(index, result)``
  delivered strictly in shard order as results become available (buffered
  past gaps), so streaming aggregations stay bit-identical to the serial
  path without holding every part; otherwise the report carries ``parts``
  in index order.

Fault injection (:mod:`repro.engine.faults`) threads through the runner:
a plan passed as ``fault_plan`` (or armed via ``REPRO_FAULTS``) crashes or
hangs pool workers and tears or bit-flips shard saves, which is how the
crash-matrix tests prove every recovery path yields a bit-identical
artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
import zipfile
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import faults as _faults
from .. import obs
from .pool import resolve_jobs

#: Schema tag written into every runner shard file.
SHARD_SCHEMA = "repro-shardwork-shard"

#: Schema tag written into every progress manifest.
MANIFEST_SCHEMA = "repro-shardwork-manifest"

#: Manifest layout version.
MANIFEST_VERSION = 1

#: File name of the progress/heartbeat manifest inside the shard directory.
MANIFEST_NAME = "manifest.json"

#: Pool attempts per shard beyond the first before the serial fallback.
DEFAULT_MAX_RETRIES = 2

#: Exponential-backoff base/cap (seconds) between pool rebuilds.
DEFAULT_BACKOFF_BASE = 0.1
DEFAULT_BACKOFF_MAX = 5.0

#: Manifest refresh period (seconds) while shards are in flight.
DEFAULT_HEARTBEAT = 5.0

#: Manifest tally fields promoted to counters, with metric name + help.
#: Counter values are *diffed* against the manifest snapshot on every
#: ``emit()``, so the exposition always equals the manifest exactly.
_TALLY_METRICS = {
    "resumed": (
        "repro_shards_resumed_total",
        "Shards reused from verified on-disk files",
    ),
    "computed": (
        "repro_shards_computed_total",
        "Shards computed this run (pool or serial)",
    ),
    "retries": (
        "repro_shard_retries_total",
        "Shard re-queue events (pool breakage, timeouts, worker errors)",
    ),
    "timeouts": (
        "repro_shard_timeouts_total",
        "Shard attempts whose deadline expired",
    ),
    "pool_rebuilds": (
        "repro_shard_pool_rebuilds_total",
        "Times the worker pool was torn down and rebuilt",
    ),
    "serial_fallbacks": (
        "repro_shard_serial_fallbacks_total",
        "Shards that exhausted pool attempts and ran serially",
    ),
    "corrupt_resumes": (
        "repro_shard_corrupt_resumes_total",
        "On-disk shards rejected by validation and recomputed",
    ),
}


# --------------------------------------------------------------------------- #
# Fingerprints and checksums
# --------------------------------------------------------------------------- #


def _json_canonical(config) -> str:
    def default(value):
        # NumPy scalars and arrays fingerprint by value, not identity.
        tolist = getattr(value, "tolist", None)
        if tolist is not None:
            return tolist()
        raise TypeError(
            f"config value {value!r} is not JSON-serialisable; fingerprint "
            "configs must be plain data"
        )

    return json.dumps(
        config, sort_keys=True, separators=(",", ":"), default=default
    )


def config_fingerprint(config: Dict[str, object]) -> str:
    """sha256 of the canonical JSON form of a semantic build config.

    Two builds share a fingerprint exactly when their configs are equal as
    data (key order never matters; NumPy values hash by content), so shard
    files and manifests can assert "same build" without trusting paths.
    """
    return hashlib.sha256(_json_canonical(config).encode("utf-8")).hexdigest()


def content_checksum(part: Dict[str, object]) -> str:
    """sha256 over a column dict: sorted names, dtypes, shapes and bytes.

    Deterministic across save/load round trips (both ``.npz`` and mmap'd
    ``.npy`` columns), so it doubles as the artifact-level checksum behind
    the stores' ``verify()`` and the runner's resume validation.
    """
    digest = hashlib.sha256()
    for name in sorted(part):
        array = np.ascontiguousarray(np.asarray(part[name]))
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(repr(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# Shard persistence
# --------------------------------------------------------------------------- #


def shard_path(shard_dir: str, prefix: str, index: int, total: int) -> str:
    """The canonical shard file name: index *and* total, so a build with a
    different shard count simply misses instead of colliding."""
    return os.path.join(shard_dir, f"{prefix}_{index:04d}_of_{total:04d}.npz")


def manifest_path(directory: str) -> str:
    """Where :func:`run_shards` writes its progress manifest."""
    return os.path.join(directory, MANIFEST_NAME)


def save_shard(
    path: str,
    part: Dict[str, object],
    fingerprint_hash: str,
    plan: Optional[_faults.FaultPlan] = None,
    index: int = 0,
) -> None:
    """Persist one part atomically, stamped with fingerprint + checksum.

    The write goes to a temp file and is renamed into place, so a crash
    mid-save leaves either no shard or a whole one — and the checksum
    catches everything subtler on resume.  ``torn``/``flip`` faults hook
    in here (see :mod:`repro.engine.faults`).
    """
    for name in part:
        if name.startswith("__"):
            raise ValueError(f"column name {name!r} collides with shard metadata")
    payload = {name: np.asarray(part[name]) for name in part}
    tmp_path = f"{path}.tmp.npz"
    np.savez(
        tmp_path,
        __schema__=np.str_(SHARD_SCHEMA),
        __fingerprint__=np.str_(fingerprint_hash),
        __checksum__=np.str_(content_checksum(payload)),
        **payload,
    )
    if plan is not None and plan.claim("torn", index):
        # Model a torn write that defeated the rename: truncated bytes land
        # under the final name and the build dies on the spot.
        with open(tmp_path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        os.remove(tmp_path)
        raise _faults.FaultInjected(
            f"torn write injected on shard {index} ({path})"
        )
    os.replace(tmp_path, path)
    obs.counter(
        "repro_shard_bytes_written_total", "Bytes persisted as shard files"
    ).inc(os.path.getsize(path))
    if plan is not None and plan.claim("flip", index):
        _faults.flip_byte(path)


def load_shard(
    path: str, fingerprint_hash: str
) -> Tuple[str, Optional[Dict[str, object]]]:
    """Validate + load one shard: ``("ok", part)``, ``("missing", None)``
    or ``("corrupt", None)``.

    A shard is reused only when the schema tag, the config fingerprint
    *and* the content checksum all verify.  Unreadable, truncated,
    bit-flipped or legacy-format files count as corrupt (recompute); a
    healthy shard carrying a *different* fingerprint raises instead —
    the caller is pointing a build at another configuration's directory,
    and merging it would silently corrupt the result.
    """
    if not os.path.exists(path):
        return ("missing", None)
    try:
        with open(path, "rb") as handle, np.load(
            handle, allow_pickle=False
        ) as data:
            if "__schema__" not in data or str(data["__schema__"]) != SHARD_SCHEMA:
                return ("corrupt", None)
            if str(data["__fingerprint__"]) != fingerprint_hash:
                raise ValueError(
                    f"{path!r} belongs to a different build configuration "
                    "(config fingerprint mismatch); use a fresh shard_dir "
                    "per configuration"
                )
            part = {
                name: np.asarray(data[name])
                for name in data.files
                if not name.startswith("__")
            }
            if content_checksum(part) != str(data["__checksum__"]):
                return ("corrupt", None)
            obs.counter(
                "repro_shard_bytes_read_total",
                "Bytes read back from verified shard files",
            ).inc(os.path.getsize(path))
            return ("ok", part)
    except (zipfile.BadZipFile, EOFError, OSError, KeyError):
        return ("corrupt", None)


# --------------------------------------------------------------------------- #
# The work-queue coordinator
# --------------------------------------------------------------------------- #


@dataclass
class ShardRunReport:
    """What one :func:`run_shards` call did, and the results it produced."""

    total: int
    #: Results in shard-index order; ``None`` when ``consume`` streamed them.
    parts: Optional[List[object]]
    #: Shards reused from verified on-disk files.
    resumed: int = 0
    #: Shards computed this run (pool or serial).
    computed: int = 0
    #: Re-queue events (pool breakage, timeouts, worker errors).
    retries: int = 0
    #: Shards whose deadline expired at least once.
    timeouts: int = 0
    #: Times the pool was torn down and rebuilt.
    pool_rebuilds: int = 0
    #: Shards that exhausted pool attempts and ran serially in the parent.
    serial_fallbacks: int = 0
    #: On-disk shards rejected by checksum/readability and recomputed.
    corrupt_resumes: int = 0
    #: Final manifest snapshot (also written to ``manifest_path``).
    manifest: Optional[Dict[str, object]] = None
    manifest_path: Optional[str] = None


def _shard_call(task):
    """Pool worker wrapper: inject worker-side faults, then run the shard.

    Returns ``(value, telemetry)`` — the worker registry's drained
    metric/span deltas ride back with the result and the coordinator
    merges them exactly once per *delivered* future.  A crashed worker's
    pending deltas die with its process and the retried attempt records
    afresh, so nothing double-counts across re-queues.
    """
    worker, payload, index, plan = task
    if plan is not None:
        _faults.fire_worker_fault(plan, index)
    value = worker(payload)
    return value, obs.drain_telemetry()


def _stop_pool(pool) -> None:
    """Tear a pool down even when its workers are wedged.

    Running tasks cannot be cancelled, and a hung worker would block both
    ``shutdown(wait=True)`` and interpreter exit (pool workers are
    non-daemonic) — terminating the processes first is the only reliable
    reclaim.  ``_processes`` is executor-internal; any failure to reach it
    degrades to the plain shutdown.
    """
    try:
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
    except Exception:  # pragma: no cover - defensive against interpreter drift
        pass
    pool.shutdown(wait=False, cancel_futures=True)


def run_shards(
    worker: Callable[[object], object],
    payloads: Sequence[object],
    *,
    jobs: Optional[int] = None,
    shard_dir: Optional[str] = None,
    prefix: str = "shard",
    fingerprint: Optional[Dict[str, object]] = None,
    timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
    consume: Optional[Callable[[int, object], None]] = None,
    manifest_dir: Optional[str] = None,
    fault_plan: Optional[_faults.FaultPlan] = None,
) -> ShardRunReport:
    """Run ``worker`` over every payload with retries, timeouts and resume.

    ``worker`` must be a picklable module-level callable of one payload.
    Results are deterministic and independent of ``jobs``, retries or
    resume history: the report's ``parts`` list is in shard-index order,
    and ``consume(index, result)`` (mutually exclusive with collecting
    parts) is called strictly in index order.

    ``shard_dir`` enables persistence/resume; parts must then be dicts of
    NumPy arrays.  ``fingerprint`` is the *semantic* build config (plain
    data; NumPy values allowed) — resumed shards must match it exactly.
    ``manifest_dir`` (default: ``shard_dir``) receives the heartbeat
    manifest even when shards themselves are not persisted, e.g. the
    ensemble runner's block manifest next to its draw artifacts.

    ``timeout`` is per shard attempt, in seconds.  A shard failing
    ``1 + max_retries`` pool attempts (pool breakage, deadline, or a raised
    exception) runs serially in the parent as the final authority — a real
    error then propagates to the caller.
    """
    payloads = list(payloads)
    total = len(payloads)
    max_retries = DEFAULT_MAX_RETRIES if max_retries is None else int(max_retries)
    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    max_attempts = 1 + max_retries
    plan = fault_plan if fault_plan is not None else _faults.active_plan()
    fingerprint_hash = (
        config_fingerprint(fingerprint) if fingerprint is not None else None
    )
    if shard_dir is not None and fingerprint_hash is None:
        raise ValueError("shard_dir persistence requires a fingerprint config")
    if manifest_dir is None:
        manifest_dir = shard_dir

    paths: Optional[List[str]] = None
    if shard_dir is not None:
        os.makedirs(shard_dir, exist_ok=True)
        paths = [shard_path(shard_dir, prefix, i, total) for i in range(total)]
    if manifest_dir is not None:
        os.makedirs(manifest_dir, exist_ok=True)

    report = ShardRunReport(
        total=total,
        parts=None if consume is not None else [None] * total,
        manifest_path=(
            manifest_path(manifest_dir) if manifest_dir is not None else None
        ),
    )
    states: Dict[int, Dict[str, object]] = {
        index: {"state": "pending", "attempts": 0, "source": None, "updated_at": None}
        for index in range(total)
    }
    started_at = time.time()
    finished = False
    last_beat = time.monotonic()

    # Work-queue state lives up here because emit() (called from the
    # resume scan already) publishes queue-depth/in-flight gauges.
    queue: deque = deque()
    inflight: Dict[object, Tuple[int, Optional[float]]] = {}

    telemetry_on = obs.metrics_enabled()
    if telemetry_on:
        tally_counters = {
            fld: obs.counter(name, help_text, prefix=prefix)
            for fld, (name, help_text) in _TALLY_METRICS.items()
        }
        last_counts = {fld: 0 for fld in _TALLY_METRICS}
        queue_gauge = obs.gauge(
            "repro_shard_queue_depth", "Shards waiting in the work queue",
            prefix=prefix,
        )
        inflight_gauge = obs.gauge(
            "repro_shard_inflight", "Shards currently submitted to the pool",
            prefix=prefix,
        )
        heartbeat_gauge = obs.gauge(
            "repro_shard_heartbeat_timestamp",
            "Unix time of the coordinator's last manifest heartbeat "
            "(heartbeat age = now - this)",
            prefix=prefix,
        )

    def snapshot() -> Dict[str, object]:
        done = sum(1 for s in states.values() if s["state"] == "done")
        return {
            "schema": MANIFEST_SCHEMA,
            "version": MANIFEST_VERSION,
            "prefix": prefix,
            "total": total,
            "done": done,
            "resumed": report.resumed,
            "computed": report.computed,
            "retries": report.retries,
            "timeouts": report.timeouts,
            "pool_rebuilds": report.pool_rebuilds,
            "serial_fallbacks": report.serial_fallbacks,
            "corrupt_resumes": report.corrupt_resumes,
            "fingerprint": fingerprint_hash,
            "config": (
                json.loads(_json_canonical(fingerprint))
                if fingerprint is not None
                else None
            ),
            "started_at": started_at,
            "updated_at": time.time(),
            "finished_at": time.time() if finished else None,
            "shards": {
                str(index): dict(state) for index, state in states.items()
            },
        }

    def emit(write_manifest: bool = True) -> None:
        nonlocal last_beat
        last_beat = time.monotonic()
        snap = snapshot()
        report.manifest = snap
        if telemetry_on:
            # Promote manifest tallies to counters by diffing against the
            # last emit, so the exposition equals the manifest exactly.
            for fld, instrument in tally_counters.items():
                delta = snap[fld] - last_counts[fld]
                if delta:
                    instrument.inc(delta)
                    last_counts[fld] = snap[fld]
            queue_gauge.set(len(queue))
            inflight_gauge.set(len(inflight))
            heartbeat_gauge.set(snap["updated_at"])
        if write_manifest and report.manifest_path is not None:
            tmp = f"{report.manifest_path}.tmp"
            with open(tmp, "w") as handle:
                json.dump(snap, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, report.manifest_path)
        if progress is not None:
            try:
                progress(snap)
            except Exception as error:
                # A broken progress renderer must never abort the build:
                # downgrade to a warning and keep the coordinator alive.
                warnings.warn(
                    f"progress callback raised {type(error).__name__}: "
                    f"{error}; continuing without it for this event",
                    RuntimeWarning,
                    stacklevel=2,
                )

    # In-order delivery: results for consume-mode buffer past gaps.
    ready: Dict[int, object] = {}
    next_emit = 0

    def deliver(index: int, value: object) -> None:
        nonlocal next_emit
        if consume is None:
            report.parts[index] = value
            return
        ready[index] = value
        while next_emit in ready:
            consume(next_emit, ready.pop(next_emit))
            next_emit += 1

    def complete(index: int, value: object, source: str) -> None:
        if source != "resumed" and paths is not None:
            save_shard(paths[index], value, fingerprint_hash, plan, index)
        states[index]["state"] = "done"
        states[index]["source"] = source
        states[index]["updated_at"] = time.time()
        if source == "resumed":
            report.resumed += 1
        else:
            report.computed += 1
        deliver(index, value)
        emit()

    def run_serial(index: int, source: str) -> None:
        states[index]["attempts"] = int(states[index]["attempts"]) + 1
        complete(index, worker(payloads[index]), source)

    # ---------------- resume scan ---------------- #
    if paths is not None:
        for index in range(total):
            status, part = load_shard(paths[index], fingerprint_hash)
            if status == "ok":
                complete(index, part, "resumed")
            else:
                if status == "corrupt":
                    report.corrupt_resumes += 1
                    warnings.warn(
                        f"shard file {paths[index]!r} failed validation "
                        "(unreadable or checksum mismatch); recomputing it",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                queue.append(index)
    else:
        queue.extend(range(total))

    emit()

    workers = min(resolve_jobs(jobs), max(1, total))
    serial_only = workers <= 1
    pool = None

    def requeue(index: int, penalty: bool) -> None:
        if not penalty:
            # Innocent victim of someone else's timeout: the attempt was
            # charged at submit time, refund it.
            states[index]["attempts"] = int(states[index]["attempts"]) - 1
        states[index]["state"] = "pending"
        states[index]["updated_at"] = time.time()
        report.retries += 1
        queue.append(index)

    def rebuild_after_failure() -> None:
        nonlocal pool
        if pool is not None:
            _stop_pool(pool)
            pool = None
        report.pool_rebuilds += 1
        delay = DEFAULT_BACKOFF_BASE * (2 ** (report.pool_rebuilds - 1))
        time.sleep(min(DEFAULT_BACKOFF_MAX, delay))
        emit()

    run_span = obs.span(f"run_shards:{prefix}")
    run_span.__enter__()
    try:
        while queue or inflight:
            if serial_only:
                while queue:
                    run_serial(queue.popleft(), "computed")
                continue

            if pool is None:
                try:
                    pool = ProcessPoolExecutor(max_workers=workers)
                except (OSError, ValueError):
                    # No usable multiprocessing here — finish serially.
                    serial_only = True
                    continue

            pool_broke = False
            while queue and len(inflight) < workers:
                index = queue.popleft()
                if int(states[index]["attempts"]) >= max_attempts:
                    report.serial_fallbacks += 1
                    run_serial(index, "serial")
                    continue
                states[index]["attempts"] = int(states[index]["attempts"]) + 1
                states[index]["state"] = "running"
                states[index]["updated_at"] = time.time()
                try:
                    future = pool.submit(
                        _shard_call, (worker, payloads[index], index, plan)
                    )
                except BrokenExecutor:
                    requeue(index, penalty=False)
                    pool_broke = True
                    break
                deadline = (
                    time.monotonic() + timeout if timeout is not None else None
                )
                inflight[future] = (index, deadline)

            if not pool_broke and inflight:
                tick = DEFAULT_HEARTBEAT
                deadlines = [d for _, d in inflight.values() if d is not None]
                if deadlines:
                    tick = min(
                        tick, max(0.0, min(deadlines) - time.monotonic())
                    )
                done, _ = wait(
                    list(inflight), timeout=tick, return_when=FIRST_COMPLETED
                )
                for future in done:
                    index, _ = inflight.pop(future)
                    try:
                        value, telemetry = future.result()
                    except BrokenExecutor:
                        pool_broke = True
                        requeue(index, penalty=True)
                    except Exception:
                        # The worker raised for real.  Charge the attempt and
                        # retry; once attempts run out, the serial fallback
                        # reproduces (and propagates) the error in-parent.
                        requeue(index, penalty=True)
                    else:
                        # Merge the worker's piggybacked telemetry exactly
                        # once, before the part is persisted/delivered.
                        obs.merge_telemetry(telemetry)
                        complete(index, value, "computed")

            if pool_broke:
                for future, (index, _) in list(inflight.items()):
                    # The breakage killed these futures too; the executor
                    # cannot say which shard was guilty, so every in-flight
                    # shard is charged its attempt and re-queued.
                    requeue(index, penalty=True)
                inflight.clear()
                rebuild_after_failure()
                continue

            if timeout is not None and inflight:
                now = time.monotonic()
                expired = [
                    (future, index)
                    for future, (index, deadline) in inflight.items()
                    if deadline is not None and now >= deadline
                ]
                if expired:
                    report.timeouts += len(expired)
                    expired_futures = {future for future, _ in expired}
                    for future, index in expired:
                        requeue(index, penalty=True)
                        states[index]["state"] = "timed_out"
                    for future, (index, _) in list(inflight.items()):
                        if future not in expired_futures:
                            requeue(index, penalty=False)
                    inflight.clear()
                    # Killing the pool is the only way to stop a running
                    # task; the innocents were re-queued without penalty.
                    rebuild_after_failure()
                    continue

            if time.monotonic() - last_beat >= DEFAULT_HEARTBEAT:
                emit()
    finally:
        if pool is not None and inflight:
            _stop_pool(pool)
        elif pool is not None:
            # Every worker is idle: a graceful shutdown joins the executor's
            # manager thread here, where terminating the workers would leave
            # it racing interpreter exit (an "Exception ignored" traceback
            # when the process ends right after the run).
            pool.shutdown(wait=True)
        run_span.__exit__(None, None, None)

    finished = True
    emit()
    return report
