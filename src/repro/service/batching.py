"""Request coalescing for concurrent grid queries.

Every columnar grid kernel in this library (``bcg_stable_mask``,
``ucg_nash_mask``, ``weighted_bcg_stable_mask`` and the aggregate wrappers
around them) answers each grid point as an **independent column**: the mask
for α-column ``j`` is a function of the stored probe columns and ``alphas[j]``
alone.  That makes coalescing free and exact — evaluating the union of two
requests' grids in one kernel call and handing each caller its own columns
back is bit-identical to two separate calls.

:class:`GridBatcher` exploits this for the query service with **group
commit**: a request whose ``(artifact, game)`` key has no kernel call in
flight computes at once — a lone request never waits.  Requests that arrive
while a call for their key is in flight join one queued batch; the moment
that call returns, the queued batch starts as the next call, its first
request's thread (the batch *leader*) deduplicates the union grid, runs the
compute callable once and distributes per-caller column slices.  Followers
block on the batch event and never touch the kernel.  A batch holds at most
one request per thread the caller runs requests on, so the compute pool
bounds its size.  A compute error propagates to every caller in the batch.

The batcher is transport-free — :class:`~repro.service.api.QueryAPI` calls
it from whatever threads the server (or a test hammer) runs requests on.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Sequence, Tuple

from .. import obs

__all__ = ["GridBatcher", "BatchStats"]


def _slice_columns(result, indices: List[int]):
    """Select per-alpha columns ``indices`` from a batched kernel result.

    Supports the two shapes every grid query in the library returns: a
    2-D ndarray with one column per grid point (masks), and a dict whose
    values are per-grid-point lists (aggregates).  Scalar / non-sequence
    dict entries are passed through unchanged.
    """
    if isinstance(result, dict):
        out = {}
        for key, value in result.items():
            if isinstance(value, list):
                out[key] = [value[i] for i in indices]
            else:
                out[key] = value
        return out
    # ndarray-like: [classes, n_alphas] -> the caller's columns, in order.
    return result[:, indices]


class _Batch:
    """The requests that share one kernel call for a single key."""

    __slots__ = ("requests", "turn", "event", "result", "error")

    def __init__(self) -> None:
        self.requests: List[List[float]] = []
        self.turn = threading.Event()  # set when the batch may compute
        self.event = threading.Event()  # set when the result is ready
        self.result = None
        self.error: BaseException | None = None


class BatchStats:
    """Point-in-time batcher tallies (mirrored into ``repro.obs``)."""

    def __init__(self, batches: int, requests: int, coalesced: int) -> None:
        self.batches = batches
        self.requests = requests
        self.coalesced = coalesced

    def as_dict(self) -> Dict[str, int]:
        return {
            "batches": self.batches,
            "requests": self.requests,
            "coalesced": self.coalesced,
        }


class GridBatcher:
    """Coalesce concurrent per-key grid requests into shared kernel calls."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._running: Dict[object, _Batch] = {}  # key -> batch computing
        self._queued: Dict[object, _Batch] = {}  # key -> batch up next
        self._batches = 0
        self._requests = 0
        self._coalesced = 0

    # ------------------------------------------------------------------ #

    def submit(
        self,
        key: object,
        alphas: Sequence[float],
        compute: Callable[[List[float]], object],
    ):
        """Evaluate ``compute`` over ``alphas``, sharing work under ``key``.

        ``key`` must identify everything that determines the kernel besides
        the grid itself (artifact identity and game, in practice); two
        submits may share a kernel call only when their keys are equal.
        ``compute`` receives the merged, deduplicated grid and must return
        a per-column result (ndarray columns or dict of per-column lists).
        The return value is exactly ``compute(list(alphas))`` — bit-for-bit
        — however many requests were coalesced.
        """
        alphas = [float(a) for a in alphas]
        with self._lock:
            self._requests += 1
            leader = True
            if key not in self._running:
                batch = self._running[key] = _Batch()
                batch.turn.set()
            elif key in self._queued:
                batch = self._queued[key]
                leader = False
            else:
                batch = self._queued[key] = _Batch()
            index = len(batch.requests)
            batch.requests.append(alphas)

        if leader:
            batch.turn.wait()
            self._run_batch(key, batch, compute)
        else:
            batch.event.wait()
        if batch.error is not None:
            raise batch.error
        merged, slices = batch.result
        return _slice_columns(merged, slices[index])

    # ------------------------------------------------------------------ #

    def _run_batch(self, key: object, batch: _Batch, compute) -> None:
        """Leader body: compute once, hand the key on, publish.

        Every request in a batch carries an equivalent compute closure by
        construction (the key pins artifact + game + query type); the
        leader's closure is the one that runs.  The batch stopped taking
        requests when its turn came, so ``batch.requests`` is final here.
        """
        try:
            grid, slices = _merge_grids(batch.requests)
            start = time.perf_counter()
            result = compute(grid)
            obs.histogram(
                "repro_service_batch_kernel_seconds",
                "Wall seconds per coalesced kernel call",
            ).observe(time.perf_counter() - start)
            batch.result = (result, slices)
        except BaseException as error:  # propagate to every caller
            batch.error = error
        finally:
            size = len(batch.requests)
            with self._lock:
                self._batches += 1
                if size > 1:
                    self._coalesced += size
                following = self._queued.pop(key, None)
                if following is None:
                    del self._running[key]
                else:
                    self._running[key] = following
            if following is not None:
                following.turn.set()
            # Release the followers before telemetry: a failing metric must
            # never strand them.
            batch.event.set()
            self._observe(size)

    def _observe(self, size: int) -> None:
        obs.histogram(
            "repro_service_batch_size",
            "Requests answered per coalesced kernel call",
        ).observe(size)
        if size > 1:
            obs.counter(
                "repro_service_coalesced_requests_total",
                "Requests that shared a kernel call with at least one other",
            ).inc(size)

    def stats(self) -> BatchStats:
        """Tallies so far: batches run, requests seen, requests coalesced."""
        with self._lock:
            return BatchStats(self._batches, self._requests, self._coalesced)


def _merge_grids(
    requests: List[List[float]],
) -> Tuple[List[float], List[List[int]]]:
    """Union the request grids; map each request to merged-column indices.

    Duplicate grid points (within or across requests) are evaluated once.
    Floats are deduplicated by exact equality — the kernels are pure
    functions of the float value, so equal inputs give identical columns.
    """
    merged: List[float] = []
    position: Dict[float, int] = {}
    slices: List[List[int]] = []
    for alphas in requests:
        indices = []
        for alpha in alphas:
            at = position.get(alpha)
            if at is None:
                at = len(merged)
                position[alpha] = at
                merged.append(alpha)
            indices.append(at)
        slices.append(indices)
    return merged, slices
