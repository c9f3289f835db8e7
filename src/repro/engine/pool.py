"""Process-pool fan-out with a deterministic serial fallback.

The censuses and sampled experiments are embarrassingly parallel over
candidate graphs (or random starts), so the library funnels every fan-out
through :func:`parallel_map`.  The contract is that the *result is
independent of ``jobs``*: outputs are returned in input order, workers are
pure functions of their item, and any environment where a process pool
cannot be created (restricted sandboxes, missing semaphores) silently
degrades to the serial path.  The pool itself is the fault-tolerant shard
coordinator, :func:`repro.engine.shardwork.run_shards`.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` argument to a worker count.

    ``None``, ``0`` and ``1`` mean serial execution; positive values request
    that many workers; any negative value means "one worker per CPU".
    """
    if jobs is None or jobs == 0:
        return 1
    if jobs < 0:
        return os.cpu_count() or 1
    return jobs


def chunk_evenly(items: Sequence[Item], pieces: int) -> List[List[Item]]:
    """Split ``items`` into at most ``pieces`` contiguous, near-equal chunks.

    Preserves order (concatenating the chunks reproduces ``items``), never
    returns empty chunks, and is deterministic — the building block for
    fan-outs whose workers batch their share instead of taking one item at a
    time.
    """
    items = list(items)
    if pieces < 1:
        raise ValueError("pieces must be positive")
    pieces = min(pieces, len(items))
    if pieces <= 1:
        return [items] if items else []
    size, leftover = divmod(len(items), pieces)
    chunks = []
    start = 0
    for piece in range(pieces):
        end = start + size + (1 if piece < leftover else 0)
        chunks.append(items[start:end])
        start = end
    return chunks


def _map_chunk(task) -> list:
    """Apply ``fn`` to one chunk of items (module-level, so it pickles)."""
    fn, chunk = task
    return [fn(item) for item in chunk]


def parallel_map(
    fn: Callable[[Item], Result],
    items: Iterable[Item],
    jobs: Optional[int] = None,
) -> List[Result]:
    """Map ``fn`` over ``items``, optionally fanning out over processes.

    Results are always returned in input order, so callers get identical
    output for any ``jobs`` value.  ``fn`` and the items must be picklable
    when ``jobs > 1``.  The items are cut into about four chunks per worker
    and run through :func:`~repro.engine.shardwork.run_shards` under the
    ``map`` prefix, so a dead or failing worker costs only the chunks it
    held: they are retried on a rebuilt pool, and a chunk that keeps
    failing runs serially in this process, where an exception raised by
    ``fn`` itself propagates unchanged.
    """
    from .shardwork import run_shards  # shardwork imports this module

    items = list(items)
    workers = resolve_jobs(jobs)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(workers, len(items))
    size = max(1, len(items) // (workers * 4))
    chunks = [(fn, items[start : start + size]) for start in range(0, len(items), size)]
    report = run_shards(_map_chunk, chunks, jobs=workers, prefix="map")
    return [result for part in report.parts for result in part]
