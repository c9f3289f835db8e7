"""Exhaustive enumeration of small graphs via canonical augmentation.

The paper's empirical study (Section 5) computes all pairwise-stable graphs of
the BCG and all Nash graphs of the UCG "by enumeration of all connected
topologies" on a fixed number of vertices.  This module provides that
substrate: enumeration of graphs, connected graphs and trees on ``n`` vertices
up to isomorphism.

Generation uses **canonical augmentation** (McKay's orderly generation, the
scheme behind nauty's ``geng``) instead of augment-and-deduplicate:

* a graph on ``n`` vertices is extended only along *orbit representatives* of
  neighbourhood subsets under its automorphism group (two subsets in the same
  orbit yield isomorphic children), and
* a child is **accepted** only if the augmented vertex lies in the canonical
  "last-vertex" orbit — the automorphism orbit of the vertex occupying the
  last position of the canonical ordering.

Every isomorphism class is then produced *exactly once* with no global
``seen`` dictionary and no duplicate canonicalisations, so the generators
(:func:`iter_graphs`, :func:`iter_connected_graphs`, :func:`iter_graphs_from`)
stream their output and the generation tree can be sharded across process
pool workers from any level-``k`` prefix.

Candidates are decided in blocks of about ``_BLOCK`` children at a time,
labelled together in lock-step NumPy (:mod:`repro.graphs._lockstep`).  Three
tests run in order: the new vertex must have maximal degree (checked on the
subset masks before any child is built), must carry the maximal stable 1-WL
colour (checked on the whole block's refined colourings), and must lie in
the canonical last-vertex orbit (read off the block's canonical labelling).
Every accepted child comes out as its canonical representative with its
:class:`~repro.graphs.isomorphism.CanonicalRecord` memoised.  Streams pull
their parents a block at a time, so only :func:`enumerate_graphs` ever holds
a whole level.

Counts are cross-checked in the test suite against the OEIS:

* all graphs (A000088):      1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, ...
* connected graphs (A001349): 1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080, ...
* trees (A000055):            1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, ...
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from . import _lockstep
from .graph import Graph
from .isomorphism import (
    CanonicalRecord,
    Permutation,
    canonical_form,
    canonical_graph,
    canonical_record,
)
from .properties import is_connected, is_tree

_GRAPH_CACHE: Dict[int, List[Graph]] = {}
_TREE_CACHE: Dict[int, List[Graph]] = {}

#: Candidate children labelled together in one lock-step block.
_BLOCK = 2048


def class_sort_key(graph: Graph) -> Tuple[int, List[Tuple[int, int]]]:
    """Deterministic total order on canonical representatives.

    Sorts by edge count first, then lexicographically by the sorted edge
    list.  This is the order every materialised enumeration, census and
    :class:`~repro.analysis.store.CensusStore` uses, so artifacts produced
    by different build paths (materialised, streamed, sharded) line up
    element for element.
    """
    return (graph.num_edges, sorted(graph.edges))


# --------------------------------------------------------------------------- #
# Canonical augmentation
# --------------------------------------------------------------------------- #


def _mask_orbit_reps(n: int, generators: Sequence[Permutation]) -> np.ndarray:
    """The smallest vertex subset (as a bitmask) of each orbit under ``generators``.

    Label propagation over all ``2**n`` masks: each mask takes the smallest
    label among itself and its images, then follows its label's label.
    Labels only ever move within an orbit and the generators connect it, so
    the fixed point labels every orbit with its smallest member.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    if not generators:
        return masks
    perms = np.asarray(generators, dtype=np.int64)
    images = np.zeros((len(perms), 1 << n), dtype=np.int64)
    for b in range(n):
        images |= ((masks >> b) & 1) << perms[:, b, None]
    label = masks
    while True:
        moved = np.minimum(label[images].min(axis=0), label)
        moved = moved[moved]
        if np.array_equal(moved, label):
            return np.flatnonzero(label == masks)
        label = moved


def _subset_candidates(parent: Graph, record: CanonicalRecord) -> np.ndarray:
    """Neighbourhood masks that could yield an *accepted* child of ``parent``.

    One mask per automorphism orbit (orbit-mates give isomorphic children),
    without every mask whose new vertex could not have maximal degree in the
    child: acceptance requires the augmented vertex to occupy the last
    canonical position, which always carries the maximal stable colour and
    hence the maximal degree.  The filter is automorphism-invariant, so
    applying it to orbit representatives loses nothing.
    """
    n = parent.n
    masks = _mask_orbit_reps(n, record.generators)
    degrees = np.array(parent.degrees(), dtype=np.int64)
    # ge[s] = bitmask of vertices with parent-degree >= s.
    ge = ((degrees >= np.arange(n + 2)[:, None]) << np.arange(n)).sum(axis=1)
    size = ((masks[:, None] >> np.arange(n)) & 1).sum(axis=1)
    # A vertex outside the subset may have degree at most s; a vertex
    # inside gains one, so it may have degree at most s - 1.
    fits = ((ge[size + 1] & ~masks) == 0) & ((ge[size] & masks) == 0)
    return masks[fits]


def _child_adjacency(
    parents: Sequence[Graph], parent_of: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """The ``(G, n, n)`` bool adjacency of each candidate child.

    Candidate ``g`` is parent ``parent_of[g]`` plus a last vertex ``n - 1``
    adjacent to the vertices of ``masks[g]``.
    """
    m = parents[0].n
    bit = np.arange(m)
    rows = np.array([p.adjacency_rows() for p in parents], dtype=np.int64)
    parent_adj = ((rows[:, :, None] >> bit) & 1).astype(bool)
    new = ((masks[:, None] >> bit) & 1).astype(bool)
    adj = np.zeros((masks.size, m + 1, m + 1), dtype=bool)
    adj[:, :m, :m] = parent_adj[parent_of]
    adj[:, :m, m] = new
    adj[:, m, :m] = new
    return adj


def _accept(
    parents: Sequence[Graph], parent_of: np.ndarray, masks: np.ndarray
) -> Tuple[List[Graph], np.ndarray]:
    """The accepted candidates of one block, canonical, with their certificate words.

    Two tests decide acceptance, both on the whole block at once.  The
    colour test: the last canonical position always carries the maximal
    stable 1-WL colour (refinement and individualisation keep cells in
    order), so a new vertex without it is never canonically last.  The
    orbit test: the new vertex ``n - 1`` is accepted when its orbit is the
    orbit of canonical position ``n - 1``.  Accepted children keep the
    order of their candidates.
    """
    n = parents[0].n + 1
    adj = _child_adjacency(parents, parent_of, masks)
    colors, counts = _lockstep.stable_colors(adj)
    passing = np.flatnonzero(colors[:, n - 1] == counts - 1)
    graphs, positions, words = _lockstep.canonical_block(
        adj[passing], colors[passing], counts[passing]
    )
    accepted = []
    for k, (graph, last) in enumerate(zip(graphs, positions[:, n - 1].tolist())):
        orbit_ids = canonical_record(graph).orbit_ids
        if orbit_ids[last] == orbit_ids[n - 1]:
            accepted.append(k)
    return [graphs[k] for k in accepted], words[accepted]


def _augment_blocks(parents: Iterable[Graph]) -> Iterator[Tuple[List[Graph], np.ndarray]]:
    """Accepted children of ``parents`` in blocks of about ``_BLOCK`` candidates.

    ``parents`` is consumed lazily and must share one order.  Each block
    yields its accepted children (canonical, record memoised) and their
    packed certificate words.
    """
    block: List[Graph] = []
    parent_of: List[np.ndarray] = []
    masks: List[np.ndarray] = []
    pending = 0
    for parent in parents:
        candidates = _subset_candidates(parent, canonical_record(parent))
        parent_of.append(np.full(candidates.size, len(block), dtype=np.intp))
        masks.append(candidates)
        block.append(parent)
        pending += candidates.size
        if pending >= _BLOCK:
            yield _accept(block, np.concatenate(parent_of), np.concatenate(masks))
            block, parent_of, masks, pending = [], [], [], 0
    if pending:
        yield _accept(block, np.concatenate(parent_of), np.concatenate(masks))


def _augment(parents: Iterable[Graph]) -> Iterator[Graph]:
    """Stream the accepted children of ``parents``, block by block."""
    for children, _ in _augment_blocks(parents):
        yield from children


def _augment_level(parents: Sequence[Graph]) -> List[Graph]:
    """One materialised level: every accepted child, in ``class_sort_key`` order."""
    from ..engine.columnar import canonical_sort_indices

    children: List[Graph] = []
    words: List[np.ndarray] = []
    for block, block_words in _augment_blocks(parents):
        children.extend(block)
        words.append(block_words)
    if not children:
        return []
    order = canonical_sort_indices(
        [g.num_edges for g in children], np.concatenate(words), parents[0].n + 1
    )
    return [children[i] for i in order.tolist()]


# --------------------------------------------------------------------------- #
# Streaming generators
# --------------------------------------------------------------------------- #


def iter_graphs(n: int) -> Iterator[Graph]:
    """Stream one representative per isomorphism class of graphs on ``n`` vertices.

    Unlike :func:`enumerate_graphs` nothing is materialised or sorted: each
    level pulls its parents from the level below a block at a time, and
    graphs are yielded in generation order, canonical and with their records
    memoised.  Levels already materialised by :func:`enumerate_graphs` are
    reused as parents.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return _iter_graphs(n)


def _iter_graphs(n: int) -> Iterator[Graph]:
    """Generator body of :func:`iter_graphs` (arguments already validated)."""
    cached = _GRAPH_CACHE.get(n)
    if cached is not None:
        yield from list(cached)
        return
    if n == 0:
        yield Graph(0)
        return
    yield from _augment(_iter_graphs(n - 1))


def iter_connected_graphs(n: int) -> Iterator[Graph]:
    """Stream one representative per isomorphism class of connected graphs.

    When telemetry is on, each exhausted stream tallies its class count
    into ``repro_enumeration_graphs_total`` and its wall seconds into
    ``repro_enumeration_seconds`` (graphs/sec is their ratio); disabled
    telemetry returns the bare generator expression unchanged.
    """
    from .. import obs

    if not obs.metrics_enabled():
        return (g for g in iter_graphs(n) if is_connected(g))
    return _iter_connected_counted(n)


def _iter_connected_counted(n: int) -> Iterator[Graph]:
    """Generator body of the instrumented :func:`iter_connected_graphs`."""
    yielded = 0
    start = time.perf_counter()
    try:
        for g in iter_graphs(n):
            if is_connected(g):
                yielded += 1
                yield g
    finally:
        _record_enumeration(yielded, time.perf_counter() - start)


def _record_enumeration(classes: int, seconds: float) -> None:
    """Tally one connected-class enumeration (no-op with telemetry off)."""
    from .. import obs

    obs.counter(
        "repro_enumeration_graphs_total",
        "Connected graph classes enumerated",
    ).inc(classes)
    obs.histogram(
        "repro_enumeration_seconds",
        "Wall seconds per connected-graph enumeration",
    ).observe(seconds)


def iter_graphs_from(root: Graph, n: int) -> Iterator[Graph]:
    """Stream the level-``n`` descendants of ``root`` in the generation tree.

    Because canonical augmentation produces every class exactly once, the
    subtrees below distinct level-``k`` representatives are disjoint and
    jointly exhaustive: sharding the roots across process-pool workers
    parallelises generation with no duplicate work and no cross-worker
    deduplication (this is how the streamed census fans out).  Descendants
    are canonical, with their records memoised; ``root`` itself is yielded
    as given when ``n == root.n``.
    """
    if root.n > n:
        raise ValueError("root has more vertices than the requested level")
    return _iter_graphs_from(root, n)


def _iter_graphs_from(root: Graph, n: int) -> Iterator[Graph]:
    """Generator body of :func:`iter_graphs_from` (arguments already validated)."""
    level: Iterator[Graph] = iter((root,))
    for _ in range(root.n, n):
        level = _augment(level)
    yield from level


# --------------------------------------------------------------------------- #
# Materialised enumerations (cached, canonical, deterministically sorted)
# --------------------------------------------------------------------------- #


def enumerate_graphs(n: int) -> List[Graph]:
    """All simple graphs on ``n`` vertices, one representative per isomorphism class.

    Representatives are returned in canonical form, deterministically sorted,
    and the result is cached so repeated calls are cheap.  Generation is by
    canonical augmentation (see the module docstring): each level is produced
    exactly once, with no deduplication pass.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n in _GRAPH_CACHE:
        return list(_GRAPH_CACHE[n])
    if n == 0:
        result = [Graph(0)]
    else:
        result = _augment_level(enumerate_graphs(n - 1))
    _GRAPH_CACHE[n] = result
    return list(result)


def enumerate_connected_graphs(n: int) -> List[Graph]:
    """All connected graphs on ``n`` vertices up to isomorphism.

    Each call tallies its classes and wall seconds into the same telemetry
    as :func:`iter_connected_graphs`.
    """
    start = time.perf_counter()
    graphs = [g for g in enumerate_graphs(n) if is_connected(g)]
    _record_enumeration(len(graphs), time.perf_counter() - start)
    return graphs


def enumerate_trees(n: int) -> List[Graph]:
    """All trees on ``n`` vertices up to isomorphism.

    Implemented by augmentation restricted to attaching a leaf at one vertex
    per automorphism orbit of the parent (orbit-mates give isomorphic trees),
    which is much cheaper than filtering the full graph enumeration and
    scales to the tree sizes used by the Proposition 5 experiment.  Results
    are cached like :func:`enumerate_graphs`.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n in _TREE_CACHE:
        return list(_TREE_CACHE[n])
    if n == 0:
        result = [Graph(0)]
    elif n == 1:
        result = [Graph(1)]
    else:
        seen: Dict[Tuple[int, int], Graph] = {}
        for base in enumerate_trees(n - 1):
            record = canonical_record(base)
            for attach in sorted(set(record.orbit_ids)):
                candidate = base.add_vertex([attach])
                key = canonical_form(candidate)
                if key not in seen:
                    seen[key] = canonical_graph(candidate)
        result = sorted(seen.values(), key=lambda g: sorted(g.edges))
    _TREE_CACHE[n] = result
    return list(result)


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All labelled graphs on ``n`` vertices (no isomorphism reduction).

    There are ``2 ** (n(n-1)/2)`` of them, so this is only usable for very
    small ``n``; it exists mainly to cross-check the isomorphism-reduced
    enumeration in tests.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield Graph(n, edges)


def enumerate_graphs_with_edge_count(n: int, m: int) -> List[Graph]:
    """All graphs on ``n`` vertices with exactly ``m`` edges, up to isomorphism."""
    return [g for g in enumerate_graphs(n) if g.num_edges == m]


def count_graphs(n: int) -> int:
    """Number of isomorphism classes of graphs on ``n`` vertices."""
    return len(enumerate_graphs(n))


def count_connected_graphs(n: int) -> int:
    """Number of isomorphism classes of connected graphs on ``n`` vertices."""
    return len(enumerate_connected_graphs(n))


def count_trees(n: int) -> int:
    """Number of isomorphism classes of trees on ``n`` vertices."""
    return len(enumerate_trees(n))


def clear_cache() -> None:
    """Drop the enumeration caches (used by tests that measure cold timings)."""
    _GRAPH_CACHE.clear()
    _TREE_CACHE.clear()
