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
pool workers from any level-``k`` prefix.  Two cheap invariant filters decide
most acceptances without a canonical search: the new vertex must have maximal
degree (checked on the subset mask before the child is even built), and must
carry the maximal stable 1-WL colour (singleton colour classes accept
outright).

Counts are cross-checked in the test suite against the OEIS:

* all graphs (A000088):      1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, ...
* connected graphs (A001349): 1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080, ...
* trees (A000055):            1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, ...
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Dict, Iterator, List, Sequence, Tuple

from .graph import Graph, iter_bits
from .isomorphism import (
    CanonicalRecord,
    Permutation,
    _compute_record,
    _stable_colors,
    canonical_form,
    canonical_graph,
    canonical_record,
)
from .properties import is_connected, is_tree

_GRAPH_CACHE: Dict[int, List[Graph]] = {}
_TREE_CACHE: Dict[int, List[Graph]] = {}


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


def _mask_orbit_reps(n: int, generators: Sequence[Permutation]) -> List[int]:
    """One representative bitmask per orbit of vertex subsets under ``generators``."""
    size = 1 << n
    seen = bytearray(size)
    images = [[1 << g[b] for b in range(n)] for g in generators]
    reps: List[int] = []
    for mask in range(size):
        if seen[mask]:
            continue
        reps.append(mask)
        seen[mask] = 1
        stack = [mask]
        while stack:
            current = stack.pop()
            for table in images:
                image = 0
                remaining = current
                while remaining:
                    low = remaining & -remaining
                    image |= table[low.bit_length() - 1]
                    remaining ^= low
                if not seen[image]:
                    seen[image] = 1
                    stack.append(image)
    return reps


def _subset_candidates(parent: Graph, record: CanonicalRecord) -> Iterator[int]:
    """Neighbourhood masks that could yield an *accepted* child of ``parent``.

    Yields one mask per automorphism orbit (orbit-mates give isomorphic
    children) and drops every mask whose new vertex could not have maximal
    degree in the child: acceptance requires the augmented vertex to occupy
    the last canonical position, which always carries the maximal stable
    colour and hence the maximal degree.  The filter is automorphism-
    invariant, so applying it to orbit representatives loses nothing.
    """
    n = parent.n
    if n == 0:
        yield 0
        return
    degrees = [parent.degree(v) for v in range(n)]
    # ge[s] = bitmask of vertices with parent-degree >= s.
    ge = [0] * (n + 2)
    for v, d in enumerate(degrees):
        bit = 1 << v
        for s in range(d + 1):
            ge[s] |= bit
    full = (1 << n) - 1
    masks: Sequence[int]
    if record.generators:
        masks = _mask_orbit_reps(n, record.generators)
    else:
        masks = range(1 << n)
    for mask in masks:
        s = mask.bit_count()
        # A vertex outside the subset may have degree at most s; a vertex
        # inside gains one, so it may have degree at most s - 1.
        if ge[s + 1] & ~mask & full:
            continue
        if ge[s] & mask:
            continue
        yield mask


def _acceptance(child_adj: Tuple[Tuple[int, ...], ...]):
    """McKay acceptance: is the new (last) vertex in the canonical last orbit?

    Cheap invariant tests decide most candidates: the stable 1-WL colouring
    is order-preserved by the canonical search, so the vertex at the last
    canonical position always lies in the maximal stable colour class.  If
    the new vertex is not in that class it can never be canonically last
    (orbits refine colour classes); if the class is a singleton it *is* the
    canonically last vertex.  Only ties fall through to a full canonical
    search.

    Returns ``(accepted, record, colors)``: ``record`` is the child's
    :class:`~repro.graphs.isomorphism.CanonicalRecord` when a full search
    was needed (so the caller can memoise it) and ``None`` otherwise;
    ``colors`` is the stable colouring (a reusable search hint).
    """
    n = len(child_adj)
    if n <= 1:
        return True, None, None
    w = n - 1
    colors = _stable_colors(child_adj)
    top = max(colors)
    if colors[w] != top:
        return False, None, colors
    if colors.count(top) == 1:
        return True, None, colors
    record = _compute_record(adj=child_adj, stable_colors=colors)
    last = record.ordering[-1]
    return record.orbit_ids[w] == record.orbit_ids[last], record, colors


def _children(parent: Graph) -> Iterator[Graph]:
    """All accepted one-vertex extensions of ``parent`` (one per child class).

    The candidate's adjacency tuples are assembled from the parent's (decoded
    once per parent), and the child :class:`Graph` is only built once the
    candidate is accepted; rejected candidates never allocate a graph.
    Accepted children carry their memoised canonical record (computed with
    the acceptance test's stable colouring as a search hint): every child
    becomes either a parent of the next level or a canonicalised census/
    enumeration entry, so the search is never wasted and never repeated.
    """
    record = canonical_record(parent)
    n = parent.n
    parent_adj = tuple(tuple(iter_bits(row)) for row in parent.adjacency_rows())
    for mask in _subset_candidates(parent, record):
        neighbors = tuple(iter_bits(mask))
        child_adj = tuple(
            parent_adj[u] + (n,) if (mask >> u) & 1 else parent_adj[u]
            for u in range(n)
        ) + (neighbors,)
        accepted, child_record, colors = _acceptance(child_adj)
        if not accepted:
            continue
        if child_record is None and colors is not None:
            child_record = _compute_record(adj=child_adj, stable_colors=colors)
        child = parent.add_vertex(neighbors)
        if child_record is not None:
            child._canon = child_record
        yield child


# --------------------------------------------------------------------------- #
# Streaming generators
# --------------------------------------------------------------------------- #


def iter_graphs(n: int) -> Iterator[Graph]:
    """Stream one representative per isomorphism class of graphs on ``n`` vertices.

    Unlike :func:`enumerate_graphs` nothing is materialised or canonicalised:
    graphs are yielded in generation order as the canonical-augmentation tree
    is walked depth-first.  Levels already materialised by
    :func:`enumerate_graphs` are reused as parents.
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
    for parent in _iter_graphs(n - 1):
        yield from _children(parent)


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
    deduplication (this is how the streamed census fans out).
    """
    if root.n > n:
        raise ValueError("root has more vertices than the requested level")
    return _iter_graphs_from(root, n)


def _iter_graphs_from(root: Graph, n: int) -> Iterator[Graph]:
    """Generator body of :func:`iter_graphs_from` (arguments already validated)."""
    if root.n == n:
        yield root
        return
    for child in _children(root):
        yield from _iter_graphs_from(child, n)


# --------------------------------------------------------------------------- #
# Materialised enumerations (cached, canonical, deterministically sorted)
# --------------------------------------------------------------------------- #


def _canonical_augment_level(parents: List[Graph]) -> List[Graph]:
    """One generation level: accepted children, canonicalised and sorted."""
    return sorted(
        (canonical_graph(child) for parent in parents for child in _children(parent)),
        key=class_sort_key,
    )


def _augment_dedup_level(parents: List[Graph]) -> List[Graph]:
    """One generation level of the pre-canonical-augmentation path.

    Kept verbatim as the benchmark baseline and equivalence reference: every
    ``(parent, neighbourhood)`` candidate is canonicalised and deduplicated
    through a global ``seen`` dictionary.
    """
    seen: Dict[Tuple[int, int], Graph] = {}
    for base in parents:
        n = base.n + 1
        for size in range(n):
            for neighborhood in combinations(range(n - 1), size):
                candidate = base.add_vertex(neighborhood)
                key = canonical_form(candidate)
                if key not in seen:
                    seen[key] = canonical_graph(candidate)
    return sorted(seen.values(), key=class_sort_key)


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
        result = _canonical_augment_level(enumerate_graphs(n - 1))
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
