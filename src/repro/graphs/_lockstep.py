"""Canonical labelling of a block of same-order graphs in lock-step NumPy.

Canonical augmentation (:mod:`repro.graphs.enumeration`) needs the
canonical form, the automorphism group and the vertex orbits of every
candidate child of a level.  This module computes them for a whole block of
graphs at once and reproduces the per-graph search of
:mod:`repro.graphs.isomorphism` exactly:

1. **1-WL refinement** (:func:`stable_colors`) from the degree colouring.
   A vertex's key is ``(old colour, neighbour colours ascending)``, padded
   with ``-1`` at the end, so a shorter multiset compares smaller, exactly
   like the Python tuples of ``_refine_colors``.  Keys are ranked densely
   within each graph, and a graph stops when its class count stops changing
   or reaches ``n``: the same numbering and the same two exits.
2. **Individualisation–refinement without pruning** (:func:`_search`).
   Each node targets its smallest non-singleton cell, ties going to the
   lower colour, and has one child per cell member in ascending vertex
   order; the member takes the cell's colour and the rest of the cell the
   next one (the dense form of ``2c`` / ``2c + 1``).  Every node of one
   depth is refined in the same NumPy pass.
3. **Leaf certificates.**  A discrete colouring is a vertex ordering; its
   key is the relabelled upper triangle packed into little-endian 64-bit
   words (the :mod:`repro.engine.columnar` certificate layout).  Pair
   ``(pu, pv)``'s rank in the upper triangle is monotone in its bit
   ``pu·n + pv`` of the record's ``bits``, so the minimum key over a graph's
   leaves (a segmented ``lexsort`` minimum) is the leaf the pruned search
   keeps.
4. **The group from the tying leaves.**  Without pruning, the leaves that
   tie the minimum are in bijection with the automorphisms: leaf ``ℓ`` gives
   ``h[i] = pos_best[ord_ℓ[i]]`` in canonical labels.  Their count is the
   group order, the minimum of ``h`` over them gives the orbit ids, and the
   first element of each ``(level i, image of i)`` pair, where ``h`` fixes
   ``0 … i - 1`` and moves ``i``, gives a strong generating set for the base
   ``0 … n - 1``.

A graph whose search has more than ``_LEAF_BUDGET`` nodes at one depth
(``K_n``, stars, empty graphs and their near relatives) goes to the pruned
per-graph search ``_compute_record``, as does every graph above ``_MAX_N``
vertices, where the refinement keys would overflow ``int64``.  Either way
the result is the canonical graph with the record ``canonical_graph`` would
attach.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .graph import Graph
from .isomorphism import (
    CanonicalRecord,
    _compute_record,
    _stable_colors,
    canonical_graph,
)

#: Largest order refined in NumPy: ``n`` digits of base ``n + 1`` fit int64.
_MAX_N = 15

#: Most search nodes one graph may have at one depth before it falls back
#: to the pruned per-graph search.
_LEAF_BUDGET = 256

#: Nodes refined per NumPy pass, which bounds the ``(nodes, n, n)``
#: temporaries of a wide depth.
_NODE_CHUNK = 16384

_WORD = (1 << 64) - 1


def _dense_rank(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rank each row's keys densely (smallest 0); also each row's class count."""
    order = np.argsort(keys, axis=1)
    ranked = np.take_along_axis(keys, order, axis=1)
    steps = np.zeros(keys.shape, dtype=np.int16)
    steps[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    ranks = np.cumsum(steps, axis=1, dtype=np.int16)
    colors = np.empty_like(ranks)
    np.put_along_axis(colors, order, ranks, axis=1)
    return colors, ranks[:, -1] + 1


def _refine_keys(adj: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """One round's keys ``(colour, sorted neighbour colours, -1 padding)`` as int64.

    Colours are dense (``< n``), so shifting every digit up by one (the
    padding becomes 0) makes each key an ``n``-digit number of base
    ``n + 1`` whose order is the tuples' lexicographic order.
    """
    n = colors.shape[1]
    pad = n + 1
    neighbors = np.where(adj, colors[:, None, :] + 1, pad).astype(np.int8)
    neighbors.sort(axis=2)
    neighbors[neighbors == pad] = 0
    keys = colors.astype(np.int64)
    for j in range(n - 1):
        keys *= pad
        keys += neighbors[:, :, j]
    return keys


def _refine(
    adj: np.ndarray, graph_of: np.ndarray, colors: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Refine each row's dense colouring of graph ``adj[graph_of[row]]`` to 1-WL stability.

    Rows leave when their class count stops changing or reaches ``n``, the
    two exits of ``_refine_colors``.  A discrete dense colouring is already
    its own fixed point, so such rows never enter.
    """
    n = colors.shape[1]
    active = np.flatnonzero(counts < n)
    while active.size:
        still: List[np.ndarray] = []
        for start in range(0, active.size, _NODE_CHUNK):
            rows = active[start:start + _NODE_CHUNK]
            keys = _refine_keys(adj[graph_of[rows]], colors[rows])
            refined, classes = _dense_rank(keys)
            colors[rows] = refined
            moving = (classes != counts[rows]) & (classes < n)
            counts[rows] = classes
            still.append(rows[moving])
        active = np.concatenate(still)
    return colors, counts


def stable_colors(adj: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The stable 1-WL colourings of a ``(G, n, n)`` bool block, and their class counts.

    Row ``g`` equals ``_stable_colors`` of graph ``g``.
    """
    size, n = adj.shape[0], adj.shape[1]
    if n > _MAX_N:
        colors = np.array(
            [_stable_colors(_neighbor_tuples(a)) for a in adj], dtype=np.int16
        ).reshape(size, n)
        counts = colors.max(axis=1, initial=-1).astype(np.int16) + 1
        return colors, counts
    colors, counts = _dense_rank(adj.sum(axis=2, dtype=np.int16))
    return _refine(adj, np.arange(size), colors, counts)


def _search(
    adj: np.ndarray, colors: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Individualisation–refinement of every graph of the block, one depth at a time.

    Starts from the stable colourings and returns ``(leaf_graph,
    leaf_colors, over)``: every leaf's graph and discrete colouring, and
    which graphs passed the node budget (their leaves are dropped).
    """
    size, n = colors.shape
    vertices = np.arange(n)
    graph_of = np.arange(size)
    over = np.zeros(size, dtype=bool)
    leaf_graph: List[np.ndarray] = []
    leaf_colors: List[np.ndarray] = []
    while graph_of.size:
        discrete = counts == n
        leaf_graph.append(graph_of[discrete])
        leaf_colors.append(colors[discrete])
        inner = ~discrete
        graph_of, colors, counts = graph_of[inner], colors[inner], counts[inner]
        if not graph_of.size:
            break
        # Target the smallest non-singleton cell, ties to the lower colour.
        cells = np.arange(graph_of.size)[:, None] * n + colors
        sizes = np.bincount(cells.ravel(), minlength=cells.size).reshape(-1, n)
        score = np.where(sizes > 1, sizes * n + vertices, n * n + n)
        target = score.argmin(axis=1)
        node, vertex = np.nonzero(colors == target[:, None])
        child_graph = graph_of[node]
        over |= np.bincount(child_graph, minlength=size) > _LEAF_BUDGET
        keep = ~over[child_graph]
        node, vertex, graph_of = node[keep], vertex[keep], child_graph[keep]
        parent = colors[node]
        cell = target[node][:, None]
        colors = (
            parent
            + (parent > cell)
            + ((parent == cell) & (vertices != vertex[:, None]))
        ).astype(np.int16)
        counts = counts[node] + 1
        colors, counts = _refine(adj, graph_of, colors, counts)
    leaf_graph_all = np.concatenate(leaf_graph)
    keep = ~over[leaf_graph_all]
    return leaf_graph_all[keep], np.concatenate(leaf_colors)[keep], over


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack ``(L, P)`` bool rows into little-endian ``uint64[L, W]`` words."""
    count, pairs = bits.shape
    words = (pairs + 63) // 64
    padded = np.zeros((count, 64 * words), dtype=bool)
    padded[:, :pairs] = bits
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _neighbor_tuples(adj: np.ndarray) -> Tuple[Tuple[int, ...], ...]:
    """One graph's neighbour tuples, the per-graph search's input."""
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in adj)


def _record_bits(rows: List[int], n: int) -> int:
    """The record's bitstring ``Σ 1 << (u·n + v)`` over edges ``u < v``."""
    bits = 0
    for u, row in enumerate(rows):
        bits |= (row >> (u + 1)) << (u * (n + 1) + 1)
    return bits


def _per_graph(adj: np.ndarray, colors: np.ndarray) -> Tuple[Graph, List[int]]:
    """The pruned per-graph search for one graph: canonical graph and positions."""
    n = adj.shape[0]
    neighbors = _neighbor_tuples(adj)
    record = _compute_record(adj=neighbors, stable_colors=colors.tolist())
    rows = tuple(sum(1 << v for v in row) for row in neighbors)
    graph = Graph._from_rows(n, rows, int(adj.sum()) // 2)
    graph._canon = record
    position = [0] * n
    for new, old in enumerate(record.ordering):
        position[old] = new
    return canonical_graph(graph), position


def canonical_block(
    adj: np.ndarray, colors: np.ndarray, counts: np.ndarray
) -> Tuple[List[Graph], np.ndarray, np.ndarray]:
    """Canonical graphs of a ``(G, n, n)`` bool block, from its stable colourings.

    Returns ``(graphs, positions, words)``: graph ``g``'s canonical
    representative with its record memoised (identity ordering, as
    :func:`~repro.graphs.isomorphism.canonical_graph` attaches it),
    ``positions[g, v]``, the canonical label of vertex ``v``, and the
    representative's packed certificate words.
    """
    size, n = colors.shape
    pairs = n * (n - 1) // 2
    graphs: List = [None] * size
    positions = np.zeros((size, n), dtype=np.int16)
    words = np.zeros((size, (pairs + 63) // 64), dtype=np.uint64)
    if n > _MAX_N:
        over = np.ones(size, dtype=bool)
    else:
        leaf_graph, leaf_colors, over = _search(adj, colors.copy(), counts.copy())
        _settle(adj, leaf_graph, leaf_colors, graphs, positions, words)
    for g in np.flatnonzero(over).tolist():
        graph, position = _per_graph(adj[g], colors[g])
        graphs[g] = graph
        positions[g] = position
        bits = graph.adjacency_bitstring()
        words[g] = [(bits >> (64 * w)) & _WORD for w in range(words.shape[1])]
    return graphs, positions, words


def _settle(
    adj: np.ndarray,
    leaf_graph: np.ndarray,
    leaf_colors: np.ndarray,
    graphs: List,
    positions: np.ndarray,
    words: np.ndarray,
) -> None:
    """Fill in every searched graph from its leaves (see the module docstring)."""
    if not leaf_graph.size:
        return
    n = leaf_colors.shape[1]
    vertices = np.arange(n)
    # ordering[l, i] = the vertex leaf l puts at position i.
    ordering = np.empty_like(leaf_colors)
    np.put_along_axis(
        ordering, leaf_colors.astype(np.intp),
        np.broadcast_to(vertices, leaf_colors.shape).astype(np.int16), axis=1,
    )
    iu0, iu1 = np.triu_indices(n, 1)
    leaf_words = _pack_words(
        adj[leaf_graph[:, None], ordering[:, iu0], ordering[:, iu1]]
    )
    keys = tuple(leaf_words[:, w] for w in range(leaf_words.shape[1]))
    order = np.lexsort(keys + (leaf_graph,))
    sorted_graph = leaf_graph[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = sorted_graph[1:] != sorted_graph[:-1]
    best = order[first]
    settled = leaf_graph[best]
    best_of = np.zeros(positions.shape[0], dtype=np.intp)
    best_of[settled] = best
    ties = order[
        (leaf_words[order] == leaf_words[best_of[sorted_graph]]).all(axis=1)
    ]
    tie_graph = leaf_graph[ties]
    group_order = np.bincount(tie_graph, minlength=positions.shape[0])
    pos_best = leaf_colors[best]
    positions[settled] = pos_best
    words[settled] = leaf_words[best]
    # The automorphisms in canonical labels, one per tying leaf.
    group = np.take_along_axis(
        positions[tie_graph], ordering[ties].astype(np.intp), axis=1
    )
    tie_first = np.ones(ties.size, dtype=bool)
    tie_first[1:] = tie_graph[1:] != tie_graph[:-1]
    orbit_ids = np.minimum.reduceat(group, np.flatnonzero(tie_first), axis=0)
    # Strong generators: the first element per (graph, level, image).
    moved = group != vertices
    level = moved.argmax(axis=1)
    image = group[np.arange(ties.size), level]
    nontrivial = np.flatnonzero(moved.any(axis=1))
    _, pick = np.unique(
        (tie_graph[nontrivial] * n + level[nontrivial]) * n + image[nontrivial],
        return_index=True,
    )
    generators = nontrivial[pick]
    gen_graph = tie_graph[generators]
    gen_split = np.searchsorted(gen_graph, settled)
    gen_rows = group[generators].tolist()
    best_ordering = ordering[best].astype(np.intp)
    canon_adj = adj[
        settled[:, None, None], best_ordering[:, :, None], best_ordering[:, None, :]
    ]
    rows = (canon_adj.astype(np.int64) @ (np.int64(1) << vertices)).tolist()
    edges = canon_adj.sum(axis=(1, 2)) // 2
    identity = tuple(range(n))
    bounds = gen_split.tolist() + [len(gen_rows)]
    for k, (g, graph_rows, m, orbit, order_g) in enumerate(
        zip(
            settled.tolist(), rows, edges.tolist(), orbit_ids.tolist(),
            group_order[settled].tolist(),
        )
    ):
        graph = Graph._from_rows(n, tuple(graph_rows), m)
        graph._canon = CanonicalRecord(
            n=n,
            bits=_record_bits(graph_rows, n),
            ordering=identity,
            generators=tuple(map(tuple, gen_rows[bounds[k]:bounds[k + 1]])),
            orbit_ids=tuple(orbit),
            _group_order=order_g,
        )
        graphs[g] = graph
