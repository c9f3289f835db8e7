"""The incremental distance oracle backing the stability computations.

See the package docstring of :mod:`repro.engine` for the caching contract.
The oracle deliberately lives *below* :mod:`repro.core`: it knows nothing
about games or link costs, only about hop-distance sums of immutable graphs
and how those sums respond to a single-edge toggle.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..graphs.distances import (
    INFINITY,
    _rows_without_edge,
    bfs_distances,
    bitset_distance_sum,
)
from ..graphs.graph import Graph, normalize_edge
from ..graphs.properties import bridges

Edge = Tuple[int, int]

EndpointKey = Tuple[Edge, int]
DeltaTables = Tuple[Dict[EndpointKey, float], Dict[EndpointKey, float]]


def distance_delta(after: float, before: float) -> float:
    """``after - before`` with the paper's ``∞`` conventions made explicit.

    When both quantities are infinite the player cost does not change (an
    unreachable player stays unreachable), so the delta is 0; mixed cases
    propagate the sign of the infinite term.  This keeps the exact
    Definition 2/3 checks meaningful on disconnected graphs.
    """
    if after == INFINITY and before == INFINITY:
        return 0.0
    return after - before


def removal_probe(
    graph: Graph, edge: Edge, source: int, base: float, bridge_edges
) -> float:
    """Exact removal increase for one ``(edge, source)`` probe.

    The per-probe step of :meth:`DistanceOracle.stability_deltas`: severing
    a *bridge* disconnects the source from the far side (``∞``, or 0 when
    the source's cost was already infinite); any other edge costs one
    forbidden-edge bitset BFS.
    """
    if edge in bridge_edges:
        return INFINITY if base != INFINITY else 0.0
    masked = _rows_without_edge(graph, edge)
    return distance_delta(bitset_distance_sum(masked, graph.n, source), base)


def addition_probe(
    vector: List[float], shifted_other: List[float], base: float
) -> float:
    """Exact addition saving for one ``(non-edge, source)`` probe.

    ``shifted_other`` is the other endpoint's distance vector plus one; with
    a single new edge the updated distances from the source are exactly
    ``min(d_source, 1 + d_other)``, so no BFS is needed.  The per-probe
    step of :meth:`DistanceOracle.stability_deltas`.
    """
    return distance_delta(base, sum(map(min, vector, shifted_other)))


class _GraphEntry:
    """Per-graph memo: distance vectors, distance sums, toggle-delta tables."""

    __slots__ = ("vectors", "sums", "removal", "profile")

    def __init__(self, n: int) -> None:
        self.vectors: Dict[int, List[float]] = {}
        self.sums: List[Optional[float]] = [None] * n
        self.removal: Dict[EndpointKey, float] = {}
        self.profile: Optional[DeltaTables] = None


class DistanceOracle:
    """Caches per-graph distance sums and answers edge-toggle deltas.

    Parameters
    ----------
    max_graphs:
        Upper bound on the number of graphs whose derived data is retained
        (least-recently-used eviction).  Long dynamics runs visit thousands
        of transient graphs, so the cache must not grow without bound;
        censuses touch each graph a bounded number of times and fit easily.
    """

    def __init__(self, max_graphs: int = 4096) -> None:
        if max_graphs < 1:
            raise ValueError("max_graphs must be positive")
        self._max_graphs = max_graphs
        self._entries: "OrderedDict[Graph, _GraphEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    # Cache plumbing
    # ------------------------------------------------------------------ #

    def _entry(self, graph: Graph) -> _GraphEntry:
        entry = self._entries.get(graph)
        if entry is None:
            entry = _GraphEntry(graph.n)
            self._entries[graph] = entry
            if len(self._entries) > self._max_graphs:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(graph)
        return entry

    def clear(self) -> None:
        """Drop every cached graph (used by cold-start benchmarks)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # Base quantities
    # ------------------------------------------------------------------ #

    def distance_vector(self, graph: Graph, source: int) -> List[float]:
        """Cached single-source distance vector of ``graph`` from ``source``."""
        entry = self._entry(graph)
        vector = entry.vectors.get(source)
        if vector is None:
            self.misses += 1
            vector = bfs_distances(graph, source)
            entry.vectors[source] = vector
            if entry.sums[source] is None:
                entry.sums[source] = sum(vector)
        else:
            self.hits += 1
        return vector

    def distance_sum(self, graph: Graph, source: int) -> float:
        """Cached distance sum of ``graph`` from ``source``."""
        if not graph.n:
            return 0.0
        entry = self._entry(graph)
        value = entry.sums[source]
        if value is None:
            self.misses += 1
            value = bitset_distance_sum(graph.adjacency_rows(), graph.n, source)
            entry.sums[source] = value
        else:
            self.hits += 1
        return value

    def distance_sums(self, graph: Graph) -> List[float]:
        """Per-vertex distance sums (cached)."""
        return [self.distance_sum(graph, source) for source in range(graph.n)]

    # ------------------------------------------------------------------ #
    # Edge-toggle deltas
    # ------------------------------------------------------------------ #

    def addition_saving(self, graph: Graph, edge: Edge, endpoint: int) -> float:
        """Decrease of ``endpoint``'s distance cost from adding non-edge ``edge``.

        Answered from the two cached endpoint distance vectors without any
        BFS: with a single new edge ``{u, v}`` the updated distances from
        ``u`` are exactly ``min(d(u, k), 1 + d(v, k))``.
        """
        edge = normalize_edge(*edge)
        entry = self._entry(graph)
        if entry.profile is not None:
            self.hits += 1
            return entry.profile[1][(edge, endpoint)]
        u, v = edge
        other = v if endpoint == u else u
        d_end = self.distance_vector(graph, endpoint)
        d_other = self.distance_vector(graph, other)
        new_sum = 0
        for k in range(graph.n):
            through = 1 + d_other[k]
            direct = d_end[k]
            new_sum += through if through < direct else direct
        base = self.distance_sum(graph, endpoint)
        return distance_delta(base, new_sum)

    def removal_increase(self, graph: Graph, edge: Edge, endpoint: int) -> float:
        """Increase of ``endpoint``'s distance cost from severing ``edge``.

        Recomputes the single affected source with a forbidden-edge bitset
        BFS; memoised per ``(edge, endpoint)``.
        """
        edge = normalize_edge(*edge)
        entry = self._entry(graph)
        if entry.profile is not None:
            self.hits += 1
            return entry.profile[0][(edge, endpoint)]
        key = (edge, endpoint)
        value = entry.removal.get(key)
        if value is None:
            self.misses += 1
            rows = _rows_without_edge(graph, edge)
            without = bitset_distance_sum(rows, graph.n, endpoint)
            value = distance_delta(without, self.distance_sum(graph, endpoint))
            entry.removal[key] = value
        else:
            self.hits += 1
        return value

    def stability_deltas(self, graph: Graph) -> DeltaTables:
        """All single-link deviation payoffs of ``graph`` in one batched pass.

        Returns ``(removal_increase, addition_saving)`` tables keyed by
        ``((u, v), endpoint)`` — exactly the payload of a
        :class:`~repro.core.stability_intervals.PairwiseStabilityProfile` —
        computed with the cheapest exact strategy per probe:

        * every endpoint distance vector is computed once (``n`` BFS total);
        * severing a *bridge* disconnects the endpoint from the far side, so
          the removal increase is ``∞`` (or 0 when the endpoint's cost was
          already infinite) without any BFS;
        * non-bridge removals run one single-source bitset BFS;
        * additions never run a BFS: ``min(d_w, 1 + d_other)`` is folded at C
          speed over the two cached vectors.

        The tables are memoised per graph, so censuses and repeated interval
        queries pay the batch exactly once.  The returned dicts are fresh
        copies owned by the caller; mutating them cannot corrupt the cache.
        """
        entry = self._entry(graph)
        if entry.profile is not None:
            self.hits += 1
            return (dict(entry.profile[0]), dict(entry.profile[1]))
        self.misses += 1
        n = graph.n

        vectors = []
        for source in range(n):
            vector = entry.vectors.get(source)
            if vector is None:
                vector = bfs_distances(graph, source)
                entry.vectors[source] = vector
            vectors.append(vector)
        sums = [sum(vector) for vector in vectors]
        entry.sums = list(sums)
        shifted = [[d + 1 for d in vector] for vector in vectors]

        removal: Dict[EndpointKey, float] = {}
        bridge_edges = set(bridges(graph))
        for (u, v) in graph.sorted_edges():
            for endpoint in (u, v):
                removal[((u, v), endpoint)] = removal_probe(
                    graph, (u, v), endpoint, sums[endpoint], bridge_edges
                )

        addition: Dict[EndpointKey, float] = {}
        for (u, v) in graph.non_edges():
            addition[((u, v), u)] = addition_probe(vectors[u], shifted[v], sums[u])
            addition[((u, v), v)] = addition_probe(vectors[v], shifted[u], sums[v])

        entry.profile = (removal, addition)
        return (dict(removal), dict(addition))

    def toggle_delta(self, graph: Graph, edge: Edge, endpoint: int) -> float:
        """Signed change of ``endpoint``'s distance cost from toggling ``edge``.

        Positive for a removal that hurts, negative for an addition that
        helps — the uniform probe used by the dynamics layers.
        """
        u, v = edge
        if graph.has_edge(u, v):
            return self.removal_increase(graph, edge, endpoint)
        return -self.addition_saving(graph, edge, endpoint)


#: Process-wide default oracle shared by the core layers when the caller does
#: not manage one explicitly.  Worker processes of the parallel pool each get
#: their own copy (module state is per-process).
_DEFAULT_ORACLE: Optional[DistanceOracle] = None


def get_default_oracle() -> DistanceOracle:
    """The shared process-wide :class:`DistanceOracle` instance."""
    global _DEFAULT_ORACLE
    if _DEFAULT_ORACLE is None:
        _DEFAULT_ORACLE = DistanceOracle()
    return _DEFAULT_ORACLE
