"""Vectorised UCG Nash-supportability engine.

:func:`repro.core.unilateral.ucg_nash_alpha_set` decides graph-level Nash
supportability of the unilateral game by backtracking over edge
orientations, recomputing a best-response α-interval per ``(player, owned
set)``.  That per-graph search is exact but it is the last per-graph
bottleneck in the library: at ``n = 7`` the full census costs minutes and at
``n = 8`` it was simply never run.  This module replaces it with a batched
pipeline that produces the *identical* :class:`AlphaIntervalSet` per graph
— float-for-float, interval-for-interval — at a fraction of the cost:

1. **Interval tables, not interval calls.**  For a player ``p`` the
   best-response interval of owning ``T ⊆ N(p)`` depends only on the
   *opponent-bought* neighbour mask ``A = N(p) \\ T``: the deviation
   candidates are ``C = V \\ ({p} ∪ A)`` and every purchase set ``S ⊆ C``
   contributes a constraint through ``D_p(A ∪ S)``, the distance sum from
   ``p`` when its neighbour set is ``A ∪ S``.  Every neighbour set of ``p``
   lies in ``V∖{p}``, so player ``p``'s tables are indexed by the
   ``2^(n-1)`` masks of ``V∖{p}`` (bit ``p`` dropped, :func:`_compress`).
   All of ``D_p(·)`` comes from one multi-source bitset BFS in ``G - p``
   over every row of a chunk at once: the radius-``l`` balls of all
   vertices grow a level at a time, a subset-OR doubling unions them into
   the reach of every mask, and one bit count per level adds the vertices
   still unreached.  Distance sums are small integers, so they
   live in ``uint8`` with 255 as ∞, and the per-``A`` interval endpoints
   reduce to per-size superset minima, taken size-major by ``n - 1``
   in-place minimum passes.  Only then does a float64 fold turn the minima
   into quotients, one size plane at a time and only for the opponent
   masks ``A ⊆ N(p)`` that can occur (batched by degree), each quotient
   read from a table indexed by the two uint8 sums.  Division by the
   (positive) purchase-count difference is weakly monotone, so taking the
   group extremum *before* the division produces bit-identical endpoints
   to the reference's per-subset fold.

   Every ``(graph, player)`` row of a chunk gets its own tables, so the
   result depends on the graph alone, not on what its instance memoises.

2. **Chunk-batched, bit-parallel orientation search.**  Backtracking over
   orientations is replaced by a dynamic program over vertices that runs in
   lock-step over every graph of a chunk.  The search only ever *selects*
   interval endpoints (max lo, min hi, gluing of touching intervals), so
   each graph's distinct endpoints are ranked once and an interval
   ``[lo, hi]`` becomes a run of bits in a small bitset — one bit per
   endpoint and one per open gap between consecutive endpoints.
   Intersection is AND, union is OR, and decoding turns runs back into the
   original floats.  Every option is first trimmed to the graph's hull
   (the intersection of all players' feasible hulls): any complete
   orientation's intersection lies inside it, so trimming never changes
   the final point set.  The DP state is, per graph, the class vector of
   the not-yet-processed vertices — each vertex's set of earlier
   neighbours whose shared edge was deferred to it, quotiented by
   *future-equivalence* (two inherited masks that generate the same
   options under every further deferral are interchangeable, which
   collapses ``K_8`` from ~10^6 raw states to a few hundred) — and the
   value is the bitset union over every orientation prefix reaching it.
   The classes of every ``(graph, vertex)`` row are built at once by
   pair-id refinement, each id a rank counted over a presence table of
   the pair keys (:func:`_dense_ids`; no sort while the key span stays
   small); each DP step expands all states by their options, ANDs the
   bitsets, applies the deferral transitions and merges equal ``(graph,
   state)`` keys with one sort and a ``bitwise_or.reduceat``, in slices of
   a byte budget.

3. **Chunks sized by their work.**  A chunk takes graphs in order while
   their estimated bytes (:func:`_graph_bytes`: the tables over the masks
   of ``V``, the opponent masks ``A ⊆ N(p)``, and the weighted fold's
   ``(A, S)`` pairs) stay within one budget, so sparse graphs share a
   chunk with many others and dense ones with few.

The weighted game (:func:`weighted_ucg_t_sets`) reads the same
model-independent ``D_p`` tables (distances are unweighted hops) through
the same :func:`_compress` masks, and replaces purchase counts by exact
link-cost sums, one table per player and call: a high-bit DP replays
:meth:`CostModel.player_link_cost`'s ascending left fold bit-for-bit, with
:class:`UniformCost`'s ``α·|S|`` closed form special-cased.  Weight sums
are not monotone in ``|S|``, so no superset minimum applies: its fold
(:func:`_weighted_intervals`) evaluates the reference's per-purchase-set
terms for every opponent mask of a degree and opponent count at once and
reduces them with masked extrema, so the weighted endpoints match the
per-graph reference exactly as well.  Both games share the chunk loop
(:func:`_engine_sets`), the option codes, the class kernel and the DP.

Graphs with ``n`` outside the table-friendly range fall back to the
backtracking reference, which is also what every test asserts against.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Dict, List, NamedTuple

import numpy as np

from .. import obs

#: Largest ``n`` the table pipeline handles (2^(n-1)-entry tables per player).
_MAX_TABLE_N = 12

#: Byte budget of one chunk of graphs, as :func:`_graph_bytes` estimates
#: it, and of one slice of a DP step's expanded ``(state, option)`` pairs.
#: The chunk estimate is conservative: the n = 8 census's chunks of 153
#: graphs peak at 0.26–0.51 of theirs (tracemalloc).
_TABLE_BYTE_BUDGET = 24 << 20

#: :func:`_graph_bytes` per row and mask of V: the uint8 distance sums,
#: reach, level temporaries and size-major superset minima over V∖{p},
#: about ``(n + 5)/2`` bytes.
_MASK_BYTES = 8

#: :func:`_graph_bytes` per opponent mask A ⊆ N(p) of a row: its fold
#: entry, option code, class-kernel and DP arrays.  These peak at ~20–70 B
#: per mask on sparse n = 8 graphs and ~190 B on the densest (the 153 that
#: hold ``K_8``), so 400 B keeps a chunk within about half the budget.
_ENTRY_BYTES = 400

#: :func:`_graph_bytes` per ``(A, S)`` pair of the weighted fold.  Its
#: tracemalloc peak runs at 56–67 B per pair of its largest (degree,
#: opponent count) batch, 8–11 B per pair of the chunk (n = 8).
_PAIR_BYTES = 12

#: Bytes per expanded ``(state, option)`` pair of a DP step besides its two
#: bitset words (tracemalloc: ~90 B per one-word pair on ``K_12``).
_DP_PAIR_BYTES = 80

#: ∞ in the uint8 distance-sum tables.  A finite ``D_p(B)`` adds ``n - 1``
#: terms ``1 + d_{G-p}(B, j)`` of at most ``n - 1`` each, so it is at most
#: ``(n - 1)² = 121`` for ``n ≤ _MAX_TABLE_N = 12`` and never reaches the
#: sentinel.  The level sum of :func:`_distance_sums` runs at most ``n - 1``
#: levels, so even for a mask whose reach stops short it stays below
#: ``(n - 1)·n = 132`` before it is set to ∞.
_INF8 = 255

#: float64 value of every uint8 distance sum, ``inf`` for ``_INF8``.
_FLOAT_SUMS = np.where(np.arange(256) == _INF8, np.inf, np.arange(256.0))

#: ``_LOW_BITS[k]`` has the ``k`` lowest bits of a 64-bit word set.
_LOW_BITS = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)


# --------------------------------------------------------------------------- #
# Distance-sum tables: D_p(B) for every mask B of V∖{p}, batched
# --------------------------------------------------------------------------- #


def _popcounts(n: int):
    masks = np.arange(1 << n, dtype=np.int64)
    pop = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        pop += (masks >> b) & 1
    return pop


def _submask_matrix(masks, d: int):
    """``subs[i]`` = every submask of ``masks[i]`` (all of popcount ``d``).

    Empty set first, doubled by each low bit, so column ``j`` holds the
    submask whose members are the bits of ``j`` mapped onto the mask's
    members in increasing order.
    """
    subs = np.zeros((len(masks), 1), dtype=np.int64)
    rest = np.asarray(masks, dtype=np.int64).copy()
    for _ in range(d):
        low = rest & -rest
        rest ^= low
        subs = np.concatenate([subs, subs | low[:, None]], axis=1)
    return subs


def _compress(masks, p):
    """``masks`` with bit ``p`` dropped: the bits above ``p`` shift down one.

    Maps a mask of ``V`` to the (n − 1)-bit mask of ``V∖{p}`` that indexes
    player ``p``'s tables (bit ``k`` is vertex ``k`` below ``p`` and vertex
    ``k + 1`` from ``p`` on).
    """
    low = (np.int64(1) << p) - 1
    return (masks & low) | ((masks >> 1) & ~low)


def _bit_counts(masks):
    """Set bits of each entry of a uint8 or uint16 array, as uint8 (SWAR)."""
    ones = np.iinfo(masks.dtype).max
    count = masks - ((masks >> 1) & (ones // 3))
    count = (count & (ones // 5)) + ((count >> 2) & (ones // 5))
    count = (count + (count >> 4)) & (ones // 17)
    if masks.dtype == np.uint16:
        count = (count + (count >> 8)) & 0x1F
    return count.astype(np.uint8, copy=False)


def _float_sums(table):
    """float64 copy of a uint8 distance-sum table (``inf`` for ``_INF8``)."""
    return np.take(_FLOAT_SUMS, table)


def _distance_sums(adjacency, p_arr):
    """``dsum[B, r]`` = D_p(B) for every mask ``B`` of ``V∖{p}``, mask-major.

    Row ``r`` is player ``p = p_arr[r]`` of the graph with neighbour masks
    ``adjacency[r]``, indexed by the :func:`_compress` masks.  ``D_p(B) =
    Σ_{j≠p} min_{k∈B} (1 + d_{G-p}(k, j))`` is the distance sum from ``p``
    when its neighbour set is exactly ``B`` (shortest paths from ``p`` never
    revisit ``p``).  With ``reach_0(B) = B`` and ``reach_{l+1}(B) =
    reach_l(B) ∪ N_{G-p}(reach_l(B))`` it is ``(n - 1) + Σ_l ((n - 1) -
    |reach_l(B)|)``, finite only when the reach covers ``V∖{p}``.
    ``reach_l(B)`` unions the radius-``l`` balls of ``B``'s members (a
    subset-OR doubling), the next balls are ``ball_{l+1}(j) =
    reach_l(N[j])``, and each level adds one :func:`_bit_counts` pass until
    no ball grows.  Sums are held exactly as uint8 with ``_INF8`` for ∞
    (:func:`_float_sums` gives the float64 values).
    """
    R, n = adjacency.shape
    k = n - 1
    others = np.arange(n) != p_arr[:, None]
    nbrs = _compress(adjacency[others].reshape(R, k), p_arr[:, None])
    bit = np.int64(1) << np.arange(k)
    closed = ((nbrs | bit) * R + np.arange(R)[:, None]).T  # flat reach index
    dtype = np.uint8 if k <= 8 else np.uint16
    ball = np.broadcast_to(bit[:, None], (k, R)).astype(dtype)
    reach = np.zeros((1 << k, R), dtype=dtype)
    total = np.full((1 << k, R), k, dtype=np.uint8)
    while True:
        for b in range(k):
            np.bitwise_or(reach[: 1 << b], ball[b], out=reach[1 << b : 2 << b])
        gap = k - _bit_counts(reach)
        total += gap
        grown = np.take(reach, closed)
        if np.array_equal(grown, ball):
            break
        ball = grown
    total[gap > 0] = _INF8  # the reach of B stopped short of V∖{p}
    return total


# --------------------------------------------------------------------------- #
# Scalar intervals: (lo, hi) per feasible (player row, opponent mask A)
# --------------------------------------------------------------------------- #


@cache
def _fold_tables():
    """``(quotients, nonnegative)`` read by :func:`_scalar_intervals`.

    Both are indexed by ``s - b + _INF8`` for a superset minimum ``s`` and a
    base sum ``b``, each a finite sum (at most ``(n - 1)² = 121``) or
    ``_INF8``: finite pairs land on 134–376, ∞ − finite on 389–510, finite −
    ∞ on 0–121 and ∞ − ∞ on 255, where a finite ``s == b`` also lands and
    ``Δ = 0`` as well.  So the index determines ``Δ = s - b`` (∞ − ∞ reads
    as 0), and ``quotients[k, index]`` is ``-Δ/k`` for the purchase-count
    difference ``k = m - d`` (negative ``k`` from the end) and
    ``nonnegative[index]`` is ``not Δ < -1e-12``, each from the fold's own
    float expressions.  Only the reachable pairs are filled: an unreachable
    one (a finite sum above 121) would overwrite another pair's index.
    Built on first use (~2 ms) and shared read-only.
    """
    sums = np.r_[np.arange((_MAX_TABLE_N - 1) ** 2 + 1), _INF8].astype(np.uint8)
    s, b = np.meshgrid(sums, sums, indexing="ij")
    index = s.astype(np.intp) - b + _INF8
    delta = _float_sums(s)
    with np.errstate(invalid="ignore"):
        delta -= _float_sums(b)
    delta[np.isnan(delta)] = 0.0  # ∞ - ∞ counts as no change
    quotients = np.zeros((2 * _MAX_TABLE_N - 1, 2 * _INF8 + 1))
    for k in range(1 - _MAX_TABLE_N, _MAX_TABLE_N):
        if k:
            quotient = np.negative(delta)
            quotient /= k
            quotients[k, index] = quotient
    nonnegative = np.zeros(2 * _INF8 + 1, dtype=bool)
    nonnegative[index] = ~(delta < -1e-12)
    quotients.flags.writeable = nonnegative.flags.writeable = False
    return quotients, nonnegative


def _scalar_intervals(dsum, p_arr, nbr_arr, n: int):
    """``(row, sub, lo, hi)`` arrays, one entry per feasible ownership split.

    Exactly :func:`repro.core.unilateral.ownership_best_response_interval`
    vectorised: constraints are grouped by the size ``m`` of the deviation
    neighbour set ``B ⊇ A`` and reduced through per-size superset minima on
    the uint8 sums — ``-Δ_min/(m - deg)`` reproduces the reference quotients
    bit-for-bit because IEEE division by a fixed signed integer is monotone
    in the numerator and ``(-x)/(-d) ≡ x/d``.  The float64 fold runs only
    for ``A ⊆ N(p)``, one batch per degree: no other mask is an ownership
    split.  It reads one size plane at a time, keeping a running maximum of
    the growth quotients (``lo``) and a running minimum of the shrink
    quotients (``hi``): max and min over the reference's quotient multiset
    are exact, up to the sign of a zero, which :func:`_option_codes` drops.
    Each quotient and the ``m == deg`` empty test are read from
    :func:`_fold_tables` at ``s - b + _INF8`` of the uint8 minimum ``s``
    and base sum ``b``, which hold the same float expressions' values.
    Each entry names its ``A`` by the column of :func:`_submask_matrix`
    over ``N(p)`` that holds it (bit ``k`` of the column picks the ``k``-th
    lowest neighbour).
    """
    size, R = dsum.shape
    # sup[m, B, r] = min of D_p(C) over C ⊇ B with |C| = m, size-major:
    # plane m starts as the sums of the size-m masks (∞ elsewhere), and one
    # in-place minimum pass per bit folds every mask's supersets into it.
    sup = np.full((n, size, R), _INF8, dtype=np.uint8)
    sup[_popcounts(n - 1), np.arange(size)] = dsum
    for b in range(n - 1):
        view = sup.reshape(n * (size >> (b + 1)), 2, (1 << b) * R)
        np.minimum(view[:, 0], view[:, 1], out=view[:, 0])
    sup = sup.reshape(n, -1)
    base = dsum[_compress(nbr_arr, p_arr), np.arange(R)]
    shift = _INF8 - base.astype(np.intp)  # table index = minimum + shift
    quotients, nonnegative = _fold_tables()
    deg = _popcounts(n)[nbr_arr]
    entries = []
    for d in range(n):
        rows = np.flatnonzero(deg == d)
        if not len(rows):
            continue
        opp = _submask_matrix(nbr_arr[rows], d)
        flat = _compress(opp, p_arr[rows, None]) * R + rows[:, None]
        opp_size = _popcounts(d)  # |A| of each column of ``opp``
        row_shift = shift[rows, None]
        lo = np.full(opp.shape, -np.inf)
        hi = np.full(opp.shape, np.inf)
        for m in range(n):
            index = sup[m].take(flat) + row_shift  # (rows, 2^d) minima
            if m == d:
                ok = nonnegative.take(index)
                continue
            quotient = quotients[m - d].take(index)
            if m > d:
                np.maximum(lo, quotient, out=lo)
            else:  # no B ⊇ A has m < |A| members: no constraint there
                np.minimum(hi, quotient, out=hi, where=opp_size <= m)
        lo = np.maximum(lo, 0.0)
        ok &= lo <= hi
        row, sub = np.nonzero(ok)
        entries.append((rows[row], sub, lo[ok], hi[ok]))
    return [np.concatenate(column) for column in zip(*entries)]


# --------------------------------------------------------------------------- #
# Option codes: per-graph endpoint ranks, hull trimming, feasibility
# --------------------------------------------------------------------------- #


def _option_codes(row_graph, entry_row, entry_sub, entry_lo, entry_hi, row_ptr):
    """Rank-coded option table of one chunk.

    The entries are the feasible ``(row, sub, lo, hi)`` ownership splits of
    the rows (``row_graph[r]`` is row ``r``'s graph, ``sub`` the column of
    the opponent mask ``A`` among the ``2^deg`` submasks of the row's
    neighbour set, which occupy ``codes[row_ptr[r] : row_ptr[r + 1]]``).
    Each graph's distinct endpoints are ranked with one lexsort over
    ``(graph, value)``; ``values[g, k]`` is graph ``g``'s ``k``-th smallest
    endpoint (``-0.0`` reads as ``0.0``: the search's running lower bound
    starts at ``0.0`` and only ever grows, so it never ends on ``-0.0``).
    Every interval is then trimmed to its graph's hull — the intersection
    over rows of each row's ``[min lo, max hi]`` — and coded as ``1 +
    lo_rank·K + hi_rank`` in ``codes[row_ptr[r] + sub]`` (0: no option).  A
    graph is ``feasible`` when its hull is non-empty and every row keeps an
    option; infeasible graphs keep no codes.  Returns ``(codes, values,
    feasible)``.
    """
    G = int(row_graph.max()) + 1
    R = len(row_graph)
    m = len(entry_row)
    entry_graph = row_graph[entry_row]
    ends = np.concatenate([entry_lo, entry_hi]) + 0.0
    owner = np.concatenate([entry_graph, entry_graph])
    order = np.lexsort((ends, owner))
    ends, owner = ends[order], owner[order]
    fresh = np.ones(2 * m, dtype=bool)
    fresh[1:] = (ends[1:] != ends[:-1]) | (owner[1:] != owner[:-1])
    uid = np.cumsum(fresh) - 1
    counts = np.bincount(owner[fresh], minlength=G)
    start = np.cumsum(counts) - counts
    K = max(1, int(counts.max(initial=0)))
    values = np.full((G, K), np.inf)
    values[owner[fresh], uid[fresh] - start[owner[fresh]]] = ends[fresh]
    rank = np.empty(2 * m, dtype=np.int64)
    rank[order] = uid - start[owner]
    lo_rank, hi_rank = rank[:m], rank[m:]
    row_lo = np.full(R, K, dtype=np.int64)
    np.minimum.at(row_lo, entry_row, lo_rank)
    row_hi = np.full(R, -1, dtype=np.int64)
    np.maximum.at(row_hi, entry_row, hi_rank)
    hull_lo = np.full(G, -1, dtype=np.int64)
    np.maximum.at(hull_lo, row_graph, row_lo)
    hull_hi = np.full(G, K, dtype=np.int64)
    np.minimum.at(hull_hi, row_graph, row_hi)
    lo_rank = np.maximum(lo_rank, hull_lo[entry_graph])
    hi_rank = np.minimum(hi_rank, hull_hi[entry_graph])
    keep = lo_rank <= hi_rank
    feasible = hull_lo <= hull_hi
    idle = np.bincount(entry_row[keep], minlength=R) == 0
    feasible[row_graph[idle]] = False
    keep &= feasible[entry_graph]
    codes = np.zeros(row_ptr[-1], dtype=np.int64)
    codes[row_ptr[entry_row[keep]] + entry_sub[keep]] = (
        1 + lo_rank[keep] * K + hi_rank[keep]
    )
    return codes, values, feasible


# --------------------------------------------------------------------------- #
# Class kernel: future-equivalence classes of every (graph, vertex) row
# --------------------------------------------------------------------------- #


#: :func:`_dense_ids` ranks keys by counting while their span is at most
#: this many times their number, and sorts them otherwise.
_COUNTING_SPAN = 16


def _dense_ids(key):
    """``(ids, count)``: the rank of each key among the distinct keys, and
    their number.

    ``ids`` is :func:`numpy.unique`'s inverse in ``key``'s shape (keys are
    non-negative).  Unless their span ``max + 1`` exceeds
    :data:`_COUNTING_SPAN` per key, no sort runs: the ranks are the
    cumulative sum of a presence table over the span.
    """
    span = int(key.max()) + 1
    if span > _COUNTING_SPAN * key.size:
        values, ids = np.unique(key.ravel(), return_inverse=True)
        return ids.reshape(key.shape), len(values)
    present = np.zeros(span, dtype=bool)
    present[key] = True
    rank = np.cumsum(present)
    rank -= 1
    return rank[key], int(rank[-1]) + 1


def _pair_ids(first, second):
    """Dense ids of the elementwise pairs ``(first, second)``."""
    return _dense_ids(first * (int(second.max()) + 1) + second)[0]


class _ClassTables(NamedTuple):
    """Classes of a chunk's rows under one global numbering.

    Row ``i``'s classes are ``base[i] + c``; global class ``q`` offers the
    options ``opt_code/opt_def[opt_ptr[q]:opt_ptr[q + 1]]`` (option code and
    deferred later-neighbour mask); ``trans[u, q]`` is the row-local class
    after earlier neighbour ``u`` defers its shared edge (``q``'s own class
    for any other ``u``).
    """

    base: np.ndarray
    opt_ptr: np.ndarray
    opt_code: np.ndarray
    opt_def: np.ndarray
    trans: np.ndarray


def _class_tables(option_code, rows, nbrs) -> _ClassTables:
    """Future-equivalence classes, options and transitions of every row.

    Row ``r = g·n + v`` of a chunk is vertex ``v`` of graph ``g``, whose
    neighbour masks are ``nbrs[g]``; ``option_code(r, sub)`` gives the
    option code of its opponent mask ``A`` at column ``sub`` of
    :func:`_submask_matrix` over ``N(v)`` (broadcasting over arrays).  An
    inherited mask ``I`` (earlier neighbours that deferred their shared
    edge to ``v``) offers one option per split of the later neighbours into
    kept and deferred, ``(code of A = N(v) ^ I ^ kept, deferred)``, where
    code 0 means no option.  Two inherited masks are interchangeable
    for the rest of the search iff ``I ∪ D`` and ``I' ∪ D`` offer the same
    options for every further deferral ``D``.  Rows are grouped by their
    (#earlier, #later) neighbour counts ``(e, l)`` and each group is solved
    at once: the option vectors are folded into ids one later-neighbour bit
    at a time, then refined one earlier bit ``b`` at a time, ``class(I) ←
    (class(I), class(I ∪ {b}))`` — each step a :func:`_dense_ids` over
    pair keys.  Classes are numbered per row by first appearance in
    :func:`_submask_matrix` order, so class 0 is the empty mask and every
    ``I`` made of the ``k`` lowest earlier neighbours has a class below
    ``2^k``.  The relation is compositional (``I ≡ I' ⇒ I∪D ≡ I'∪D``), so
    transitions live on classes.  Returns the tables of ``rows`` in order.
    """
    n = nbrs.shape[1]
    pop = _popcounts(n)
    v_arr = rows % n
    nbr_arr = nbrs.ravel()[rows]
    below = (np.int64(1) << v_arr) - 1
    earlier = nbr_arr & below
    later = nbr_arr & ~below & ~(np.int64(1) << v_arr)
    group = pop[earlier] * (n + 1) + pop[later]
    base = np.empty(len(rows), dtype=np.int64)
    local, moves, counts, codes, deferrals = [], [], [], [], []
    total = 0
    for key in np.unique(group).tolist():
        members = np.flatnonzero(group == key)
        e, l = divmod(key, n + 1)
        inherited = _submask_matrix(earlier[members], e)  # (m, 2^e)
        kept = _submask_matrix(later[members], l)  # (m, 2^l)
        # The earlier neighbours are the e lowest of N(v): A = N(v) ∖ (I ∪
        # kept) is the submask column complementing I's and kept's columns.
        sub = (np.arange(1 << e)[:, None] | (np.arange(1 << l) << e)) ^ (
            (1 << (e + l)) - 1
        )
        options = option_code(rows[members, None, None], sub)
        ids = options
        while ids.shape[2] > 1:  # fold the option vector, top kept bit first
            half = ids.shape[2] // 2
            ids = _pair_ids(ids[..., :half], ids[..., half:])
        ids = ids[..., 0]
        span = np.arange(1 << e)
        for bit in range(e):
            ids = _pair_ids(ids, ids[:, span | (1 << bit)])
        # Global ids in (row, first appearance) order: each row's classes
        # are contiguous and start with its empty mask.
        flat, count = _dense_ids(
            np.arange(len(members))[:, None] * (int(ids.max()) + 1) + ids
        )
        first = np.full(count, flat.size)
        np.minimum.at(first, flat.ravel(), np.arange(flat.size))
        heads = np.zeros(flat.size, dtype=bool)  # first appearances
        heads[first] = True
        rank = np.cumsum(heads)
        cls = total - 1 + rank[first[flat]]
        classes = total + np.arange(count)
        base[members] = cls[:, 0]
        rep_row, rep_i = np.divmod(np.flatnonzero(heads), 1 << e)  # one per class
        own = cls[rep_row, 0]
        local.append(classes - own)
        for bit in range(e):
            u = pop[inherited[rep_row, 1 << bit] - 1]
            moves.append((u, classes, cls[rep_row, rep_i | (1 << bit)] - own))
        vec = options[rep_row, rep_i]  # (classes, 2^l), classes in id order
        live = vec > 0
        counts.append(live.sum(axis=1))
        codes.append(vec[live])
        deferrals.append((later[members[rep_row], None] ^ kept[rep_row])[live])
        total += count
    trans = np.tile(np.concatenate(local), (n, 1))
    for u, gid, target in moves:
        trans[u, gid] = target
    opt_ptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=opt_ptr[1:])
    return _ClassTables(
        base, opt_ptr, np.concatenate(codes), np.concatenate(deferrals), trans
    )


# --------------------------------------------------------------------------- #
# Lock-step frontier DP over bitset states, one chunk at a time
# --------------------------------------------------------------------------- #


def _run_bits(lo_rank, hi_rank, words: int):
    """``(words, m)`` uint64 bitsets with bits ``2·lo … 2·hi`` set.

    Word-major: each word of the ``m`` bitsets is one contiguous row, so
    the DP gathers, filters and merges whole rows.
    """
    offset = 64 * np.arange(words)[:, None]
    start = np.clip(2 * lo_rank - offset, 0, 64)
    stop = np.clip(2 * hi_rank + 1 - offset, 0, 64)
    return _LOW_BITS[stop] & ~_LOW_BITS[start]


def _or_merge(keys, bits):
    """The distinct ``keys``, ascending, and the OR of each one's ``bits`` columns."""
    order = np.argsort(keys)
    keys = keys[order]
    heads = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    bits = np.bitwise_or.reduceat(bits.take(order, axis=1), heads, axis=1)
    return keys[heads], bits


def _frontier_dp(tables: _ClassTables, opt_bits, nbrs):
    """Union over edge orientations of the per-player bitset intersections.

    Runs the vertex-by-vertex DP of every graph of ``nbrs`` (``(F, n)``
    neighbour masks) in lock-step.  A state is ``(graph, key, bits)``:
    ``key`` packs the class of every not-yet-processed vertex, ``bits`` is
    the union of the running intersections of every orientation prefix
    reaching it.  After step ``u``, vertex ``w > u`` has inherited only
    neighbours ``≤ u`` — its lowest ``k`` earlier neighbours — so its class
    is below ``2^k`` (see :func:`_class_tables`) and its key field is ``k``
    bits wide: the key holds at most ``(u + 1)(n - 1 - u) ≤ n²/4`` bits.
    A step expands its states in slices of at most ``_TABLE_BYTE_BUDGET``
    worth of ``(state, option)`` pairs, merges each slice's equal ``(graph,
    key)`` states, then ORs the slices' states together in one more merge
    (one slice on every chunk of the n ≤ 8 scalar census; ``K_12`` would
    expand 2.1 M pairs in one).  OR is associative and commutative, so the
    bits do not depend on the slicing.
    Returns the surviving graphs and their final bitsets.
    """
    base, opt_ptr, _, opt_def, trans = tables
    F, n = nbrs.shape
    pop = _popcounts(n)
    step = np.arange(n)
    seen = pop[nbrs[:, None, :] & ((2 << step) - 1)[None, :, None]].max(axis=0)
    # Key layout before step u: field widths width[u] at offsets shift[u].
    width = np.zeros((n + 1, n), dtype=np.int64)
    width[1:] = np.where(step[None, :] > step[:, None], seen, 0)
    shift = np.cumsum(width, axis=1) - width
    field = (1 << width) - 1
    graph = np.arange(F)
    key = np.zeros(F, dtype=np.int64)
    bits = np.full((len(opt_bits), F), _LOW_BITS[64])
    pair_bytes = _DP_PAIR_BYTES + 16 * len(opt_bits)
    for u in range(n):
        gid = base[graph * n + u] + ((key >> shift[u, u]) & field[u, u])
        first = opt_ptr[gid]
        count = opt_ptr[gid + 1] - first
        keep = int(width[u + 1].sum())  # key bits after this step
        keys, unions = [], []
        for part in _slices(count * pair_bytes, _TABLE_BYTE_BUDGET):
            take = count[part]
            parent = part.start + np.repeat(np.arange(len(take)), take)
            option = np.arange(len(parent)) + np.repeat(
                first[part] - (np.cumsum(take) - take), take
            )
            value = bits.take(parent, axis=1) & opt_bits.take(option, axis=1)
            live = (value != 0).any(axis=0)
            parent, option = parent.compress(live), option.compress(live)
            value = value.compress(live, axis=1)
            if not len(parent):
                continue
            old, deferred = key[parent], opt_def[option]
            g = graph[parent]
            new = np.zeros(len(parent), dtype=np.int64)
            for w in range(u + 1, n):
                if not width[u + 1, w]:  # no neighbour of w is processed yet
                    continue
                cls = (old >> shift[u, w]) & field[u, w]
                moved = trans[u][base[g * n + w] + cls]
                cls = np.where((deferred >> w) & 1, moved, cls)
                new |= cls << shift[u + 1, w]
            new |= g << keep
            del parent, option, old, deferred, g  # freed before the merge sort
            new, value = _or_merge(new, value)
            keys.append(new)
            unions.append(value)
        if not keys:
            return graph[:0], bits[:, :0]
        merged, bits = keys[0], unions[0]
        if len(keys) > 1:  # OR the slices' states together
            merged, bits = _or_merge(np.concatenate(keys), np.concatenate(unions, 1))
        graph, key = merged >> keep, merged & ((1 << keep) - 1)
    return graph, bits


def _chunk_intervals(option_code, values, feasible, nbrs):
    """Exact ``(lo, hi)`` unions of every graph of one chunk.

    ``option_code(g·n + p, sub)`` reads player ``p``'s option codes and
    ``values``/``feasible`` come from :func:`_option_codes`; returns one
    sorted, disjoint, non-touching pair list per graph (empty when
    infeasible), which is the exact union the backtracking reference's
    :class:`AlphaIntervalSet` is built from.
    """
    G, n = nbrs.shape
    pairs: List[list] = [[] for _ in range(G)]
    graphs = np.flatnonzero(feasible)
    if not len(graphs):
        return pairs
    rows = (graphs[:, None] * n + np.arange(n)).ravel()
    tables = _class_tables(option_code, rows, nbrs)
    K = values.shape[1]
    lo_rank, hi_rank = np.divmod(tables.opt_code - 1, K)
    opt_bits = _run_bits(lo_rank, hi_rank, words=(2 * K - 1 + 63) // 64)
    alive, bits = _frontier_dp(tables, opt_bits, nbrs[graphs])
    flags = np.unpackbits(
        np.ascontiguousarray(bits.T, dtype="<u8").view(np.uint8),
        axis=1,
        bitorder="little",
    ).astype(np.int8)
    edge = np.diff(flags, axis=1, prepend=0, append=0)
    row, lo_bit = np.nonzero(edge == 1)
    _, stop_bit = np.nonzero(edge == -1)
    owner = graphs[alive][row]
    lo = values[owner, lo_bit // 2].tolist()
    hi = values[owner, (stop_bit - 1) // 2].tolist()
    for g, a, b in zip(owner.tolist(), lo, hi):
        pairs[g].append((a, b))
    return pairs


# --------------------------------------------------------------------------- #
# Shared chunk loop and the scalar entry point
# --------------------------------------------------------------------------- #


def _interval_set(pairs):
    from ..core.stability_intervals import AlphaInterval, AlphaIntervalSet

    return AlphaIntervalSet([AlphaInterval(lo, hi) for lo, hi in pairs])


def _full_set():
    from ..core.stability_intervals import AlphaIntervalSet, FULL_ALPHA_RANGE

    return AlphaIntervalSet((FULL_ALPHA_RANGE,))


def _adjacency(graphs):
    return np.asarray([g.adjacency_rows() for g in graphs], dtype=np.int64)


def _chunk_sets(nbrs, intervals):
    """Engine-path sets of one chunk of same-``n`` graphs (``2 <= n``).

    ``nbrs`` holds the graphs' neighbour masks, one row per graph, and
    ``intervals(dsum, p_arr, nbr_arr, n)`` is the game's fold, with
    :func:`_scalar_intervals`' arguments and ``(row, sub, lo, hi)`` result.
    """
    G, n = nbrs.shape
    row_graph, p_arr = np.divmod(np.arange(G * n), n)
    nbr_arr = nbrs[row_graph, p_arr]
    row_ptr = np.zeros(G * n + 1, dtype=np.int64)
    np.cumsum(np.int64(1) << _popcounts(n)[nbr_arr], out=row_ptr[1:])
    dsum = _distance_sums(nbrs[row_graph], p_arr)
    codes, values, feasible = _option_codes(
        row_graph, *intervals(dsum, p_arr, nbr_arr, n), row_ptr
    )
    del dsum  # the class kernel and the DP read only the codes
    pairs = _chunk_intervals(
        lambda rows, subs: codes[row_ptr[rows] + subs], values, feasible, nbrs
    )
    return [_interval_set(p) for p in pairs]


def _slices(cost, budget):
    """Consecutive slices of ``cost``'s items whose sums stay within ``budget``.

    Each slice is as long as that allows, and at least one item long.
    """
    total = np.cumsum(cost)
    start = 0
    while start < len(total):
        spent = total[start - 1] if start else 0
        stop = int(np.searchsorted(total, spent + budget, side="right"))
        stop = max(stop, start + 1)
        yield slice(start, stop)
        start = stop


def _graph_bytes(nbrs, pair_bytes):
    """Estimated bytes each graph (a row of neighbour masks) adds to a chunk.

    Its ``n`` rows' tables over the ``2^n`` masks of ``V``, then per player
    ``p`` the ``2^deg(p)`` opponent masks ``A ⊆ N(p)`` that the fold, the
    option codes and the class kernel carry, and ``pair_bytes`` per
    ``(A, S)`` pair a fold lays out: the weighted fold's ``2^(n-1) ·
    (3/2)^deg(p)`` (``Σ_a C(d, a) 2^(n-1-a)``).
    """
    n = nbrs.shape[1]
    deg = _popcounts(n)[nbrs]
    players = _ENTRY_BYTES * 2.0**deg + pair_bytes * 2.0 ** (n - 1) * 1.5**deg
    return n * (1 << n) * _MASK_BYTES + players.sum(axis=1)


def _engine_sets(graphs, fold, reference, pair_bytes=0) -> List:
    """The sets of ``graphs``, in order, chunk-batched where ``n`` allows.

    Graphs are grouped by ``n``.  A group with ``n <= 1`` gets the full
    range, one with ``n > _MAX_TABLE_N`` the per-graph ``reference(graph)``;
    any other runs through the interval fold ``fold(n)``, built once per
    group, in consecutive chunks whose :func:`_graph_bytes` (with the
    fold's ``pair_bytes``) stay within ``_TABLE_BYTE_BUDGET``.
    """
    results: List = [None] * len(graphs)
    by_n: Dict[int, List[int]] = {}
    for i, graph in enumerate(graphs):
        by_n.setdefault(graph.n, []).append(i)
    for n, indices in sorted(by_n.items()):
        if n <= 1 or n > _MAX_TABLE_N:
            for i in indices:
                results[i] = _full_set() if n <= 1 else reference(graphs[i])
            continue
        intervals = fold(n)
        nbrs = _adjacency([graphs[i] for i in indices])
        cost = _graph_bytes(nbrs, pair_bytes)
        for part in _slices(cost, _TABLE_BYTE_BUDGET):
            sets = _chunk_sets(nbrs[part], intervals)
            for i, interval_set in zip(indices[part], sets):
                results[i] = interval_set
    return results


@obs.timed_kernel("ucg_alpha_sets")
def ucg_alpha_sets(graphs) -> List:
    """Nash-supportability α-sets of many graphs, engine-batched.

    Element-for-element float-exact against
    :func:`repro.core.unilateral.ucg_nash_alpha_set` (the per-graph
    backtracking reference, asserted in the test suite and the parity
    smoke); falls back to it per graph, over the process-wide distance
    oracle, when ``n`` exceeds the table range.  Results are memoised on
    each :class:`~repro.graphs.graph.Graph` instance (edge mutations return
    new instances, so memos can never go stale).
    """
    from ..core.unilateral import ucg_nash_alpha_set

    graphs = list(graphs)
    results: List = [None] * len(graphs)
    pending: List[int] = []
    for i, graph in enumerate(graphs):
        cached = getattr(graph, "_ucg_set", None)
        if cached is not None:
            results[i] = _interval_set(cached)
        else:
            pending.append(i)
    sets = _engine_sets(
        [graphs[i] for i in pending],
        lambda n: _scalar_intervals,
        ucg_nash_alpha_set,
    )
    for i, interval_set in zip(pending, sets):
        results[i] = interval_set
        graphs[i]._ucg_set = tuple((iv.lo, iv.hi) for iv in interval_set.intervals)
    return results


# --------------------------------------------------------------------------- #
# Weighted game: shared D_p tables + exact link-cost sums
# --------------------------------------------------------------------------- #


def _link_cost_tables(model, n: int):
    """``wsum[p, S]`` = ``model.player_link_cost(p, targets(S))``, exact.

    Three branches, each replaying the reference float-for-float: the
    uniform closed form ``α·|S|``, a high-bit DP that unrolls to the base
    class's ascending left fold, and a per-subset model call for custom
    overrides (always exact, never fast).
    """
    from ..costmodels.models import CostModel, UniformCost

    size = 1 << n
    if type(model) is UniformCost:
        return np.tile(model.alpha * _popcounts(n).astype(np.float64), (n, 1))
    if type(model).player_link_cost is CostModel.player_link_cost:
        tables = [[0.0] * size for _ in range(n)]
        for player, table in enumerate(tables):
            weights = [
                model.weight(player, v) if v != player else 0.0 for v in range(n)
            ]
            for mask in range(1, size):
                high = mask.bit_length() - 1
                table[mask] = table[mask ^ (1 << high)] + weights[high]
        return np.asarray(tables, dtype=np.float64)
    tables = [
        [
            model.player_link_cost(
                player, tuple(v for v in range(n) if (mask >> v) & 1)
            )
            for mask in range(size)
        ]
        for player in range(n)
    ]
    return np.asarray(tables, dtype=np.float64)


def _weighted_intervals(dsum, p_arr, nbr_arr, n: int, wsum):
    """``(row, sub, lo, hi)`` arrays of the weighted game, as :func:`_scalar_intervals`.

    Exactly :func:`repro.costmodels.stability.weighted_ownership_interval`
    vectorised, with ``wsum[p, S]`` player ``p``'s link cost of the
    purchase set ``S`` (:func:`_link_cost_tables`).  Rows are batched by
    degree ``d`` and opponent count ``a``: every opponent mask ``A ⊆ N(p)``
    with ``|A| = a`` lays the purchase sets ``S`` of its ``n - 1 - a``
    candidates ``V∖({p} ∪ A)`` along the last axis, where the reference's
    terms ``Δ = D_p(S ∪ A) - D_p(N(p))`` (∞ - ∞ reads as 0) and ``dw =
    w_p(S) - w_p(N(p)∖A)`` are evaluated elementwise.  Its running fold is
    then a maximum of ``-Δ/dw`` over ``dw > 0`` from 0 (``lo``), a minimum
    over ``dw < 0`` from ∞ (``hi``; IEEE division is sign-symmetric, so
    ``-Δ/dw`` is its ``Δ/(-dw)`` bit for bit) and an empty test: some
    ``dw == 0`` term with ``Δ < -1e-12``, or ``lo > hi``.
    """
    R = len(p_arr)
    size = 1 << n
    base = _float_sums(dsum[_compress(nbr_arr, p_arr), np.arange(R)])
    deg = _popcounts(n)[nbr_arr]
    entries = []
    for d in range(n):
        rows = np.flatnonzero(deg == d)
        if not len(rows):
            continue
        p = p_arr[rows, None]
        opp_size = _popcounts(d)  # |A| of each column of ``every``
        every = _submask_matrix(nbr_arr[rows], d)
        for a in range(d + 1):
            columns = np.flatnonzero(opp_size == a)
            opp = every[:, columns]
            candidates = (size - 1) & ~(opp | (1 << p))
            subs = _submask_matrix(candidates.ravel(), n - 1 - a)
            subs = subs.reshape(*opp.shape, -1)
            flat = _compress(subs | opp[..., None], p[..., None]) * R
            delta = _float_sums(dsum.take(flat + rows[:, None, None]))
            with np.errstate(invalid="ignore"):
                delta -= base[rows, None, None]
            delta[np.isnan(delta)] = 0.0  # ∞ - ∞ counts as no change
            owned = wsum.take(p * size + (nbr_arr[rows, None] ^ opp))
            dw = wsum.take(p[..., None] * size + subs)
            dw -= owned[..., None]
            empty = ((dw == 0.0) & (delta < -1e-12)).any(axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                quotient = np.negative(delta, out=delta)
                quotient /= dw
            lo = quotient.max(axis=-1, where=dw > 0.0, initial=0.0)
            hi = quotient.min(axis=-1, where=dw < 0.0, initial=np.inf)
            ok = ~empty & (lo <= hi)
            row, sub = np.nonzero(ok)
            entries.append((rows[row], columns[sub], lo[ok], hi[ok]))
    return [np.concatenate(column) for column in zip(*entries)]


@obs.timed_kernel("weighted_ucg_t_sets")
def weighted_ucg_t_sets(graphs, model) -> List:
    """Weighted Nash-supportability t-sets of many graphs, engine-batched.

    Element-for-element float-exact against
    :func:`repro.costmodels.stability.weighted_ucg_nash_t_set`; each
    player's model-independent distance table is the one the scalar game
    builds.  Falls back to the per-graph reference, over the process-wide
    distance oracle, when ``n`` exceeds the table range.  No per-instance
    memo: results depend on the cost model, not just the graph.  A model
    bound to another player count than some graph with ``n >= 2`` is a
    :class:`ValueError`, raised before any work.
    """
    from ..costmodels.models import as_cost_model
    from ..costmodels.stability import weighted_ucg_nash_t_set

    graphs = list(graphs)
    for n in sorted({graph.n for graph in graphs if graph.n > 1}):
        as_cost_model(model, n)

    return _engine_sets(
        graphs,
        lambda n: partial(_weighted_intervals, wsum=_link_cost_tables(model, n)),
        lambda graph: weighted_ucg_nash_t_set(graph, model),
        pair_bytes=_PAIR_BYTES,
    )
