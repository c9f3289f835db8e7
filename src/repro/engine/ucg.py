"""Vectorised, orbit-pruned UCG Nash-supportability engine.

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
   ``p`` when its neighbour set is ``A ∪ S``.  All ``2^n`` values of
   ``D_p(·)`` come from one vertex-deleted all-pairs distance pass (batched
   boolean matmuls, exactly the :mod:`repro.engine.batch` frontier idiom)
   followed by a mask-major subset-min DP.  Distance sums are small
   integers, so they live in ``uint8`` with 255 as ∞, and the per-``A``
   interval endpoints reduce to size-grouped superset minima taken on a
   mask-major ``uint8`` tensor (an n-pass sum-over-subsets transform).  Only
   then does a float64 fold turn the minima into quotients, and only for the
   opponent masks ``A ⊆ N(p)`` that can occur (batched by degree).
   Division by the (positive) purchase-count difference is weakly monotone,
   so taking the group extremum *before* the division produces bit-identical
   endpoints to the reference's per-subset fold.

2. **Vertex-orbit pruning.**  ``D_p`` tables (and, in the scalar game, the
   final interval tables) of automorphic players are permuted copies of each
   other: ``table_{σp}[σ(A)] = table_p[A]``.  When a graph carries a
   memoised canonical record (the census generator always does), tables are
   computed for one representative per vertex orbit and expanded by a
   mask-permutation gather.

3. **Frontier-DP orientation search.**  Backtracking over orientations is
   replaced by a dynamic program over vertices: the state is, for every
   not-yet-processed vertex, the set of earlier neighbours whose shared edge
   was deferred to it (``n`` bits per vertex, packed into one int), and the
   value is the exact union of the running α-interval intersections over
   every orientation prefix reaching that state.  States are additionally
   quotiented by a per-vertex *future-equivalence*: two inherited masks that
   generate the same (interval, deferral) options under every possible
   further deferral are interchangeable, which collapses the state space of
   vertex-transitive dense graphs (``K_8`` drops from ~10^6 raw states to a
   few hundred).  Suffix hull pruning drops — never trims — intervals that
   cannot intersect the remaining players' feasible hulls.

The weighted game (:func:`weighted_ucg_t_sets`) shares the model-independent
``D_p`` tables (distances are unweighted hops) and replaces purchase counts
by exact link-cost sums: a high-bit DP replays
:meth:`CostModel.player_link_cost`'s ascending left fold bit-for-bit, with
:class:`UniformCost`'s ``α·|S|`` closed form special-cased, so the weighted
endpoints match the per-graph reference exactly as well.

Everything falls back to the backtracking reference when NumPy is missing
or ``n`` is outside the table-friendly range — the reference path is always
available and is what every test asserts against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

try:  # soft dependency, mirroring repro.engine.batch
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on minimal installs
    _np = None

from .. import obs
from ..graphs.isomorphism import cached_canonical_record, canonical_record

INFINITY = float("inf")

#: Largest ``n`` the table pipeline handles (2^n-entry tables per player).
_MAX_TABLE_N = 12

#: Row budget per internal batch: bounds the mask-major 2^n × rows × n uint8
#: DP and superset-min tensors and the float64 fold over A ⊆ N(p) to ~tens
#: of MB.
_TABLE_BYTE_BUDGET = 96 << 20

#: ∞ in the uint8 distance-sum tables.  A finite ``D_p(B)`` adds ``n - 1``
#: hop counts of at most ``n - 1`` each, so it is at most ``(n - 1)² = 121``
#: for ``n ≤ _MAX_TABLE_N = 12`` and never reaches the sentinel.
_INF8 = 255


def ucg_engine_available() -> bool:
    """Whether the vectorised UCG engine can run (NumPy importable)."""
    return _np is not None


# --------------------------------------------------------------------------- #
# Orbit plans: one representative player per vertex orbit + mask gathers
# --------------------------------------------------------------------------- #


def _mask_image(perm: Sequence[int], n: int) -> List[int]:
    """``img[mask]`` = image of ``mask`` under the vertex permutation."""
    size = 1 << n
    img = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        img[mask] = img[mask ^ low] | (1 << perm[low.bit_length() - 1])
    return img


def _orbit_plan(graph, use_orbits: Optional[bool], image_cache: Dict):
    """``(reps, per_player)`` for one graph.

    ``reps`` lists the players whose tables must actually be computed;
    ``per_player[p]`` is ``(rep, gather)`` where ``gather`` is the
    ``σ^{-1}`` mask-image array turning the representative's table into
    ``p``'s (``None`` for representatives).  ``use_orbits`` mirrors
    :func:`repro.engine.batch.batch_stability_deltas`: ``None`` prunes only
    when the canonical record is already memoised, ``True`` forces the
    canonical search, ``False`` disables pruning.
    """
    n = graph.n
    trivial = list(range(n)), [(p, None) for p in range(n)]
    if use_orbits is False or n <= 1:
        return trivial
    record = (
        canonical_record(graph) if use_orbits else cached_canonical_record(graph)
    )
    if record is None or not record.generators:
        return trivial
    gens = record.generators
    assign: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    reps: List[int] = []
    identity = tuple(range(n))
    for v in range(n):
        if v in assign:
            continue
        reps.append(v)
        assign[v] = (v, identity)
        queue = [v]
        while queue:
            x = queue.pop()
            sigma_x = assign[x][1]
            for g in gens:
                y = g[x]
                if y not in assign:
                    # (g ∘ σ_x)(v) = g(x) = y keeps the transversal property.
                    assign[y] = (v, tuple(g[sigma_x[i]] for i in range(n)))
                    queue.append(y)
    if len(reps) == n:
        return trivial
    per_player = []
    for p in range(n):
        rep, sigma = assign[p]
        if p == rep:
            per_player.append((rep, None))
            continue
        inverse = [0] * n
        for i, image in enumerate(sigma):
            inverse[image] = i
        key = (n, tuple(inverse))
        gather = image_cache.get(key)
        if gather is None:
            gather = _np.asarray(_mask_image(inverse, n), dtype=_np.int64)
            image_cache[key] = gather
        per_player.append((rep, gather))
    return reps, per_player


# --------------------------------------------------------------------------- #
# Distance-sum tables: D_p(B) for every neighbour mask B, batched
# --------------------------------------------------------------------------- #


def _popcounts(n: int):
    masks = _np.arange(1 << n, dtype=_np.int64)
    pop = _np.zeros(1 << n, dtype=_np.int64)
    for b in range(n):
        pop += (masks >> b) & 1
    return pop


def _submask_matrix(masks, d: int):
    """``subs[i]`` = every submask of ``masks[i]`` (all of popcount ``d``).

    Row-wise :func:`_submasks`: empty set first, doubled by each low bit.
    """
    np = _np
    subs = np.zeros((len(masks), 1), dtype=np.int64)
    rest = np.asarray(masks, dtype=np.int64).copy()
    for _ in range(d):
        low = rest & -rest
        rest ^= low
        subs = np.concatenate([subs, subs | low[:, None]], axis=1)
    return subs


def _float_sums(table):
    """float64 copy of a uint8 distance-sum table (``inf`` for ``_INF8``)."""
    return _np.where(table == _INF8, _np.inf, table)


def _vertex_deleted_distances(graphs, rows_idx, n: int):
    """Hop distances within ``G - p`` for every requested ``(graph, p)`` row.

    Returns ``dist[r, k, j]`` as uint8 (``_INF8`` when unreachable) computed
    by the lock-step frontier matmul of
    :func:`repro.engine.batch._batch_group`, with row/column ``p`` zeroed out
    of each adjacency copy.
    """
    np = _np
    R = len(rows_idx)
    rows = np.array(
        [graphs[gi].adjacency_rows() for gi, _ in rows_idx], dtype=np.int64
    )
    A = ((rows[:, :, None] >> np.arange(n)[None, None, :]) & 1).astype(np.uint8)
    p_arr = np.asarray([p for _, p in rows_idx], dtype=np.int64)
    rr = np.arange(R)
    A[rr, p_arr, :] = 0
    A[rr, :, p_arr] = 0
    eye = np.eye(n, dtype=bool)
    visited = np.broadcast_to(eye, (R, n, n)).copy()
    frontier = visited.astype(np.uint8)
    dist = np.full((R, n, n), _INF8, dtype=np.uint8)
    dist[:, eye] = 0
    for level in range(1, n):
        nxt = (np.matmul(frontier, A) > 0) & ~visited
        if not nxt.any():
            break
        dist[nxt] = level
        visited |= nxt
        frontier = nxt.astype(np.uint8)
    return dist, p_arr


def _distance_sum_tables(graphs, rows_idx, n: int):
    """``dsum[B, r]`` = Σ_{j≠p} min_{k∈B} (1 + d_{G-p}(k, j)), mask-major.

    ``D_p(B)`` is the distance sum from ``p`` when its neighbour set is
    exactly ``B`` (shortest paths from ``p`` never revisit ``p``, so the
    remainder of each path lives in ``G - p``).  It is a small integer or
    ∞, held exactly as uint8 with ``_INF8`` for ∞ (:func:`_float_sums`
    gives the float64 values).  The subset-min DP runs mask-major, so each
    of its ``2^n - 1`` steps is one contiguous ``(n, rows)`` slab, and the
    sum over ``j`` adds whole ``(2^n, rows)`` planes.
    """
    np = _np
    dist, p_arr = _vertex_deleted_distances(graphs, rows_idx, n)
    R = dist.shape[0]
    size = 1 << n
    rr = np.arange(R)
    hops = dist + 1
    hops[dist == _INF8] = _INF8
    hops[rr, p_arr, :] = _INF8  # masks containing p: poisoned
    hops = np.ascontiguousarray(hops.transpose(1, 2, 0))  # (k, j, rows)
    table = np.empty((size, n, R), dtype=np.uint8)
    table[0] = _INF8
    for mask in range(1, size):
        low = mask & -mask
        np.minimum(
            table[mask ^ low], hops[low.bit_length() - 1], out=table[mask]
        )
    # j = p contributes nothing to the sum (and makes D_p(∅) = 0 at n = 1).
    table[:, p_arr, rr] = 0
    dsum = np.minimum(table.sum(axis=1, dtype=np.uint16), _INF8)
    return dsum.astype(np.uint8), p_arr


# --------------------------------------------------------------------------- #
# Scalar interval tables: lo/hi/ok per (player row, opponent mask A)
# --------------------------------------------------------------------------- #


def _scalar_interval_tables(dsum, p_arr, nbr_arr, n: int):
    """Per-row ``(lo, hi, ok)`` tables over the opponent masks ``A``.

    Exactly :func:`repro.core.unilateral.ownership_best_response_interval`
    vectorised: constraints are grouped by the size ``m`` of the deviation
    neighbour set ``B ⊇ A`` and reduced through per-size superset minima on
    the uint8 sums — ``-Δ_min/(m - deg)`` reproduces the reference quotients
    bit-for-bit because IEEE division by a fixed signed integer is monotone
    in the numerator and ``(-x)/(-d) ≡ x/d``.  The float64 fold runs only
    for ``A ⊆ N(p)``, one batch per degree: no other mask is an ownership
    split, so every other entry stays not-``ok``.
    """
    np = _np
    size, R = dsum.shape
    pop = _popcounts(n)
    masks = np.arange(size, dtype=np.int64)
    rr = np.arange(R)
    contains_p = ((masks[:, None] >> p_arr[None, :]) & 1).astype(bool)
    dvalid = np.where(contains_p, _INF8, dsum)
    # grouped[B, r, m] = D_p(B) when |B| = m, else ∞.  The full mask always
    # contains p, so no entry needs the size m = n.
    grouped = np.full((size, R, n), _INF8, dtype=np.uint8)
    grouped[masks[:-1, None], rr, pop[:-1, None]] = dvalid[:-1]
    for b in range(n):  # superset-min sum-over-subsets, one bit per pass
        view = grouped.reshape(size >> (b + 1), 2, -1)
        np.minimum(view[:, 0], view[:, 1], out=view[:, 0])
    base = _float_sums(dsum[nbr_arr, rr])
    deg = pop[nbr_arr]
    sizes = np.arange(n, dtype=np.float64)
    lo = np.zeros((R, size))
    hi = np.zeros((R, size))
    ok = np.zeros((R, size), dtype=bool)
    for d in range(n):
        rows = np.flatnonzero(deg == d)
        if not len(rows):
            continue
        opp = _submask_matrix(nbr_arr[rows], d)
        minima = _float_sums(grouped[opp, rows[:, None]])  # (rows, 2^d, n)
        with np.errstate(invalid="ignore"):
            delta = minima - base[rows, None, None]
        np.nan_to_num(delta, copy=False, nan=0.0, posinf=np.inf, neginf=-np.inf)
        grow = np.negative(delta[..., d + 1 :]) / (sizes[d + 1 :] - d)
        shrink = np.negative(delta[..., :d]) / (sizes[:d] - d)
        lo_d = np.maximum(grow.max(axis=2, initial=-np.inf), 0.0)
        hi_d = shrink.min(axis=2, initial=np.inf)
        empty = delta[..., d] < -1e-12
        lo[rows[:, None], opp] = lo_d
        hi[rows[:, None], opp] = hi_d
        ok[rows[:, None], opp] = ~empty & (lo_d <= hi_d)
    return lo, hi, ok


def _expand_rows(tables, plans, row_of, n: int):
    """Gather per-representative row tables into full ``(G·n, size)`` arrays."""
    np = _np
    size = tables[0].shape[1]
    G = len(plans)
    src = np.empty(G * n, dtype=np.int64)
    gather = np.empty((G * n, size), dtype=np.int64)
    identity = np.arange(size, dtype=np.int64)
    for gi, (reps, per_player) in enumerate(plans):
        for p in range(n):
            rep, image = per_player[p]
            row = gi * n + p
            src[row] = row_of[(gi, rep)]
            gather[row] = identity if image is None else image
    return [table[src[:, None], gather] for table in tables]


# --------------------------------------------------------------------------- #
# Exact interval-list algebra for the orientation DP
# --------------------------------------------------------------------------- #


def _union_interval_lists(a, b):
    """Exact union of two sorted, disjoint ``(lo, hi)`` lists.

    Only *touching or overlapping* intervals are glued (no tolerance):
    mid-search merging must preserve the union's point set exactly, and the
    final :class:`AlphaIntervalSet` construction applies the reference's
    ``1e-12`` gap merge — which depends only on that point set.
    """
    if not a:
        return b
    if not b:
        return a
    merged = []
    ia = ib = 0
    la, lb = len(a), len(b)
    cur_lo = cur_hi = None
    while ia < la or ib < lb:
        if ib >= lb or (ia < la and a[ia][0] <= b[ib][0]):
            nxt_lo, nxt_hi = a[ia]
            ia += 1
        else:
            nxt_lo, nxt_hi = b[ib]
            ib += 1
        if cur_lo is None:
            cur_lo, cur_hi = nxt_lo, nxt_hi
        elif nxt_lo <= cur_hi:
            if nxt_hi > cur_hi:
                cur_hi = nxt_hi
        else:
            merged.append((cur_lo, cur_hi))
            cur_lo, cur_hi = nxt_lo, nxt_hi
    merged.append((cur_lo, cur_hi))
    return merged


# --------------------------------------------------------------------------- #
# Orientation search: class-quotiented frontier DP over vertices
# --------------------------------------------------------------------------- #


def _submasks(mask: int) -> List[int]:
    """Every submask of ``mask``, empty set first (deterministic order)."""
    subs = [0]
    rest = mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        subs += [s | bit for s in subs]
    return subs


def _vertex_classes(v: int, nbr: int, lo_row, hi_row, ok_row):
    """Future-equivalence classes of ``v``'s inherited-ownership masks.

    Two inherited masks ``I, I'`` (earlier neighbours that deferred their
    shared edge to ``v``) are interchangeable for the rest of the search iff
    they generate the same set of ``(interval, deferred-mask)`` options
    under *every* further deferral ``D``.  The partition is refined one
    earlier-neighbour bit ``b`` at a time, ``class(I) ← (class(I),
    class(I ∪ {b}))``, starting from option-set ids: after every bit, two
    masks share a class iff ``I ∪ D`` and ``I' ∪ D`` have equal option sets
    for all ``D`` — O(e·2^e) for ``e`` earlier neighbours.  Each round
    numbers classes by first appearance in :func:`_submasks` order.  The
    relation is compositional (``I ≡ I' ⇒ I∪D ≡ I'∪D``), so transitions live
    on class ids.  Returns ``(options_by_class, transitions)`` where
    ``transitions[cls][src]`` is the class after vertex ``src`` defers its
    shared edge, and class 0 is always the empty inherited mask.
    """
    below = (1 << v) - 1
    earlier = nbr & below
    local = nbr & ~below & ~(1 << v)
    j_list = _submasks(earlier)
    # Earlier and local neighbours are disjoint, so the opponents of
    # ``inherited | kept`` are ``(nbr ^ inherited) ^ kept``.
    splits = [(kept, local ^ kept) for kept in _submasks(local)]
    option_ids: Dict = {}
    cls_of = [0] * (earlier + 1)
    opts_of: Dict[int, list] = {}
    for inherited in j_list:
        free = nbr ^ inherited
        options = []
        for kept, deferred in splits:
            opponents = free ^ kept
            if ok_row[opponents]:
                options.append((lo_row[opponents], hi_row[opponents], deferred))
        cls_of[inherited] = option_ids.setdefault(
            frozenset(options), len(option_ids)
        )
        opts_of[inherited] = options
    count = len(option_ids)
    rest = earlier
    while rest and count < len(j_list):  # a discrete partition stays so
        bit = rest & -rest
        rest ^= bit
        pair_ids: Dict = {}
        refined = [0] * (earlier + 1)
        for inherited in j_list:
            pair = cls_of[inherited] * count + cls_of[inherited | bit]
            refined[inherited] = pair_ids.setdefault(pair, len(pair_ids))
        cls_of = refined
        count = len(pair_ids)
    options_by_class = [None] * count
    transitions = [dict() for _ in range(count)]
    for inherited in j_list:
        cls = cls_of[inherited]
        if options_by_class[cls] is None:
            options_by_class[cls] = opts_of[inherited]
        rest = earlier & ~inherited
        while rest:
            bit = rest & -rest
            rest ^= bit
            transitions[cls][bit.bit_length() - 1] = cls_of[inherited | bit]
    return options_by_class, transitions


def _orientation_union(n, nbrs, lo_rows, hi_rows, ok_rows, hull_lo, hull_hi):
    """Union over edge orientations of per-player interval intersections.

    The exact DP replacement for
    :func:`repro.core.unilateral.orientation_interval_search`: identical
    player order, identical per-step ``(max lo, min hi)`` intersections,
    value lists kept as exact unions.  Returns the raw ``(lo, hi)`` list
    (sorted, disjoint) to be wrapped in an :class:`AlphaIntervalSet`.
    """
    suffix_lo = [-INFINITY] * (n + 1)
    suffix_hi = [INFINITY] * (n + 1)
    for u in range(n - 1, -1, -1):
        prev_lo, prev_hi = suffix_lo[u + 1], suffix_hi[u + 1]
        suffix_lo[u] = hull_lo[u] if hull_lo[u] > prev_lo else prev_lo
        suffix_hi[u] = hull_hi[u] if hull_hi[u] < prev_hi else prev_hi
    if suffix_lo[0] > suffix_hi[0]:
        return []
    classes = [
        _vertex_classes(v, nbrs[v], lo_rows[v], hi_rows[v], ok_rows[v])
        for v in range(n)
    ]
    slot = (1 << n) - 1
    states = {0: [(0.0, INFINITY)]}
    for u in range(n):
        options_by_class = classes[u][0]
        shl, shh = suffix_lo[u + 1], suffix_hi[u + 1]
        new_states: Dict[int, list] = {}
        for key, intervals in states.items():
            opts = options_by_class[key & slot]
            if not opts:
                continue
            rest = key >> n
            for ilo, ihi, deferred in opts:
                out = None
                for l, h in intervals:
                    if ilo > l:
                        l = ilo
                    if ihi < h:
                        h = ihi
                    if l > h or l > shh or h < shl:
                        continue
                    if out is None:
                        out = [(l, h)]
                    else:
                        out.append((l, h))
                if out is None:
                    continue
                nk = rest
                d = deferred
                while d:
                    bit = d & -d
                    d ^= bit
                    w = bit.bit_length() - 1
                    shift = (w - u - 1) * n
                    cls = (nk >> shift) & slot
                    ncls = classes[w][1][cls][u]
                    if ncls != cls:
                        nk ^= (cls ^ ncls) << shift
                cur = new_states.get(nk)
                new_states[nk] = (
                    out if cur is None else _union_interval_lists(cur, out)
                )
        states = new_states
        if not states:
            return []
    final: list = []
    for intervals in states.values():
        final = _union_interval_lists(final, intervals)
    return final


# --------------------------------------------------------------------------- #
# Per-graph assembly: hull precheck + search over the expanded tables
# --------------------------------------------------------------------------- #


def _chunk_rows(graphs, use_orbits):
    """Orbit plans + representative row bookkeeping for one same-``n`` chunk."""
    image_cache: Dict = {}
    plans = [_orbit_plan(g, use_orbits, image_cache) for g in graphs]
    rows_idx: List[Tuple[int, int]] = []
    row_of: Dict[Tuple[int, int], int] = {}
    for gi, (reps, _) in enumerate(plans):
        for p in reps:
            row_of[(gi, p)] = len(rows_idx)
            rows_idx.append((gi, p))
    return plans, rows_idx, row_of


def _hulls_and_masks(lo_full, hi_full, ok, n: int):
    """Per-player hulls and the per-graph feasibility test."""
    np = _np
    G = lo_full.shape[0] // n
    player_ok = ok.any(axis=1).reshape(G, n)
    hull_lo = np.where(ok, lo_full, np.inf).min(axis=1).reshape(G, n)
    hull_hi = np.where(ok, hi_full, -np.inf).max(axis=1).reshape(G, n)
    graph_ok = player_ok.all(axis=1) & (
        hull_lo.max(axis=1) <= hull_hi.min(axis=1)
    )
    return hull_lo, hull_hi, graph_ok


def _search_graph(graph, gi, n, lo_full, hi_full, ok_full, hull_lo, hull_hi):
    lo_rows = lo_full[gi * n : (gi + 1) * n].tolist()
    hi_rows = hi_full[gi * n : (gi + 1) * n].tolist()
    ok_rows = ok_full[gi * n : (gi + 1) * n].tolist()
    return _orientation_union(
        n,
        list(graph.adjacency_rows()),
        lo_rows,
        hi_rows,
        ok_rows,
        hull_lo[gi].tolist(),
        hull_hi[gi].tolist(),
    )


def _interval_set(pairs):
    from ..core.stability_intervals import AlphaInterval, AlphaIntervalSet

    return AlphaIntervalSet([AlphaInterval(lo, hi) for lo, hi in pairs])


def _full_set():
    from ..core.stability_intervals import AlphaIntervalSet, FULL_ALPHA_RANGE

    return AlphaIntervalSet((FULL_ALPHA_RANGE,))


def _scalar_chunk_sets(graphs, use_orbits):
    """Engine-path Nash α-sets for one same-``n`` chunk (``2 <= n``)."""
    np = _np
    n = graphs[0].n
    plans, rows_idx, row_of = _chunk_rows(graphs, use_orbits)
    dsum, p_arr = _distance_sum_tables(graphs, rows_idx, n)
    nbr_arr = np.asarray(
        [graphs[gi].adjacency_rows()[p] for gi, p in rows_idx], dtype=np.int64
    )
    lo, hi, ok = _scalar_interval_tables(dsum, p_arr, nbr_arr, n)
    lo_full, hi_full, ok_full = _expand_rows([lo, hi, ok], plans, row_of, n)
    hull_lo, hull_hi, graph_ok = _hulls_and_masks(lo_full, hi_full, ok_full, n)
    results = []
    for gi, graph in enumerate(graphs):
        if not graph_ok[gi]:
            results.append(_interval_set([]))
            continue
        pairs = _search_graph(
            graph, gi, n, lo_full, hi_full, ok_full, hull_lo, hull_hi
        )
        results.append(_interval_set(pairs))
    return results


def _row_budget(n: int) -> int:
    per_row = (1 << n) * n * 12  # uint8 DP + superset-min, float64 fold
    return max(n, min(4096, _TABLE_BYTE_BUDGET // max(per_row, 1)))


@obs.timed_kernel("ucg_alpha_sets")
def ucg_alpha_sets(
    graphs,
    oracle=None,
    use_orbits: Optional[bool] = None,
) -> List:
    """Nash-supportability α-sets of many graphs, engine-batched.

    Element-for-element float-exact against
    :func:`repro.core.unilateral.ucg_nash_alpha_set` (the per-graph
    backtracking reference, asserted in the test suite and the parity
    smoke); falls back to it per graph when NumPy is unavailable or ``n``
    exceeds the table range.  Results are memoised on each
    :class:`~repro.graphs.graph.Graph` instance (edge mutations return new
    instances, so memos can never go stale).
    """
    graphs = list(graphs)
    results: List = [None] * len(graphs)
    pending_by_n: Dict[int, List[int]] = {}
    for i, graph in enumerate(graphs):
        cached = getattr(graph, "_ucg_set", None)
        if cached is not None:
            results[i] = _interval_set(cached)
        elif graph.n <= 1:
            results[i] = _full_set()
            graph._ucg_set = tuple(
                (iv.lo, iv.hi) for iv in results[i].intervals
            )
        else:
            pending_by_n.setdefault(graph.n, []).append(i)
    fallback: List[int] = []
    for n, indices in sorted(pending_by_n.items()):
        if _np is None or n > _MAX_TABLE_N:
            fallback.extend(indices)
            continue
        budget = max(1, _row_budget(n) // n)
        for start in range(0, len(indices), budget):
            batch = indices[start : start + budget]
            sets = _scalar_chunk_sets([graphs[i] for i in batch], use_orbits)
            for i, interval_set in zip(batch, sets):
                results[i] = interval_set
                graphs[i]._ucg_set = tuple(
                    (iv.lo, iv.hi) for iv in interval_set.intervals
                )
    if fallback:
        from ..core.unilateral import ucg_nash_alpha_set

        for i in fallback:
            results[i] = ucg_nash_alpha_set(graphs[i], oracle=oracle)
    return results


# --------------------------------------------------------------------------- #
# Weighted game: shared D_p tables + exact link-cost sums
# --------------------------------------------------------------------------- #


def _link_cost_table(model, n: int, player: int, pop):
    """``wsum[S]`` = ``model.player_link_cost(player, targets(S))``, exact.

    Three branches, each replaying the reference float-for-float: the
    uniform closed form ``α·|S|``, a high-bit DP that unrolls to the base
    class's ascending left fold, and a per-subset model call for custom
    overrides (always exact, never fast).
    """
    np = _np
    from ..costmodels.models import CostModel, UniformCost

    size = 1 << n
    if type(model) is UniformCost:
        return model.alpha * pop.astype(np.float64)
    if type(model).player_link_cost is CostModel.player_link_cost:
        weights = [
            model.weight(player, v) if v != player else 0.0 for v in range(n)
        ]
        table = [0.0] * size
        for mask in range(1, size):
            high = mask.bit_length() - 1
            table[mask] = table[mask ^ (1 << high)] + weights[high]
        return np.asarray(table, dtype=np.float64)
    table = [
        model.player_link_cost(
            player, tuple(v for v in range(n) if (mask >> v) & 1)
        )
        for mask in range(size)
    ]
    return np.asarray(table, dtype=np.float64)


def _weighted_player_rows(
    n, player, nbr, dsum_row, wsum, base, submask_cache
):
    """``(lo, hi, ok)`` rows over opponent masks for one weighted player.

    Vectorises :func:`repro.costmodels.stability.weighted_ownership_interval`
    per ownership set: candidates, deltas and weight differences are
    evaluated for every purchase set at once; max/min over the identical
    quotient multiset reproduce the reference's running fold exactly.
    """
    np = _np
    size = 1 << n
    full = size - 1
    lo_row = [0.0] * size
    hi_row = [0.0] * size
    ok_row = [False] * size
    hull_lo, hull_hi = INFINITY, -INFINITY
    base_inf = base == INFINITY
    owned = nbr
    while True:
        opponents = nbr ^ owned
        candidates = full & ~(opponents | (1 << player))
        subs = submask_cache.get(candidates)
        if subs is None:
            subs = np.asarray(_submasks(candidates), dtype=np.int64)
            submask_cache[candidates] = subs
        deltas = dsum_row[subs | opponents] - base
        if base_inf:
            deltas = np.where(np.isnan(deltas), 0.0, deltas)
        dw = wsum[subs] - wsum[owned]
        positive = dw > 0.0
        negative = dw < 0.0
        empty = bool(
            (deltas[~positive & ~negative] < -1e-12).any()
        )
        lo = 0.0
        if not empty and positive.any():
            grow = float((np.negative(deltas[positive]) / dw[positive]).max())
            if grow > lo:
                lo = grow
        hi = INFINITY
        if not empty and negative.any():
            shrink = float(
                (deltas[negative] / np.negative(dw[negative])).min()
            )
            if shrink < hi:
                hi = shrink
        if not empty and lo <= hi:
            lo_row[opponents] = lo
            hi_row[opponents] = hi
            ok_row[opponents] = True
            if lo < hull_lo:
                hull_lo = lo
            if hi > hull_hi:
                hull_hi = hi
        if owned == 0:
            break
        owned = (owned - 1) & nbr
    return lo_row, hi_row, ok_row, hull_lo, hull_hi


def _weighted_chunk_sets(graphs, model, use_orbits):
    """Engine-path weighted Nash t-sets for one same-``n`` chunk."""
    np = _np
    n = graphs[0].n
    pop = _popcounts(n)
    plans, rows_idx, row_of = _chunk_rows(graphs, use_orbits)
    dsum, _ = _distance_sum_tables(graphs, rows_idx, n)
    (dsum_full,) = _expand_rows([_float_sums(dsum).T], plans, row_of, n)
    results = []
    submask_cache: Dict[int, object] = {}
    wsum_tables = [
        _link_cost_table(model, n, player, pop) for player in range(n)
    ]
    for gi, graph in enumerate(graphs):
        nbrs = list(graph.adjacency_rows())
        lo_rows, hi_rows, ok_rows = [], [], []
        hull_lo, hull_hi = [], []
        feasible = True
        for player in range(n):
            row = dsum_full[gi * n + player]
            base = float(row[nbrs[player]])
            with np.errstate(invalid="ignore"):
                lo_row, hi_row, ok_row, h_lo, h_hi = _weighted_player_rows(
                    n,
                    player,
                    nbrs[player],
                    row,
                    wsum_tables[player],
                    base,
                    submask_cache,
                )
            lo_rows.append(lo_row)
            hi_rows.append(hi_row)
            ok_rows.append(ok_row)
            hull_lo.append(h_lo)
            hull_hi.append(h_hi)
            if h_lo > h_hi:  # no feasible ownership at all
                feasible = False
                break
        if not feasible or max(hull_lo) > min(hull_hi):
            results.append(_interval_set([]))
            continue
        pairs = _orientation_union(
            n, nbrs, lo_rows, hi_rows, ok_rows, hull_lo, hull_hi
        )
        results.append(_interval_set(pairs))
    return results


@obs.timed_kernel("weighted_ucg_t_sets")
def weighted_ucg_t_sets(
    graphs,
    model,
    oracle=None,
    use_orbits: Optional[bool] = None,
) -> List:
    """Weighted Nash-supportability t-sets of many graphs, engine-batched.

    Element-for-element float-exact against
    :func:`repro.costmodels.stability.weighted_ucg_nash_t_set`; the
    model-independent distance tables are shared across players via the
    orbit gather (weights break symmetry, so only the distance layer is
    orbit-pruned).  Falls back to the per-graph reference when NumPy is
    unavailable or ``n`` exceeds the table range.  No per-instance memo:
    results depend on the cost model, not just the graph.
    """
    graphs = list(graphs)
    results: List = [None] * len(graphs)
    pending_by_n: Dict[int, List[int]] = {}
    for i, graph in enumerate(graphs):
        if graph.n <= 1:
            results[i] = _full_set()
        else:
            pending_by_n.setdefault(graph.n, []).append(i)
    fallback: List[int] = []
    for n, indices in sorted(pending_by_n.items()):
        if _np is None or n > _MAX_TABLE_N:
            fallback.extend(indices)
            continue
        budget = max(1, _row_budget(n) // n)
        for start in range(0, len(indices), budget):
            batch = indices[start : start + budget]
            sets = _weighted_chunk_sets(
                [graphs[i] for i in batch], model, use_orbits
            )
            for i, interval_set in zip(batch, sets):
                results[i] = interval_set
    if fallback:
        from ..costmodels.stability import weighted_ucg_nash_t_set

        for i in fallback:
            results[i] = weighted_ucg_nash_t_set(
                graphs[i], model, oracle=oracle
            )
    return results
