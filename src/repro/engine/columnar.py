"""Columnar (struct-of-arrays) NumPy kernels for whole-α-grid census queries.

The censuses of Section 5 decide, for every isomorphism class and every link
cost on a grid, whether the class is an equilibrium.  Per graph that is a
Python loop over the deviation dicts of a
:class:`~repro.core.stability_intervals.PairwiseStabilityProfile`; this
module answers it on **ragged columnar** data instead: per-class
variable-length payloads (per-edge minimum removal increases, per-non-edge
saving pairs, UCG α-interval endpoints) are stored as flat value arrays plus
a CSR-style ``indptr`` offset array, and a whole α-grid is answered with a
handful of broadcast comparisons and segmented reductions.

The numeric contract is **bit-identity** with the per-graph profiles:

* every comparison uses exactly the scalar expression of
  :meth:`PairwiseStabilityProfile.violations_at` /
  :meth:`AlphaInterval.contains` (including which side of the comparison the
  tolerance is folded into), on the same float64 values — the mask kernels
  sort the grid once and place each comparison with ``searchsorted``
  instead of repeating it per grid point;
* value columns may be stored as float32 — every BCG deviation payoff is an
  integer-valued float (or ``±inf``) far below 2**24, so the float32 round
  trip is exact — and are upcast to float64 before any comparison.

:class:`repro.analysis.store.CensusStore` is the consumer; the kernels live
here so the engine layer owns all NumPy-heavy code and the store stays a thin
schema + orchestration layer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..graphs.graph import Graph


# --------------------------------------------------------------------------- #
# Segmented (CSR) reductions
# --------------------------------------------------------------------------- #


def segment_any(flags, indptr):
    """OR-reduce a flat boolean array over CSR segments (empty → ``False``).

    ``flags[indptr[i]:indptr[i+1]]`` is segment ``i``; the result has one
    boolean per segment.
    """
    counts = np.diff(indptr)
    out = np.zeros(counts.shape[0], dtype=bool)
    if flags.shape[0] == 0 or counts.shape[0] == 0:
        return out
    # reduceat over the non-empty starts only: empty segments have zero
    # width, so consecutive non-empty starts still tile the flat array
    # exactly (reduceat rejects start == len, and an empty start clipped
    # into range would truncate the *preceding* segment's reduction).
    nonempty = counts > 0
    reduced = np.logical_or.reduceat(flags, indptr[:-1][nonempty])
    out[nonempty] = reduced
    return out


def _segment_reduce(values, indptr, ufunc, empty, dtype=None):
    dtype = np.float64 if dtype is None else dtype
    counts = np.diff(indptr)
    out = np.full(counts.shape[0], empty, dtype=dtype)
    if values.shape[0] == 0 or counts.shape[0] == 0:
        return out
    values = values.astype(dtype, copy=False)
    nonempty = counts > 0
    reduced = ufunc.reduceat(values, indptr[:-1][nonempty])
    out[nonempty] = reduced
    return out


def segment_min(values, indptr, empty: float = float("inf")):
    """MIN-reduce a flat value array over CSR segments (empty → ``empty``)."""
    return _segment_reduce(values, indptr, np.minimum, empty)


def segment_max(values, indptr, empty: float = float("-inf")):
    """MAX-reduce a flat value array over CSR segments (empty → ``empty``)."""
    return _segment_reduce(values, indptr, np.maximum, empty)


def csr_invariant_errors(name: str, values_len: int, indptr, classes: int) -> List[str]:
    """Check one ragged column's CSR invariants; return human-readable errors.

    A valid layout has ``len(indptr) == classes + 1``, ``indptr[0] == 0``,
    a monotone non-decreasing ``indptr``, and ``indptr[-1]`` equal to the
    flat value length — everything the segmented kernels assume without
    checking.  Used by the stores' ``verify()`` audit.
    """
    indptr = np.asarray(indptr)
    errors: List[str] = []
    if indptr.ndim != 1 or indptr.shape[0] != classes + 1:
        errors.append(
            f"{name}: indptr has shape {indptr.shape}, expected ({classes + 1},)"
        )
        return errors
    if classes >= 0 and indptr.shape[0] and int(indptr[0]) != 0:
        errors.append(f"{name}: indptr[0] == {int(indptr[0])}, expected 0")
    if indptr.shape[0] > 1 and bool(np.any(np.diff(indptr) < 0)):
        errors.append(f"{name}: indptr is not monotone non-decreasing")
    if indptr.shape[0] and int(indptr[-1]) != values_len:
        errors.append(
            f"{name}: indptr[-1] == {int(indptr[-1])} but {values_len} values"
        )
    return errors


def gather_segments(values, indptr, order):
    """Reorder CSR segments by ``order``; returns ``(values, indptr)``.

    Segment ``order[j]`` of the input becomes segment ``j`` of the output —
    the ragged-column counterpart of ``dense[order]``.
    """
    counts = np.diff(indptr)
    new_counts = counts[order]
    new_indptr = np.zeros(new_counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(new_counts, out=new_indptr[1:])
    total = int(new_indptr[-1])
    if total == 0:
        return values[:0], new_indptr
    starts = indptr[:-1][order]
    flat = np.repeat(starts - new_indptr[:-1], new_counts) + np.arange(
        total, dtype=np.int64
    )
    return values[flat], new_indptr


def concat_csr(columns: Sequence[Tuple]) -> Tuple:
    """Concatenate ``(values, indptr)`` CSR columns, rebasing the offsets."""
    if not columns:
        return np.zeros(0), np.zeros(1, dtype=np.int64)
    values = np.concatenate([v for v, _ in columns])
    parts = [np.zeros(1, dtype=np.int64)]
    offset = 0
    for _, indptr in columns:
        parts.append(np.asarray(indptr[1:], dtype=np.int64) + offset)
        offset += int(indptr[-1])
    return values, np.concatenate(parts)


# --------------------------------------------------------------------------- #
# α-grid equilibrium masks
# --------------------------------------------------------------------------- #

#: Tolerance of the exact Definition 3 checks (matches violations_at).
BCG_TOL = 1e-12
#: Tolerance of the UCG interval membership test (matches AlphaInterval.contains).
UCG_TOL = 1e-9

#: Classes per block of :func:`addition_frontier`; bounds its temporaries.
FRONTIER_BLOCK = 1024


def _sorted_grid(alphas):
    """``(ordered, position, nan)`` for a query grid.

    ``ordered`` holds the grid's non-NaN points in ascending order,
    ``position[j]`` is the index of request point ``j`` in ``ordered``
    (``-1``, inside no run, for a NaN point), and ``nan`` indexes the NaN
    points, which no comparison can place.
    """
    grid = np.array([float(a) for a in alphas], dtype=np.float64)
    nan = np.isnan(grid)
    order = np.flatnonzero(~nan)
    order = order[np.argsort(grid[order], kind="stable")]
    position = np.full(grid.shape[0], -1, dtype=np.intp)
    position[order] = np.arange(order.shape[0])
    return grid[order], position, np.flatnonzero(nan)


def _fill_runs(out, rows, start, stop, position) -> None:
    """OR ``start <= position < stop`` into ``out[rows]`` (``rows`` ascending).

    Each entry is one run of the sorted grid, mapped back to request order
    through ``position``; rows may repeat.
    """
    live = start < stop
    if not bool(live.any()):
        return
    rows = rows[live]
    flags = (position >= start[live, None]) & (position < stop[live, None])
    first = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    out[rows[first]] |= np.logical_or.reduceat(flags, first, axis=0)


@obs.timed_kernel("bcg_stable_mask")
def bcg_stable_mask(rem_min, add_lo, add_hi, add_indptr, alphas):
    """Pairwise stability (exact Definition 3) of every class at every ``α``.

    Parameters
    ----------
    rem_min:
        Per-class minimum removal increase over every (edge, endpoint) pair
        (``inf`` for edgeless classes).
    add_lo, add_hi, add_indptr:
        Ragged per-non-edge ``(min, max)`` addition-saving pairs in CSR
        layout, one segment per class — all of them, or any subset that
        keeps each class's :func:`addition_frontier`.
    alphas:
        Link-cost grid, in any order.

    Returns
    -------
    ``bool[n_classes, n_alphas]`` — bit-identical to evaluating
    :meth:`PairwiseStabilityProfile.is_stable_at` per class per grid point:
    a class is stable at ``α`` iff no removal increase is below ``α - tol``
    and no non-edge has ``max > α + tol`` with ``min >= α - tol``.

    The grid is sorted once.  Rounding is monotone, so the float64 values
    ``α - tol`` and ``α + tol`` the comparisons use are sorted with it:
    a removal violation holds on a suffix of the sorted grid and an
    addition violation on a prefix, and one ``searchsorted`` per probe
    places both.  Each class is then stable on one contiguous run of the
    sorted grid.
    """
    rem_min = np.asarray(rem_min, dtype=np.float64)
    lo = np.asarray(add_lo).astype(np.float64, copy=False)
    hi = np.asarray(add_hi).astype(np.float64, copy=False)
    ordered, position, nan = _sorted_grid(alphas)
    below = ordered - BCG_TOL
    above = ordered + BCG_TOL
    # A non-edge adds at sorted column j iff above[j] < hi and below[j] <= lo,
    # i.e. for j < reach; a NaN payoff fails both comparisons everywhere.
    reach = np.minimum(
        np.searchsorted(above, hi, side="left"),
        np.searchsorted(below, lo, side="right"),
    )
    reach[np.isnan(lo) | np.isnan(hi)] = 0
    stable_from = _segment_reduce(reach, add_indptr, np.maximum, 0, np.intp)
    # A class severs at sorted column j iff rem_min < below[j].
    stable_to = np.searchsorted(below, rem_min, side="right")
    out = np.zeros((rem_min.shape[0], position.shape[0]), dtype=bool)
    _fill_runs(
        out, np.arange(rem_min.shape[0]), stable_from, stable_to, position
    )
    # At a NaN α every comparison is false: nothing violates stability.
    out[:, nan] = True
    return out


@obs.timed_kernel("ucg_nash_mask")
def ucg_nash_mask(iv_lo, iv_hi, iv_indptr, alphas):
    """UCG Nash-supportability of every class at every ``α``.

    Bit-identical to :meth:`AlphaIntervalSet.contains` per class per grid
    point: membership in any stored closed interval, with the tolerance
    folded into the *endpoint* side of each comparison exactly as
    :meth:`AlphaInterval.contains` does.  Each interval covers one
    contiguous run of the sorted grid, placed by ``searchsorted``; a class
    is supportable on the union of its runs.
    """
    lo = np.asarray(iv_lo, dtype=np.float64) - UCG_TOL
    hi = np.asarray(iv_hi, dtype=np.float64) + UCG_TOL
    ordered, position, _nan = _sorted_grid(alphas)
    # Interval p holds at sorted column j iff start[p] <= j < stop[p]; a
    # NaN endpoint fails its comparison everywhere.
    start = np.searchsorted(ordered, lo, side="left")
    stop = np.searchsorted(ordered, hi, side="right")
    stop[np.isnan(hi)] = 0
    n_classes = iv_indptr.shape[0] - 1
    owner = np.repeat(np.arange(n_classes), np.diff(iv_indptr))
    # No interval contains a NaN α, so those columns stay False.
    out = np.zeros((n_classes, position.shape[0]), dtype=bool)
    _fill_runs(out, owner, start, stop, position)
    return out


def addition_frontier(add_lo, add_hi, add_indptr):
    """Per-class Pareto frontier of the ``(lo, hi)`` addition-saving pairs.

    A pair ``(lo, hi)`` of a class is dropped when another pair of the same
    class has ``lo' >= lo`` and ``hi' >= hi``: wherever the dropped pair
    adds (``hi > α + tol`` and ``lo >= α - tol``), the other one adds too,
    so :func:`bcg_stable_mask` answers the same on the frontier as on the
    full columns.  Pairs with a NaN payoff never add and are dropped as
    well; of equal pairs one is kept.

    Returns float64 ``(lo, hi, indptr)`` in CSR layout, one segment per
    class.  Classes are processed :data:`FRONTIER_BLOCK` at a time, so the
    sort temporaries stay small however large the census is.
    """
    add_indptr = np.asarray(add_indptr, dtype=np.int64)
    n_classes = add_indptr.shape[0] - 1
    kept_lo = [np.zeros(0, dtype=np.float64)]
    kept_hi = [np.zeros(0, dtype=np.float64)]
    counts = np.zeros(n_classes, dtype=np.int64)
    for first in range(0, n_classes, FRONTIER_BLOCK):
        last = min(first + FRONTIER_BLOCK, n_classes)
        begin, end = int(add_indptr[first]), int(add_indptr[last])
        lo = np.asarray(add_lo[begin:end], dtype=np.float64)
        hi = np.asarray(add_hi[begin:end], dtype=np.float64)
        owner = np.repeat(
            np.arange(last - first), np.diff(add_indptr[first:last + 1])
        )
        valid = ~(np.isnan(lo) | np.isnan(hi))
        lo, hi, owner = lo[valid], hi[valid], owner[valid]
        # Within each class, by lo then hi descending: a pair survives iff
        # its hi beats every hi before it.  Ranking hi and offsetting by
        # class makes that one running maximum over the whole block.
        order = np.lexsort((-hi, -lo, owner))
        lo, hi, owner = lo[order], hi[order], owner[order]
        ranks = np.unique(hi, return_inverse=True)[1].reshape(-1)
        key = owner * (ranks.max(initial=0) + 1) + ranks
        before = np.maximum.accumulate(key)
        keep = np.ones(key.shape[0], dtype=bool)
        keep[1:] = key[1:] > before[:-1]
        kept_lo.append(lo[keep])
        kept_hi.append(hi[keep])
        counts[first:last] = np.bincount(owner[keep], minlength=last - first)
    indptr = np.zeros(n_classes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return np.concatenate(kept_lo), np.concatenate(kept_hi), indptr


def ucg_interval_columns(interval_sets) -> Tuple:
    """Pack per-class :class:`AlphaIntervalSet` results into CSR columns.

    Returns ``(lo, hi, indptr)``: flat float64 endpoint arrays plus the
    ``int64`` CSR offsets, one segment per class in input order — the exact
    layout :class:`~repro.analysis.store.CensusStore` persists, so a store
    round-trip reproduces every endpoint bit-for-bit.
    """
    lo: List[float] = []
    hi: List[float] = []
    indptr = np.zeros(len(interval_sets) + 1, dtype=np.int64)
    for i, interval_set in enumerate(interval_sets):
        for interval in interval_set.intervals:
            lo.append(interval.lo)
            hi.append(interval.hi)
        indptr[i + 1] = len(lo)
    return (
        np.asarray(lo, dtype=np.float64),
        np.asarray(hi, dtype=np.float64),
        indptr,
    )


def weighted_ucg_windows(iv_lo, iv_hi, iv_indptr) -> Tuple:
    """Per-class UCG supportability windows ``(t_min, t_max)`` from CSR columns.

    The hull of each class's stored interval set: ``t_min`` is the smallest
    supportable threshold, ``t_max`` the largest.  Classes with no interval
    report ``(inf, -inf)`` — an empty window with ``t_min > t_max``, so
    window emptiness is a plain comparison downstream.  Works unchanged for
    scalar α-columns (the scalar game is the ``w ≡ 1`` special case).
    """
    lo = np.asarray(iv_lo).astype(np.float64, copy=False)
    hi = np.asarray(iv_hi).astype(np.float64, copy=False)
    return (
        segment_min(lo, iv_indptr, empty=float("inf")),
        segment_max(hi, iv_indptr, empty=float("-inf")),
    )


def _check_weight_columns(*weight_arrays) -> None:
    """Reject weighted coefficient columns the kernels cannot divide by.

    The weighted kernels compute ``Δ / w`` windows and ``t·w`` thresholds;
    a zero, negative or non-finite coefficient would silently turn whole
    mask/window columns into NaN/inf.  Raises a clear :class:`ValueError`
    instead (the columns normally come pre-validated through
    :meth:`CostModel.coefficient_matrix
    <repro.costmodels.models.CostModel.coefficient_matrix>`, but persisted
    artifacts and hand-built columns enter here directly).
    """
    for weights in weight_arrays:
        weights = np.asarray(weights)
        if weights.size and not bool(
            np.all((weights > 0.0) & np.isfinite(weights))
        ):
            bad = weights[~((weights > 0.0) & np.isfinite(weights))][0]
            raise ValueError(
                "weighted kernels need strictly positive, finite "
                f"coefficients; got a weight column entry {float(bad)!r}"
            )


@obs.timed_kernel("weighted_bcg_stable_mask")
def weighted_bcg_stable_mask(
    rem_w, rem_delta, rem_indptr,
    add_w_u, add_s_u, add_w_v, add_s_v, add_indptr,
    ts,
):
    """Weighted pairwise stability of every class at every scale ``t``.

    The heterogeneous-α counterpart of :func:`bcg_stable_mask`: each probe
    carries its own coefficient ``w`` (see
    :class:`~repro.analysis.weighted_store.WeightedStore` for the column
    layout), and the class is stable under ``C = t·W`` iff no removal probe
    has ``Δ < t·w - tol`` and no non-edge has one endpoint with
    ``save > t·w + tol`` while the other has ``save >= t·w - tol``.

    Every comparison keeps the exact scalar expression shape of
    :meth:`WeightedStabilityProfile.violations_at` (which in turn mirrors
    :meth:`PairwiseStabilityProfile.violations_at`), so with unit weights
    and ``ts`` equal to the α-grid the mask is bit-identical to
    :func:`bcg_stable_mask`.

    Returns ``bool[n_classes, n_ts]``.
    """
    _check_weight_columns(rem_w, add_w_u, add_w_v)
    rem_w = np.asarray(rem_w).astype(np.float64, copy=False)
    rem_delta = np.asarray(rem_delta).astype(np.float64, copy=False)
    w_u = np.asarray(add_w_u).astype(np.float64, copy=False)
    s_u = np.asarray(add_s_u).astype(np.float64, copy=False)
    w_v = np.asarray(add_w_v).astype(np.float64, copy=False)
    s_v = np.asarray(add_s_v).astype(np.float64, copy=False)
    t_list = [float(t) for t in ts]
    n_classes = rem_indptr.shape[0] - 1
    out = np.empty((n_classes, len(t_list)), dtype=bool)
    for column, t in enumerate(t_list):
        severs = segment_any(rem_delta < t * rem_w - BCG_TOL, rem_indptr)
        adds = segment_any(
            ((s_u > t * w_u + BCG_TOL) & (s_v >= t * w_v - BCG_TOL))
            | ((s_v > t * w_v + BCG_TOL) & (s_u >= t * w_u - BCG_TOL)),
            add_indptr,
        )
        np.logical_not(severs | adds, out=out[:, column])
    return out


@obs.timed_kernel("weighted_stability_windows")
def weighted_stability_windows(
    rem_w, rem_delta, rem_indptr,
    add_w_u, add_s_u, add_w_v, add_s_v, add_indptr,
):
    """Per-class weighted Lemma 2 windows ``(t_min, t_max)`` in the scale.

    ``t_max`` is the per-class minimum ``Δ / w`` over removal probes
    (``inf`` for edgeless classes); ``t_min`` is the largest
    least-interested-endpoint ``save / w`` over the class's non-edges
    (clamped at 0).  With unit weights this is exactly
    :func:`stability_windows`; per class it equals
    :meth:`WeightedStabilityProfile.stability_t_interval`.
    """
    _check_weight_columns(rem_w, add_w_u, add_w_v)
    rem_w = np.asarray(rem_w).astype(np.float64, copy=False)
    rem_delta = np.asarray(rem_delta).astype(np.float64, copy=False)
    t_max = segment_min(rem_delta / rem_w, rem_indptr)
    ratio = np.minimum(
        np.asarray(add_s_u).astype(np.float64, copy=False)
        / np.asarray(add_w_u).astype(np.float64, copy=False),
        np.asarray(add_s_v).astype(np.float64, copy=False)
        / np.asarray(add_w_v).astype(np.float64, copy=False),
    )
    t_min = np.maximum(segment_max(ratio, add_indptr, empty=0.0), 0.0)
    return t_min, t_max


def stacked_weight_columns(weight_matrices, n, rem_flat, add_flat_uv, add_flat_vu):
    """Gather per-draw probe coefficients into dense ``(K, P)`` weight stacks.

    ``weight_matrices`` is a ``(K, n, n)`` stack of dense coefficient
    matrices (one per draw, each a ``CostModel.coefficient_matrix``).  The
    three index arrays hold flat ``i·n + j`` positions in one such matrix:
    ``(payer, other)`` of every removal probe, then ``(u, v)`` and
    ``(v, u)`` of every addition probe (the
    :class:`~repro.analysis.delta_store.DeltaStore` endpoint columns,
    flattened once per store).  Returns
    ``(rem_w[K, P_rem], add_w_u[K, P_add], add_w_v[K, P_add])`` — exactly
    the coefficient columns of each draw's
    :class:`~repro.analysis.weighted_store.WeightedStore`.  Each stack is
    one row ``take`` from the ``(n·n, K)`` transpose of the matrices,
    handed back transposed, so its memory order is the ``(P, K)``
    probe-major layout the stacked kernels read.
    """
    stack = np.asarray(weight_matrices, dtype=np.float64)
    if stack.ndim == 2:
        stack = stack[None, :, :]
    if stack.ndim != 3 or stack.shape[1:] != (n, n):
        raise ValueError(
            f"weight_matrices must be a (K, {n}, {n}) stack of matrices, "
            f"got shape {stack.shape}"
        )
    table = stack.reshape(stack.shape[0], n * n).T
    return tuple(
        table.take(flat, axis=0).T for flat in (rem_flat, add_flat_uv, add_flat_vu)
    )


#: Relative margin ``c·u`` of the stable-run certificate, with the unit
#: roundoff ``u = 2⁻⁵³``: ``c = 8`` is fixed by the error bound in
#: :func:`weighted_bcg_stable_mask_multi` (``c ≤ 5`` leaves it no slack).
_MARGIN = 8 * 2.0 ** -53

#: Floor of the certificate's ``τ = tol / w_min``.  It keeps ``_MARGIN·τ``
#: a normal float far above every underflow error, and still bounds
#: ``tol / w`` where that quotient underflows.
_TAU_FLOOR = 2.0 ** -960


@obs.timed_kernel("weighted_bcg_stable_mask_multi")
def weighted_bcg_stable_mask_multi(
    rem_delta, rem_indptr, add_s_u, add_s_v, add_indptr,
    rem_w, add_w_u, add_w_v,
    ts,
    windows=None,
):
    """Weighted pairwise stability of K draws × all classes × a ``t`` grid.

    The multi-draw counterpart of :func:`weighted_bcg_stable_mask`: the
    Δdist columns (``rem_delta``, ``add_s_u``, ``add_s_v``) are shared by
    every draw (they depend only on topology), while each draw brings its
    own ``(K, P)`` coefficient stacks from :func:`stacked_weight_columns`.
    Row ``k`` of the result is bit-identical to calling
    :func:`weighted_bcg_stable_mask` with draw ``k``'s columns.

    The grid is sorted once.  Rounding is monotone and every ``w`` is
    positive, so — as in :func:`bcg_stable_mask` — a removal violation
    holds on a suffix of the sorted grid and an addition violation on a
    prefix, and each (draw, class) pair is stable on one run
    ``[start, stop)`` of it.  Each end is guessed from a class window
    ratio, the minimum ``r`` of ``Δ / w`` or the unclamped maximum ``a``
    of the least-interested ``save / w`` (see :func:`_window_extrema`): its
    sorted position ``g`` is the end iff the pair violates at
    ``t⁺ = ordered[g]`` and not at ``t⁻ = ordered[g - 1]`` (the other way
    round for additions).  A margin certificate proves that from the ratio
    alone.  Only the pairs it leaves unsure run the per-draw float
    expressions, on their own probes: at ``t⁻`` and ``t⁺``, then over the
    whole grid where the guess fails.  Those passes read the ``(P, K)``
    transposes of the stacks, the layout :func:`stacked_weight_columns`
    gathers.

    **Certificate.**  With ``u = 2⁻⁵³``, ``C = 8u``, ``tol`` =
    :data:`BCG_TOL`, ``τ = max(tol / w_min, 2⁻⁹⁶⁰)`` for the smallest
    coefficient ``w_min`` in the stacks, and ``e(t) = C·(|t| + τ)``, each
    evaluated in float64 as written:

    * a removal end holds if ``r - C·|r| >= t⁻ + e(t⁻)`` and
      ``r + C·|r| < (t⁺ - τ) - e(t⁺)``;
    * an addition end holds if ``a - C·|a| > (t⁻ + τ) + e(t⁻)`` and
      ``a + C·|a| < (t⁺ - τ) - e(t⁺)``;

    where a side without its grid point (``g = 0`` or ``g = len(grid)``)
    holds.  A NaN or infinite ratio or grid point fails a side.  Two exact
    rules complete it: a class whose every ``Δ`` is ``+inf`` (every tree;
    an empty segment) never severs, and an empty addition segment never
    adds.  A class with a ``-inf`` saving is left unsure.

    *Proof.*  Binary64 rounds to nearest, monotonically.  A rounded sum is
    within ``u|x|`` of its exact value ``x`` (a sum that underflows is
    exact); a rounded product or quotient is within ``u|x| + η``, with
    ``η = 2⁻¹⁰⁷⁵`` on underflow.  For a probe with coefficient ``w``, let
    ``τ_w = tol / w``.  Then ``τ_w <= τ / (1 - u)``: the floor covers an
    underflowing ``tol / w_min``, and an overflowing one makes ``τ``
    infinite, which fails every side.

    1. *One probe.*  ``fl(fl(t·w) ∓ tol)`` differs from ``t·w ∓ tol`` by
       at most ``(2 + u)·u·|t|·w + u·tol + 2η``, and ``2η < u·tol``.
       Dividing by ``w > 0`` turns the kernel's ``Δ < fl(fl(t·w) - tol)``
       into ``Δ / w < t - τ_w`` and ``save > fl(fl(t·w) + tol)`` into
       ``save / w > t + τ_w``, each decided correctly when the exact
       sides differ by more than ``δ(t) = (2 + u)·u·|t| + 2u·τ_w``.
    2. *One pair.*  By monotone rounding, ``r`` is the rounded minimum
       ``ρ`` of the exact ratios ``Δ / w``, so ``|r - ρ| <= u|ρ| + η``.
       Likewise ``a`` is the rounded maximum ``α`` over non-edges of the
       lesser exact ``save / w``.
    3. *The certificate's own roundings.*  ``C`` is a power of two and
       ``C·τ`` is normal, so ``e(t)`` is ``C·fl(|t| + τ)`` exactly.  The
       ratio side is off by at most ``u|x|(1 + C) + η`` and the grid side
       by ``(2u + u²)·(|t| + τ)``.  With ``C = 8u``, the ratio terms cancel
       against ``C·|x|``, and ``(C(1 - u)² - 2u - u²)·(|t| + τ) - 3η``
       exceeds ``(2 + u)·u·|t| + 3u·τ / (1 - u)``, which covers ``δ(t)``
       and the ``τ_w`` bound.  So a certified removal has
       ``ρ >= t⁻ + δ(t⁻)``: no probe severs at ``t⁻``, as every
       ``Δ / w >= ρ``.  It also has ``ρ < t⁺ - τ_w - δ(t⁺)`` for every
       ``w``, so the minimising probe severs at ``t⁺``.  A certified
       addition has ``α > t⁻ + τ_w + δ(t⁻)``, so the maximising non-edge
       adds at ``t⁻``: both of its savings clear ``fl(fl(t·w) + tol)``,
       or one is ``+inf`` and clears ``fl(fl(t·w) - tol)``.  It also has
       ``α < t⁺ - τ_w - δ(t⁺)``, so every non-edge's lesser saving falls
       below ``fl(fl(t⁺·w) - tol)``, which both adding disjuncts need.
    4. *Overflow.*  Against a finite payoff, a certified ``t⁻·w`` stays
       below it and cannot overflow to ``+inf``; a ``+inf`` payoff passes
       its ``t⁻`` test (it never severs, and clears
       ``fl(fl(t·w) - tol)``) whatever ``t·w`` is.  Overflow to ``-inf``
       at ``t⁻`` severs nothing and lets every saving above ``-inf``
       clear, as certified.  At ``t⁺``, overflow to ``+inf`` severs every finite
       ``Δ`` and stops every finite saving, as certified.  Overflow to
       ``-inf`` there needs a payoff below ``t⁺·w``, so a ``-inf`` one:
       a ``-inf`` ratio fails, and a ``-inf`` saving leaves its class
       unsure.  An overflow inside the certificate itself only moves its
       side the failing way (``t + e(t)`` up, ``(t - τ) - e(t)`` down,
       ``x ∓ C·|x|`` away from ``x``).

    The ratios are the weighted windows, so ``windows=(t_min, t_max)``,
    two writable float64 ``(K, n_classes)`` arrays, receives exactly what
    :func:`weighted_stability_windows_multi` returns for the same stacks
    (NumPy's ``out=`` idiom: the returned mask does not change).  One call
    then answers a draw slice's counts and windows from one set of
    divisions.

    Returns ``bool[K, n_classes, n_ts]``.
    """
    rem_delta, s_u, s_v, rem_w, w_u, w_v, w_min = _probe_major(
        rem_delta, add_s_u, add_s_v, rem_w, add_w_u, add_w_v
    )
    rem_indptr, add_indptr = np.asarray(rem_indptr), np.asarray(add_indptr)
    add_max, rem_min = _window_extrema(
        rem_delta, rem_indptr, s_u, s_v, add_indptr, rem_w, w_u, w_v
    )
    if windows is not None:
        _fill_windows(windows, add_max, rem_min)
    ordered, position, nan = _sorted_grid(ts)
    # Sorted indices -1 and len(ordered) read this NaN pad, where every
    # comparison is false: nothing severs or adds there.
    padded = np.append(ordered, np.nan)
    bounds = _run_bounds(ordered, _tolerance_ratio(w_min))
    stop = _sever_start(padded, rem_delta, rem_indptr, rem_w, rem_min, bounds)
    start = _add_stop(padded, s_u, s_v, add_indptr, w_u, w_v, add_max, bounds)
    out = np.empty((rem_w.shape[1], stop.shape[0], position.shape[0]), dtype=bool)
    np.greater_equal(position, start.T[:, :, None], out=out)
    out &= position < stop.T[:, :, None]
    # At a NaN t every comparison is false: nothing violates stability.
    out[:, :, nan] = True
    return out


def _probe_major(rem_delta, add_s_u, add_s_v, rem_w, add_w_u, add_w_v):
    """Float64 ``(P, 1)`` Δdist columns, ``(P, K)`` views of the stacks and
    their smallest coefficient (``inf`` when they are empty).

    Rejects exactly the stacks :func:`_check_weight_columns` rejects, from
    one minimum and one maximum per stack.
    """
    columns = (
        np.asarray(values).astype(np.float64, copy=False)[:, None]
        for values in (rem_delta, add_s_u, add_s_v)
    )
    stacks = [
        np.asarray(values).astype(np.float64, copy=False).T
        for values in (rem_w, add_w_u, add_w_v)
    ]
    # A NaN entry makes both extrema NaN, which fails the test too.
    w_min = float(np.min([w.min(initial=np.inf) for w in stacks]))
    w_max = float(np.max([w.max(initial=-np.inf) for w in stacks]))
    if not (w_min > 0.0 and w_max < np.inf):
        _check_weight_columns(*(w.T for w in stacks))
    return (*columns, *stacks, w_min)


def _window_extrema(delta, rem_indptr, s_u, s_v, add_indptr, w, w_u, w_v):
    """Per (class, draw): ``(add_max, rem_min)``, each ``(n_classes, K)``.

    ``rem_min`` is the minimum ``Δ / w`` over a class's removal probes
    (``inf`` on an empty segment); ``add_max`` is the maximum of
    ``min(s_u / w_u, s_v / w_v)`` over its non-edges, *not* clamped at 0
    (``-inf`` on an empty segment).  ``(max(add_max, 0), rem_min)`` is the
    weighted window ``(t_min, t_max)``; the stacked mask guesses its runs
    from the unclamped pair, since a clamped ``-inf`` would misplace the
    start of a class that never adds.
    """
    rem_min = _segment_reduce_rows(delta / w, rem_indptr, np.minimum, float("inf"))
    ratio = s_u / w_u
    np.minimum(ratio, s_v / w_v, out=ratio)
    add_max = _segment_reduce_rows(ratio, add_indptr, np.maximum, float("-inf"))
    return add_max, rem_min


def _fill_windows(windows, add_max, rem_min) -> None:
    """Write the ``(t_min[K, C], t_max[K, C])`` window rows into ``windows``."""
    t_min, t_max = windows
    shape = rem_min.shape[::-1]
    for rows in (t_min, t_max):
        if rows.shape != shape or rows.dtype != np.float64:
            raise ValueError(
                f"windows must be two float64 arrays of shape {shape}, "
                f"got {rows.dtype} {rows.shape}"
            )
    np.maximum(add_max.T, 0.0, out=t_min)
    np.copyto(t_max, rem_min.T)


def _segment_reduce_rows(values, indptr, ufunc, empty):
    """Reduce a ``(P, K)`` stack over CSR segments of its rows.

    Returns ``(n_segments, K)``; empty segments read ``empty``.
    """
    counts = np.diff(indptr)
    out = np.full((counts.shape[0], values.shape[1]), empty, dtype=values.dtype)
    if values.shape[0] == 0 or counts.shape[0] == 0:
        return out
    nonempty = counts > 0
    out[nonempty] = ufunc.reduceat(values, indptr[:-1][nonempty], axis=0)
    return out


def _tolerance_ratio(w_min: float) -> float:
    """The certificate's ``τ``: ``tol / w_min``, floored at :data:`_TAU_FLOOR`."""
    return max(BCG_TOL / w_min, _TAU_FLOOR)


def _run_bounds(ordered, tau: float):
    """The certificate's grid sides, each of length ``len(ordered) + 1``.

    Returns ``(removal_lower, addition_lower, upper)``.  Entry ``g`` of the
    lower sides bounds ``t⁻ = ordered[g - 1]`` (``-inf`` at ``g = 0``) and
    entry ``g`` of ``upper`` bounds ``t⁺ = ordered[g]`` (``+inf`` at
    ``g = len(ordered)``), so a side without its grid point holds.
    """
    # Infinite or overflowing points give NaN or inf sides: unsure.
    with np.errstate(over="ignore", invalid="ignore"):
        margin = _MARGIN * (np.abs(ordered) + tau)
        return (
            np.r_[-np.inf, ordered + margin],
            np.r_[-np.inf, (ordered + tau) + margin],
            np.r_[(ordered - tau) - margin, np.inf],
        )


def _certified(ratio, guess, lower, upper, strict):
    """Per (class, draw): whether the certificate proves ``guess`` right."""
    slack = _MARGIN * np.abs(ratio)
    # Infinite or overflowing ratios give NaN or inf sides: unsure.
    with np.errstate(over="ignore", invalid="ignore"):
        below = ratio - slack
        sure = below > lower[guess] if strict else below >= lower[guess]
        sure &= ratio + slack < upper[guess]
    return sure


def _pair_probes(pairs, indptr, draws):
    """The probes of the flat (class, draw) pairs ``pairs``, pair by pair.

    Returns ``(probe, draw, starts)``: the probe and draw index of every
    probe of every listed pair, and each pair's first entry in them.
    """
    cls, draw = np.divmod(pairs, draws)
    counts = np.diff(indptr)[cls]
    starts = np.zeros(pairs.shape[0] + 1, dtype=np.intp)
    np.cumsum(counts, out=starts[1:])
    probe = np.repeat(indptr[cls] - starts[:-1], counts) + np.arange(starts[-1])
    return probe, np.repeat(draw, counts), starts[:-1]


def _settle(guess, unsure, padded, indptr, gather, violates, suffix):
    """Exact run ends of the flat (class, draw) pairs ``unsure``, in place.

    ``gather(probe, draw)`` returns the per-probe values of those pairs
    (each pair has at least one probe) and ``violates(t, *values)`` the
    per-draw kernel's float expression on them, for a scalar ``t`` or one
    ``t`` per probe.  Violations hold on a suffix (``suffix``: the run
    stops at the first) or a prefix (it starts after the last) of the
    sorted grid.  Each guess is checked at the two sorted points around
    it; a pair whose guess fails is counted over the whole grid.
    """
    size = padded.shape[0] - 1
    probe, draw, starts = _pair_probes(unsure, indptr, guess.shape[1])
    values = gather(probe, draw)
    counts = np.diff(starts, append=probe.shape[0])
    flat = guess.reshape(-1)
    index = flat[unsure]

    def hits(at):
        t = np.repeat(padded[at], counts)
        return np.logical_or.reduceat(violates(t, *values), starts)

    if suffix:
        ok = ~hits(index - 1) & (hits(index) | (index == size))
    else:
        ok = (hits(index - 1) | (index == 0)) & ~hits(index)
    bad = ~ok
    if not bool(bad.any()):
        return
    keep = np.repeat(bad, counts)
    values = [v[keep] for v in values]
    starts = np.zeros(int(bad.sum()), dtype=np.intp)
    np.cumsum(counts[bad][:-1], out=starts[1:])
    total = np.zeros(starts.shape[0], dtype=np.intp)
    for t in padded[:size]:
        total += np.logical_or.reduceat(violates(t, *values), starts)
    flat[unsure[bad]] = size - total if suffix else total


def _severs(t, delta, w):
    # The per-draw kernel's removal test: Δ < t·w - tol.
    return delta < t * w - BCG_TOL


def _adds(t, s_u, s_v, w_u, w_v):
    # The per-draw kernel's addition test.
    return ((s_u > t * w_u + BCG_TOL) & (s_v >= t * w_v - BCG_TOL)) | (
        (s_v > t * w_v + BCG_TOL) & (s_u >= t * w_u - BCG_TOL)
    )


def _sever_start(padded, delta, indptr, w, rem_min, bounds):
    """Per (class, draw): the first sorted grid index where a removal severs.

    ``delta`` is a ``(P, 1)`` column and ``w`` a ``(P, K)`` stack.  A probe
    severs at ``t`` iff ``Δ < t·w - tol``, which holds on a suffix of the
    sorted grid; ``len(ordered)`` means never.  The guess is the grid
    position of ``rem_min``, the minimum ``Δ / w``.
    """
    size = padded.shape[0] - 1
    guess = np.searchsorted(padded[:size], rem_min, side="right")
    lower, _lower_add, upper = bounds
    sure = _certified(rem_min, guess, lower, upper, strict=False)
    # A class whose every Δ is +inf severs nowhere, whatever the draw.
    sure |= _segment_reduce_rows(delta, indptr, np.minimum, np.inf) == np.inf
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        _settle(
            guess, unsure, padded, indptr,
            lambda probe, draw: (delta[probe, 0], w[probe, draw]),
            _severs, suffix=True,
        )
    return guess


def _add_stop(padded, s_u, s_v, indptr, w_u, w_v, add_max, bounds):
    """Per (class, draw): how many sorted grid points some non-edge adds at.

    ``s_u``/``s_v`` are ``(P, 1)`` columns and ``w_u``/``w_v`` ``(P, K)``
    stacks.  A non-edge adds at ``t`` iff one endpoint has
    ``save > t·w + tol`` while the other has ``save >= t·w - tol``, which
    holds on a prefix of the sorted grid.  The guess is the grid position
    of ``add_max``, the unclamped maximum least-interested ``save / w``.
    """
    size = padded.shape[0] - 1
    guess = np.searchsorted(padded[:size], add_max, side="left")
    _lower, lower, upper = bounds
    sure = _certified(add_max, guess, lower, upper, strict=True)
    # A -inf saving adds where t·w overflows to -inf: its class stays exact.
    sure &= ~_segment_reduce_rows(
        np.isneginf(s_u) | np.isneginf(s_v), indptr, np.logical_or, False
    )
    # An empty segment adds nowhere, whatever the draw.
    sure |= (np.diff(indptr) == 0)[:, None]
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        _settle(
            guess, unsure, padded, indptr,
            lambda probe, draw: (
                s_u[probe, 0], s_v[probe, 0], w_u[probe, draw], w_v[probe, draw]
            ),
            _adds, suffix=False,
        )
    return guess


@obs.timed_kernel("weighted_stability_windows_multi")
def weighted_stability_windows_multi(
    rem_delta, rem_indptr, add_s_u, add_s_v, add_indptr,
    rem_w, add_w_u, add_w_v,
):
    """Per-class weighted windows ``(t_min, t_max)`` for K draws at once.

    The multi-draw counterpart of :func:`weighted_stability_windows` over
    shared Δdist columns and ``(K, P)`` coefficient stacks; row ``k`` is
    bit-identical to the per-draw kernel on draw ``k``'s columns (same
    elementwise divisions, same ``reduceat`` reductions — min/max are
    order-insensitive).  The ratios are :func:`_window_extrema`'s, which
    :func:`weighted_bcg_stable_mask_multi` reduces too and can hand back
    through its ``windows`` output.  Returns ``(t_min[K, C], t_max[K, C])``.
    """
    rem_delta, s_u, s_v, rem_w, w_u, w_v, _w_min = _probe_major(
        rem_delta, add_s_u, add_s_v, rem_w, add_w_u, add_w_v
    )
    add_max, rem_min = _window_extrema(
        rem_delta, np.asarray(rem_indptr), s_u, s_v, np.asarray(add_indptr),
        rem_w, w_u, w_v,
    )
    return np.maximum(add_max, 0.0).T, rem_min.T


@obs.timed_kernel("stability_windows")
def stability_windows(rem_min, add_lo, add_indptr):
    """Per-class Lemma 2 windows ``(α_min, α_max)`` from the columns.

    ``α_max`` is the per-class minimum removal increase; ``α_min`` is the
    largest least-interested-endpoint saving over the class's non-edges
    (clamped at 0, like :attr:`PairwiseStabilityProfile.alpha_min`).
    """
    alpha_max = np.asarray(rem_min, dtype=np.float64)
    alpha_min = np.maximum(segment_max(add_lo, add_indptr, empty=0.0), 0.0)
    return alpha_min, alpha_max


# --------------------------------------------------------------------------- #
# Ensemble aggregation
# --------------------------------------------------------------------------- #


def ensemble_stats(values, indptr, quantiles: Sequence[float] = (0.25, 0.5, 0.75)):
    """Per-position mean/std/min/max/quantiles over equal-length segments.

    The ensemble runner concatenates one value row per seeded draw (per-``t``
    stable counts, per-class window endpoints) into a flat array with a CSR
    ``indptr``; this kernel aggregates **across draws at each position**.
    All segments must have the same length ``L`` (an ensemble is a stack, not
    a ragged family) — violating rows raise instead of aggregating garbage.

    Returns a dict of plain Python lists of length ``L``: ``mean``, ``std``
    (population, ``ddof=0``), ``min``, ``max``, and ``quantiles`` — a
    ``{q: [...]}`` mapping using NumPy's default linear interpolation.  One
    deterministic vectorised pass, identical for any worker count upstream.
    """
    values = np.asarray(values, dtype=np.float64)
    indptr = np.asarray(indptr, dtype=np.int64)
    counts = np.diff(indptr)
    draws = counts.shape[0]
    if draws == 0:
        raise ValueError("ensemble aggregation needs at least one draw")
    if not bool(np.all(counts == counts[0])):
        raise ValueError(
            "ensemble segments must all have the same length, got lengths "
            f"{sorted(set(counts.tolist()))}"
        )
    stacked = values[indptr[0]:indptr[-1]].reshape(draws, int(counts[0]))
    # Positions that are inf in every draw (e.g. the t_max window of a tree
    # class, stable for all large scales) have mean inf and an undefined
    # spread: std/quantile interpolation legitimately produce nan there, so
    # the inf-minus-inf warnings are expected, not numerical accidents.
    with np.errstate(invalid="ignore"):
        return {
            "mean": stacked.mean(axis=0).tolist(),
            "std": stacked.std(axis=0).tolist(),
            "min": stacked.min(axis=0).tolist(),
            "max": stacked.max(axis=0).tolist(),
            "quantiles": {
                float(q): np.quantile(stacked, float(q), axis=0).tolist()
                for q in quantiles
            },
        }


# --------------------------------------------------------------------------- #
# Packed upper-triangle certificates
# --------------------------------------------------------------------------- #


def certificate_words(n: int) -> int:
    """Number of little-endian 64-bit words per packed certificate."""
    return (n * (n - 1) // 2 + 63) // 64


def pack_certificates(bitstrings: Sequence[int], n: int):
    """Pack upper-triangle adjacency bitstrings into a ``uint64[C, W]`` array.

    Bit ``k`` of a bitstring (the k-th vertex pair in lexicographic order,
    as produced by :meth:`Graph.adjacency_bitstring`) lands in bit
    ``k % 64`` of word ``k // 64``.
    """
    words = certificate_words(n)
    out = np.zeros((len(bitstrings), words), dtype=np.uint64)
    mask = (1 << 64) - 1
    for row, bits in enumerate(bitstrings):
        for w in range(words):
            out[row, w] = (bits >> (64 * w)) & mask
    return out


def unpack_certificate(word_row, n: int) -> int:
    """The Python-int upper-triangle bitstring of one packed certificate."""
    bits = 0
    for w, word in enumerate(word_row.tolist()):
        bits |= int(word) << (64 * w)
    return bits


def certificate_to_graph(word_row, n: int) -> Graph:
    """Rebuild the labelled :class:`Graph` encoded by one packed certificate."""
    bits = unpack_certificate(word_row, n)
    edges = []
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (bits >> k) & 1:
                edges.append((u, v))
            k += 1
    return Graph(n, edges)


def canonical_sort_indices(num_edges, cert_words, n: int):
    """The permutation sorting classes into ``class_sort_key`` order.

    :func:`repro.graphs.enumeration.class_sort_key` orders classes by edge
    count, then lexicographically by the sorted edge list.  On packed
    certificates the tie-break is equivalent to: at the first vertex pair
    (in lexicographic pair order) where two classes differ, the class
    *containing* that pair comes first.  That is an ascending lexicographic
    comparison of the **inverted** bit sequence read from pair 0 upward, so
    the permutation falls out of one ``np.lexsort`` over the inverted,
    big-endian-packed certificate bytes.
    """
    num_edges = np.asarray(num_edges)
    n_classes = num_edges.shape[0]
    pair_count = n * (n - 1) // 2
    keys: List = []
    if pair_count and n_classes:
        little = np.ascontiguousarray(cert_words, dtype="<u8")
        bytes_view = little.view(np.uint8).reshape(n_classes, -1)
        bits = np.unpackbits(bytes_view, axis=1, bitorder="little")[:, :pair_count]
        packed = np.packbits(1 - bits, axis=1, bitorder="big")
        # np.lexsort treats the *last* key as primary: byte 0 (pairs 0..7)
        # is the most significant tie-break, num_edges the primary key.
        keys.extend(packed[:, b] for b in range(packed.shape[1] - 1, -1, -1))
    keys.append(num_edges)
    return np.lexsort(keys)
