"""Streaming ensemble aggregation: bounded-memory per-position statistics.

:func:`~repro.engine.columnar.ensemble_stats` aggregates a stack of
per-draw rows (per-``t`` stable counts, per-class window endpoints) — but
it needs the whole ``(draws, L)`` stack resident, so ensemble size is
bounded by memory, not time.  At ``n = 8`` the window-endpoint stack alone
costs ``2 × draws × 11117 × 8`` bytes: ~178 MB for a 1000-draw run and
growing linearly from there.  :class:`StreamingEnsembleStats` replaces the
stack with O(``L``) state so the ensemble runner can aggregate draws as
they arrive and discard them.

The accuracy contract is regime-split and explicit:

* **exact regime** (``count <= exact_buffer``, default 64) — rows are
  buffered and :meth:`finalize` computes through the *same expressions* as
  :func:`ensemble_stats`, so every statistic (quantiles included) is
  bit-identical to the dense aggregation.  Small ensembles — including
  every pre-existing test — lose nothing;
* **streaming regime** (past the buffer) — the buffer is flushed into
  running state.  ``mean``/``min``/``max`` remain **bit-exact**: NumPy's
  axis-0 reduction of a C-order stack performs the same left-to-right
  per-position adds as our row-sequential accumulation, and min/max are
  order-insensitive.  ``std`` switches from the two-pass formula to
  ``sqrt(E[x²] − E[x]²)`` (agreement ~1e-12 in the tests, ``nan`` wherever
  the dense path is ``nan``).  Quantiles come from one ``(Q, 5, L)`` P²
  bank (Jain–Chlamtac's 5-marker streaming quantile sketch, one per
  quantile and position) — initialised from each position's first five
  finite observations and nudged by parabolic-else-linear marker moves
  that run only on the lanes that move — combined at :meth:`finalize`
  with per-position ``±inf`` / ``nan`` tallies through NumPy's own
  linear-interpolation rank rule, so all-infinite positions (the
  ``t_max`` window of a tree class) degrade to the same ``inf``/``nan``
  pattern as :func:`ensemble_stats`.  Every lane's marker arithmetic is
  that of the scalar histogram sketch
  (:class:`repro.obs.metrics._ScalarP2Bank`), so an all-finite position's
  quantiles equal that sketch fed the position's values, bit for bit.

Positions are independent, so callers with several row families of one
draw count (the ensemble runner's ``t_min`` and ``t_max`` windows) fold
them side by side as one wider row; the width changes no position's
result.  State size is independent of the number of draws —
``state_nbytes`` is the peak-memory proxy asserted by the
amortised-ensemble benchmark.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

#: Quantiles reported by default (quartiles + median, as ensemble_stats).
DEFAULT_QUANTILES = (0.25, 0.5, 0.75)

#: Draw-count threshold below which aggregation stays dense and bit-exact.
DEFAULT_EXACT_BUFFER = 64


#: Smallest lane set the marker update works on.  NumPy keeps freed data
#: blocks under 1 KiB for reuse, keyed by their exact size, and the number
#: of moving lanes changes every row: lane-sized float temporaries below
#: 128 entries, or lane-sized bool temporaries of any common size, would
#: pile up there as resident memory.  Small lane sets are padded to this
#: size and the bool flags live in fixed scratch rows.
_MIN_LANES = 128


class _P2Bank:
    """Vectorised P² quantile estimators: one 5-marker sketch per lane.

    The classic Jain–Chlamtac algorithm, run lane-parallel over a
    ``(Q, 5, L)`` bank: ``heights[q, m, j]`` is marker ``m``'s height in
    the sketch of quantile ``q`` at position ``j``, and the marker
    positions are laid out alike.  Positions are integer counts kept in
    float64, exact below 2**53.  The bank is stored marker-major, so each
    marker's ``(Q, L)`` plane is contiguous and flat-indexable.  A row
    costs a handful of plane-wide compares for the cell search and the
    move test; the parabolic-else-linear marker update then runs only on
    the lanes that move.  Only *finite* observations are fed here — the
    owner tracks ``±inf``/``nan`` tallies and recombines at finalize.
    """

    __slots__ = ("quantiles", "_h", "_n", "_dn", "_flags")

    #: Per-marker bound for the position increment of markers 1..4.
    _REACH = np.array([1, 2, 3, 5], dtype=np.int8)[:, None, None]

    def __init__(self, quantiles: Sequence[float], length: int) -> None:
        self.quantiles = tuple(float(q) for q in quantiles)
        shape = (5, len(self.quantiles), int(length))
        self._h = np.zeros(shape, dtype=np.float64)
        self._n = np.zeros(shape, dtype=np.float64)
        q = np.asarray(self.quantiles, dtype=np.float64)
        # Desired-position increments of markers 1..3, as (3, Q, 1); the end
        # markers' increments (0 and 1) never enter a move test.
        self._dn = np.stack([q / 2.0, q, (1.0 + q) / 2.0])[:, :, None]
        # Scratch for the moving lanes' flags (see _MIN_LANES).
        self._flags = np.empty(
            (3, max(_MIN_LANES, shape[1] * shape[2])), dtype=bool
        )

    @property
    def heights(self):
        """Marker heights as a ``(Q, 5, L)`` view."""
        return self._h.transpose(1, 0, 2)

    def init_columns(self, cols, sorted_block) -> None:
        """Seed columns ``cols`` from their first five finite values (sorted)."""
        self._h[:, :, cols] = sorted_block[:, None, :]
        self._n[:, :, cols] = np.arange(1.0, 6.0)[:, None, None]

    def add(self, values, mask, fin_counts) -> None:
        """Fold one row's finite values (at ``mask``) into the markers.

        ``fin_counts`` is the per-position finite count *including* this
        row, i.e. the P² observation count after the insertion.  Lanes
        outside ``mask`` are left untouched.
        """
        h = self._h
        n = self._n

        # Locate the cell: k = clip(count_le - 1, 0, 3) has
        # h[k] <= v < h[k+1]; clamp the extremes into the end cells, moving
        # the end marker onto v.
        count_le = np.add.reduce(h <= values, axis=0, dtype=np.int8)
        np.copyto(h[0], values, where=(count_le == 0) & mask)
        np.copyto(h[4], values, where=(count_le == 5) & mask)
        # Markers above the cell gain a position: marker m > k, which is
        # count_le <= m for m = 1..3 and always for m = 4.  Masked lanes
        # take count_le = 9 and gain none.
        n[1:] += np.where(mask, count_le, np.int8(9)) <= self._REACH

        # Markers 1..3 move in turn.  A marker's move changes only its own
        # position, so each marker's distance to its desired position and
        # its upward test (against the marker above, which has not moved
        # yet) are computed for all three at once; the downward test reads
        # the marker below after its move.  A nan desired position fails
        # both tests, so masked lanes never move.
        desired = 1.0 + np.where(mask, fin_counts - 1.0, np.nan) * self._dn
        d = desired - n[1:4]
        move_up = (d >= 1.0) & (n[2:] - n[1:4] > 1)
        d_low = d <= -1.0
        h_flat = h.reshape(5, -1)
        n_flat = n.reshape(5, -1)
        for i in (1, 2, 3):
            move_dn = d_low[i - 1] & (n[i - 1] - n[i] < -1)
            lanes = np.flatnonzero(move_up[i - 1] | move_dn)
            if lanes.size == 0:
                continue
            if lanes.size < _MIN_LANES:
                # A repeated lane computes and writes the same values.
                lanes = np.resize(lanes, _MIN_LANES)
            up, inside, below_hip = self._flags[:, :lanes.size]
            np.take(move_up[i - 1].reshape(-1), lanes, out=up, mode="clip")
            s = np.where(up, 1.0, -1.0)
            nim, ni, nip = np.take(n_flat[i - 1:i + 2], lanes, axis=1)
            him, hi, hip = np.take(h_flat[i - 1:i + 2], lanes, axis=1)
            # Marker positions are strictly increasing and a moving marker
            # has a gap of at least 2 on its side, so no divisor is zero.
            parab = hi + s / (nip - nim) * (
                (ni - nim + s) * (hip - hi) / (nip - ni)
                + (nip - ni - s) * (hi - him) / (ni - nim)
            )
            h_adj = np.where(up, hip, him)
            n_adj = np.where(up, nip, nim)
            linear = hi + s * (h_adj - hi) / (n_adj - ni)
            # Parabolic where it stays strictly between the neighbours.
            np.less(him, parab, out=inside)
            np.less(parab, hip, out=below_hip)
            np.logical_and(inside, below_hip, out=inside)
            h_flat[i][lanes] = np.where(inside, parab, linear)
            n_flat[i][lanes] = ni + s

    @property
    def nbytes(self) -> int:
        return self._h.nbytes + self._n.nbytes


class StreamingEnsembleStats:
    """Running per-position mean/std/min/max/quantiles over equal rows.

    Feed ``(batch, length)`` blocks of draw rows with :meth:`update` (in
    draw order — the result is then independent of how the caller batches
    them) and collect an :func:`ensemble_stats`-shaped dict from
    :meth:`finalize`.  See the module docstring for the exact-vs-sketch
    accuracy contract.
    """

    def __init__(
        self,
        length: int,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        exact_buffer: int = DEFAULT_EXACT_BUFFER,
    ) -> None:
        if length < 0:
            raise ValueError("length must be non-negative")
        if exact_buffer < 0:
            raise ValueError("exact_buffer must be non-negative")
        self.length = int(length)
        self.quantiles = tuple(float(q) for q in quantiles)
        self.exact_buffer = int(exact_buffer)
        self.count = 0
        self._buffer: Optional[List] = []
        # Streaming state (allocated lazily at the first buffer flush).
        self._sum = None
        self._sumsq = None
        self._min = None
        self._max = None
        self._neg = None
        self._pos = None
        self._nan = None
        self._fin = None
        self._init_buf = None
        self._bank: Optional[_P2Bank] = None

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def update(self, rows) -> None:
        """Fold a ``(batch, length)`` block of draw rows into the state."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.length:
            raise ValueError(
                f"expected rows of shape (batch, {self.length}), "
                f"got {rows.shape}"
            )
        self.count += rows.shape[0]
        if self._buffer is not None:
            self._buffer.append(rows)
            if self.count > self.exact_buffer:
                self._flush_buffer()
            return
        for row in rows:
            self._stream_row(row)

    def _flush_buffer(self) -> None:
        L = self.length
        self._sum = np.zeros(L, dtype=np.float64)
        self._sumsq = np.zeros(L, dtype=np.float64)
        self._min = np.full(L, np.inf)
        self._max = np.full(L, -np.inf)
        self._neg = np.zeros(L, dtype=np.int64)
        self._pos = np.zeros(L, dtype=np.int64)
        self._nan = np.zeros(L, dtype=np.int64)
        self._fin = np.zeros(L, dtype=np.int64)
        self._init_buf = np.zeros((5, L), dtype=np.float64)
        self._bank = _P2Bank(self.quantiles, L)
        buffered, self._buffer = self._buffer, None
        for block in buffered:
            for row in block:
                self._stream_row(row)

    def _stream_row(self, row) -> None:
        # Row-sequential accumulation: identical, add for add, to NumPy's
        # axis-0 reduction of the dense stack — this is what keeps the
        # streamed mean bit-exact past the buffer.  +inf and -inf in one
        # position sum to nan, as they do in the dense mean.
        with np.errstate(invalid="ignore"):
            self._sum = self._sum + row
        self._sumsq = self._sumsq + row * row
        np.minimum(self._min, row, out=self._min)
        np.maximum(self._max, row, out=self._max)

        isnan = np.isnan(row)
        isneg = row == -np.inf
        ispos = row == np.inf
        finite = ~(isnan | isneg | ispos)
        self._nan += isnan
        self._neg += isneg
        self._pos += ispos
        pre = self._fin.copy()
        self._fin += finite

        filling = np.where(finite & (pre < 5))[0]
        if filling.size:
            self._init_buf[pre[filling], filling] = row[filling]
            full = filling[self._fin[filling] == 5]
            if full.size:
                self._bank.init_columns(
                    full, np.sort(self._init_buf[:, full], axis=0)
                )
        streaming = finite & (pre >= 5)
        if streaming.any():
            self._bank.add(row, streaming, self._fin)

    # ------------------------------------------------------------------ #
    # Finalize
    # ------------------------------------------------------------------ #

    def finalize(self) -> Dict[str, object]:
        """The :func:`ensemble_stats`-shaped aggregate of everything fed."""
        if self.count == 0:
            raise ValueError("ensemble aggregation needs at least one draw")
        if self._buffer is not None:
            # Exact regime: same expressions as ensemble_stats, bit for bit.
            stacked = np.concatenate(self._buffer, axis=0)
            with np.errstate(invalid="ignore"):
                return {
                    "mean": stacked.mean(axis=0).tolist(),
                    "std": stacked.std(axis=0).tolist(),
                    "min": stacked.min(axis=0).tolist(),
                    "max": stacked.max(axis=0).tolist(),
                    "quantiles": {
                        float(q): np.quantile(stacked, float(q), axis=0).tolist()
                        for q in self.quantiles
                    },
                }
        K = float(self.count)
        with np.errstate(invalid="ignore"):
            mean = self._sum / K
            variance = np.maximum(self._sumsq / K - mean * mean, 0.0)
            # inf - inf (and any nan ingested) must surface as nan, exactly
            # as the dense two-pass std does.
            variance = np.where(np.isnan(self._sumsq / K - mean * mean),
                                np.nan, variance)
            std = np.sqrt(variance)
            quantile_rows = {
                q: self._finalize_quantile(q, self._bank.heights[row, 2].copy())
                for row, q in enumerate(self.quantiles)
            }
        return {
            "mean": mean.tolist(),
            "std": std.tolist(),
            "min": self._min.tolist(),
            "max": self._max.tolist(),
            "quantiles": {q: row.tolist() for q, row in quantile_rows.items()},
        }

    def _finalize_quantile(self, q: float, est):
        """Combine the finite-part sketch with the ±inf/nan tallies.

        Conceptually sorts the virtual per-position sample
        ``[-inf]*neg + finites + [+inf]*pos``, reads ranks ``q*(K-1)`` with
        NumPy's linear-interpolation formula, and substitutes the sketch
        estimate for any rank landing in the finite run.  Positions whose
        sample is entirely finite reduce to the plain sketch estimate;
        entirely-infinite positions reproduce ensemble_stats' inf/nan
        behaviour; mixed positions are approximate (the sketch stands in
        for every finite rank).
        """
        # ``est`` is the bank's centre marker for ``q``, one per position.
        # Positions with fewer than 5 finite values never initialised their
        # markers — their finite part is still dense in the init buffer.
        partial = np.where((self._fin > 0) & (self._fin < 5))[0]
        for col in partial:
            vals = np.sort(self._init_buf[: self._fin[col], col])
            est[col] = np.quantile(vals, q)

        rank = q * (self.count - 1)
        lo = np.floor(rank)
        hi = np.ceil(rank)
        frac = rank - lo
        fin_end = self._neg + self._fin

        def rank_value(idx):
            return np.where(
                idx < self._neg,
                -np.inf,
                np.where(idx >= fin_end, np.inf, est),
            )

        a = rank_value(lo)
        b = rank_value(hi)
        with np.errstate(invalid="ignore"):
            diff = b - a
            out = np.where(
                frac >= 0.5, b - diff * (1.0 - frac), a + diff * frac
            )
        out = np.where(self._nan > 0, np.nan, out)
        return out

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def state_nbytes(self) -> int:
        """Resident bytes of aggregation state (the peak-memory proxy).

        In the exact regime this counts the buffered rows (bounded by
        ``exact_buffer``); in the streaming regime it is O(length) and
        independent of how many draws were fed.
        """
        if self._buffer is not None:
            return sum(block.nbytes for block in self._buffer)
        arrays = (
            self._sum, self._sumsq, self._min, self._max,
            self._neg, self._pos, self._nan, self._fin, self._init_buf,
        )
        total = sum(array.nbytes for array in arrays)
        return total + self._bank.nbytes
