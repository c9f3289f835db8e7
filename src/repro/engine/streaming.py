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
  the dense path is ``nan``).  Quantiles come from one vectorised P²
  sketch per (quantile, position) — 5 markers each, initialised from the
  first five finite observations and nudged by parabolic-else-linear
  marker moves — combined at :meth:`finalize` with per-position ``±inf`` /
  ``nan`` tallies through NumPy's own linear-interpolation rank rule, so
  all-infinite positions (the ``t_max`` window of a tree class) degrade to
  the same ``inf``/``nan`` pattern as :func:`ensemble_stats`.

State size is independent of the number of draws — ``state_nbytes`` is
the peak-memory proxy asserted by the amortised-ensemble benchmark.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

#: Quantiles reported by default (quartiles + median, as ensemble_stats).
DEFAULT_QUANTILES = (0.25, 0.5, 0.75)

#: Draw-count threshold below which aggregation stays dense and bit-exact.
DEFAULT_EXACT_BUFFER = 64


class _P2Sketch:
    """Vectorised P² quantile estimator: one 5-marker sketch per position.

    The classic Jain–Chlamtac algorithm, run column-parallel: ``heights``
    and ``npos`` are ``(5, L)`` arrays and every marker adjustment is a
    masked vector operation, so feeding one row costs O(L) regardless of
    how many positions move.  Only *finite* observations are fed here —
    the owner tracks ``±inf``/``nan`` tallies and recombines at finalize.
    """

    __slots__ = ("q", "heights", "npos", "_dn", "_rows")

    def __init__(self, q: float, length: int) -> None:
        self.q = float(q)
        self.heights = np.zeros((5, length), dtype=np.float64)
        self.npos = np.zeros((5, length), dtype=np.int64)
        self._dn = np.array(
            [0.0, self.q / 2.0, self.q, (1.0 + self.q) / 2.0, 1.0]
        )
        self._rows = np.arange(5)[:, None]

    def init_columns(self, cols, sorted_block) -> None:
        """Seed columns ``cols`` from their first five finite values (sorted)."""
        self.heights[:, cols] = sorted_block
        self.npos[:, cols] = np.arange(1, 6, dtype=np.int64)[:, None]

    def add(self, values, mask, fin_counts) -> None:
        """Fold one row's finite values (at ``mask``) into the markers.

        ``fin_counts`` is the per-position finite count *including* this
        row, i.e. the P² observation count after the insertion.
        """
        idx = np.where(mask)[0]
        if idx.size == 0:
            return
        v = values[idx]
        h = self.heights[:, idx]
        npos = self.npos[:, idx]

        # Locate the cell: k in 0..3 with h[k] <= v < h[k+1]; clamp the
        # extremes into the end cells, moving the end marker onto v.
        count_le = (h <= v).sum(axis=0)
        below = count_le == 0
        above = count_le == 5
        k = np.clip(count_le - 1, 0, 3)
        h[0, below] = v[below]
        h[4, above] = v[above]
        npos += self._rows > k

        desired = 1.0 + (fin_counts[idx] - 1.0) * self._dn[:, None]
        for i in (1, 2, 3):
            d = desired[i] - npos[i]
            gap_up = npos[i + 1] - npos[i]
            gap_dn = npos[i - 1] - npos[i]
            move_up = (d >= 1.0) & (gap_up > 1)
            move_dn = (d <= -1.0) & (gap_dn < -1)
            move = move_up | move_dn
            if not move.any():
                continue
            s = np.where(move_up, 1.0, -1.0)
            ni = npos[i].astype(np.float64)
            nim = npos[i - 1].astype(np.float64)
            nip = npos[i + 1].astype(np.float64)
            hi = h[i]
            him = h[i - 1]
            hip = h[i + 1]
            # Divisors are only guaranteed nonzero where `move` holds; the
            # other lanes are masked out below, so silence their noise.
            with np.errstate(divide="ignore", invalid="ignore"):
                parab = hi + s / (nip - nim) * (
                    (ni - nim + s) * (hip - hi) / (nip - ni)
                    + (nip - ni - s) * (hi - him) / (ni - nim)
                )
                h_adj = np.where(s > 0.0, hip, him)
                n_adj = np.where(s > 0.0, nip, nim)
                linear = hi + s * (h_adj - hi) / (n_adj - ni)
            use_parab = (him < parab) & (parab < hip)
            moved = np.where(use_parab, parab, linear)
            h[i] = np.where(move, moved, hi)
            npos[i] += np.where(move, s, 0.0).astype(np.int64)

        self.heights[:, idx] = h
        self.npos[:, idx] = npos

    def estimate(self):
        """Current q-quantile estimate per position (the centre marker)."""
        return self.heights[2].copy()

    @property
    def nbytes(self) -> int:
        return self.heights.nbytes + self.npos.nbytes


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
        self._sketches: List[_P2Sketch] = []

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
        self._sketches = [_P2Sketch(q, L) for q in self.quantiles]
        buffered, self._buffer = self._buffer, None
        for block in buffered:
            for row in block:
                self._stream_row(row)

    def _stream_row(self, row) -> None:
        # Row-sequential accumulation: identical, add for add, to NumPy's
        # axis-0 reduction of the dense stack — this is what keeps the
        # streamed mean bit-exact past the buffer.
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
                block = np.sort(self._init_buf[:, full], axis=0)
                for sketch in self._sketches:
                    sketch.init_columns(full, block)
        streaming = finite & (pre >= 5)
        if streaming.any():
            for sketch in self._sketches:
                sketch.add(row, streaming, self._fin)

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
                q: self._finalize_quantile(q, sketch)
                for q, sketch in zip(self.quantiles, self._sketches)
            }
        return {
            "mean": mean.tolist(),
            "std": std.tolist(),
            "min": self._min.tolist(),
            "max": self._max.tolist(),
            "quantiles": {q: row.tolist() for q, row in quantile_rows.items()},
        }

    def _finalize_quantile(self, q: float, sketch: _P2Sketch):
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
        est = sketch.estimate()
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
        return total + sum(sketch.nbytes for sketch in self._sketches)
