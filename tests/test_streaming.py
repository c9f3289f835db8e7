"""StreamingEnsembleStats: the regime-split accuracy contract.

Within the exact buffer every statistic must be bit-identical to the dense
:func:`ensemble_stats` kernel; past it, moments and extrema stay exact,
std agrees to float-noise, and quantiles land within P² sketch tolerance —
with the inf/nan patterns of all-infinite positions preserved either way.
"""

import numpy as np
import pytest

from repro.engine.columnar import ensemble_stats
from repro.engine.streaming import StreamingEnsembleStats


def dense_reference(stacked, quantiles=(0.25, 0.5, 0.75)):
    draws, length = stacked.shape
    indptr = np.arange(draws + 1, dtype=np.int64) * length
    return ensemble_stats(stacked.reshape(-1), indptr, quantiles=quantiles)


def feed(stacked, exact_buffer, block=7, quantiles=(0.25, 0.5, 0.75)):
    agg = StreamingEnsembleStats(
        stacked.shape[1], quantiles=quantiles, exact_buffer=exact_buffer
    )
    for start in range(0, stacked.shape[0], block):
        agg.update(stacked[start:start + block])
    return agg


def assert_same_list(a, b, context):
    a, b = np.asarray(a), np.asarray(b)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    assert same.all(), (context, a[~same][:5], b[~same][:5])


class TestExactRegime:
    def test_bit_identical_to_dense_kernel(self):
        rng = np.random.default_rng(0)
        stacked = rng.normal(size=(20, 30))
        got = feed(stacked, exact_buffer=64).finalize()
        ref = dense_reference(stacked)
        for key in ("mean", "std", "min", "max"):
            assert_same_list(got[key], ref[key], key)
        for q in (0.25, 0.5, 0.75):
            assert_same_list(got["quantiles"][q], ref["quantiles"][q], q)

    def test_all_inf_positions_match_dense_kernel(self):
        """Window columns of tree classes are +inf in every draw."""
        rng = np.random.default_rng(1)
        stacked = np.abs(rng.normal(size=(12, 8)))
        stacked[:, 3] = np.inf
        got = feed(stacked, exact_buffer=64).finalize()
        ref = dense_reference(stacked)
        assert got["mean"][3] == np.inf
        assert np.isnan(got["std"][3])
        for key in ("mean", "std", "min", "max"):
            assert_same_list(got[key], ref[key], key)
        for q in (0.25, 0.5, 0.75):
            assert_same_list(got["quantiles"][q], ref["quantiles"][q], q)


class TestStreamingRegime:
    def test_moments_and_extrema_exact_past_buffer(self):
        """mean/min/max stay bit-exact; std agrees to float noise."""
        rng = np.random.default_rng(2)
        stacked = np.exp(rng.normal(size=(400, 25)))
        got = feed(stacked, exact_buffer=16).finalize()
        ref = dense_reference(stacked)
        for key in ("mean", "min", "max"):
            assert_same_list(got[key], ref[key], key)
        assert np.allclose(got["std"], ref["std"], rtol=1e-9, atol=1e-12)

    def test_quantiles_within_sketch_tolerance(self):
        rng = np.random.default_rng(3)
        stacked = rng.uniform(0.0, 10.0, size=(1000, 12))
        got = feed(stacked, exact_buffer=32).finalize()
        ref = dense_reference(stacked)
        for q in (0.25, 0.5, 0.75):
            err = np.abs(
                np.asarray(got["quantiles"][q]) - np.asarray(ref["quantiles"][q])
            )
            # P² on 1000 uniform draws: a few percent of the data range.
            assert err.max() < 0.5, (q, err.max())

    def test_all_inf_positions_past_buffer(self):
        rng = np.random.default_rng(4)
        stacked = np.abs(rng.normal(size=(300, 6)))
        stacked[:, 2] = np.inf
        got = feed(stacked, exact_buffer=16).finalize()
        ref = dense_reference(stacked)
        assert got["mean"][2] == np.inf
        assert np.isnan(got["std"][2])
        assert got["min"][2] == np.inf and got["max"][2] == np.inf
        for q in (0.25, 0.5, 0.75):
            # inf-inf interpolation is nan in the dense kernel too.
            assert np.isnan(got["quantiles"][q][2]) == np.isnan(
                ref["quantiles"][q][2]
            )

    def test_batching_invariance(self):
        """Identical results for any update block size (row order fixed)."""
        rng = np.random.default_rng(5)
        stacked = rng.normal(size=(250, 15))
        results = [
            feed(stacked, exact_buffer=16, block=block).finalize()
            for block in (1, 9, 64, 250)
        ]
        for other in results[1:]:
            for key in ("mean", "std", "min", "max"):
                assert_same_list(results[0][key], other[key], key)
            for q in (0.25, 0.5, 0.75):
                assert_same_list(
                    results[0]["quantiles"][q], other["quantiles"][q], q
                )

    def test_state_size_independent_of_draws(self):
        rng = np.random.default_rng(6)
        small = feed(rng.normal(size=(100, 50)), exact_buffer=16)
        large = feed(rng.normal(size=(5000, 50)), exact_buffer=16)
        assert small.state_nbytes == large.state_nbytes

    def test_every_lane_equals_scalar_p2_oracle(self):
        """Each lane's streamed quantiles are the scalar histogram sketch fed
        that lane's finite values, bit for bit, wherever the quantile's rank
        lands inside the finite run (every rank of an all-finite lane)."""
        from repro.obs.metrics import _ScalarP2Bank

        quantiles = (0.0, 0.25, 0.5, 0.9, 1.0)
        rows = 400
        rng = np.random.default_rng(19)

        def sprinkle(values, fill, rate):
            values = values.copy()
            values[rng.random(rows) < rate] = fill
            return values

        finite = [
            rng.normal(size=rows),
            rng.lognormal(size=rows),
            rng.uniform(-5.0, 5.0, size=rows),
            rng.normal(scale=1e6, size=rows),
            rng.integers(0, 4, size=rows).astype(np.float64),
            rng.integers(0, 2, size=rows).astype(np.float64),
            np.full(rows, 3.0),
            np.arange(rows, dtype=np.float64),
            np.arange(rows, dtype=np.float64)[::-1].copy(),
            np.round(rng.normal(size=rows), 1),
            rng.exponential(size=rows) * 1e-9,
            rng.uniform(0.0, 1.0, size=rows) ** 8,
        ]
        non_finite = [
            sprinkle(rng.normal(size=rows), np.inf, 0.03),
            sprinkle(rng.normal(size=rows), -np.inf, 0.03),
            sprinkle(sprinkle(rng.normal(size=rows), np.inf, 0.05), -np.inf, 0.05),
            sprinkle(rng.integers(0, 3, size=rows).astype(np.float64), np.inf, 0.1),
            sprinkle(rng.normal(size=rows), np.nan, 0.01),
            sprinkle(rng.integers(0, 3, size=rows).astype(np.float64), np.nan, 0.02),
            sprinkle(np.full(rows, np.inf), 1.5, 0.5),
            sprinkle(np.full(rows, -np.inf), 2.0, 0.99),
            np.where(np.arange(rows) < 3, 7.0, np.inf),
            np.full(rows, np.inf),
        ]
        stacked = np.stack(finite + non_finite, axis=1)
        assert stacked.shape[1] >= 20
        got = feed(stacked, exact_buffer=8, block=13, quantiles=quantiles)
        stats = got.finalize()

        checked = 0
        for lane in range(stacked.shape[1]):
            values = stacked[:, lane]
            fin = values[np.isfinite(values)]
            if np.isnan(values).any():
                for q in quantiles:
                    assert np.isnan(stats["quantiles"][q][lane]), (lane, q)
                continue
            if fin.size < 5:
                continue
            oracle = _ScalarP2Bank(quantiles)
            for value in fin:
                oracle.add(float(value))
            neg = int((values == -np.inf).sum())
            for q in quantiles:
                rank = q * (rows - 1)
                if neg <= np.floor(rank) and np.ceil(rank) < neg + fin.size:
                    assert stats["quantiles"][q][lane] == oracle.estimate(q), (
                        lane, q,
                    )
                    checked += 1
        assert checked >= len(finite) * len(quantiles)

    def test_few_finite_values_fall_back_to_dense_quantile(self):
        """Positions with < 5 finite draws read the init buffer exactly."""
        stacked = np.full((40, 3), np.inf)
        stacked[:, 0] = np.arange(40.0)
        stacked[:3, 1] = [5.0, 1.0, 9.0]  # only 3 finite draws
        got = feed(stacked, exact_buffer=8).finalize()
        assert got["quantiles"][0.5][0] == pytest.approx(19.5, abs=1.5)
        assert np.isnan(got["quantiles"][0.5][2])


class TestValidation:
    def test_rejects_wrong_row_length(self):
        agg = StreamingEnsembleStats(4)
        with pytest.raises(ValueError):
            agg.update(np.zeros((2, 5)))

    def test_rejects_empty_finalize(self):
        with pytest.raises(ValueError):
            StreamingEnsembleStats(4).finalize()

    def test_rejects_negative_buffer(self):
        with pytest.raises(ValueError):
            StreamingEnsembleStats(4, exact_buffer=-1)

    def test_zero_length_positions(self):
        agg = StreamingEnsembleStats(0)
        agg.update(np.zeros((3, 0)))
        stats = agg.finalize()
        assert stats["mean"] == [] and stats["quantiles"][0.5] == []
