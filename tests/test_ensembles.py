"""Determinism and aggregation tests for the seeded ensemble runner.

The acceptance contract: the same base seed produces **identical**
summaries for any worker count (``jobs=1`` vs ``jobs=4``), per-draw
artifacts round-trip, and the segmented aggregation kernel matches a
by-hand computation.
"""

import os

import numpy as np
import pytest

from repro.analysis.ensembles import EnsembleResult, ensemble_seeds, run_ensemble
from repro.analysis.scenarios import build_scenario
from repro.analysis.weighted_store import WeightedStore
from repro.engine.columnar import ensemble_stats


def same_list(a, b):
    return len(a) == len(b) and all(
        (x != x and y != y) or x == y for x, y in zip(a, b)
    )


def assert_stats_equal(a, b):
    """Float-exact (nan-aware: all-inf window columns have nan spread)."""
    for key in ("mean", "std", "min", "max"):
        assert same_list(a[key], b[key]), key
    assert a["quantiles"].keys() == b["quantiles"].keys()
    for q in a["quantiles"]:
        assert same_list(a["quantiles"][q], b["quantiles"][q]), q


def assert_results_equal(a: EnsembleResult, b: EnsembleResult):
    assert (a.scenario, a.n, a.draws, a.seeds, a.ts) == (
        b.scenario, b.n, b.draws, b.seeds, b.ts,
    )
    assert np.array_equal(a.counts, b.counts)
    assert_stats_equal(a.count_stats, b.count_stats)
    assert_stats_equal(a.t_min_stats, b.t_min_stats)
    assert_stats_equal(a.t_max_stats, b.t_max_stats)


class TestEnsembleStatsKernel:
    def test_matches_hand_computation(self):
        rows = [[1.0, 4.0], [3.0, 8.0], [2.0, 0.0]]
        values = np.asarray([v for row in rows for v in row])
        indptr = np.asarray([0, 2, 4, 6])
        stats = ensemble_stats(values, indptr, quantiles=(0.5,))
        assert stats["mean"] == [2.0, 4.0]
        assert stats["min"] == [1.0, 0.0]
        assert stats["max"] == [3.0, 8.0]
        assert stats["quantiles"][0.5] == [2.0, 4.0]
        expected_std = np.asarray(rows).std(axis=0).tolist()
        assert stats["std"] == expected_std

    def test_rejects_ragged_segments(self):
        with pytest.raises(ValueError):
            ensemble_stats(np.arange(5.0), np.asarray([0, 2, 5]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ensemble_stats(np.zeros(0), np.zeros(1, dtype=np.int64))

    def test_all_inf_column_has_inf_mean_nan_std(self):
        inf = float("inf")
        stats = ensemble_stats(
            np.asarray([1.0, inf, 2.0, inf]), np.asarray([0, 2, 4])
        )
        assert stats["mean"][1] == inf
        assert stats["std"][1] != stats["std"][1]  # nan


class TestSeeds:
    def test_consecutive(self):
        assert ensemble_seeds(5, 3) == [5, 6, 7]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ensemble_seeds(0, 0)


class TestDeterminism:
    def test_acceptance_n6_k8_serial_equals_pooled(self):
        """Acceptance: random_weights n = 6, K = 8 — identical serial/pooled."""
        serial = run_ensemble("random_weights", n=6, draws=8, seed=0, grid=6, jobs=1)
        pooled = run_ensemble("random_weights", n=6, draws=8, seed=0, grid=6, jobs=4)
        assert_results_equal(serial, pooled)
        assert serial.draws == 8 and serial.classes == 112

    def test_draw_k_equals_single_sweep_seed_plus_k(self):
        """Draw k of base seed s is exactly the single sweep with seed s+k."""
        result = run_ensemble("random_weights", n=5, draws=3, seed=4, grid=5)
        for k, draw_seed in enumerate(result.seeds):
            scenario = build_scenario("random_weights", 5, seed=draw_seed)
            store = WeightedStore.from_scenario(scenario)
            assert np.array_equal(
                result.counts[k], np.asarray(store.stable_counts(result.ts))
            )

    def test_extra_params_forwarded(self):
        narrow = run_ensemble(
            "random_weights", n=5, draws=2, seed=0, grid=4,
            params={"low": 1.0, "high": 1.0 + 1e-9},
        )
        # With an (almost) uniform draw distribution both draws coincide.
        assert np.array_equal(narrow.counts[0], narrow.counts[1])
        assert narrow.params == {"low": 1.0, "high": 1.0 + 1e-9}


class TestAmortisedPath:
    def test_serial_pooled_batched_all_identical(self):
        """Satellite acceptance: serial ≡ pooled ≡ batched, any batch size."""
        reference = run_ensemble(
            "random_weights", n=5, draws=8, seed=1, grid=5, jobs=1, batch_draws=1
        )
        for jobs, batch_draws in ((1, 3), (1, 8), (4, 3), (4, 8)):
            other = run_ensemble(
                "random_weights", n=5, draws=8, seed=1, grid=5,
                jobs=jobs, batch_draws=batch_draws,
            )
            assert_results_equal(reference, other)

    def test_counts_is_int64_ndarray(self):
        result = run_ensemble("random_weights", n=4, draws=3, seed=0, grid=4)
        assert isinstance(result.counts, np.ndarray)
        assert result.counts.dtype == np.int64
        assert result.counts.shape == (3, 4)
        # ...and round-trips through a raw buffer unchanged.
        restored = np.frombuffer(
            result.counts.tobytes(), dtype=np.int64
        ).reshape(result.counts.shape)
        assert np.array_equal(restored, result.counts)

    def test_explicit_delta_store_reused(self):
        from repro.analysis.delta_store import DeltaStore

        delta = DeltaStore.build(5)
        with_delta = run_ensemble(
            "random_weights", n=5, draws=4, seed=3, grid=5, delta=delta
        )
        without = run_ensemble("random_weights", n=5, draws=4, seed=3, grid=5)
        assert_results_equal(with_delta, without)

    def test_delta_store_n_mismatch_raises(self):
        from repro.analysis.delta_store import DeltaStore

        with pytest.raises(ValueError):
            run_ensemble(
                "random_weights", n=5, draws=2, delta=DeltaStore.build(4)
            )

    def test_delta_cache_written_then_mmapped(self, tmp_path):
        from repro.analysis.delta_store import DeltaStore

        cache = str(tmp_path / "deltas")
        first = run_ensemble(
            "random_weights", n=5, draws=3, seed=0, grid=5, delta_cache=cache
        )
        assert os.path.isdir(cache)
        DeltaStore.load(cache, mmap=True)  # valid mmap-able dir artifact
        stamp = os.path.getmtime(os.path.join(cache, "meta.json"))
        second = run_ensemble(
            "random_weights", n=5, draws=3, seed=0, grid=5, delta_cache=cache
        )
        assert_results_equal(first, second)
        assert os.path.getmtime(os.path.join(cache, "meta.json")) == stamp

    def test_streamed_window_stats_regimes(self):
        """Past the exact buffer: counts/moments exact, quantiles sketched."""
        exact = run_ensemble(
            "random_weights", n=4, draws=12, seed=0, grid=4,
            window_exact_buffer=64,
        )
        streamed = run_ensemble(
            "random_weights", n=4, draws=12, seed=0, grid=4,
            window_exact_buffer=4,
        )
        assert np.array_equal(exact.counts, streamed.counts)
        assert_stats_equal(exact.count_stats, streamed.count_stats)
        for key in ("mean", "min", "max"):
            assert same_list(
                exact.t_min_stats[key], streamed.t_min_stats[key]
            ), key
            assert same_list(
                exact.t_max_stats[key], streamed.t_max_stats[key]
            ), key
        for stats_pair in (
            (exact.t_min_stats, streamed.t_min_stats),
            (exact.t_max_stats, streamed.t_max_stats),
        ):
            dense, sketch = stats_pair
            for q in (0.25, 0.5, 0.75):
                a = np.asarray(dense["quantiles"][q])
                b = np.asarray(sketch["quantiles"][q])
                finite = np.isfinite(a) & np.isfinite(b)
                assert np.isnan(a).sum() == np.isnan(b).sum()
                assert np.allclose(a[finite], b[finite], atol=2.0), q

    def test_rejects_bad_batch_draws(self):
        with pytest.raises(ValueError):
            run_ensemble("random_weights", n=4, draws=2, batch_draws=0)


class TestArtifacts:
    def test_save_then_resume_reuses_artifacts(self, tmp_path):
        save_dir = str(tmp_path / "draws")
        first = run_ensemble(
            "random_weights", n=5, draws=3, seed=2, grid=5, save_dir=save_dir
        )
        assert first.artifact_paths is not None
        assert all(os.path.exists(path) for path in first.artifact_paths)
        stamps = {path: os.path.getmtime(path) for path in first.artifact_paths}
        second = run_ensemble(
            "random_weights", n=5, draws=3, seed=2, grid=5, save_dir=save_dir
        )
        assert_results_equal(first, second)
        # Untouched artifacts prove the draws were loaded, not recomputed.
        assert stamps == {
            path: os.path.getmtime(path) for path in second.artifact_paths
        }

    def test_foreign_artifact_is_recomputed(self, tmp_path):
        """An artifact from another recipe at a colliding path is replaced."""
        save_dir = str(tmp_path / "draws")
        reference = run_ensemble(
            "random_weights", n=5, draws=2, seed=2, grid=5, save_dir=save_dir
        )
        victim = reference.artifact_paths[0]
        WeightedStore.from_scenario(
            build_scenario("random_weights", 5, seed=99)
        ).save(victim)
        again = run_ensemble(
            "random_weights", n=5, draws=2, seed=2, grid=5, save_dir=save_dir
        )
        assert_results_equal(reference, again)
        assert WeightedStore.load(victim).scenario_params["seed"] == 2

    def test_dir_format_artifacts(self, tmp_path):
        save_dir = str(tmp_path / "draws")
        result = run_ensemble(
            "random_weights", n=4, draws=2, seed=0, grid=4,
            save_dir=save_dir, save_format="dir",
        )
        for path in result.artifact_paths:
            assert os.path.isdir(path)
            WeightedStore.load(path, mmap=True)

    def test_rejects_bad_save_format(self, tmp_path):
        with pytest.raises(ValueError):
            run_ensemble(
                "random_weights", n=4, draws=1, save_dir=str(tmp_path),
                save_format="parquet",
            )

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            run_ensemble("random_weights", n=4, draws=0)

    def test_resume_tallies_are_audited(self, tmp_path):
        """Satellite acceptance: resumed/recomputed surface on the result."""
        save_dir = str(tmp_path / "draws")
        first = run_ensemble(
            "random_weights", n=5, draws=4, seed=2, grid=5, save_dir=save_dir
        )
        assert (first.resumed, first.recomputed) == (0, 4)
        second = run_ensemble(
            "random_weights", n=5, draws=4, seed=2, grid=5, save_dir=save_dir
        )
        assert (second.resumed, second.recomputed) == (4, 0)
        # Without save_dir everything is computed fresh.
        ephemeral = run_ensemble("random_weights", n=5, draws=4, seed=2, grid=5)
        assert (ephemeral.resumed, ephemeral.recomputed) == (0, 4)

    def test_resume_after_corrupt_artifact(self, tmp_path):
        """Satellite acceptance: a torn artifact is recomputed, not fatal."""
        save_dir = str(tmp_path / "draws")
        reference = run_ensemble(
            "random_weights", n=5, draws=3, seed=2, grid=5, save_dir=save_dir
        )
        victim = reference.artifact_paths[1]
        with open(victim, "rb") as handle:
            payload = handle.read()
        with open(victim, "wb") as handle:
            handle.write(payload[:40])  # truncate mid-archive
        again = run_ensemble(
            "random_weights", n=5, draws=3, seed=2, grid=5, save_dir=save_dir
        )
        assert_results_equal(reference, again)
        assert (again.resumed, again.recomputed) == (2, 1)
        # The torn artifact was rewritten and loads cleanly now.
        assert WeightedStore.load(victim).scenario_params["seed"] == 3
