"""DeltaStore: stacked-kernel parity, persistence, sharded resume, caching.

The load-bearing contract is float-exactness: the model-independent delta
artifact plus a coefficient gather must reproduce the per-draw weighted
kernels bit for bit, for every connected class and every registry scenario
— otherwise amortised ensembles would silently drift from the per-draw
path they claim to accelerate.
"""

import os

import numpy as np
import pytest

from repro.analysis.delta_store import DeltaStore, cached_delta_store
from repro.engine.shardwork import load_shard
from repro.analysis.scenarios import SCENARIOS, build_scenario, default_t_grid
from repro.analysis.store import clear_store_cache
from repro.analysis.weighted_store import WeightedStore
from repro.costmodels.models import UniformCost
from repro.engine.columnar import (
    weighted_bcg_stable_mask,
    weighted_bcg_stable_mask_multi,
    weighted_stability_windows,
    weighted_stability_windows_multi,
)


def scenario_models(n, seed=7):
    """Every registry scenario valid at this n (some need larger cores)."""
    out = []
    for name in sorted(SCENARIOS):
        try:
            out.append(build_scenario(name, n, seed=seed))
        except ValueError:
            continue
    return out


def probe_columns(store: WeightedStore):
    return (
        store.rem_w, store.rem_delta, store.rem_indptr,
        store.add_w_u, store.add_s_u, store.add_w_v, store.add_s_v,
        store.add_indptr,
    )


class TestStackedKernelParity:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_multi_kernels_match_per_draw_all_scenarios(self, n):
        """Satellite acceptance: float-exact parity for every class n <= 6."""
        delta = DeltaStore.build(n)
        scenarios = scenario_models(n)
        assert scenarios, "registry produced no valid scenarios"
        matrices = [sc.model.coefficient_matrix(n) for sc in scenarios]
        ts = default_t_grid(n, 7)

        mask_multi = delta.stable_mask_multi(matrices, ts)
        counts_multi = delta.stable_counts_multi(matrices, ts)
        t_min_multi, t_max_multi = delta.stability_windows_multi(matrices)

        for k, scenario in enumerate(scenarios):
            store = WeightedStore.from_scenario(scenario)
            columns = probe_columns(store)
            mask = weighted_bcg_stable_mask(*columns, ts)
            t_min, t_max = weighted_stability_windows(*columns)
            assert np.array_equal(mask_multi[k], mask), scenario.name
            assert np.array_equal(
                counts_multi[k], np.asarray(store.stable_counts(ts))
            ), scenario.name
            # Window endpoints must agree bit for bit, infs included.
            assert np.array_equal(t_min_multi[k], t_min), scenario.name
            assert np.array_equal(t_max_multi[k], t_max), scenario.name

    def test_single_matrix_accepted_as_stack_of_one(self):
        delta = DeltaStore.build(4)
        scenario = build_scenario("random_weights", 4, seed=3)
        matrix = scenario.model.coefficient_matrix(4)
        ts = default_t_grid(4, 5)
        one = delta.stable_counts_multi(matrix, ts)
        many = delta.stable_counts_multi([matrix], ts)
        assert one.shape == (1, len(ts))
        assert np.array_equal(one, many)


#: Scale grids for the run-kernel edge cases: integer points (where the
#: class-threshold guesses miss on ties), NaN, ±inf, negative, duplicate,
#: tiny, huge and unsorted points, and the empty grid.
EDGE_GRIDS = {
    "integers": [float(t) for t in range(30)],
    "odd": [
        2.0, float("nan"), 0.5, -1.0, 2.0, float("inf"), 0.0, 7.5, 1e-9,
        float("-inf"), 1e12, 3.0, float("nan"),
    ],
    "empty": [],
}

#: A scale grid reaching below zero, in quarter steps.
NEGATIVE_GRID = [0.25 * j for j in range(-4, 30)]


def random_weight_matrices(n, draws):
    """Coefficient matrices of ``random_weights`` seeds ``0 .. draws - 1``."""
    return [
        build_scenario("random_weights", n, seed=seed).model.coefficient_matrix(n)
        for seed in range(draws)
    ]


def per_draw_masks(rem_delta, rem_indptr, add_s_u, add_s_v, add_indptr,
                   rem_w, add_w_u, add_w_v, ts):
    """The per-draw reference kernel, one draw of the stacks at a time."""
    return [
        weighted_bcg_stable_mask(
            rem_w[k], rem_delta, rem_indptr,
            add_w_u[k], add_s_u, add_w_v[k], add_s_v, add_indptr, ts,
        )
        for k in range(rem_w.shape[0])
    ]


def hand_built_columns(draws):
    """Probe columns with NaN, ±inf, zero and empty segments, K weight rows."""
    nan, inf = float("nan"), float("inf")
    rem_delta = np.array([1.0, nan, inf, 2.0, 0.5, inf, nan, 3.0, 1.0, 1.0])
    rem_indptr = np.array([0, 2, 3, 3, 6, 8, 10])
    add_s_u = np.array([1.0, nan, inf, 2.0, 0.0, 3.0, 1.0, 2.0])
    add_s_v = np.array([2.0, 1.0, 1.0, inf, 0.0, nan, 2.0, 1.0])
    add_indptr = np.array([0, 1, 3, 5, 5, 6, 8])
    rng = np.random.default_rng(draws)
    choices = np.array([0.5, 1.0, 1.0, 2.0, 3.0])
    rem_w = rng.choice(choices, size=(draws, rem_delta.shape[0]))
    add_w_u = rng.choice(choices, size=(draws, add_s_u.shape[0]))
    add_w_v = rng.choice(choices, size=(draws, add_s_u.shape[0]))
    return (rem_delta, rem_indptr, add_s_u, add_s_v, add_indptr,
            rem_w, add_w_u, add_w_v)


class TestStackedMaskRuns:
    """The stacked mask finds each (draw, class) stable run from the class
    window thresholds and checks it exactly; every row must still equal the
    per-t reference kernel, including where those guesses miss."""

    def assert_rows_match(self, delta, matrices, ts):
        multi = delta.stable_mask_multi(matrices, ts)
        rem_w, add_w_u, add_w_v = delta.stacked_weights(matrices)
        expected = per_draw_masks(
            delta.rem_delta, delta.rem_indptr,
            delta.add_s_u, delta.add_s_v, delta.add_indptr,
            rem_w, add_w_u, add_w_v, ts,
        )
        assert multi.shape == (len(expected), len(delta), len(ts))
        for k, mask in enumerate(expected):
            assert np.array_equal(multi[k], mask), k

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("cost", [1.0, 2.0])
    def test_uniform_weights_on_integer_grid(self, n, cost):
        delta = DeltaStore.build(n)
        matrix = UniformCost(cost).coefficient_matrix(n)
        self.assert_rows_match(delta, [matrix], EDGE_GRIDS["integers"])
        mixed = [matrix] * 8 + random_weight_matrices(n, 8)
        self.assert_rows_match(delta, mixed, EDGE_GRIDS["integers"])

    @pytest.mark.parametrize("grid", sorted(EDGE_GRIDS))
    @pytest.mark.parametrize("draws", [1, 16])
    def test_odd_grids(self, grid, draws):
        delta = DeltaStore.build(6)
        matrices = random_weight_matrices(6, draws)
        self.assert_rows_match(delta, matrices, EDGE_GRIDS[grid])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_empty_segments(self, n):
        delta = DeltaStore.build(n)
        matrices = [UniformCost(1.0).coefficient_matrix(n)] * 2
        if n >= 2:
            matrices += random_weight_matrices(n, 3)
        for ts in EDGE_GRIDS.values():
            self.assert_rows_match(delta, matrices, ts)

    @pytest.mark.parametrize("draws", [1, 16])
    def test_hand_built_columns_with_nan_and_inf(self, draws):
        """Non-finite Δ and savings never place a run; rows still match."""
        columns = hand_built_columns(draws)
        for ts in list(EDGE_GRIDS.values()) + [NEGATIVE_GRID]:
            multi = weighted_bcg_stable_mask_multi(*columns, ts)
            for k, mask in enumerate(per_draw_masks(*columns, ts)):
                assert np.array_equal(multi[k], mask), (k, ts)


#: Draw counts around ``DRAW_SLICE`` (8): part of a slice, one slice, one
#: slice plus one draw, two slices.
SLICE_DRAWS = [1, 7, 8, 9, 16]


def mixed_matrices(n, draws):
    """Unit weights first, then ``random_weights`` draws (none below n = 2)."""
    unit = UniformCost(1.0).coefficient_matrix(n)
    if n < 2:
        return [unit] * draws
    return ([unit] + random_weight_matrices(n, draws))[:draws]


class TestWindowsOutput:
    """The stacked mask's ``windows`` output pair holds the bits of both
    window kernels, whatever the slicing, and leaves the mask unchanged."""

    @staticmethod
    def sentinel_pair(draws, classes):
        # -7 is no window value: a row the pass never writes cannot match.
        return np.full((draws, classes), -7.0), np.full((draws, classes), -7.0)

    @staticmethod
    def assert_same_bits(pair, expected):
        for got, want in zip(pair, expected):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def assert_store_windows(self, delta, matrices, ts):
        draws = len(matrices)
        from_mask = self.sentinel_pair(draws, len(delta))
        from_counts = self.sentinel_pair(draws, len(delta))
        mask = delta.stable_mask_multi(matrices, ts, windows=from_mask)
        counts = delta.stable_counts_multi(matrices, ts, windows=from_counts)
        assert mask.tobytes() == delta.stable_mask_multi(matrices, ts).tobytes()
        assert counts.tobytes() == delta.stable_counts_multi(matrices, ts).tobytes()
        expected = delta.stability_windows_multi(matrices)
        self.assert_same_bits(from_mask, expected)
        self.assert_same_bits(from_counts, expected)
        rem_w, add_w_u, add_w_v = delta.stacked_weights(matrices)
        for k in range(draws):
            per_draw = weighted_stability_windows(
                rem_w[k], delta.rem_delta, delta.rem_indptr,
                add_w_u[k], delta.add_s_u, add_w_v[k], delta.add_s_v,
                delta.add_indptr,
            )
            self.assert_same_bits((from_mask[0][k], from_mask[1][k]), per_draw)

    @pytest.mark.parametrize("grid", sorted(EDGE_GRIDS))
    @pytest.mark.parametrize("draws", SLICE_DRAWS)
    def test_edge_grids(self, grid, draws):
        delta = DeltaStore.build(6)
        self.assert_store_windows(
            delta, random_weight_matrices(6, draws), EDGE_GRIDS[grid]
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("draws", SLICE_DRAWS)
    def test_empty_segments(self, n, draws):
        delta = DeltaStore.build(n)
        for ts in EDGE_GRIDS.values():
            self.assert_store_windows(delta, mixed_matrices(n, draws), ts)

    @pytest.mark.parametrize("draws", SLICE_DRAWS)
    def test_hand_built_columns_with_nan_and_inf(self, draws):
        columns = hand_built_columns(draws)
        rem_delta, rem_indptr, add_s_u, add_s_v, add_indptr = columns[:5]
        rem_w, add_w_u, add_w_v = columns[5:]
        expected = weighted_stability_windows_multi(*columns)
        for ts in list(EDGE_GRIDS.values()) + [NEGATIVE_GRID]:
            pair = self.sentinel_pair(draws, rem_indptr.shape[0] - 1)
            mask = weighted_bcg_stable_mask_multi(*columns, ts, windows=pair)
            assert mask.tobytes() == weighted_bcg_stable_mask_multi(
                *columns, ts
            ).tobytes()
            self.assert_same_bits(pair, expected)
            for k in range(draws):
                per_draw = weighted_stability_windows(
                    rem_w[k], rem_delta, rem_indptr,
                    add_w_u[k], add_s_u, add_w_v[k], add_s_v, add_indptr,
                )
                self.assert_same_bits((pair[0][k], pair[1][k]), per_draw)

    @pytest.mark.parametrize(
        "pair",
        [
            (np.zeros((3, 6)), np.zeros((2, 6))),
            (np.zeros((2, 6)), np.zeros((2, 5))),
            (np.zeros((2, 6), dtype=np.float32), np.zeros((2, 6))),
        ],
        ids=["rows", "classes", "float32"],
    )
    def test_rejects_a_misshapen_pair(self, pair):
        with pytest.raises(ValueError, match="windows must be"):
            weighted_bcg_stable_mask_multi(
                *hand_built_columns(2), [1.0], windows=pair
            )


class TestFromDelta:
    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_from_delta_is_column_exact(self, n):
        delta = DeltaStore.build(n)
        for scenario in scenario_models(n):
            direct = WeightedStore.from_scenario(scenario)
            gathered = WeightedStore.from_delta(
                delta, scenario.model, scenario_params=dict(scenario.params)
            )
            for column in (
                "num_edges", "dist_total", "edge_cost_total", "cert_words",
                "rem_w", "rem_delta", "rem_indptr",
                "add_w_u", "add_s_u", "add_w_v", "add_s_v", "add_indptr",
            ):
                assert np.array_equal(
                    np.asarray(getattr(direct, column)),
                    np.asarray(getattr(gathered, column)),
                ), (scenario.name, column)
            assert np.array_equal(direct.weight_matrix, gathered.weight_matrix)
            assert direct.scenario_params == gathered.scenario_params

    def test_from_delta_artifact_round_trips(self, tmp_path):
        """A gathered store saves/loads like a built one (same schema)."""
        delta = DeltaStore.build(4)
        scenario = build_scenario("two_tier_isp", 4, seed=0)
        store = WeightedStore.from_delta(
            delta, scenario.model, scenario_params=dict(scenario.params)
        )
        path = store.save(str(tmp_path / "draw.npz"))
        loaded = WeightedStore.load(path)
        assert loaded.scenario_params == scenario.params
        ts = default_t_grid(4, 5)
        assert loaded.stable_counts(ts) == store.stable_counts(ts)


class TestPersistence:
    def test_verify_and_checksum_stamp(self, tmp_path):
        delta = DeltaStore.build(5)
        audit = delta.verify()
        assert audit["ok"] and audit["errors"] == []
        assert audit["checksum"] == "absent"  # in-memory build, no stamp
        loaded = DeltaStore.load(delta.save(str(tmp_path / "deltas.npz")))
        assert loaded.verify()["checksum"] == "ok"
        # Endpoint indices out of range are a structural failure, not just
        # a checksum one.
        loaded.add_u = loaded.add_u.copy()
        loaded.add_u[0] = 99
        audit = loaded.verify()
        assert not audit["ok"]
        assert any("add_u" in error or "checksum" in error for error in audit["errors"])

    def test_npz_round_trip(self, tmp_path):
        delta = DeltaStore.build(5)
        path = delta.save(str(tmp_path / "deltas.npz"))
        loaded = DeltaStore.load(path)
        for column in (
            "num_edges", "dist_total", "cert_words",
            "rem_delta", "rem_pay", "rem_other", "rem_indptr",
            "add_s_u", "add_s_v", "add_u", "add_v", "add_indptr",
        ):
            assert np.array_equal(
                getattr(loaded, column), getattr(delta, column)
            ), column

    def test_dir_round_trip_with_mmap(self, tmp_path):
        delta = DeltaStore.build(5)
        path = delta.save(str(tmp_path / "deltas"), format="dir")
        assert os.path.isdir(path)
        loaded = DeltaStore.load(path, mmap=True)
        scenario = build_scenario("random_weights", 5, seed=2)
        ts = default_t_grid(5, 6)
        matrix = scenario.model.coefficient_matrix(5)
        assert np.array_equal(
            loaded.stable_counts_multi([matrix], ts),
            delta.stable_counts_multi([matrix], ts),
        )

    def test_mmap_rejected_for_npz(self, tmp_path):
        delta = DeltaStore.build(3)
        path = delta.save(str(tmp_path / "deltas.npz"))
        with pytest.raises(ValueError):
            DeltaStore.load(path, mmap=True)

    def test_rejects_foreign_artifact(self, tmp_path):
        """A weighted-store artifact at the path is refused, not mis-read."""
        scenario = build_scenario("random_weights", 4, seed=0)
        foreign = WeightedStore.from_scenario(scenario)
        path = foreign.save(str(tmp_path / "other.npz"))
        with pytest.raises(ValueError):
            DeltaStore.load(path)

    def test_graph_at_decodes_certificates(self):
        delta = DeltaStore.build(4)
        graphs = [delta.graph_at(i) for i in range(len(delta))]
        assert sorted(g.num_edges for g in graphs) == sorted(
            int(m) for m in delta.num_edges
        )
        assert all(g.n == 4 for g in graphs)


class TestStreamedBuild:
    def test_streamed_equals_build(self):
        direct = DeltaStore.build(5)
        streamed = DeltaStore.build_streamed(5)
        for column in (
            "num_edges", "dist_total", "cert_words",
            "rem_delta", "rem_pay", "rem_other", "rem_indptr",
            "add_s_u", "add_s_v", "add_u", "add_v", "add_indptr",
        ):
            assert np.array_equal(
                getattr(streamed, column), getattr(direct, column)
            ), column

    def test_shard_resume_recomputes_corrupt_shard(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        first = DeltaStore.build_streamed(5, shard_dir=shard_dir)
        shards = sorted(
            f for f in os.listdir(shard_dir) if f.startswith("dshard_")
        )
        assert shards
        # Crash-truncated shard: silently recomputed on resume.
        victim = os.path.join(shard_dir, shards[0])
        with open(victim, "rb") as handle:
            payload = handle.read()
        with open(victim, "wb") as handle:
            handle.write(payload[:40])  # truncate mid-archive
        status, part = load_shard(victim, "irrelevant")
        assert status == "corrupt" and part is None
        with pytest.warns(RuntimeWarning, match="failed validation"):
            second = DeltaStore.build_streamed(5, shard_dir=shard_dir)
        assert np.array_equal(first.rem_delta, second.rem_delta)
        assert np.array_equal(first.cert_words, second.cert_words)

    def test_shard_dir_bound_to_n(self, tmp_path):
        """A readable shard from another n raises instead of merging."""
        shard_dir = str(tmp_path / "shards")
        DeltaStore.build_streamed(4, shard_dir=shard_dir, shard_level=2)
        with pytest.raises(ValueError):
            DeltaStore.build_streamed(5, shard_dir=shard_dir, shard_level=2)


class TestCachedDeltaStore:
    def setup_method(self):
        clear_store_cache()

    def teardown_method(self):
        clear_store_cache()

    def test_build_cache_hit(self):
        first = cached_delta_store(n=4)
        second = cached_delta_store(n=4)
        assert first is second

    def test_load_cache_hit_and_stamp_invalidation(self, tmp_path):
        delta = DeltaStore.build(4)
        path = str(tmp_path / "deltas.npz")
        delta.save(path)
        first = cached_delta_store(path=path)
        assert cached_delta_store(path=path) is first
        # Rewriting the artifact changes the (mtime_ns, size) stamp.
        DeltaStore.build(4).save(path)
        os.utime(path, ns=(1, 1))
        assert cached_delta_store(path=path) is not first

    def test_requires_exactly_one_of_n_and_path(self, tmp_path):
        with pytest.raises(ValueError):
            cached_delta_store()
        with pytest.raises(ValueError):
            cached_delta_store(n=4, path=str(tmp_path / "x.npz"))

    def test_shares_budget_with_census_cache(self):
        """Delta entries live in the same LRU as cached_store entries."""
        from repro.analysis import artifact

        cached_delta_store(n=3)
        assert any(key[0] == "delta-build" for key in artifact._STORE_CACHE)


class TestOrdering:
    def test_sort_canonical_is_identity_on_built_store(self):
        delta = DeltaStore.build(5)
        sorted_store = delta.sort_canonical()
        for column in ("num_edges", "cert_words", "rem_delta", "rem_indptr"):
            assert np.array_equal(
                getattr(sorted_store, column), getattr(delta, column)
            ), column

    def test_permute_round_trip(self):
        delta = DeltaStore.build(4)
        order = np.arange(len(delta))[::-1].copy()
        reversed_store = delta.permute(order)
        restored = reversed_store.permute(order)
        for column in (
            "num_edges", "dist_total", "cert_words",
            "rem_delta", "rem_pay", "rem_other", "rem_indptr",
            "add_s_u", "add_s_v", "add_u", "add_v", "add_indptr",
        ):
            assert np.array_equal(
                getattr(restored, column), getattr(delta, column)
            ), column
