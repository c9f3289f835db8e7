"""Element-for-element parity tests for the columnar census store.

The contract under test: every answer of :class:`repro.analysis.store.CensusStore`
— stability masks, Nash masks, equilibrium counts, PoA and link-count
aggregates, reconstructed graphs — equals the per-graph reference
implementations **exactly** (float equality, not approximate), including
after a save → load round trip in a separate process.  The references are
:func:`pairwise_stability_profile` (one BFS per removal probe),
:func:`ucg_nash_alpha_set` (the backtracking orientation search) and the
:mod:`repro.core.anarchy` aggregates, run on fresh graph instances with a
private :class:`DistanceOracle`, so nothing they return was computed by the
batch kernels the store is built from.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.figure_series import (
    FigureData,
    FigureSeries,
    SeriesPoint,
    census_figure_series,
)
from repro.analysis.store import (
    CensusStore,
    bcg_alpha_columns,
    cached_store,
    clear_store_cache,
)
from repro.analysis.sweeps import (
    aligned_link_costs,
    log_spaced_alphas,
    per_edge_cost_axis,
)
from repro.core.anarchy import average_price_of_anarchy, worst_case_price_of_anarchy
from repro.core.stability_intervals import pairwise_stability_profile
from repro.core.unilateral import ucg_nash_alpha_set
from repro.engine import DistanceOracle
from repro.graphs import (
    Graph,
    cycle_graph,
    enumerate_connected_graphs,
    petersen_graph,
    star_graph,
)

#: All store columns (UCG ones included when present).
COLUMNS = (
    "num_edges",
    "dist_total",
    "cert_words",
    "rem_values",
    "rem_indptr",
    "add_lo",
    "add_hi",
    "add_indptr",
    "ucg_lo",
    "ucg_hi",
    "ucg_indptr",
)


def assert_columns_equal(first: CensusStore, second: CensusStore) -> None:
    assert first.n == second.n
    assert first.include_ucg == second.include_ucg
    for name in COLUMNS:
        a, b = getattr(first, name), getattr(second, name)
        if a is None or b is None:
            assert a is None and b is None, name
            continue
        assert np.array_equal(a, b), name


class Reference:
    """Per-graph answers for every connected class on ``n`` vertices.

    Graphs are rebuilt from their edge lists, so no memo the enumerator or
    the batch engine left on the cached instances (canonical records, UCG
    interval sets) can leak in, and a private oracle keeps the shared
    default's delta cache out.
    """

    def __init__(self, n: int, include_ucg: bool) -> None:
        oracle = DistanceOracle()
        self.n = n
        self.graphs = [
            Graph(g.n, g.sorted_edges()) for g in enumerate_connected_graphs(n)
        ]
        self.profiles = [
            pairwise_stability_profile(g, oracle=oracle) for g in self.graphs
        ]
        self.ucg_sets = (
            [ucg_nash_alpha_set(g, oracle=oracle) for g in self.graphs]
            if include_ucg
            else None
        )

    def __len__(self) -> int:
        return len(self.graphs)

    def members(self, alpha: float, game: str):
        if game == "bcg":
            return [profile.is_stable_at(alpha) for profile in self.profiles]
        return [ucg_set.contains(alpha) for ucg_set in self.ucg_sets]

    def equilibrium_graphs(self, alpha: float, game: str):
        return [g for g, m in zip(self.graphs, self.members(alpha, game)) if m]

    def aggregates(self, alpha: float, game: str):
        graphs = self.equilibrium_graphs(alpha, game)
        return {
            "counts": len(graphs),
            "average_poa": average_price_of_anarchy(graphs, alpha, game),
            "worst_poa": worst_case_price_of_anarchy(graphs, alpha, game),
            "average_links": (
                sum(g.num_edges for g in graphs) / len(graphs)
                if graphs
                else float("nan")
            ),
        }

    def edge_count_histogram(self, alpha: float, game: str):
        histogram = {}
        for graph in self.equilibrium_graphs(alpha, game):
            histogram[graph.num_edges] = histogram.get(graph.num_edges, 0) + 1
        return dict(sorted(histogram.items()))

    def figure(self, quantity: str, costs):
        """The Figure 2/3 series, one reference aggregate per grid point."""
        series = {}
        for game in ("ucg", "bcg"):
            series[game] = FigureSeries(game=game, quantity=quantity)
            for cost in costs:
                alpha = aligned_link_costs(cost)[0 if game == "ucg" else 1]
                aggregates = self.aggregates(alpha, game)
                series[game].points.append(
                    SeriesPoint(
                        alpha=alpha,
                        axis=per_edge_cost_axis(alpha, game),
                        value=aggregates[quantity],
                        num_equilibria=aggregates["counts"],
                    )
                )
        return FigureData(
            n=self.n,
            quantity=quantity,
            ucg=series["ucg"],
            bcg=series["bcg"],
            description=(
                f"exhaustive census of all connected topologies on {self.n} vertices"
            ),
        )


def alpha_grid(reference: Reference):
    """A log grid plus the exact window endpoints of a few classes.

    Querying *at* α_min/α_max exercises the tolerance folding of the
    Definition 3 comparisons, where an off-by-one-ulp kernel would diverge
    from the per-graph profiles.
    """
    grid = [0.2 * (36 / 0.2) ** (k / 8) for k in range(9)]
    grid += [1.0, 1.0 + 1e-9, 1.0 - 1e-9]
    for profile in reference.profiles[:: max(1, len(reference) // 7)]:
        for endpoint in profile.stability_interval():
            if endpoint == endpoint and endpoint not in (float("inf"),):
                grid.append(endpoint)
                grid.append(endpoint + 1e-13)
    return [alpha for alpha in grid if alpha > 0]


def same(a: float, b: float) -> bool:
    """Exact equality, with nan == nan."""
    return (a != a and b != b) or a == b


@pytest.fixture(scope="module")
def reference6():
    return Reference(6, include_ucg=True)


@pytest.fixture(scope="module")
def store6():
    return CensusStore.build(6)


@pytest.fixture(scope="module")
def reference7():
    return Reference(7, include_ucg=False)


@pytest.fixture(scope="module")
def store7():
    return CensusStore.build(7, include_ucg=False)


class TestBuildPaths:
    def test_build_identical_for_any_jobs(self, store6):
        assert_columns_equal(store6, CensusStore.build(6, jobs=2))

    @pytest.mark.parametrize("n", range(0, 6))
    def test_streamed_equals_build(self, n):
        assert_columns_equal(
            CensusStore.build(n), CensusStore.build_streamed(n)
        )

    def test_streamed_any_shard_level_and_jobs(self):
        reference = CensusStore.build(6, include_ucg=False)
        for shard_level in (0, 3, 6):
            assert_columns_equal(
                reference,
                CensusStore.build_streamed(
                    6, include_ucg=False, shard_level=shard_level, batch_size=17
                ),
            )
        assert_columns_equal(
            reference, CensusStore.build_streamed(6, include_ucg=False, jobs=2)
        )

    def test_shard_dir_resume(self, tmp_path):
        shard_dir = tmp_path / "shards"
        first = CensusStore.build_streamed(
            5, include_ucg=False, shard_dir=str(shard_dir)
        )
        shards = sorted(
            name for name in os.listdir(shard_dir) if name.startswith("shard_")
        )
        assert shards and all(name.endswith(".npz") for name in shards)
        assert (shard_dir / "manifest.json").exists()
        # Second run consumes the persisted shards instead of recomputing.
        resumed = CensusStore.build_streamed(
            5, include_ucg=False, shard_dir=str(shard_dir)
        )
        assert_columns_equal(first, resumed)
        assert_columns_equal(first, CensusStore.build(5, include_ucg=False))

    def test_shard_dir_recovers_from_truncated_shard(self, tmp_path):
        """A shard torn by a crash is recomputed, not fatal and not trusted."""
        shard_dir = tmp_path / "shards"
        reference = CensusStore.build_streamed(
            5, include_ucg=False, shard_dir=str(shard_dir)
        )
        victim = sorted(shard_dir.glob("shard_*.npz"))[0]
        victim.write_bytes(victim.read_bytes()[:40])  # truncate mid-archive
        with pytest.warns(RuntimeWarning, match="failed validation"):
            resumed = CensusStore.build_streamed(
                5, include_ucg=False, shard_dir=str(shard_dir)
            )
        assert_columns_equal(reference, resumed)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            CensusStore.build_streamed(-1)

    def test_shard_dir_rejects_foreign_shards(self, tmp_path):
        """Shards carry n/include_ucg metadata; a reused dir must not merge.

        ``shard_level`` is pinned so both builds produce colliding
        ``shard_XXXX_of_YYYY.npz`` names — the silent-corruption shape the
        metadata check exists for.
        """
        shard_dir = str(tmp_path / "shards")
        CensusStore.build_streamed(
            4, include_ucg=False, shard_level=2, shard_dir=shard_dir
        )
        with pytest.raises(ValueError):
            CensusStore.build_streamed(
                5, include_ucg=False, shard_level=2, shard_dir=shard_dir
            )
        with pytest.raises(ValueError):
            CensusStore.build_streamed(
                4, include_ucg=True, shard_level=2, shard_dir=shard_dir
            )

    def test_graph_reconstruction_roundtrip(self, reference6, store6):
        assert len(store6) == len(reference6)
        for index, graph in enumerate(reference6.graphs):
            assert store6.graph_at(index) == graph

    def test_cached_store_reuses_instances(self):
        clear_store_cache()
        first = cached_store(4)
        assert cached_store(4) is first
        assert cached_store(4, include_ucg=False) is not first
        clear_store_cache()


class TestStoreCache:
    """Regression: the cache is bounded and keys carry the load options."""

    def test_load_options_are_part_of_the_key(self, tmp_path):
        """A resident load and a mapped load of one artifact must not
        collide — a cache hit used to hand back whichever came first."""
        from repro.analysis import artifact

        path = CensusStore.build(4, include_ucg=False).save(
            str(tmp_path / "census4_dir"), format="dir"
        )
        clear_store_cache()
        resident = cached_store(path=path)
        mapped = cached_store(path=path, mmap=True)
        assert resident is not mapped
        assert isinstance(mapped.num_edges, np.memmap)
        assert not isinstance(resident.num_edges, np.memmap)
        assert cached_store(path=path) is resident
        assert cached_store(path=path, mmap=True) is mapped
        assert len(artifact._STORE_CACHE) == 2
        clear_store_cache()

    def test_rewritten_artifact_misses_the_cache(self, tmp_path):
        """An artifact regenerated in place must not serve stale columns."""
        path = str(tmp_path / "census.npz")
        CensusStore.build(3, include_ucg=False).save(path)
        clear_store_cache()
        assert cached_store(path=path).n == 3
        os.utime(path, ns=(1, 1))  # decouple from filesystem mtime granularity
        CensusStore.build(4, include_ucg=False).save(path)
        assert cached_store(path=path).n == 4
        clear_store_cache()

    def test_build_and_load_keys_do_not_collide(self, tmp_path):
        path = CensusStore.build(4, include_ucg=False).save(
            str(tmp_path / "census4.npz")
        )
        clear_store_cache()
        built = cached_store(4, include_ucg=False)
        loaded = cached_store(path=path)
        assert built is not loaded
        assert_columns_equal(built, loaded)
        clear_store_cache()

    def test_cache_is_lru_bounded(self, tmp_path, monkeypatch):
        from repro.analysis import artifact

        path = CensusStore.build(3, include_ucg=False).save(
            str(tmp_path / "census3.npz")
        )
        monkeypatch.setattr(artifact, "STORE_CACHE_MAX", 2)
        clear_store_cache()
        first = cached_store(3, include_ucg=False)
        second = cached_store(path=path)
        assert len(artifact._STORE_CACHE) == 2
        # Touch `first` so `second` is the least recently used entry…
        assert cached_store(3, include_ucg=False) is first
        cached_store(4, include_ucg=False)  # …and gets evicted here.
        assert len(artifact._STORE_CACHE) == 2
        assert cached_store(3, include_ucg=False) is first
        assert cached_store(path=path) is not second
        clear_store_cache()

    def test_clear_store_cache_empties(self):
        from repro.analysis import artifact

        clear_store_cache()
        cached_store(4)
        assert artifact._STORE_CACHE
        clear_store_cache()
        assert not artifact._STORE_CACHE

    def test_requires_exactly_one_of_n_and_path(self, tmp_path):
        with pytest.raises(ValueError):
            cached_store()
        path = CensusStore.build(3, include_ucg=False).save(
            str(tmp_path / "census3.npz")
        )
        with pytest.raises(ValueError):
            cached_store(3, path=path)


class TestMaskParity:
    def test_bcg_mask_matches_records(self, reference6, store6):
        alphas = alpha_grid(reference6)
        mask = store6.stable_mask(alphas, "bcg")
        assert mask.shape == (len(reference6), len(alphas))
        for column, alpha in enumerate(alphas):
            expected = reference6.members(alpha, "bcg")
            assert mask[:, column].tolist() == expected, alpha

    def test_ucg_mask_matches_records(self, reference6, store6):
        alphas = alpha_grid(reference6)
        mask = store6.stable_mask(alphas, "ucg")
        for column, alpha in enumerate(alphas):
            expected = reference6.members(alpha, "ucg")
            assert mask[:, column].tolist() == expected, alpha

    def test_bcg_mask_matches_records_n7(self, reference7, store7):
        alphas = alpha_grid(reference7)
        mask = store7.stable_mask(alphas, "bcg")
        for column, alpha in enumerate(alphas):
            expected = reference7.members(alpha, "bcg")
            assert mask[:, column].tolist() == expected, alpha

    def test_ucg_query_requires_ucg_columns(self, store7):
        with pytest.raises(ValueError):
            store7.stable_mask([1.0], "ucg")
        with pytest.raises(ValueError):
            store7.nash_graphs_ucg(1.0)

    def test_invalid_game_name(self, store6):
        with pytest.raises(ValueError):
            store6.stable_mask([1.0], "xyz")

    def test_stability_windows_match_profiles(self, reference6, store6):
        alpha_min, alpha_max = store6.stability_windows()
        for index, profile in enumerate(reference6.profiles):
            assert alpha_min[index] == profile.alpha_min
            assert alpha_max[index] == profile.alpha_max


class TestAggregateParity:
    def test_aggregates_identical(self, reference6, store6):
        alphas = alpha_grid(reference6)
        for game in ("bcg", "ucg"):
            aggregates = store6.grid_aggregates(alphas, game)
            for k, alpha in enumerate(alphas):
                expected = reference6.aggregates(alpha, game)
                assert aggregates["counts"][k] == expected["counts"]
                for key in ("average_poa", "worst_poa", "average_links"):
                    assert same(aggregates[key][k], expected[key]), (alpha, game, key)

    @pytest.mark.skipif(
        not os.environ.get("REPRO_SLOW_TESTS"),
        reason="the n=8 reference sweep takes ~30s; set REPRO_SLOW_TESTS=1 to run",
    )
    def test_aggregates_identical_n8(self):
        """The 24-point Figure 2/3 BCG sweep over all 11,117 classes on 8
        vertices, from the streamed build."""
        reference = Reference(8, include_ucg=False)
        store = CensusStore.build_streamed(8, include_ucg=False)
        alphas = log_spaced_alphas(0.2, 128.0, 24)
        aggregates = store.grid_aggregates(alphas, "bcg")
        for k, alpha in enumerate(alphas):
            expected = reference.aggregates(alpha, "bcg")
            assert aggregates["counts"][k] == expected["counts"]
            for key in ("average_poa", "worst_poa", "average_links"):
                assert same(aggregates[key][k], expected[key]), (alpha, key)

    def test_scalar_compat_methods(self, reference6, store6):
        alpha = 2.5
        for game in ("bcg", "ucg"):
            expected = reference6.aggregates(alpha, game)
            assert store6.equilibrium_count(alpha, game) == expected["counts"]
            assert same(
                store6.average_price_of_anarchy(alpha, game), expected["average_poa"]
            )
            assert same(
                store6.worst_price_of_anarchy(alpha, game), expected["worst_poa"]
            )
            assert same(
                store6.average_num_links(alpha, game), expected["average_links"]
            )
            assert store6.edge_count_histogram(
                alpha, game
            ) == reference6.edge_count_histogram(alpha, game)

    def test_equilibrium_graphs_identical(self, reference6, store6):
        for alpha in (0.5, 1.5, 3.0, 12.0):
            for game in ("bcg", "ucg"):
                expected = [
                    g.edge_key() for g in reference6.equilibrium_graphs(alpha, game)
                ]
                observed = [
                    g.edge_key() for g in store6.equilibrium_graphs(alpha, game)
                ]
                assert observed == expected

    def test_figure_series_identical(self, reference6, store6):
        costs = [0.5, 1.0, 2.0, 7.0, 40.0]
        for quantity in ("average_poa", "worst_poa", "average_links"):
            assert census_figure_series(
                store6, quantity, costs
            ) == reference6.figure(quantity, costs)

    def test_figure_series_rejects_unknown_quantity(self, store6):
        with pytest.raises(ValueError):
            census_figure_series(store6, "median_poa", [1.0])


class TestPersistence:
    def test_npz_roundtrip(self, store6, tmp_path):
        path = store6.save(str(tmp_path / "census6.npz"))
        assert_columns_equal(store6, CensusStore.load(path))

    def test_verify_and_checksum_stamp(self, store6, tmp_path):
        audit = store6.verify()
        assert audit["ok"] and audit["errors"] == []
        assert audit["checksum"] == "absent"  # in-memory build, no stamp
        path = store6.save(str(tmp_path / "census6.npz"))
        loaded = CensusStore.load(path)
        assert loaded.verify()["checksum"] == "ok"
        # In-place corruption flips the audit, not just the load.
        loaded.dist_total = loaded.dist_total.copy()
        loaded.dist_total[0] += 1
        audit = loaded.verify()
        assert not audit["ok"]
        assert audit["checksum"] == "mismatch"

    def test_npz_suffix_added(self, store6, tmp_path):
        path = store6.save(str(tmp_path / "census6"), format="npz")
        assert path.endswith(".npz") and os.path.exists(path)

    def test_dir_roundtrip_with_mmap(self, store6, tmp_path):
        path = store6.save(str(tmp_path / "census6_dir"), format="dir")
        assert os.path.isdir(path)
        loaded = CensusStore.load(path, mmap=True)
        assert_columns_equal(store6, loaded)
        # mmap-backed columns answer queries like resident ones.
        assert loaded.stable_mask([2.0], "bcg").tolist() == store6.stable_mask(
            [2.0], "bcg"
        ).tolist()

    def test_mmap_requires_dir_format(self, store6, tmp_path):
        path = store6.save(str(tmp_path / "census6.npz"))
        with pytest.raises(ValueError):
            CensusStore.load(path, mmap=True)

    def test_rejects_foreign_npz(self, tmp_path):
        path = str(tmp_path / "foreign.npz")
        np.savez(path, data=np.arange(3))
        with pytest.raises(ValueError):
            CensusStore.load(path)

    def test_rejects_future_format_version(self, store6, tmp_path):
        path = str(tmp_path / "dir_v999")
        store6.save(path, format="dir")
        meta_path = os.path.join(path, "meta.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["format_version"] = 999
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        with pytest.raises(ValueError):
            CensusStore.load(path)

    def test_roundtrip_in_fresh_process(self, reference6, store6, tmp_path):
        """build → save → load in a separate interpreter → query parity."""
        path = store6.save(str(tmp_path / "census6.npz"))
        alphas = [0.4, 1.0, 2.0, 5.0, 20.0]
        script = (
            "import json, sys\n"
            "from repro.analysis.store import CensusStore\n"
            f"store = CensusStore.load({path!r})\n"
            f"alphas = {alphas!r}\n"
            "out = {\n"
            "    'bcg': store.stable_mask(alphas, 'bcg').tolist(),\n"
            "    'ucg': store.stable_mask(alphas, 'ucg').tolist(),\n"
            "    'agg': store.grid_aggregates(alphas, 'bcg'),\n"
            "}\n"
            "json.dump(out, sys.stdout)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        out = json.loads(result.stdout)
        for game in ("bcg", "ucg"):
            columns = [reference6.members(alpha, game) for alpha in alphas]
            assert out[game] == [list(row) for row in zip(*columns)]
        for k, alpha in enumerate(alphas):
            expected = reference6.aggregates(alpha, "bcg")
            assert out["agg"]["counts"][k] == expected["counts"]
            assert same(out["agg"]["average_poa"][k], expected["average_poa"])


class TestOrdering:
    def test_permute_then_sort_restores_order(self, store6):
        rng = np.random.default_rng(0)
        order = rng.permutation(len(store6))
        shuffled = store6.permute(order)
        assert_columns_equal(shuffled.sort_canonical(), store6)

    def test_canonical_order_matches_class_sort_key(self, store6):
        from repro.graphs import class_sort_key

        keys = [class_sort_key(store6.graph_at(i)) for i in range(len(store6))]
        assert keys == sorted(keys)


class TestSegmentKernels:
    def test_trailing_and_interior_empty_segments(self):
        """Empty CSR segments must not truncate their neighbours' reductions.

        Regression: clipping an out-of-range start of a trailing empty
        segment used to end the *previous* segment's reduceat one element
        early, silently corrupting every mask/window built from a batch
        whose last class had an empty payload (e.g. a complete graph's
        non-edge column).
        """
        from repro.engine.columnar import segment_any, segment_max, segment_min

        flags = np.array([False, False, True])
        indptr = np.array([0, 3, 3])
        assert segment_any(flags, indptr).tolist() == [True, False]
        assert segment_any(
            np.array([True, False]), np.array([0, 0, 1, 1, 2, 2])
        ).tolist() == [False, True, False, False, False]
        values = np.array([5.0, 2.0, 7.0])
        assert segment_min(values, np.array([0, 2, 2, 3])).tolist() == [
            2.0,
            float("inf"),
            7.0,
        ]
        assert segment_max(values, np.array([0, 3, 3]), empty=0.0).tolist() == [
            7.0,
            0.0,
        ]

    def test_batch_ending_with_complete_graph(self):
        """End-to-end shape of the regression: complete graph last in batch."""
        from repro.engine.columnar import bcg_stable_mask, stability_windows
        from repro.graphs import Graph, complete_graph

        graphs = [Graph(5, [(0, 3), (0, 1), (1, 2), (2, 4)]), complete_graph(4)]
        profiles = [pairwise_stability_profile(g) for g in graphs]
        rem_min, add_lo, add_hi, add_indptr = bcg_alpha_columns(profiles)
        alpha_min, alpha_max = stability_windows(rem_min, add_lo, add_indptr)
        mask = bcg_stable_mask(
            rem_min, add_lo, add_hi, add_indptr, [0.5, 1.0, 3.5, 4.0, 10.0]
        )
        for i, profile in enumerate(profiles):
            assert alpha_min[i] == profile.alpha_min
            assert alpha_max[i] == profile.alpha_max
            for a, alpha in enumerate([0.5, 1.0, 3.5, 4.0, 10.0]):
                assert bool(mask[i, a]) == profile.is_stable_at(alpha), (i, alpha)


class TestAdHocColumns:
    def test_bcg_alpha_columns_heterogeneous_n(self):
        graphs = [star_graph(8), cycle_graph(5), petersen_graph()]
        profiles = [pairwise_stability_profile(g) for g in graphs]
        rem_min, add_lo, add_hi, add_indptr = bcg_alpha_columns(profiles)
        from repro.engine.columnar import bcg_stable_mask, stability_windows

        alpha_min, alpha_max = stability_windows(rem_min, add_lo, add_indptr)
        for i, profile in enumerate(profiles):
            assert alpha_min[i] == profile.alpha_min
            assert alpha_max[i] == profile.alpha_max
        alphas = [0.5, 1.0, 2.0, 5.0]
        mask = bcg_stable_mask(rem_min, add_lo, add_hi, add_indptr, alphas)
        for i, profile in enumerate(profiles):
            for a, alpha in enumerate(alphas):
                assert bool(mask[i, a]) == profile.is_stable_at(alpha)


class TestTinyN:
    @pytest.mark.parametrize("n", (0, 1, 2))
    def test_degenerate_sizes(self, n):
        store = CensusStore.build(n)
        reference = Reference(n, include_ucg=True)
        assert len(store) == len(reference)
        for alpha in (0.5, 2.0):
            expected = reference.aggregates(alpha, "bcg")
            assert store.equilibrium_count(alpha, "bcg") == expected["counts"]
            assert same(
                store.average_price_of_anarchy(alpha, "bcg"), expected["average_poa"]
            )


class TestCacheThreadSafety:
    """The shared store LRU stays exact under concurrent hammering."""

    def _lookup_totals(self, cache: str):
        """(hits, misses) recorded for one cache label so far."""
        from repro import obs

        totals = {"repro_cache_hits_total": 0.0, "repro_cache_misses_total": 0.0}
        for entry in obs.snapshot()["metrics"]:
            if entry["name"] in totals and entry["labels"].get("cache") == cache:
                totals[entry["name"]] = entry["value"]
        return totals["repro_cache_hits_total"], totals["repro_cache_misses_total"]

    def test_hammered_cached_store_counts_every_lookup_exactly(self, tmp_path):
        """N threads × M lookups: one shared object, hits+misses == lookups.

        Without single-flight two racing misses would both build (object
        identity breaks) and the hit/miss counters would drift from the
        true lookup count; lookups that arrive during the one miss wait for
        its outcome and count as hits, which keeps both exact.
        """
        import threading
        from concurrent.futures import ThreadPoolExecutor

        path = str(tmp_path / "census4.npz")
        CensusStore.build(4, include_ucg=False).save(path)
        clear_store_cache()
        hits_before, misses_before = self._lookup_totals("census-store")

        threads, lookups_each = 8, 25
        barrier = threading.Barrier(threads)

        def hammer(_):
            barrier.wait()
            return [cached_store(path=path) for _ in range(lookups_each)]

        with ThreadPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(hammer, range(threads)))

        stores = {id(store) for batch in batches for store in batch}
        assert len(stores) == 1, "concurrent misses built duplicate stores"

        hits, misses = self._lookup_totals("census-store")
        total = (hits - hits_before) + (misses - misses_before)
        assert total == threads * lookups_each
        assert misses - misses_before == 1.0
        clear_store_cache()

    def test_hammered_delta_and_weighted_caches(self, tmp_path):
        """The delta and weighted twins share the same lock discipline."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.analysis.artifact import cached_load
        from repro.analysis.delta_store import DeltaStore, cached_delta_store
        from repro.analysis.weighted_store import WeightedStore
        from repro.analysis.scenarios import build_scenario

        delta_path = str(tmp_path / "delta4.npz")
        DeltaStore.build(4).save(delta_path)
        weighted_path = str(tmp_path / "weighted4.npz")
        WeightedStore.from_scenario(
            build_scenario("random_weights", 4, seed=0)
        ).save(weighted_path)
        clear_store_cache()

        with ThreadPoolExecutor(max_workers=8) as pool:
            deltas = list(
                pool.map(lambda _: cached_delta_store(path=delta_path), range(40))
            )
            weighteds = list(
                pool.map(
                    lambda _: cached_load(WeightedStore, weighted_path), range(40)
                )
            )
        assert len({id(store) for store in deltas}) == 1
        assert len({id(store) for store in weighteds}) == 1
        clear_store_cache()

    @staticmethod
    def _block_builds(monkeypatch, started, release, error=None):
        """``CensusStore.build`` waits for ``release`` (then raises ``error``);
        returns the list of ``n`` it was called with."""
        calls = []
        real_build = CensusStore.build

        def build(n, include_ucg=True, jobs=None):
            calls.append(n)
            started.set()
            assert release.wait(timeout=30)
            if error is not None:
                raise error
            return real_build(n, include_ucg=include_ucg, jobs=jobs)

        monkeypatch.setattr(CensusStore, "build", build)
        return calls

    def test_build_in_flight_never_blocks_other_keys(self, tmp_path, monkeypatch):
        """A cold build holds no lock: a hit on another key returns at once."""
        import threading

        path = CensusStore.build(3, include_ucg=False).save(
            str(tmp_path / "census3.npz")
        )
        clear_store_cache()
        loaded = cached_store(path=path)
        started, release = threading.Event(), threading.Event()
        self._block_builds(monkeypatch, started, release)
        build_thread = threading.Thread(
            target=cached_store, args=(4,), kwargs={"include_ucg": False}
        )
        answers = []
        lookup = threading.Thread(
            target=lambda: answers.append(cached_store(path=path))
        )
        build_thread.start()
        try:
            assert started.wait(timeout=30)
            lookup.start()
            lookup.join(timeout=5)
            assert answers and answers[0] is loaded, (
                "a lookup of another key waited for the build"
            )
        finally:
            release.set()
            build_thread.join(timeout=60)
            if lookup.ident is not None:
                lookup.join(timeout=60)
        assert not build_thread.is_alive() and not lookup.is_alive()
        clear_store_cache()

    def test_waiters_share_the_first_miss_outcome(self, monkeypatch):
        """Same-key lookups during a miss wait for it: one build, counted
        as hits, its exception re-raised, and nothing cached on failure."""
        import threading
        import time
        from concurrent.futures import ThreadPoolExecutor

        from repro.analysis import artifact

        clear_store_cache()
        started, release = threading.Event(), threading.Event()
        failure = RuntimeError("build failed")
        calls = self._block_builds(monkeypatch, started, release, error=failure)
        hits_before, misses_before = self._lookup_totals("census-store")
        with ThreadPoolExecutor(max_workers=4) as pool:
            leader = pool.submit(cached_store, 4, include_ucg=False)
            assert started.wait(timeout=30)
            followers = [
                pool.submit(cached_store, 4, include_ucg=False) for _ in range(3)
            ]
            deadline = time.monotonic() + 30
            while (
                self._lookup_totals("census-store")[0] - hits_before < 3
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            release.set()
            errors = [future.exception(timeout=30) for future in [leader] + followers]
        assert calls == [4]
        assert all(error is failure for error in errors)
        hits, misses = self._lookup_totals("census-store")
        assert (hits - hits_before, misses - misses_before) == (3.0, 1.0)
        assert not artifact._STORE_CACHE and not artifact._IN_FLIGHT
        # Nothing was cached, so the next lookup builds again.
        with pytest.raises(RuntimeError):
            cached_store(4, include_ucg=False)
        assert calls == [4, 4]
        clear_store_cache()

    def test_switch_interval_stress_keeps_the_lru_exact(self, tmp_path, monkeypatch):
        """12 threads over three keys with a 2-entry budget: evictions,
        waits and misses interleave at a 1 µs switch interval, yet every
        lookup is counted once, each answer is its own key's store, nothing
        stays in flight and the budget holds."""
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from repro.analysis import artifact

        sizes = {}
        for n in (3, 4, 5):
            path = CensusStore.build(n, include_ucg=False).save(
                str(tmp_path / f"census{n}.npz")
            )
            sizes[path] = n
        paths = sorted(sizes)
        monkeypatch.setattr(artifact, "STORE_CACHE_MAX", 2)
        clear_store_cache()
        hits_before, misses_before = self._lookup_totals("census-store")
        threads, lookups_each = 12, 30
        barrier = threading.Barrier(threads)

        def hammer(worker):
            barrier.wait()
            answers = []
            for i in range(lookups_each):
                path = paths[(worker + i) % len(paths)]
                answers.append((path, cached_store(path=path).n))
            return answers

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(hammer, worker) for worker in range(threads)]
                batches = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(n == sizes[path] for batch in batches for path, n in batch)
        hits, misses = self._lookup_totals("census-store")
        assert (hits - hits_before) + (misses - misses_before) == threads * lookups_each
        assert not artifact._IN_FLIGHT
        assert len(artifact._STORE_CACHE) <= 2
        clear_store_cache()
