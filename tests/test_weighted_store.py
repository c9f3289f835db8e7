"""Parity and persistence tests for the weighted scenario store.

The contract under test: every answer of
:class:`repro.analysis.weighted_store.WeightedStore` — stability masks,
``(t_min, t_max)`` windows, sweep aggregates, reconstructed graphs — equals
the per-graph references (:func:`weighted_python_sweep_bcg`,
:class:`~repro.costmodels.stability.WeightedStabilityProfile`,
``CostModel.bcg_edge_cost_total`` and ``total_distance``) **exactly** (float
equality, not approximate), including after a save → load round trip in a
separate process, for both on-disk formats.  The references share no code
with the store's batch kernels, so a fault in those kernels shows here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.delta_store import DeltaStore
from repro.analysis.scenarios import build_scenario, default_t_grid
from repro.analysis.weighted import weighted_python_sweep_bcg
from repro.analysis.weighted_store import (
    FORMAT_VERSION,
    WeightedStore,
)
from repro.costmodels import (
    PerPlayerCost,
    UniformCost,
    weighted_stability_profile,
)
from repro.engine import DistanceOracle
from repro.engine.shardwork import manifest_path
from repro.graphs import enumerate_connected_graphs, total_distance

#: Every column of the artifact.
COLUMNS = (
    "num_edges",
    "dist_total",
    "edge_cost_total",
    "cert_words",
    "rem_w",
    "rem_delta",
    "rem_indptr",
    "add_w_u",
    "add_s_u",
    "add_w_v",
    "add_s_v",
    "add_indptr",
    "weight_matrix",
)


def assert_stores_equal(first: WeightedStore, second: WeightedStore) -> None:
    assert first.n == second.n
    for name in COLUMNS:
        assert np.array_equal(getattr(first, name), getattr(second, name)), name
    assert first.scenario_params == second.scenario_params


def same(a: float, b: float) -> bool:
    return (a != a and b != b) or a == b


def t_grid(n: int, store: WeightedStore):
    """A log grid plus exact per-class window endpoints (tolerance folding)."""
    grid = default_t_grid(n, 9)
    t_min, t_max = store.stability_windows()
    for column in (t_min, t_max):
        for endpoint in column.tolist()[:: max(1, len(column.tolist()) // 6)]:
            if endpoint > 0 and endpoint != float("inf"):
                grid.append(endpoint)
                grid.append(endpoint + 1e-13)
    return grid


def reference_aggregates(graphs, model, mask, ts):
    """Per-grid-point counts and averages from a reference mask, summed
    left to right over the stable graphs in class order."""
    counts, links, social = [], [], []
    for column, t in enumerate(ts):
        stable = [graph for graph, row in zip(graphs, mask) if row[column]]
        counts.append(len(stable))
        if not stable:
            links.append(float("nan"))
            social.append(float("nan"))
            continue
        links.append(sum(graph.num_edges for graph in stable) / len(stable))
        social.append(
            sum(
                t * model.bcg_edge_cost_total(graph) + total_distance(graph)
                for graph in stable
            )
            / len(stable)
        )
    return {"bcg_counts": counts, "average_links": links, "average_social_cost": social}


@pytest.fixture(scope="module")
def scenario6():
    return build_scenario("random_weights", 6, seed=11)


@pytest.fixture(scope="module")
def store6(scenario6):
    return WeightedStore.from_scenario(scenario6)


class TestSweepParity:
    """The artifact answers exactly what the per-graph references answer."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_masks_and_windows_equal_sweep_all_classes(self, n):
        scenario = build_scenario("random_weights", n, seed=3)
        store = WeightedStore.from_scenario(scenario)
        graphs = enumerate_connected_graphs(n)
        ts = t_grid(n, store)
        assert len(store) == len(graphs)
        oracle = DistanceOracle()
        assert store.stable_mask(ts).tolist() == weighted_python_sweep_bcg(
            graphs, scenario.model, ts, oracle=oracle
        )
        profiles = [
            weighted_stability_profile(graph, scenario.model, oracle=oracle)
            for graph in graphs
        ]
        t_min, t_max = store.stability_windows()
        assert t_min.tolist() == [profile.t_min for profile in profiles]
        assert t_max.tolist() == [profile.t_max for profile in profiles]

    def test_aggregates_equal_sweep(self, scenario6, store6):
        ts = t_grid(6, store6)
        graphs = enumerate_connected_graphs(6)
        mask = weighted_python_sweep_bcg(graphs, scenario6.model, ts)
        expected = reference_aggregates(graphs, scenario6.model, mask, ts)
        aggregates = store6.aggregates(ts)
        assert aggregates["ts"] == ts
        assert aggregates["bcg_counts"] == expected["bcg_counts"]
        for key in ("average_links", "average_social_cost"):
            assert len(aggregates[key]) == len(ts)
            assert all(
                same(a, b) for a, b in zip(aggregates[key], expected[key])
            ), key

    def test_stable_counts_match_mask(self, store6):
        ts = [0.5, 2.0, 9.0]
        assert store6.stable_counts(ts) == [
            int(c) for c in store6.stable_mask(ts).sum(axis=0)
        ]

    def test_per_player_model_and_uniform_closed_form(self):
        """Non-symmetric weights and the uniform exact closed forms survive:
        the replayed link spend equals the per-class Python sum exactly."""
        graphs = enumerate_connected_graphs(5)
        for model in (
            PerPlayerCost([0.5, 0.5, 2.0, 2.0, 3.0]),
            UniformCost(1.0),
            UniformCost(2.5),
        ):
            store = WeightedStore.build(5, model)
            ts = [0.3, 1.0, 4.0, 12.0]
            assert store.stable_mask(ts).tolist() == weighted_python_sweep_bcg(
                graphs, model, ts
            )
            assert store.edge_cost_total.tolist() == [
                model.bcg_edge_cost_total(graph) for graph in graphs
            ]

    def test_graph_reconstruction(self, store6):
        graphs = enumerate_connected_graphs(6)
        for index in range(0, len(store6), 17):
            assert store6.graph_at(index) == graphs[index]

    def test_stable_graphs_at(self, scenario6, store6):
        t = 2.5
        graphs = enumerate_connected_graphs(6)
        mask = weighted_python_sweep_bcg(graphs, scenario6.model, [t])
        assert store6.stable_graphs_at(t) == [
            graph for graph, row in zip(graphs, mask) if row[0]
        ]


class TestBuildPaths:
    def test_build_identical_for_any_jobs(self, store6, scenario6):
        assert_stores_equal(
            store6, WeightedStore.from_scenario(scenario6, jobs=2)
        )

    def test_streamed_equals_build(self, store6, scenario6):
        assert_stores_equal(
            store6, WeightedStore.from_scenario(scenario6, streamed=True)
        )

    def test_streamed_shard_dir_resume(self, tmp_path, scenario6, store6):
        shard_dir = str(tmp_path / "shards")
        first = WeightedStore.build_streamed(
            6,
            scenario6.model,
            shard_dir=shard_dir,
            scenario_params=dict(scenario6.params),
        )
        assert_stores_equal(first, store6)
        # A resume run must reuse the shards (delete one to prove the others
        # are loaded: only the victim is recomputed, and the merge is equal).
        victim = sorted(
            name for name in os.listdir(shard_dir) if name.startswith("dshard_")
        )[0]
        os.remove(os.path.join(shard_dir, victim))
        resumed = WeightedStore.build_streamed(
            6,
            scenario6.model,
            shard_dir=shard_dir,
            scenario_params=dict(scenario6.params),
        )
        assert_stores_equal(first, resumed)

    def test_shard_dir_resumes_for_every_model(self, tmp_path):
        """The shards hold model-independent delta columns, so a directory
        written under one model resumes in full under another."""
        shard_dir = str(tmp_path / "shards")
        model_a = build_scenario("random_weights", 5, seed=1).model
        model_b = build_scenario("random_weights", 5, seed=2).model
        WeightedStore.build_streamed(5, model_a, shard_level=2, shard_dir=shard_dir)
        resumed = WeightedStore.build_streamed(
            5, model_b, shard_level=2, shard_dir=shard_dir
        )
        manifest = json.loads(
            Path(manifest_path(shard_dir)).read_text(encoding="utf-8")
        )
        assert manifest["resumed"] == manifest["total"] > 0
        assert (
            resumed.content_checksum()
            == WeightedStore.build(5, model_b).content_checksum()
        )

    @pytest.mark.parametrize("name", ["random_weights", "two_tier_isp"])
    def test_ucg_build_paths_agree(self, name):
        """Every build path runs the one UCG pass over the same rows."""
        model = build_scenario(name, 6, seed=4).model
        stores = [
            WeightedStore.build(6, model, jobs=1, include_ucg=True),
            WeightedStore.build(6, model, jobs=2, include_ucg=True),
            WeightedStore.build_streamed(6, model, jobs=2, include_ucg=True),
            WeightedStore.from_delta(DeltaStore.build(6), model, include_ucg=True),
        ]
        assert stores[0].include_ucg
        assert len({store.content_checksum() for store in stores}) == 1

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_builds_match_from_delta(self, n):
        """Every build path prices through one function, down to n = 0."""
        model = UniformCost(1.0)
        built = WeightedStore.build(n, model)
        assert built.weight_matrix.shape == (n, n)
        assert built.verify()["ok"]
        assert_stores_equal(
            built, WeightedStore.from_delta(DeltaStore.build(n), model)
        )

    def test_build_rejects_negative_n(self):
        with pytest.raises(ValueError):
            WeightedStore.build_streamed(-1, UniformCost(1.0))


class TestPersistence:
    @pytest.mark.parametrize("format", ["npz", "dir"])
    def test_save_load_roundtrip(self, tmp_path, store6, format):
        path = store6.save(str(tmp_path / "w6"), format=format)
        assert_stores_equal(store6, WeightedStore.load(path))

    def test_verify_and_checksum_stamp(self, tmp_path, store6):
        audit = store6.verify()
        assert audit["ok"] and audit["errors"] == []
        assert audit["checksum"] == "absent"  # in-memory build, no stamp
        loaded = WeightedStore.load(store6.save(str(tmp_path / "w6.npz")))
        assert loaded.verify()["checksum"] == "ok"
        loaded.dist_total = loaded.dist_total.copy()
        loaded.dist_total[0] += 1.0
        audit = loaded.verify()
        assert not audit["ok"] and audit["checksum"] == "mismatch"

    def test_mmap_load(self, tmp_path, store6):
        path = store6.save(str(tmp_path / "w6dir"), format="dir")
        mapped = WeightedStore.load(path, mmap=True)
        ts = t_grid(6, store6)
        assert np.array_equal(mapped.stable_mask(ts), store6.stable_mask(ts))
        with pytest.raises(ValueError):
            WeightedStore.load(store6.save(str(tmp_path / "w6.npz")), mmap=True)

    def test_scenario_recipe_roundtrip(self, tmp_path, store6, scenario6):
        """The artifact's recipe rebuilds the identical model."""
        from repro.analysis.scenarios import scenario_from_params

        loaded = WeightedStore.load(store6.save(str(tmp_path / "w6.npz")))
        rebuilt = scenario_from_params(loaded.scenario_params)
        assert rebuilt.model.matrix(6) == scenario6.model.matrix(6)
        assert loaded.matrix() == scenario6.model.matrix(6)

    def test_rejects_foreign_and_versioned_files(self, tmp_path, store6):
        foreign = str(tmp_path / "foreign.npz")
        np.savez(foreign, whatever=np.zeros(3))
        with pytest.raises(ValueError):
            WeightedStore.load(foreign)
        # A census-store artifact is not a weighted artifact.
        from repro.analysis.store import CensusStore

        census_path = CensusStore.build(4, include_ucg=False).save(
            str(tmp_path / "census4.npz")
        )
        with pytest.raises(ValueError):
            WeightedStore.load(census_path)
        # v2 added the optional UCG CSR columns; pre-UCG v1 artifacts are
        # refused rather than silently loaded without them.
        assert FORMAT_VERSION == 2

    def test_separate_process_roundtrip(self, tmp_path, store6):
        """Mirror smoke_store_roundtrip: load in a fresh interpreter."""
        path = store6.save(str(tmp_path / "w6.npz"))
        ts = default_t_grid(6, 7)
        child_script = (
            "import json, sys\n"
            "from repro.analysis.weighted_store import WeightedStore\n"
            "store = WeightedStore.load(sys.argv[1])\n"
            "ts = json.loads(sys.argv[2])\n"
            "t_min, t_max = store.stability_windows()\n"
            "json.dump({'mask': store.stable_mask(ts).tolist(),"
            " 't_min': [repr(x) for x in t_min.tolist()],"
            " 't_max': [repr(x) for x in t_max.tolist()]}, sys.stdout)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(__file__), "..", "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        child = subprocess.run(
            [sys.executable, "-c", child_script, path, json.dumps(ts)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        loaded = json.loads(child.stdout)
        assert loaded["mask"] == store6.stable_mask(ts).tolist()
        t_min, t_max = store6.stability_windows()
        assert [float(x) for x in loaded["t_min"]] == t_min.tolist()
        assert [float(x) for x in loaded["t_max"]] == t_max.tolist()

    def test_summary_and_nbytes(self, store6, scenario6):
        summary = store6.summary()
        assert summary["n"] == 6
        assert summary["classes"] == len(store6)
        assert summary["scenario"] == "random_weights"
        assert summary["seed"] == 11
        assert summary["scenario_params"] == scenario6.params
        assert summary["nbytes"] == store6.nbytes > 0
        assert set(summary["column_bytes"]) == set(COLUMNS)
