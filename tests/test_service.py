"""Census-as-a-service: catalog, query API, batcher and HTTP server.

The contract under test is bit-exactness at every layer: a query answered
through :class:`~repro.service.QueryAPI` — with or without request
coalescing, from one thread or many, over HTTP or in process — must equal
the direct single-threaded store/kernel call element for element.
"""

import json
import logging
import socket
import threading
import urllib.error
import urllib.request

import pytest

np = pytest.importorskip("numpy")

from repro.analysis.delta_store import DeltaStore
from repro.analysis.scenarios import build_scenario, default_t_grid
from repro.analysis.store import CensusStore, clear_store_cache
from repro.analysis.sweeps import log_spaced_alphas
from repro.analysis.weighted_store import WeightedStore
from repro.service import (
    ArtifactCatalog,
    GridBatcher,
    QueryAPI,
    start_in_thread,
)
from repro.service.batching import _merge_grids, _slice_columns
from repro.service.http import MAX_BODY


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    """A serve directory holding one artifact of every kind (n = 4)."""
    root = tmp_path_factory.mktemp("artifacts")
    CensusStore.build(4, include_ucg=True).save(str(root / "census4.npz"))
    WeightedStore.from_scenario(
        build_scenario("random_weights", 4, seed=3), include_ucg=True
    ).save(str(root / "weighted4.npz"))
    DeltaStore.build(4).save(str(root / "delta4.npz"))
    (root / "notes.txt").write_text("not an artifact")
    return root


@pytest.fixture()
def api(artifact_dir):
    clear_store_cache()
    yield QueryAPI(ArtifactCatalog(root=str(artifact_dir)))
    clear_store_cache()


class TestCatalog:
    def test_discovers_every_kind_and_skips_foreign_files(self, artifact_dir):
        catalog = ArtifactCatalog(root=str(artifact_dir))
        kinds = {info.id: info.kind for info in catalog.list()}
        assert kinds == {
            "census4.npz": "census",
            "weighted4.npz": "weighted",
            "delta4.npz": "delta",
        }
        assert all(info.n == 4 for info in catalog.list())

    def test_get_is_kind_checked(self, artifact_dir):
        catalog = ArtifactCatalog(root=str(artifact_dir))
        with pytest.raises(ValueError, match="weighted"):
            catalog.get_census("weighted4.npz")
        assert catalog.get_census("census4.npz").n == 4

    def test_unknown_ref_raises_keyerror(self, artifact_dir):
        catalog = ArtifactCatalog(root=str(artifact_dir))
        with pytest.raises(KeyError):
            catalog.info("missing.npz")

    def test_bare_path_resolution_without_root(self, artifact_dir):
        catalog = ArtifactCatalog()
        info = catalog.info(str(artifact_dir / "census4.npz"))
        assert info.kind == "census"
        assert len(catalog) == 1

    def test_refresh_tracks_the_directory(self, tmp_path):
        CensusStore.build(3, include_ucg=False).save(str(tmp_path / "c3.npz"))
        catalog = ArtifactCatalog(root=str(tmp_path))
        assert len(catalog) == 1
        CensusStore.build(4, include_ucg=False).save(str(tmp_path / "c4.npz"))
        catalog.refresh()
        assert {info.id for info in catalog.list()} == {"c3.npz", "c4.npz"}


class TestQueryAPIParity:
    """Every QueryAPI answer equals the direct store/kernel call exactly."""

    def test_grid_mask_and_aggregates(self, api, artifact_dir):
        store = CensusStore.load(str(artifact_dir / "census4.npz"))
        alphas = log_spaced_alphas(0.5, 20.0, 9)
        for game in ("bcg", "ucg"):
            np.testing.assert_array_equal(
                api.grid_mask("census4.npz", alphas, game),
                store.stable_mask(alphas, game),
            )
            served = api.grid_aggregates("census4.npz", alphas, game)
            direct = store.grid_aggregates(alphas, game)
            for key, values in direct.items():
                assert served[key] == values

    def test_figure_matches_cli_construction(self, api, artifact_dir):
        from repro.analysis.figure_series import (
            census_figure_series,
            figure_from_payload,
        )

        store = CensusStore.load(str(artifact_dir / "census4.npz"))
        costs = log_spaced_alphas(0.4, 2.0 * store.n * store.n, 12)
        direct = census_figure_series(store, "average_poa", costs)
        payload = api.figure("census4.npz", "average_poa", 12)
        assert payload["points"] == 12
        assert figure_from_payload(payload) == direct

    def test_windows_census_and_weighted(self, api, artifact_dir):
        census = CensusStore.load(str(artifact_dir / "census4.npz"))
        lo, hi = census.stability_windows()
        served = api.windows("census4.npz")
        assert served["alpha_min"] == list(lo)
        assert served["alpha_max"] == list(hi)
        weighted = WeightedStore.load(str(artifact_dir / "weighted4.npz"))
        for game, (wlo, whi) in (
            ("bcg", weighted.stability_windows()),
            ("ucg", weighted.ucg_windows()),
        ):
            served = api.windows("weighted4.npz", game)
            assert served["t_min"] == [float(v) for v in wlo]
            assert served["t_max"] == [float(v) for v in whi]

    def test_windows_rejects_delta_artifacts(self, api):
        with pytest.raises(ValueError, match="model-free"):
            api.windows("delta4.npz")

    def test_weighted_grid(self, api, artifact_dir):
        store = WeightedStore.load(str(artifact_dir / "weighted4.npz"))
        ts = default_t_grid(store.n, 6)
        direct = store.aggregates(ts)
        served = api.weighted_grid("weighted4.npz", points=6, ucg=True)
        for key, values in direct.items():
            assert served[key] == values
        assert served["ucg_counts"] == store.ucg_nash_counts(ts)
        assert served["scenario"] == "random_weights"

    def test_delta_counts_match_per_draw_weighted_builds(self, api):
        seeds = [0, 1, 2]
        served = api.delta_counts(
            "delta4.npz", "random_weights", seeds, points=5
        )
        ts = served["ts"]
        for row, seed in zip(served["counts"], seeds):
            scenario = build_scenario("random_weights", 4, seed=seed)
            reference = WeightedStore.from_scenario(scenario)
            assert row == reference.aggregates(ts)["bcg_counts"]

    def test_ensemble_stats_match_run_ensemble(self, api):
        from repro.analysis.ensembles import run_ensemble

        direct = run_ensemble(
            scenario="random_weights", n=4, draws=3, seed=7, grid=5
        )
        served = api.ensemble_stats(
            scenario="random_weights", n=4, draws=3, seed=7, grid=5,
            delta="delta4.npz",
        )
        assert served["counts"] == direct.counts.tolist()
        assert served["count_stats"]["mean"] == list(
            direct.count_stats["mean"]
        )
        assert set(served["count_stats"]["quantiles"]) == {
            str(q) for q in direct.count_stats["quantiles"]
        }

    def test_summary_and_verify(self, api, artifact_dir):
        summary = api.summary("census4.npz")
        assert summary["kind"] == "census"
        assert summary["source"] == str(artifact_dir / "census4.npz")
        assert api.summary("weighted4.npz")["kind"] == "weighted"
        assert api.summary("delta4.npz")["kind"] == "delta"
        for ref in ("census4.npz", "weighted4.npz", "delta4.npz"):
            assert api.verify(ref)["ok"] is True

    def test_stats_and_version(self, api):
        from repro import __version__

        assert api.version() == __version__
        snapshot = api.stats()
        assert snapshot["repro_version"] == __version__
        assert "metrics" in snapshot


class TestGridBatcher:
    def test_merge_grids_dedups_exact_floats(self):
        merged, slices = _merge_grids([[1.0, 2.0], [2.0, 3.0], [1.0]])
        assert merged == [1.0, 2.0, 3.0]
        assert slices == [[0, 1], [1, 2], [0]]

    def test_slice_columns_on_arrays_and_dicts(self):
        array = np.arange(6).reshape(2, 3)
        np.testing.assert_array_equal(
            _slice_columns(array, [2, 0]), array[:, [2, 0]]
        )
        sliced = _slice_columns({"a": [10, 11, 12], "b": "keep"}, [1])
        assert sliced == {"a": [11], "b": "keep"}

    def test_coalesced_equals_uncoalesced_bitwise(self, artifact_dir):
        """≥8 concurrent requests share kernels yet answer bit-identically."""
        store = CensusStore.load(str(artifact_dir / "census4.npz"))
        grids = [
            log_spaced_alphas(0.4 + 0.1 * k, 16.0 + k, 7) for k in range(10)
        ]
        expected = [store.grid_aggregates(grid, "bcg") for grid in grids]

        batcher = GridBatcher(window=0.05)
        barrier = threading.Barrier(len(grids))
        results = [None] * len(grids)

        def worker(k):
            barrier.wait()
            results[k] = batcher.submit(
                ("census4", "agg", "bcg"),
                grids[k],
                lambda merged: store.grid_aggregates(merged, "bcg"),
            )

        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(len(grids))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert results == expected
        stats = batcher.stats()
        assert stats.requests == len(grids)
        assert stats.coalesced >= 8, "requests did not actually coalesce"
        assert stats.batches < len(grids)

    def test_zero_window_disables_coalescing(self):
        batcher = GridBatcher(window=0.0)
        calls = []
        out = batcher.submit("k", [1.0, 2.0], lambda g: {"v": list(g)})
        assert out == {"v": [1.0, 2.0]}
        stats = batcher.stats()
        assert (stats.batches, stats.requests, stats.coalesced) == (1, 1, 0)
        assert calls == []

    def test_errors_propagate_to_every_caller(self):
        batcher = GridBatcher(window=0.05)
        barrier = threading.Barrier(3)
        errors = []

        def worker():
            barrier.wait()
            try:
                batcher.submit(
                    "k", [1.0], lambda g: (_ for _ in ()).throw(
                        RuntimeError("kernel broke")
                    )
                )
            except RuntimeError as error:
                errors.append(str(error))

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == ["kernel broke"] * 3


class TestConcurrentMixedQueries:
    def test_hammer_matches_single_threaded_references(self, artifact_dir):
        """N threads × {census, weighted, delta} == direct kernel calls."""
        clear_store_cache()
        census = CensusStore.load(str(artifact_dir / "census4.npz"))
        weighted = WeightedStore.load(str(artifact_dir / "weighted4.npz"))
        alphas = log_spaced_alphas(0.5, 24.0, 8)
        ts = default_t_grid(4, 6)
        reference = {
            "census": census.grid_aggregates(alphas, "bcg"),
            "weighted": weighted.aggregates(ts),
            "delta": None,  # filled below
        }
        matrices = [
            build_scenario("random_weights", 4, seed=s)
            .model.coefficient_matrix(4)
            for s in range(3)
        ]
        delta = DeltaStore.load(str(artifact_dir / "delta4.npz"))
        reference["delta"] = delta.stable_counts_multi(matrices, ts).tolist()

        api = QueryAPI(
            ArtifactCatalog(root=str(artifact_dir)),
            batcher=GridBatcher(window=0.01),
        )
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(12)

        def worker(k):
            barrier.wait()
            kind = ("census", "weighted", "delta")[k % 3]
            if kind == "census":
                got = api.grid_aggregates("census4.npz", alphas, "bcg")
                ok = all(
                    got[key] == values
                    for key, values in reference["census"].items()
                )
            elif kind == "weighted":
                got = api.weighted_grid("weighted4.npz", ts=ts)
                ok = all(
                    got[key] == values
                    for key, values in reference["weighted"].items()
                )
            else:
                got = api.delta_counts(
                    "delta4.npz", "random_weights", [0, 1, 2], ts=ts
                )
                ok = got["counts"] == reference["delta"]
            with lock:
                outcomes.append(ok)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes == [True] * 12
        clear_store_cache()


class TestHTTPServer:
    @pytest.fixture()
    def server(self, artifact_dir):
        clear_store_cache()
        api = QueryAPI(
            ArtifactCatalog(root=str(artifact_dir)),
            batcher=GridBatcher(window=0.005),
        )
        server, thread = start_in_thread(api=api)
        yield server
        server.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        clear_store_cache()

    def _get(self, server, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}{path}"
        ) as response:
            return response.read()

    def _post(self, server, path, payload):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}{path}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read().decode("utf-8"))

    def test_healthz_reports_version_and_artifacts(self, server):
        from repro import __version__

        health = json.loads(self._get(server, "/healthz"))
        assert health["status"] == "ok"
        assert health["version"] == __version__
        assert health["artifacts"] == 3

    def test_artifacts_listing_and_detail(self, server):
        listing = json.loads(self._get(server, "/artifacts"))
        assert {a["id"] for a in listing["artifacts"]} == {
            "census4.npz", "weighted4.npz", "delta4.npz",
        }
        detail = json.loads(self._get(server, "/artifacts/census4.npz"))
        assert detail["artifact"]["kind"] == "census"
        assert detail["summary"]["n"] == 4

    def test_metrics_exposition_contains_request_series(self, server):
        self._get(server, "/healthz")
        text = self._get(server, "/metrics").decode("utf-8")
        assert "repro_http_requests_total" in text
        assert "repro_http_request_seconds" in text

    def test_grid_query_equals_in_process_figure(self, server, artifact_dir):
        from repro.analysis.figure_series import (
            census_figure_series,
            figure_from_payload,
        )

        store = CensusStore.load(str(artifact_dir / "census4.npz"))
        costs = log_spaced_alphas(0.4, 2.0 * 16, 10)
        direct = census_figure_series(store, "average_poa", costs)
        served = self._post(
            server,
            "/v1/query/grid",
            {"artifact": "census4.npz", "points": 10},
        )
        assert figure_from_payload(served) == direct

    def test_concurrent_grid_queries_identical_payloads(self, server):
        results = [None] * 8
        barrier = threading.Barrier(8)

        def worker(k):
            barrier.wait()
            results[k] = self._post(
                server,
                "/v1/query/grid",
                {"artifact": "census4.npz", "points": 8},
            )

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == results[0] for result in results)

    def test_windows_and_ensemble_endpoints(self, server, artifact_dir):
        weighted = WeightedStore.load(str(artifact_dir / "weighted4.npz"))
        lo, hi = weighted.stability_windows()
        served = self._post(
            server,
            "/v1/query/windows",
            {"artifact": "weighted4.npz"},
        )
        assert served["t_min"] == [float(v) for v in lo]
        assert served["t_max"] == [float(v) for v in hi]
        stats = self._post(
            server,
            "/v1/query/ensemble-stats",
            {"n": 4, "draws": 2, "grid": 4, "delta": "delta4.npz"},
        )
        assert stats["draws"] == 2
        assert len(stats["counts"]) == 2

    def test_error_statuses(self, server):
        with pytest.raises(urllib.error.HTTPError) as not_found:
            self._get(server, "/nope")
        assert not_found.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as missing_field:
            self._post(server, "/v1/query/grid", {})
        assert missing_field.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as unknown:
            self._post(server, "/v1/query/grid", {"artifact": "ghost.npz"})
        assert unknown.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as wrong_method:
            self._get(server, "/v1/query/grid")
        assert wrong_method.value.code == 405

    @pytest.mark.parametrize(
        "length, status",
        [("abc", 400), ("-5", 400), ("", 200), (str(MAX_BODY + 1), 413)],
        ids=["non-numeric", "negative", "empty", "too-large"],
    )
    def test_content_length_errors_get_a_status_line(
        self, server, caplog, length, status
    ):
        request = (
            "GET /healthz HTTP/1.1\r\n"
            f"Content-Length: {length}\r\n"
            "Connection: close\r\n\r\n"
        )
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                sock.sendall(request.encode("latin-1"))
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        assert "Connection: close" in lines
        assert json.loads(body)["status"] == ("ok" if status == 200 else status)
        assert not caplog.records  # nothing escaped to the event loop
        # The server keeps serving after every malformed request.
        assert json.loads(self._get(server, "/healthz"))["status"] == "ok"
