"""Census-as-a-service: catalog, query API, batcher and HTTP server.

The contract under test is bit-exactness at every layer: a query answered
through :class:`~repro.service.QueryAPI` — with or without request
coalescing, from one thread or many, over HTTP or in process — must equal
the direct single-threaded store/kernel call element for element.
"""

import json
import logging
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.service.http import (
    MAX_ALPHAS,
    MAX_BODY,
    MAX_DRAWS,
    MAX_ENSEMBLE_N,
    MAX_GRID,
    MAX_HEADERS,
    MAX_POINTS,
)


GRID, WINDOWS, ENSEMBLE = (
    "/v1/query/grid", "/v1/query/windows", "/v1/query/ensemble-stats",
)

#: A small ensemble body (n <= 4, draws <= 2) every field case extends.
SMALL_ENSEMBLE = {"n": 3, "draws": 2, "grid": 3}

#: Arbitrary JSON values: scalars (NaN and ±inf included, which Python's
#: ``json`` writes and reads back), lists and objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


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
            catalog.get("weighted4.npz", kind="census")
        assert catalog.get("census4.npz", kind="census")[1].n == 4

    def test_unknown_ref_raises_keyerror(self, artifact_dir):
        catalog = ArtifactCatalog(root=str(artifact_dir))
        with pytest.raises(KeyError):
            catalog.info("missing.npz")

    def test_bare_path_resolution_without_root(self, artifact_dir):
        catalog = ArtifactCatalog()
        info = catalog.info(str(artifact_dir / "census4.npz"))
        assert info.kind == "census"
        assert len(catalog) == 1

    def test_rooted_catalog_refuses_paths_outside_the_root(
        self, artifact_dir, tmp_path
    ):
        outside = CensusStore.build(3, include_ucg=False).save(
            str(tmp_path / "c3.npz")
        )
        catalog = ArtifactCatalog(root=str(artifact_dir))
        listing = catalog.list()
        for lookup in (catalog.info, catalog.get):
            with pytest.raises(KeyError):
                lookup(outside)
        assert catalog.list() == listing

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

    def test_weighted_windows_reject_unknown_game(self, api):
        """Regression: any game but 'ucg' used to answer BCG windows."""
        with pytest.raises(ValueError, match="game must be 'bcg' or 'ucg'"):
            api.windows("weighted4.npz", "nonsense")

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

    @staticmethod
    def _batch_metrics():
        """(batch-size count, batch-size sum, coalesced total) so far."""
        from repro import obs

        count = total = coalesced = 0.0
        for entry in obs.snapshot()["metrics"]:
            if entry["name"] == "repro_service_batch_size":
                count, total = entry["count"], entry["sum"]
            elif entry["name"] == "repro_service_coalesced_requests_total":
                coalesced = entry["value"]
        return count, total, coalesced

    @staticmethod
    def _queue_behind_leader(batcher, key, grids, compute):
        """Submit ``grids[0]``, hold its call, queue the rest, release.

        ``compute(merged)`` answers every kernel call; the leader's call
        is held until every other grid has joined the queued batch.
        Returns each caller's result or error, and every merged grid.
        """
        entered, release = threading.Event(), threading.Event()
        outcomes = [None] * len(grids)
        calls = []

        def kernel(merged):
            calls.append(list(merged))
            if len(calls) == 1:
                entered.set()
                assert release.wait(10.0)
            return compute(merged)

        def worker(k):
            try:
                outcomes[k] = batcher.submit(key, grids[k], kernel)
            except Exception as error:  # noqa: BLE001 - checked by callers
                outcomes[k] = error

        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(len(grids))
        ]
        threads[0].start()
        assert entered.wait(10.0)
        for thread in threads[1:]:
            thread.start()
        deadline = time.monotonic() + 10.0
        while batcher.stats().requests < len(grids):
            assert time.monotonic() < deadline, "followers never queued"
            time.sleep(0.001)
        release.set()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        return outcomes, calls

    def test_group_commit_merges_queued_requests_bitwise(self, artifact_dir):
        """A lone leader computes at once; the 8 requests queued behind its
        call share exactly one merged call and answer bit-identically."""
        store = CensusStore.load(str(artifact_dir / "census4.npz"))
        grids = [
            log_spaced_alphas(0.4 + 0.1 * k, 16.0 + k, 7) for k in range(9)
        ]
        expected = [store.grid_aggregates(grid, "bcg") for grid in grids]
        batcher = GridBatcher()
        before = self._batch_metrics()

        results, calls = self._queue_behind_leader(
            batcher,
            ("census4", "agg", "bcg"),
            grids,
            lambda merged: store.grid_aggregates(merged, "bcg"),
        )

        assert results == expected
        assert len(calls) == 2, "expected the solo leader, then one batch"
        assert calls[0] == grids[0]
        assert sorted(calls[1]) == sorted(set().union(*grids[1:]))
        stats = batcher.stats()
        assert (stats.batches, stats.requests, stats.coalesced) == (2, 9, 8)
        after = self._batch_metrics()
        assert [a - b for a, b in zip(after, before)] == [
            stats.batches,
            stats.requests,
            stats.coalesced,
        ]

    def test_lone_submit_computes_at_once(self):
        batcher = GridBatcher()
        out = batcher.submit("k", [1.0, 2.0, 1.0], lambda g: {"v": list(g)})
        assert out == {"v": [1.0, 2.0, 1.0]}
        stats = batcher.stats()
        assert (stats.batches, stats.requests, stats.coalesced) == (1, 1, 0)

    def test_keys_never_share_a_call(self):
        """A call in flight for one key does not hold up another key."""
        batcher = GridBatcher()
        entered, release = threading.Event(), threading.Event()

        def held(grid):
            entered.set()
            assert release.wait(10.0)
            return {"v": list(grid)}

        leader = threading.Thread(
            target=batcher.submit, args=("a", [1.0], held)
        )
        leader.start()
        assert entered.wait(10.0)
        assert batcher.submit("b", [2.0], lambda g: {"v": list(g)}) == {
            "v": [2.0]
        }
        release.set()
        leader.join(timeout=10.0)
        assert not leader.is_alive()
        assert batcher.stats().as_dict() == {
            "batches": 2, "requests": 2, "coalesced": 0,
        }

    def test_stress_every_request_answered_once(self):
        """More threads than cores, three keys, a tiny switch interval:
        every caller gets exactly its own columns and no request is lost
        or answered twice."""
        batcher = GridBatcher()
        threads, rounds = 12, 25
        answered = [0] * threads
        failures = []
        before = self._batch_metrics()

        def compute(grid):
            return {"v": [2.0 * alpha for alpha in grid], "n": len(grid)}

        def worker(k):
            for r in range(rounds):
                grid = [float(k), float(r), float(k * rounds + r)]
                got = batcher.submit(("key", k % 3), grid, compute)
                if got["v"] != [2.0 * alpha for alpha in grid]:
                    failures.append((k, r, got))
                answered[k] += 1

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # Daemon threads: a stranded caller fails the join below
            # instead of hanging the interpreter's exit.
            pool = [
                threading.Thread(target=worker, args=(k,), daemon=True)
                for k in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert failures == []
        assert answered == [rounds] * threads
        stats = batcher.stats()
        assert stats.requests == threads * rounds
        after = self._batch_metrics()
        # Every request sits in exactly one batch.
        assert after[1] - before[1] == stats.requests
        assert after[0] - before[0] == stats.batches

    def test_errors_propagate_to_every_caller(self):
        """A failing merged call raises in each of its callers; the next
        call for the key starts afresh."""
        batcher = GridBatcher()

        def compute(merged):
            raise RuntimeError("kernel broke")

        outcomes, calls = self._queue_behind_leader(
            batcher, "k", [[1.0], [2.0], [3.0], [2.0]], compute
        )
        assert len(calls) == 2
        assert [str(error) for error in outcomes] == ["kernel broke"] * 4
        assert all(isinstance(error, RuntimeError) for error in outcomes)
        assert batcher.submit("k", [5.0], lambda g: {"v": list(g)}) == {
            "v": [5.0]
        }


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
            batcher=GridBatcher(),
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
            batcher=GridBatcher(),
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

    def test_weighted_windows_unknown_game_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as bad_game:
            self._post(
                server,
                "/v1/query/windows",
                {"artifact": "weighted4.npz", "game": "nonsense"},
            )
        assert bad_game.value.code == 400
        assert "game must be" in json.loads(bad_game.value.read())["error"]

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

    def _exchange(self, server, request: bytes):
        """Send raw bytes on a fresh connection; ``(head lines, body)``."""
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(request)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        return head.decode("latin-1").split("\r\n"), body

    def _assert_status_line(self, server, caplog, request: bytes, status: int):
        """The request gets ``status`` with ``Connection: close``, nothing
        escapes to the event loop, and the server keeps serving."""
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            lines, body = self._exchange(server, request)
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        assert "Connection: close" in lines
        assert json.loads(body)["status"] == ("ok" if status == 200 else status)
        assert not caplog.records  # nothing escaped to the event loop
        assert json.loads(self._get(server, "/healthz"))["status"] == "ok"

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
        self._assert_status_line(
            server, caplog, request.encode("latin-1"), status
        )

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
            (
                b"GET /healthz HTTP/1.1\r\nX-Long: "
                + b"b" * 70_000
                + b"\r\n\r\n",
                431,
            ),
            (
                b"GET /healthz HTTP/1.1\r\n"
                + b"".join(b"X-H%d: v\r\n" % k for k in range(MAX_HEADERS))
                + b"Connection: close\r\n\r\n",
                431,
            ),
        ],
        ids=[
            "long-request-line",
            "long-header-line",
            "too-many-headers",
        ],
    )
    def test_oversized_request_heads_get_a_status_line(
        self, server, caplog, request_bytes, status
    ):
        before = self._unrouted_count(str(status))
        self._assert_status_line(server, caplog, request_bytes, status)
        assert self._unrouted_count(str(status)) == before + 1

    def test_header_count_at_the_limit_is_served(self, server):
        request = (
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-H%d: v\r\n" % k for k in range(MAX_HEADERS - 1))
            + b"Connection: close\r\n\r\n"
        )
        lines, body = self._exchange(server, request)
        assert lines[0].startswith("HTTP/1.1 200 ")
        assert json.loads(body)["status"] == "ok"

    @staticmethod
    def _unrouted_count(status: str) -> float:
        from repro import obs

        return sum(
            entry["value"]
            for entry in obs.snapshot()["metrics"]
            if entry["name"] == "repro_http_requests_total"
            and entry["labels"] == {"path": "<unrouted>", "status": status}
        )

    def _reply(self, server, path, payload):
        """``(status, parsed body)`` of one POST, error statuses included."""
        try:
            return 200, self._post(server, path, payload)
        except urllib.error.HTTPError as error:
            with error:
                return error.code, json.loads(error.read())

    @pytest.mark.parametrize(
        "field, limit, payload",
        [
            ("alphas", MAX_ALPHAS, lambda size: {
                "artifact": "census4.npz",
                "alphas": [1.0 + k for k in range(size)],
            }),
            ("points", MAX_POINTS, lambda size: {
                "artifact": "census4.npz", "points": size,
            }),
        ],
        ids=["alphas", "points"],
    )
    def test_grid_sizes_are_bounded(self, server, field, limit, payload):
        assert self._reply(server, "/v1/query/grid", payload(limit))[0] == 200
        status, body = self._reply(server, "/v1/query/grid", payload(limit + 1))
        assert status == 400
        assert field in body["error"] and str(limit) in body["error"]

    @pytest.mark.parametrize(
        "field, limit",
        [("n", MAX_ENSEMBLE_N), ("draws", MAX_DRAWS), ("grid", MAX_GRID)],
    )
    def test_ensemble_sizes_are_bounded(
        self, server, monkeypatch, field, limit
    ):
        """Limit + 1 is refused before any work starts; the limit itself
        reaches the API (stubbed: an n = 8 or 10,000-draw run is slow)."""
        body = {"n": 4, "draws": 1, "grid": 2, "delta": "delta4.npz"}
        status, refused = self._reply(
            server, "/v1/query/ensemble-stats", dict(body, **{field: limit + 1})
        )
        assert status == 400
        assert field in refused["error"] and str(limit) in refused["error"]
        monkeypatch.setattr(server.api, "ensemble_stats", lambda **kw: kw)
        status, served = self._reply(
            server, "/v1/query/ensemble-stats", dict(body, **{field: limit})
        )
        assert (status, served[field]) == (200, limit)

    @pytest.mark.parametrize(
        "path, field, value",
        [(GRID, "points", 0), (GRID, "points", -1),
         (ENSEMBLE, "grid", 0), (ENSEMBLE, "grid", -2)],
        ids=["points-zero", "points-negative", "grid-zero", "grid-negative"],
    )
    def test_non_positive_sizes_are_refused(
        self, server, monkeypatch, path, field, value
    ):
        """A size below 1 is refused before any work, instead of being
        answered on a 2-point grid the client never asked for."""
        calls = []
        for name in ("figure", "ensemble_stats"):
            monkeypatch.setattr(
                server.api, name, lambda *args, **kw: calls.append(kw) or {}
            )
        body = {"artifact": "census4.npz"} if path == GRID else SMALL_ENSEMBLE
        assert self._reply(server, path, dict(body, **{field: value})) == (
            400,
            {"error": f"'{field}' is {value}; it must be at least 1", "status": 400},
        )
        assert calls == []

    def test_one_point_figure_keeps_its_two_point_grid(self, server):
        one = self._post(server, GRID, {"artifact": "census4.npz", "points": 1})
        two = self._post(server, GRID, {"artifact": "census4.npz", "points": 2})
        assert one["points"] == 2
        assert one == two

    def test_shutdown_closes_idle_keep_alive_connections_cleanly(
        self, artifact_dir, caplog
    ):
        """A connection waiting for its next request is closed by the
        drain: its handler returns instead of being cancelled at loop
        teardown (which logs a CancelledError traceback), and the client
        reads a clean end of stream."""
        server, thread = start_in_thread(
            api=QueryAPI(ArtifactCatalog(root=str(artifact_dir)))
        )
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            head = b""
            while b"\r\n\r\n" not in head:
                head += sock.recv(65536)
            assert b"Connection: keep-alive" in head
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                server.shutdown()
                thread.join(timeout=10)
            assert not thread.is_alive()
            length = int(
                head.split(b"Content-Length: ")[1].split(b"\r\n")[0]
            )
            rest = head.partition(b"\r\n\r\n")[2]
            while len(rest) < length:
                rest += sock.recv(65536)
            assert json.loads(rest)["status"] == "ok"
            assert sock.recv(1) == b""
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    def test_refs_outside_the_root_are_404_and_never_listed(
        self, server, tmp_path
    ):
        outside = CensusStore.build(3, include_ucg=False).save(
            str(tmp_path / "c3"), format="dir"
        )
        listing = json.loads(self._get(server, "/artifacts"))
        for path, body in (
            ("/v1/query/windows", {"artifact": outside}),
            ("/v1/query/grid", {"artifact": outside, "points": 4}),
        ):
            assert self._reply(server, path, body)[0] == 404
        with pytest.raises(urllib.error.HTTPError) as detail:
            self._get(server, "/artifacts/" + outside)
        detail.value.close()
        assert detail.value.code == 404
        assert json.loads(self._get(server, "/artifacts")) == listing

    @pytest.mark.parametrize(
        "path, body, status, message",
        [
            (ENSEMBLE, {"seed": None}, 400, "'seed' must be an integer"),
            (ENSEMBLE, {"seed": [1]}, 400, "'seed' must be an integer"),
            (ENSEMBLE, {"seed": float("inf")}, 400, "'seed' must be an integer"),
            (ENSEMBLE, {"n": float("inf")}, 400, "'n' must be an integer"),
            (ENSEMBLE, {"delta": 7}, 400, "'delta' must be an artifact id string"),
            (ENSEMBLE, {"delta": ["a"]}, 400, "'delta' must be an artifact id string"),
            (ENSEMBLE, {"delta": "nope"}, 404, "unknown artifact 'nope'"),
            (GRID, {"artifact": "census4.npz", "alphas": [None]}, 400,
             "'alphas' must be a list of numbers"),
            (GRID, {"artifact": "census4.npz", "alphas": [[1]]}, 400,
             "'alphas' must be a list of numbers"),
            (GRID, {"artifact": "census4.npz", "alphas": [10 ** 400]}, 400,
             "'alphas' must be a list of numbers"),
            (GRID, {"artifact": ["c5"]}, 400,
             "'artifact' must be an artifact id string"),
            (GRID, {"artifact": "nope"}, 404, "unknown artifact 'nope'"),
            (WINDOWS, {"artifact": {"a": 1}}, 400,
             "'artifact' must be an artifact id string"),
            (WINDOWS, {"artifact": "nope"}, 404, "unknown artifact 'nope'"),
        ],
        ids=[
            "seed-null", "seed-list", "seed-inf", "n-inf", "delta-int",
            "delta-list", "delta-unknown", "alphas-null", "alphas-nested",
            "alphas-overflow", "grid-artifact-list", "grid-artifact-unknown",
            "windows-artifact-object", "windows-artifact-unknown",
        ],
    )
    def test_malformed_fields_are_client_errors(
        self, server, path, body, status, message
    ):
        if path == ENSEMBLE:
            body = dict(SMALL_ENSEMBLE, **body)
        assert self._reply(server, path, body) == (
            status, {"error": message, "status": status},
        )

    @pytest.mark.parametrize(
        "data",
        [b"[" * 100_000 + b"]" * 100_000, b'{"n": ' + b"1" * 5000 + b"}"],
        ids=["deep-nesting", "huge-integer"],
    )
    def test_unparseable_bodies_are_400(self, server, data):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}{ENSEMBLE}", data=data
        )
        with pytest.raises(urllib.error.HTTPError) as refused:
            urllib.request.urlopen(request)
        with refused.value as error:
            assert error.code == 400

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        case=st.sampled_from([
            (ENSEMBLE, SMALL_ENSEMBLE, "seed"),
            (ENSEMBLE, SMALL_ENSEMBLE, "delta"),
            (ENSEMBLE, SMALL_ENSEMBLE, "scenario"),
            (ENSEMBLE, SMALL_ENSEMBLE, "grid"),
            (GRID, {"artifact": "census4.npz", "alphas": [1.0, 2.0]}, "alphas"),
            (GRID, {"artifact": "census4.npz", "alphas": [1.0]}, "artifact"),
            (GRID, {"artifact": "census4.npz", "alphas": [1.0]}, "game"),
            (GRID, {"artifact": "census4.npz", "points": 4}, "quantity"),
            (WINDOWS, {"artifact": "weighted4.npz"}, "artifact"),
            (WINDOWS, {"artifact": "weighted4.npz"}, "game"),
        ]),
        value=JSON_VALUES,
    )
    def test_arbitrary_field_values_never_get_a_500(self, server, case, value):
        """Any JSON value in a query field gets an answer or a client error,
        and the server keeps serving."""
        path, body, field = case
        status, reply = self._reply(server, path, dict(body, **{field: value}))
        assert status in (200, 400, 404), reply
        if status != 200:
            assert reply["status"] == status
        if field in ("artifact", "delta") and not isinstance(value, (str, type(None))):
            assert status == 400, reply
        assert json.loads(self._get(server, "/healthz"))["status"] == "ok"
