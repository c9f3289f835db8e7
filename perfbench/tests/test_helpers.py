"""Tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from checks import (  # noqa: E402
    check_ensemble_draws,
    compare_arrays,
    compare_build,
    compare_bytes,
    load_reference,
    mask_digest,
)
from client import Request, run_phase  # noqa: E402
from common import percentile, tail  # noqa: E402
from layers import Tracer  # noqa: E402


# --------------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------------- #


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    values = list(range(1, 101))  # p90 has exactly 10 beyond, p95 only 5
    assert percentile(values, 90) == 90
    with pytest.raises(ValueError):
        percentile(values, 95)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)  # 9 beyond the median


def test_tail_picks_the_highest_supported_percentile():
    assert tail(list(range(1, 1001))) == (99.0, 990)
    assert tail(list(range(1, 101))) == (90.0, 90)
    assert tail(list(range(30))) is None  # even p75 has only 8 beyond


# --------------------------------------------------------------------------- #
# Closed-loop client
# --------------------------------------------------------------------------- #


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 - http.server naming
        self.rfile.read(int(self.headers["Content-Length"]))
        status, body = {
            "/good": (200, b"expected"),
            "/wrong": (200, b"not what was expected"),
            "/error": (500, b"expected"),
        }[self.path]
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_client_counts_500_and_mismatched_bodies_as_failed(http_server):
    host, port = http_server
    requests = {
        kind: [Request(kind, f"/{kind}", b"{}", b"expected")]
        for kind in ("good", "wrong", "error")
    }
    mix = {"good": 1, "wrong": 1, "error": 1}
    phase = run_phase("test", host, port, requests, mix, 2, 0.5, seed=7)
    by_kind = {k: [s for s in phase.samples if s.kind == k] for k in mix}
    assert all(by_kind.values())
    assert all(s.ok for s in by_kind["good"])
    assert not any(s.ok for s in by_kind["wrong"] + by_kind["error"])
    # Every request sent is either ok or failed: none is dropped.
    assert len(phase.ok) + phase.failed == len(phase.samples)
    assert phase.failed == len(by_kind["wrong"]) + len(by_kind["error"])


def test_client_counts_a_refused_connection_as_failed():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    host, port = server.server_address
    server.server_close()  # nothing listens on the port any more
    requests = {"good": [Request("good", "/good", b"{}", b"expected")]}
    phase = run_phase("test", host, port, requests, {"good": 1}, 1, 0.2, seed=1)
    assert phase.samples and phase.failed == len(phase.samples)


# --------------------------------------------------------------------------- #
# Correctness comparators
# --------------------------------------------------------------------------- #


def _good_build_report():
    reference = load_reference()
    return reference, {
        "classes": reference["classes"],
        "verify": {"ok": True, "checksum": "ok", "errors": []},
        "counts": {game: list(reference["counts"][game]) for game in ("bcg", "ucg")},
        "mask_sha256": dict(reference["mask_sha256"]),
    }


def test_compare_build_accepts_the_reference_and_rejects_flips():
    reference, report = _good_build_report()
    assert compare_build(report, reference) == []
    for game in ("bcg", "ucg"):
        _, flipped = _good_build_report()
        flipped["counts"][game][7] += 1
        assert compare_build(flipped, reference)
    _, short = _good_build_report()
    short["classes"] -= 1
    assert compare_build(short, reference)
    _, swapped = _good_build_report()
    swapped["mask_sha256"]["ucg"] = "0" * 64  # same counts, classes swapped
    assert compare_build(swapped, reference)
    _, corrupt = _good_build_report()
    corrupt["verify"] = {"ok": True, "checksum": "mismatch", "errors": []}
    assert compare_build(corrupt, reference)


def test_compare_bytes_and_arrays_reject_one_flipped_element():
    assert compare_bytes("body", b'{"a": 1}', b'{"a": 1}') == []
    assert compare_bytes("body", b'{"a": 1}', b'{"a": 2}')
    np = pytest.importorskip("numpy")
    base = np.array([0.5, np.inf, np.nan])
    assert compare_arrays("x", base, base.copy()) == []
    flipped = base.copy()
    flipped[0] = 0.25
    assert compare_arrays("x", base, flipped)
    assert compare_arrays("x", base, base.astype(np.float32))


def test_mask_digest_sees_two_classes_swapping_answers():
    np = pytest.importorskip("numpy")
    mask = np.zeros((4, 3), dtype=bool)
    mask[0, 1] = True
    swapped = mask[[1, 0, 2, 3]]
    assert mask.sum(axis=0).tolist() == swapped.sum(axis=0).tolist()
    assert mask_digest(mask) != mask_digest(swapped)
    assert mask_digest(mask) == mask_digest(mask.copy())


def test_check_ensemble_draws_rejects_a_flipped_count():
    pytest.importorskip("numpy")
    from repro.analysis.delta_store import DeltaStore
    from repro.analysis.ensembles import run_ensemble

    delta = DeltaStore.build(5, jobs=1)
    result = run_ensemble("random_weights", n=5, draws=12, seed=3, jobs=1, delta=delta)
    assert check_ensemble_draws(delta, result, [0, 5, 11]) == []
    result.counts[5, 2] += 1
    assert check_ensemble_draws(delta, result, [5])


def test_check_ensemble_draws_rejects_windows_outside_the_extrema():
    pytest.importorskip("numpy")
    from repro.analysis.delta_store import DeltaStore
    from repro.analysis.ensembles import run_ensemble

    delta = DeltaStore.build(5, jobs=1)
    result = run_ensemble("random_weights", n=5, draws=12, seed=3, jobs=1, delta=delta)
    result.t_max_stats["max"] = [value - 1.0 for value in result.t_max_stats["max"]]
    assert check_ensemble_draws(delta, result, [4])


# --------------------------------------------------------------------------- #
# Span recorder
# --------------------------------------------------------------------------- #


class _Layered:
    @classmethod
    def outer(cls, tracer):
        with tracer.span("inner"):
            pass
        return cls

    def method(self, value):
        return value * 2


def test_tracer_self_times_exclude_child_spans_and_keep_bindings():
    tracer = Tracer()
    tracer.wrap(_Layered, "outer", "outer")
    tracer.wrap(_Layered, "method", "method", lambda t, a, k, r: t.count("doubled", r))
    assert _Layered.outer(tracer) is _Layered
    assert _Layered().method(21) == 42
    seconds, counts = tracer.ledger.seconds, tracer.ledger.counts
    assert set(seconds) == {"outer", "inner", "method"}
    assert all(value >= 0 for value in seconds.values())
    assert counts["outer.calls"] == counts["inner.calls"] == counts["method.calls"] == 1
    assert counts["doubled"] == 42
