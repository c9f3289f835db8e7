"""Tests for the telemetry spine (:mod:`repro.obs`).

Covers the instrument basics (counters, gauges, histograms with exact and
P² quantiles), the Prometheus/JSON exports, hierarchical span tracing,
the ``REPRO_METRICS`` kill-switch, and — most importantly — the
exactly-once drain/merge transport that piggybacks worker telemetry onto
``parallel_map`` chunk results and ``run_shards`` deliveries, including a
real worker crash with re-queue.
"""

import json
import math
import random
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NOOP_COUNTER,
    NOOP_GAUGE,
    NOOP_HISTOGRAM,
    _exact_quantile,
)


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    """Every test starts and ends with an empty, enabled registry."""
    previous = obs.set_metrics_enabled(True)
    obs.reset_telemetry()
    yield
    obs.reset_telemetry()
    obs.set_metrics_enabled(previous)


# --------------------------------------------------------------------------- #
# Instruments
# --------------------------------------------------------------------------- #


def test_counter_accumulates_and_rejects_negative():
    c = obs.counter("t_total", "help text")
    c.inc()
    c.inc(2.5)
    assert obs.counter("t_total").value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_labelled_series_are_distinct_instruments():
    a = obs.counter("t_total", "h", kind="a")
    b = obs.counter("t_total", "h", kind="b")
    a.inc(1)
    b.inc(2)
    assert a is not b
    assert a.value == 1 and b.value == 2
    # Same labels in any keyword order resolve to the same instrument.
    assert obs.counter("t_total", kind="a") is a


def test_kind_mismatch_is_an_error():
    obs.counter("t_shape", "h").inc()
    with pytest.raises(ValueError):
        obs.gauge("t_shape", "h")


def test_gauge_set_inc_dec():
    g = obs.gauge("t_depth", "h")
    g.set(10)
    g.inc(5)
    g.dec(2)
    assert g.value == 13


def test_histogram_buckets_count_sum_min_max():
    h = obs.histogram("t_seconds", "h")
    for value in (0.002, 0.02, 0.02, 5.0):
        h.observe(value)
    snap = h._snapshot()
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(5.042)
    assert snap["min"] == pytest.approx(0.002)
    assert snap["max"] == pytest.approx(5.0)
    # Per-bucket (non-cumulative) counts line up with the observations.
    totals = dict(zip(snap["buckets"], snap["bucket_counts"]))
    assert totals[0.01] == 1    # 0.002 lands in (0.001, 0.01]
    assert totals[0.1] == 2     # the two 0.02s land in (0.01, 0.1]
    assert totals[10.0] == 1    # 5.0 lands in (1, 10]


def test_histogram_exact_quantiles_small_samples():
    h = obs.histogram("t_exact", "h")
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
    for value in values:
        h.observe(value)
    ordered = sorted(values)
    for q in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert h.quantile(q) == pytest.approx(_exact_quantile(ordered, q))
    assert h.quantile(0.5) == pytest.approx(3.0)


def test_histogram_p2_quantiles_close_to_exact():
    rng = random.Random(7)
    values = [rng.lognormvariate(0.0, 1.0) for _ in range(4000)]
    # A tiny exact buffer forces the P² sketch path almost immediately.
    h = obs.histogram("t_p2", "h", exact_buffer=8)
    for value in values:
        h.observe(value)
    ordered = sorted(values)
    for q in (0.5, 0.9, 0.99):
        exact = _exact_quantile(ordered, q)
        estimate = h.quantile(q)
        assert estimate == pytest.approx(exact, rel=0.15), q


@pytest.mark.parametrize("stream", ["lognormal", "uniform", "ties", "wide"])
def test_histogram_p2_bank_equals_vectorised_sketch(stream):
    """The scalar sketch behind histogram quantiles is the vectorised
    engine bank, one position wide: estimates agree bit for bit."""
    from repro.engine.streaming import _P2Bank
    from repro.obs.metrics import _ScalarP2Bank

    quantiles = (0.0, 0.25, 0.5, 0.9, 0.99, 1.0)
    rng = random.Random(stream)
    draw = {
        "lognormal": lambda: rng.lognormvariate(0.0, 1.0),
        "uniform": rng.random,
        "ties": lambda: float(rng.randrange(5)),
        "wide": lambda: rng.gauss(0.0, 1e6),
    }[stream]
    bank = _ScalarP2Bank(quantiles)
    vectorised = _P2Bank(quantiles, 1)
    first = []
    for count in range(1, 2001):
        value = draw()
        bank.add(value)
        if count <= 5:
            first.append(value)
            if count == 5:
                block = np.sort(np.asarray(first))[:, None]
                vectorised.init_columns(np.zeros(1, dtype=np.int64), block)
            continue
        vectorised.add(
            np.asarray([value]), np.ones(1, dtype=bool), np.asarray([count])
        )
        if count % 50 == 0:
            for row, q in enumerate(quantiles):
                centre = float(vectorised.heights[row, 2, 0])
                assert bank.estimate(q) == centre, (count, q)


def test_histogram_time_context_manager():
    h = obs.histogram("t_timer", "h")
    with h.time():
        pass
    snap = h._snapshot()
    assert snap["count"] == 1
    assert 0 <= snap["sum"] < 5.0


def test_instruments_are_exact_under_concurrent_updates():
    """Threads updating one counter, gauge and histogram across the exact
    buffer's flush, with a tiny switch interval, lose no tally and never
    catch the buffer half-flushed."""
    h = obs.histogram("t_concurrent_seconds", "h")
    c = obs.counter("t_concurrent_total", "h")
    g = obs.gauge("t_concurrent_depth", "h")
    threads, rounds = 8, 1000
    start = threading.Barrier(threads)
    errors = []

    def worker():
        try:
            start.wait(timeout=60.0)
            for r in range(rounds):
                h.observe(float(r % 4))
                c.inc()
                g.inc()
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [
            threading.Thread(target=worker, daemon=True) for _ in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    total = threads * rounds
    assert (h.count, h.sum) == (total, 1.5 * total)
    assert h._snapshot()["bucket_counts"][0] == total // 4
    assert (c.value, g.value) == (total, total)


# --------------------------------------------------------------------------- #
# Exposition
# --------------------------------------------------------------------------- #


def test_prometheus_exposition_shape():
    obs.counter("t_reqs_total", "Requests", route="/a").inc(3)
    obs.gauge("t_depth", "Depth").set(2)
    h = obs.histogram("t_lat_seconds", "Latency")
    h.observe(0.01)
    h.observe(0.5)
    text = obs.to_prometheus()
    lines = text.splitlines()
    assert "# HELP t_reqs_total Requests" in lines
    assert "# TYPE t_reqs_total counter" in lines
    assert 't_reqs_total{route="/a"} 3' in lines
    assert "t_depth 2" in lines
    assert "# TYPE t_lat_seconds histogram" in lines
    # Cumulative buckets, terminated by +Inf == count.
    inf_lines = [l for l in lines if 'le="+Inf"' in l]
    assert inf_lines == ['t_lat_seconds_bucket{le="+Inf"} 2']
    assert "t_lat_seconds_count 2" in lines
    bucket_values = [
        float(l.rsplit(" ", 1)[1]) for l in lines
        if l.startswith("t_lat_seconds_bucket")
    ]
    assert bucket_values == sorted(bucket_values)


def test_json_snapshot_roundtrips_and_renders():
    obs.counter("t_total", "h", shard="0").inc(4)
    with obs.span("outer"):
        with obs.span("inner"):
            pass
    payload = json.loads(json.dumps(obs.snapshot()))
    assert payload["schema"] == "repro-metrics"
    assert payload["metrics"][0]["value"] == 4
    # The same renderer serves live registries and reloaded snapshots.
    assert obs.prometheus_from_snapshot(payload) == obs.to_prometheus()
    tree = obs.render_span_tree(payload["spans"])
    assert "outer" in tree and "inner" in tree


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #


def test_span_nesting_and_reentrancy():
    with obs.span("a"):
        with obs.span("b"):
            pass
        with obs.span("b"):
            pass
        with obs.span("a"):  # re-entrant: records as a/a, not a sibling
            pass
    snap = obs.get_tracer().snapshot()
    (a,) = snap["children"]
    assert a["name"] == "a" and a["count"] == 1
    children = {node["name"]: node for node in a["children"]}
    assert children["b"]["count"] == 2
    assert children["a"]["count"] == 1
    assert a["wall"] >= children["b"]["wall"] + children["a"]["wall"]


def test_spans_on_threads_do_not_nest_into_each_other():
    def worker():
        with obs.span("thread_side"):
            pass

    with obs.span("main_side"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    names = {node["name"] for node in obs.get_tracer().snapshot()["children"]}
    assert names == {"main_side", "thread_side"}


# --------------------------------------------------------------------------- #
# Kill-switch
# --------------------------------------------------------------------------- #


def test_disabled_factories_return_shared_noops():
    live = obs.counter("t_total", "h")
    live.inc()
    obs.set_metrics_enabled(False)
    assert obs.counter("anything") is NOOP_COUNTER
    assert obs.gauge("anything") is NOOP_GAUGE
    assert obs.histogram("anything") is NOOP_HISTOGRAM
    # No-ops swallow every operation, including timing.
    NOOP_COUNTER.inc()
    NOOP_GAUGE.set(5)
    with NOOP_HISTOGRAM.time():
        pass
    # A stale live handle from before the switch refuses to record.
    live.inc(100)
    assert live.value == 1
    # Spans and transport go quiet too.
    with obs.span("ignored"):
        pass
    assert obs.drain_telemetry() is None
    obs.set_metrics_enabled(True)
    assert obs.get_tracer().snapshot().get("children", []) == []


# --------------------------------------------------------------------------- #
# Drain / merge transport
# --------------------------------------------------------------------------- #


def test_drain_is_empty_after_drain():
    obs.counter("t_total", "h").inc(2)
    first = obs.drain_telemetry()
    assert first["metrics"] is not None
    assert obs.drain_telemetry() is None  # nothing pending anymore
    obs.counter("t_total", "h").inc(1)
    second = obs.drain_telemetry()
    ((_, delta),) = second["metrics"].items()
    assert delta["value"] == 1  # only the post-drain increment


def test_merge_creates_missing_instruments():
    obs.counter("t_total", "Help", shard="3").inc(5)
    h = obs.histogram("t_seconds", "H")
    h.observe(0.1)
    payload = obs.drain_telemetry()
    obs.reset_telemetry()
    obs.merge_telemetry(payload)
    assert obs.counter("t_total", shard="3").value == 5
    snap = obs.histogram("t_seconds")._snapshot()
    assert snap["count"] == 1 and snap["sum"] == pytest.approx(0.1)
    assert snap["help"] == "H"


def test_merge_none_is_noop():
    obs.merge_telemetry(None)
    assert len(obs.get_registry()) == 0


def test_gauge_merge_is_last_write_wins():
    obs.gauge("t_depth", "h").set(7)
    payload = obs.drain_telemetry()
    obs.reset_telemetry()
    obs.gauge("t_depth", "h").set(3)
    obs.get_registry().drain_deltas()
    obs.merge_telemetry(payload)
    assert obs.gauge("t_depth").value == 7


def _histogram_merge_case(observations):
    h = obs.histogram("t_m", "h")
    for value in observations:
        h.observe(value)
    return obs.drain_telemetry()


def test_histogram_merge_bucket_exact():
    left = _histogram_merge_case([0.001, 0.5])
    obs.reset_telemetry()
    right = _histogram_merge_case([0.5, 20.0])
    obs.reset_telemetry()
    obs.merge_telemetry(left)
    obs.merge_telemetry(right)
    snap = obs.histogram("t_m")._snapshot()
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(21.001)
    assert snap["min"] == pytest.approx(0.001)
    assert snap["max"] == pytest.approx(20.0)
    assert sum(snap["bucket_counts"]) == 4


# --------------------------------------------------------------------------- #
# Worker piggyback: parallel_map and run_shards
# --------------------------------------------------------------------------- #


def _counted_square(item):
    obs.counter("t_pool_items_total", "items processed").inc()
    return item * item


def test_parallel_map_merges_worker_deltas_exactly_once():
    items = list(range(24))
    results = obs_pool_map(items)
    assert results == [item * item for item in items]
    assert obs.counter("t_pool_items_total").value == len(items)


def obs_pool_map(items):
    from repro.engine import parallel_map

    return parallel_map(_counted_square, items, jobs=2)


def _counted_shard(payload):
    obs.counter("t_shard_calls_total", "shard worker calls").inc()
    return {"values": np.arange(int(payload), dtype=np.int64) * 2}


def test_run_shards_crash_requeue_does_not_double_count(tmp_path):
    from repro.engine.faults import parse_plan
    from repro.engine.shardwork import run_shards

    payloads = [3, 1, 4, 1, 5]
    plan = parse_plan("crash@1", spool=str(tmp_path / "spool"))
    report = run_shards(
        _counted_shard,
        payloads,
        jobs=2,
        fingerprint={"kind": "obs-test", "n": 5},
        fault_plan=plan,
    )
    assert report.retries >= 1  # the crash really fired and was re-queued
    assert len(report.parts) == len(payloads)
    # The crashed attempt died before its shard ran; the retry recorded
    # afresh; every delivered result merged exactly once.
    assert obs.counter("t_shard_calls_total").value == len(payloads)
    computed = obs.counter("repro_shards_computed_total", prefix="shard")
    assert computed.value == len(payloads)
    assert computed.value == report.manifest["computed"]


def test_run_shards_metrics_match_manifest_on_resume(tmp_path):
    from repro.engine.shardwork import run_shards

    payloads = [2, 3, 4]
    fingerprint = {"kind": "obs-resume", "n": 3}
    shard_dir = str(tmp_path / "shards")
    run_shards(_counted_shard, payloads, shard_dir=shard_dir, fingerprint=fingerprint)
    obs.reset_telemetry()
    report = run_shards(
        _counted_shard, payloads, shard_dir=shard_dir, fingerprint=fingerprint
    )
    resumed = obs.counter("repro_shards_resumed_total", prefix="shard")
    assert resumed.value == report.manifest["resumed"] == len(payloads)
    assert obs.counter("t_shard_calls_total").value == 0


def _raising_progress(snapshot):
    raise RuntimeError("progress sink exploded")


def test_run_shards_survives_raising_progress_callback():
    from repro.engine.shardwork import run_shards

    payloads = [2, 3]
    with pytest.warns(RuntimeWarning, match="progress callback raised"):
        report = run_shards(
            _counted_shard,
            payloads,
            fingerprint={"kind": "obs-progress", "n": 2},
            progress=_raising_progress,
        )
    assert len(report.parts) == len(payloads)
    assert report.manifest["computed"] == len(payloads)


# --------------------------------------------------------------------------- #
# Census-build counters
# --------------------------------------------------------------------------- #


def test_census_build_counts_enumerated_classes():
    # CensusStore.build enumerates through the materialised
    # enumerate_connected_graphs, and every class enters the batch kernel once.
    from repro.analysis.store import CensusStore

    store = CensusStore.build(5, include_ucg=False, jobs=1)
    enumerated = obs.counter("repro_enumeration_graphs_total").value
    assert enumerated == len(store) == 21
    assert enumerated == obs.counter(
        "repro_kernel_graphs_total", kernel="batch_stability_deltas"
    ).value
    assert obs.histogram("repro_enumeration_seconds").count == 1


def test_each_kernel_call_is_counted_once():
    # A delta build probes each of the 21 classes once; a weighted UCG build
    # probes them once more and times its UCG engine only through
    # weighted_ucg_t_sets.  No wrapper may count the same graphs again.
    from repro.analysis import DeltaStore, WeightedStore, build_scenario

    DeltaStore.build(5)
    WeightedStore.from_scenario(
        build_scenario("random_weights", 5, seed=1), include_ucg=True
    )
    metrics = obs.snapshot()["metrics"]
    graphs = [m for m in metrics if m["name"] == "repro_kernel_graphs_total"]
    assert sum(m["value"] for m in graphs) == 42
    # Only the two engine entry points report: no wrapper series.
    kernels = {m["labels"]["kernel"] for m in metrics if "kernel" in m["labels"]}
    assert kernels == {"batch_stability_deltas", "weighted_ucg_t_sets"}


# --------------------------------------------------------------------------- #
# Progress reporter
# --------------------------------------------------------------------------- #


def test_progress_reporter_renders_rate_and_eta():
    import io

    stream = io.StringIO()
    reporter = obs.ProgressReporter(stream=stream)
    reporter(
        {
            "prefix": "shard", "total": 8, "done": 4, "resumed": 1,
            "computed": 3, "retries": 2, "timeouts": 0,
            "started_at": 100.0, "updated_at": 102.0,
        }
    )
    line = stream.getvalue()
    assert "[shard] 4/8 done" in line
    assert "resumed 1" in line and "retries 2" in line
    assert "rate 1.50/s" in line  # 3 computed over 2 seconds
    assert "eta" in line


def test_exact_quantile_reference():
    ordered = [1.0, 2.0, 3.0, 4.0]
    assert _exact_quantile(ordered, 0.0) == 1.0
    assert _exact_quantile(ordered, 1.0) == 4.0
    assert _exact_quantile(ordered, 0.5) == pytest.approx(2.5)
    assert math.isnan(_exact_quantile([], 0.5)) or _exact_quantile([], 0.5) is None
