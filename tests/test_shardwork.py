"""Unit and crash-matrix tests for the fault-tolerant shard runner.

Two layers:

* :func:`repro.engine.run_shards` in isolation — parity across serial and
  pooled execution, in-order streaming, checksummed resume, fingerprint
  rejection, manifest/heartbeat contents, and every recovery path (worker
  crash, hang past the deadline, torn write, bit rot, serial fallback)
  driven by real process death and real corrupt bytes via
  :mod:`repro.engine.faults`;
* the crash-resume matrix over all three columnar stores — for each of
  census / weighted / delta and each fault kind, an interrupted or faulted
  build followed by a resume must yield an artifact **bit-identical** to an
  uninterrupted build, and a shard belonging to a different configuration
  must be rejected, never merged.
"""

import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.delta_store import DeltaStore
from repro.analysis.store import CensusStore
from repro.analysis.weighted_store import WeightedStore
from repro.costmodels import UniformCost
from repro.engine.faults import (
    CRASH_EXIT_CODE,
    Fault,
    FaultInjected,
    FaultPlan,
    active_plan,
    flip_byte,
    parse_plan,
)
from repro.engine.shardwork import (
    MANIFEST_SCHEMA,
    config_fingerprint,
    content_checksum,
    load_shard,
    manifest_path,
    run_shards,
    save_shard,
    shard_path,
)


def _double(payload):
    """Picklable shard worker: ints in, column dicts out."""
    return {"values": np.arange(int(payload), dtype=np.int64) * 2}


def _boom(payload):
    raise ValueError(f"boom {payload}")


PAYLOADS = [3, 1, 4, 1, 5]
FINGERPRINT = {"kind": "test", "n": 5}


def expected_parts():
    return [_double(p) for p in PAYLOADS]


def assert_parts_equal(parts):
    for part, want in zip(parts, expected_parts()):
        assert sorted(part) == sorted(want)
        for name in want:
            assert np.array_equal(part[name], want[name])


# --------------------------------------------------------------------------- #
# Fingerprints, checksums, shard files
# --------------------------------------------------------------------------- #


def test_config_fingerprint_is_order_and_container_insensitive():
    a = config_fingerprint({"n": 5, "kind": "x", "w": [1.0, 2.0]})
    b = config_fingerprint({"w": np.array([1.0, 2.0]), "kind": "x", "n": 5})
    assert a == b
    assert a != config_fingerprint({"n": 6, "kind": "x", "w": [1.0, 2.0]})
    with pytest.raises(TypeError):
        config_fingerprint({"bad": object()})


def test_content_checksum_sees_values_dtypes_and_names():
    base = {"a": np.arange(4), "b": np.ones(3)}
    assert content_checksum(base) == content_checksum(
        {"b": np.ones(3), "a": np.arange(4)}
    )
    assert content_checksum(base) != content_checksum(
        {"a": np.arange(4), "b": np.ones(4)}
    )
    assert content_checksum({"a": np.arange(4)}) != content_checksum(
        {"a": np.arange(4).astype(np.int32)}
    )


def test_save_load_shard_roundtrip_and_rejections(tmp_path):
    fp = config_fingerprint(FINGERPRINT)
    path = shard_path(str(tmp_path), "shard", 0, 1)
    part = {"values": np.arange(7, dtype=np.int64)}
    save_shard(path, part, fp)
    status, loaded = load_shard(path, fp)
    assert status == "ok"
    assert np.array_equal(loaded["values"], part["values"])

    # Missing file.
    assert load_shard(shard_path(str(tmp_path), "shard", 1, 1), fp) == (
        "missing",
        None,
    )
    # A different build configuration must raise, not merge.
    with pytest.raises(ValueError, match="different build configuration"):
        load_shard(path, config_fingerprint({"kind": "test", "n": 6}))
    # Legacy files (no schema tag) count as corrupt and are recomputed.
    legacy = os.path.join(str(tmp_path), "legacy.npz")
    np.savez(legacy, values=np.arange(3))
    assert load_shard(legacy, fp) == ("corrupt", None)
    # Bit rot is caught by the content checksum, not by "does it load?".
    flip_byte(path)
    assert load_shard(path, fp)[0] == "corrupt"
    # Metadata-reserved column names are rejected up front.
    with pytest.raises(ValueError, match="collides with shard metadata"):
        save_shard(path, {"__values__": np.arange(3)}, fp)


# --------------------------------------------------------------------------- #
# The coordinator: parity, ordering, resume, manifests
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("jobs", [None, 2])
def test_run_shards_parity_across_jobs(jobs):
    report = run_shards(_double, PAYLOADS, jobs=jobs)
    assert report.total == len(PAYLOADS)
    assert report.computed == len(PAYLOADS)
    assert report.resumed == 0
    assert_parts_equal(report.parts)


@pytest.mark.parametrize("jobs", [None, 2])
def test_consume_streams_strictly_in_index_order(jobs):
    seen = []

    def fold(index, part):
        seen.append((index, part))

    report = run_shards(_double, PAYLOADS, jobs=jobs, consume=fold)
    assert report.parts is None
    assert [index for index, _ in seen] == list(range(len(PAYLOADS)))
    assert_parts_equal([part for _, part in seen])


def test_resume_reuses_every_verified_shard(tmp_path):
    shard_dir = str(tmp_path / "shards")
    first = run_shards(
        _double, PAYLOADS, shard_dir=shard_dir, fingerprint=FINGERPRINT
    )
    assert first.computed == len(PAYLOADS)
    second = run_shards(
        _double, PAYLOADS, shard_dir=shard_dir, fingerprint=FINGERPRINT
    )
    assert second.resumed == len(PAYLOADS)
    assert second.computed == 0
    assert_parts_equal(second.parts)

    manifest = json.loads(
        Path(manifest_path(shard_dir)).read_text(encoding="utf-8")
    )
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["done"] == manifest["total"] == len(PAYLOADS)
    assert manifest["resumed"] == len(PAYLOADS)
    assert manifest["finished_at"] is not None
    assert manifest["fingerprint"] == config_fingerprint(FINGERPRINT)
    assert all(
        shard["state"] == "done" and shard["source"] == "resumed"
        for shard in manifest["shards"].values()
    )


def test_shard_dir_requires_a_fingerprint(tmp_path):
    with pytest.raises(ValueError, match="requires a fingerprint"):
        run_shards(_double, PAYLOADS, shard_dir=str(tmp_path))


def test_wrong_config_shard_dir_is_rejected(tmp_path):
    shard_dir = str(tmp_path / "shards")
    run_shards(_double, PAYLOADS, shard_dir=shard_dir, fingerprint=FINGERPRINT)
    with pytest.raises(ValueError, match="different build configuration"):
        run_shards(
            _double,
            PAYLOADS,
            shard_dir=shard_dir,
            fingerprint={"kind": "test", "n": 6},
        )


def test_corrupt_shard_is_recomputed_with_a_warning(tmp_path):
    shard_dir = str(tmp_path / "shards")
    first = run_shards(
        _double, PAYLOADS, shard_dir=shard_dir, fingerprint=FINGERPRINT
    )
    victim = shard_path(shard_dir, "shard", 2, len(PAYLOADS))
    flip_byte(victim)
    with pytest.warns(RuntimeWarning, match="failed validation"):
        resumed = run_shards(
            _double, PAYLOADS, shard_dir=shard_dir, fingerprint=FINGERPRINT
        )
    assert resumed.corrupt_resumes == 1
    assert resumed.resumed == len(PAYLOADS) - 1
    assert resumed.computed == 1
    assert_parts_equal(resumed.parts)
    assert resumed.manifest["corrupt_resumes"] == 1
    # The recomputed shard is byte-for-byte re-verifiable on the next run.
    assert load_shard(victim, config_fingerprint(FINGERPRINT))[0] == "ok"
    del first


def test_progress_callback_sees_heartbeat_snapshots(tmp_path):
    snapshots = []
    report = run_shards(
        _double,
        PAYLOADS,
        manifest_dir=str(tmp_path),
        fingerprint=FINGERPRINT,
        progress=snapshots.append,
    )
    assert snapshots, "progress hook never fired"
    final = snapshots[-1]
    assert final["done"] == final["total"] == len(PAYLOADS)
    assert final["finished_at"] is not None
    assert report.manifest_path == manifest_path(str(tmp_path))
    assert os.path.exists(report.manifest_path)
    assert_parts_equal(report.parts)


@pytest.mark.parametrize("jobs", [None, 2])
def test_worker_errors_propagate(jobs):
    with pytest.raises(ValueError, match="boom"):
        run_shards(_boom, PAYLOADS, jobs=jobs, max_retries=0)


def test_negative_max_retries_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        run_shards(_double, PAYLOADS, max_retries=-1)


# --------------------------------------------------------------------------- #
# Fault plans
# --------------------------------------------------------------------------- #


def test_parse_plan_specs():
    plan = parse_plan("crash@2,hang@0*3", spool="/tmp/x", hang_seconds=2.5)
    assert plan.faults == (Fault("crash", 2), Fault("hang", 0, times=3))
    assert plan.spool == "/tmp/x"
    assert plan.hang_seconds == 2.5
    with pytest.raises(ValueError, match="bad fault spec"):
        parse_plan("crash")
    with pytest.raises(ValueError, match="unknown fault kind"):
        parse_plan("melt@0")
    with pytest.raises(ValueError):
        Fault("crash", 0, times=0)


def test_active_plan_reads_the_environment(tmp_path):
    assert active_plan({}) is None
    plan = active_plan(
        {
            "REPRO_FAULTS": "torn@1",
            "REPRO_FAULT_SPOOL": str(tmp_path),
            "REPRO_FAULT_HANG_SECONDS": "1.5",
        }
    )
    assert plan.faults == (Fault("torn", 1),)
    assert plan.spool == str(tmp_path)
    assert plan.hang_seconds == 1.5


def test_spool_bounds_fault_firings(tmp_path):
    plan = FaultPlan(faults=(Fault("flip", 0, times=2),), spool=str(tmp_path))
    assert plan.claim("flip", 0)
    assert plan.claim("flip", 0)
    assert not plan.claim("flip", 0)
    assert not plan.claim("flip", 1)
    assert not plan.claim("crash", 0)


# --------------------------------------------------------------------------- #
# Runner recovery paths, driven by real faults
# --------------------------------------------------------------------------- #


def _manager_threads():
    from concurrent.futures.process import _ExecutorManagerThread

    return {t for t in threading.enumerate() if isinstance(t, _ExecutorManagerThread)}


def test_clean_run_joins_its_pool_before_returning():
    """A finished run leaves no executor thread to race interpreter exit."""
    before = _manager_threads()
    report = run_shards(_double, PAYLOADS, jobs=2)
    assert_parts_equal(report.parts)
    assert not _manager_threads() - before


def test_crash_recovery_requeues_only_incomplete_shards(tmp_path):
    plan = FaultPlan(faults=(Fault("crash", 1),), spool=str(tmp_path / "spool"))
    report = run_shards(_double, PAYLOADS, jobs=2, fault_plan=plan)
    assert_parts_equal(report.parts)
    assert report.retries >= 1
    assert report.pool_rebuilds >= 1
    assert report.computed == len(PAYLOADS)


def test_hang_recovery_kills_the_pool_and_retries(tmp_path):
    plan = FaultPlan(
        faults=(Fault("hang", 0),),
        spool=str(tmp_path / "spool"),
        hang_seconds=60.0,
    )
    report = run_shards(_double, PAYLOADS, jobs=2, timeout=1.5, fault_plan=plan)
    assert_parts_equal(report.parts)
    assert report.timeouts >= 1
    assert report.pool_rebuilds >= 1


def test_torn_write_aborts_then_resume_recovers(tmp_path):
    shard_dir = str(tmp_path / "shards")
    plan = FaultPlan(faults=(Fault("torn", 0),), spool=str(tmp_path / "spool"))
    with pytest.raises(FaultInjected, match="torn write"):
        run_shards(
            _double,
            PAYLOADS,
            shard_dir=shard_dir,
            fingerprint=FINGERPRINT,
            fault_plan=plan,
        )
    # The torn file sits under the final shard name; only the checksum
    # distinguishes it from a healthy shard.
    with pytest.warns(RuntimeWarning, match="failed validation"):
        resumed = run_shards(
            _double, PAYLOADS, shard_dir=shard_dir, fingerprint=FINGERPRINT
        )
    assert resumed.corrupt_resumes >= 1
    assert_parts_equal(resumed.parts)


def test_serial_fallback_finishes_a_shard_that_keeps_killing_workers(tmp_path):
    # Shard 0 crashes its worker on every pool attempt; after max_retries
    # the parent runs it serially, where worker faults are off by design.
    plan = FaultPlan(
        faults=(Fault("crash", 0, times=10),), spool=str(tmp_path / "spool")
    )
    report = run_shards(
        _double, PAYLOADS, jobs=2, max_retries=1, fault_plan=plan
    )
    assert_parts_equal(report.parts)
    assert report.serial_fallbacks >= 1
    assert report.manifest_path is None  # no manifest_dir: nothing on disk
    serial = [
        s for s in report.manifest["shards"].values() if s["source"] == "serial"
    ]
    assert serial and all(s["state"] == "done" for s in serial)
    assert CRASH_EXIT_CODE == 13


# --------------------------------------------------------------------------- #
# Crash-resume matrix over the three columnar stores
# --------------------------------------------------------------------------- #

N = 5


def _build_census(**kwargs):
    return CensusStore.build_streamed(N, include_ucg=False, shard_level=2, **kwargs)


def _build_weighted(**kwargs):
    return WeightedStore.build_streamed(N, UniformCost(1.0), shard_level=2, **kwargs)


def _build_delta(**kwargs):
    return DeltaStore.build_streamed(N, shard_level=2, **kwargs)


STORES = {
    "census": (_build_census, "shard"),
    "weighted": (_build_weighted, "dshard"),
    "delta": (_build_delta, "dshard"),
}


@pytest.fixture(scope="module")
def baselines():
    """Uninterrupted serial builds — the bit-identity reference."""
    return {
        name: builder().content_checksum()
        for name, (builder, _) in STORES.items()
    }


@pytest.mark.parametrize("store_name", sorted(STORES))
def test_store_survives_worker_crash(tmp_path, baselines, store_name):
    builder, _ = STORES[store_name]
    plan = FaultPlan(faults=(Fault("crash", 1),), spool=str(tmp_path / "spool"))
    shard_dir = str(tmp_path / "shards")
    store = builder(jobs=2, shard_dir=shard_dir, fault_plan=plan)
    assert store.content_checksum() == baselines[store_name]
    manifest = json.loads(
        Path(manifest_path(shard_dir)).read_text(encoding="utf-8")
    )
    assert manifest["retries"] >= 1
    assert manifest["done"] == manifest["total"]


@pytest.mark.parametrize("store_name", sorted(STORES))
def test_store_survives_hung_worker(tmp_path, baselines, store_name):
    builder, _ = STORES[store_name]
    plan = FaultPlan(
        faults=(Fault("hang", 0),),
        spool=str(tmp_path / "spool"),
        hang_seconds=60.0,
    )
    shard_dir = str(tmp_path / "shards")
    store = builder(jobs=2, shard_dir=shard_dir, timeout=2.0, fault_plan=plan)
    assert store.content_checksum() == baselines[store_name]
    manifest = json.loads(
        Path(manifest_path(shard_dir)).read_text(encoding="utf-8")
    )
    assert manifest["timeouts"] >= 1


@pytest.mark.parametrize("store_name", sorted(STORES))
def test_store_resumes_bit_identical_after_torn_write(
    tmp_path, baselines, store_name
):
    builder, _ = STORES[store_name]
    shard_dir = str(tmp_path / "shards")
    plan = FaultPlan(faults=(Fault("torn", 0),), spool=str(tmp_path / "spool"))
    with pytest.raises(FaultInjected):
        builder(shard_dir=shard_dir, fault_plan=plan)
    with pytest.warns(RuntimeWarning, match="failed validation"):
        store = builder(shard_dir=shard_dir)
    assert store.content_checksum() == baselines[store_name]
    manifest = json.loads(
        Path(manifest_path(shard_dir)).read_text(encoding="utf-8")
    )
    assert manifest["corrupt_resumes"] >= 1


@pytest.mark.parametrize("store_name", sorted(STORES))
def test_store_resumes_bit_identical_after_bit_rot(
    tmp_path, baselines, store_name
):
    builder, prefix = STORES[store_name]
    shard_dir = tmp_path / "shards"
    builder(shard_dir=str(shard_dir))
    victim = sorted(shard_dir.glob(f"{prefix}_*.npz"))[0]
    flip_byte(str(victim))
    with pytest.warns(RuntimeWarning, match="failed validation"):
        store = builder(shard_dir=str(shard_dir))
    assert store.content_checksum() == baselines[store_name]


@pytest.mark.parametrize("store_name", sorted(STORES))
def test_store_rejects_wrong_config_shards(tmp_path, store_name):
    builder, _ = STORES[store_name]
    shard_dir = str(tmp_path / "shards")
    builder(shard_dir=shard_dir)
    # Same directory, different semantic configuration → the fingerprint
    # check must refuse to merge, never silently blend artifacts.
    other = {
        "census": lambda: CensusStore.build_streamed(
            N, include_ucg=True, shard_level=2, shard_dir=shard_dir
        ),
        "weighted": lambda: WeightedStore.build_streamed(
            N + 1, UniformCost(1.0), shard_level=2, shard_dir=shard_dir
        ),
        "delta": lambda: DeltaStore.build_streamed(
            N + 1, shard_level=2, shard_dir=shard_dir
        ),
    }[store_name]
    with pytest.raises(ValueError, match="different build configuration"):
        other()


@pytest.mark.parametrize("store_name", sorted(STORES))
def test_store_verify_passes_on_faulted_builds(tmp_path, store_name):
    builder, _ = STORES[store_name]
    plan = FaultPlan(faults=(Fault("crash", 0),), spool=str(tmp_path / "spool"))
    store = builder(jobs=2, fault_plan=plan)
    audit = store.verify()
    assert audit["ok"], audit["errors"]
    assert audit["errors"] == []
