"""Artifact compatibility pins: checksums, on-disk layout and golden files.

Every census, delta and weighted artifact is pinned by its content
checksum (sha256 over column names, dtypes, shapes and bytes) for each
build path, and one ``n = 5`` artifact per kind by its exact ``meta.json``
text, ``.npy`` file list, npz member names and ``summary()``.  The
``n = 4`` golden artifacts under ``tests/data/golden_n4`` were written by
an earlier release and must keep loading, verifying and matching a fresh
build.  A change that moves any pin changes the on-disk format and needs a
format-version bump, not a new pin.
"""

import json
import os
import zipfile

import numpy as np
import pytest

from repro.analysis.delta_store import DeltaStore
from repro.analysis.scenarios import available_scenarios, build_scenario
from repro.analysis.store import CensusStore
from repro.analysis.weighted_store import WeightedStore

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden_n4")

with open(os.path.join(DATA, "artifact_pins.json"), encoding="utf-8") as _handle:
    PINS = json.load(_handle)

#: Scenario seed of every pinned weighted artifact.
SEED = 3


def _tag(ucg: bool) -> str:
    return "ucg" if ucg else "bcg"


@pytest.mark.parametrize("ucg", [False, True])
@pytest.mark.parametrize("n", range(8))
def test_census_checksums(n, ucg):
    store = CensusStore.build(n, include_ucg=ucg)
    assert store.content_checksum() == PINS["census"][f"n{n}-{_tag(ucg)}"]


@pytest.mark.skipif(
    not os.environ.get("REPRO_SLOW_TESTS"),
    reason="the n = 8 census builds take ~3 s; set REPRO_SLOW_TESTS=1 to run",
)
@pytest.mark.parametrize("ucg", [False, True])
def test_census_checksums_n8(ucg):
    store = CensusStore.build(8, include_ucg=ucg)
    assert store.content_checksum() == PINS["census"][f"n8-{_tag(ucg)}"]


@pytest.mark.parametrize("n", range(8))
def test_delta_checksums(n):
    assert DeltaStore.build(n).content_checksum() == PINS["delta"][f"n{n}"]


@pytest.fixture(scope="module")
def deltas():
    return {n: DeltaStore.build(n) for n in (5, 6)}


@pytest.mark.parametrize("ucg", [False, True])
@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("name", available_scenarios())
def test_weighted_checksums(name, n, ucg, deltas):
    scenario = build_scenario(name, n, seed=SEED)
    params = dict(scenario.params)
    tag = f"{name}-n{n}-{_tag(ucg)}"
    built = WeightedStore.build(
        n, scenario.model, scenario_params=params, include_ucg=ucg
    )
    streamed = WeightedStore.build_streamed(
        n, scenario.model, scenario_params=params, include_ucg=ucg
    )
    gathered = WeightedStore.from_delta(
        deltas[n], scenario.model, scenario_params=params, include_ucg=ucg
    )
    assert built.content_checksum() == PINS["weighted"][f"{tag}-build"]
    assert streamed.content_checksum() == PINS["weighted"][f"{tag}-streamed"]
    assert gathered.content_checksum() == PINS["weighted"][f"{tag}-from_delta"]


def _layout_store(kind: str):
    if kind == "census":
        return CensusStore.build(5, include_ucg=True)
    if kind == "delta":
        return DeltaStore.build(5)
    scenario = build_scenario("random_weights", 5, seed=SEED)
    return WeightedStore.from_scenario(scenario, include_ucg=True)


@pytest.mark.parametrize("kind", ["census", "delta", "weighted"])
def test_layout_is_pinned(kind, tmp_path):
    """meta.json bytes, file lists, npz members and summary() are frozen."""
    pins = PINS["layout"][kind]
    store = _layout_store(kind)
    directory = store.save(str(tmp_path / kind), format="dir")
    archive = store.save(str(tmp_path / f"{kind}.npz"))
    with open(os.path.join(directory, "meta.json"), encoding="utf-8") as handle:
        assert handle.read() == pins["meta_json"]
    assert sorted(os.listdir(directory)) == pins["npy_files"]
    with zipfile.ZipFile(archive) as zipped:
        assert zipped.namelist() == pins["npz_members"]
    assert json.dumps(store.summary()) == pins["summary"]


def _fresh_golden(name: str):
    if name == "census_ucg":
        return CensusStore.build(4, include_ucg=True)
    if name == "delta":
        return DeltaStore.build(4)
    scenario = build_scenario("random_weights", 4, seed=SEED)
    return WeightedStore.from_scenario(scenario, include_ucg=True)


_GOLDEN_CLASSES = {
    "census_ucg": CensusStore,
    "delta": DeltaStore,
    "weighted_ucg": WeightedStore,
}


@pytest.mark.parametrize(
    "name,format,mmap",
    [
        (name, format, mmap)
        for name in _GOLDEN_CLASSES
        for format, mmap in (("npz", False), ("dir", False), ("dir", True))
    ],
)
def test_golden_artifacts_load_and_verify(name, format, mmap):
    path = os.path.join(GOLDEN, f"{name}.npz" if format == "npz" else name)
    loaded = _GOLDEN_CLASSES[name].load(path, mmap=mmap)
    audit = loaded.verify()
    assert audit["ok"], audit["errors"]
    assert audit["checksum"] == "ok"
    fresh = _fresh_golden(name)
    columns = [
        entry[: -len(".npy")]
        for entry in os.listdir(os.path.join(GOLDEN, name))
        if entry.endswith(".npy")
    ]
    for column in columns:
        ours, theirs = getattr(fresh, column), getattr(loaded, column)
        assert np.asarray(ours).dtype == np.asarray(theirs).dtype, column
        assert np.array_equal(ours, theirs), column
        assert isinstance(theirs, np.memmap) == mmap, column
    assert loaded.content_checksum() == fresh.content_checksum()
    assert loaded.summary() == fresh.summary()
