"""Every ``verify()`` check and the dir-artifact column-list validation.

Each kind's audit is exercised against one corruption per check: broken
CSR offsets (head, ordering, tail), a sibling or dense column of the wrong
length, per-class probe counts that disagree with the edge counts, edge counts
outside ``[0, C(n,2)]``, non-finite totals, inverted UCG intervals, delta
endpoint indices outside ``[0, n)``, a malformed weight matrix and one
flipped byte against the stamped checksum.  The load tests pin that a
``meta.json`` whose column list disagrees with the schema is refused with
a ``ValueError`` (one of ``LOAD_ERRORS``) before any listed file is opened.
"""

import copy
import gc
import json
import os
import subprocess
import sys
import warnings
import zipfile

import numpy as np
import pytest

from repro.analysis.artifact import read_meta
from repro.analysis.delta_store import DeltaStore
from repro.analysis.scenarios import build_scenario
from repro.analysis.store import CensusStore
from repro.analysis.weighted_store import WeightedStore
from repro.engine.shardwork import config_fingerprint, load_shard

N = 5
PAIRS = N * (N - 1) // 2
KINDS = ("census", "delta", "weighted")

#: The CSR groups of each kind (``<group>_indptr``; UCG where built).
GROUPS = {
    "census": ("rem", "add", "ucg"),
    "delta": ("rem", "add"),
    "weighted": ("rem", "add", "ucg"),
}

#: Non-leading members of each CSR group (they must match its length).
SIBLINGS = {
    "census": ("add_hi", "ucg_hi"),
    "delta": ("rem_pay", "rem_other", "add_s_v", "add_u", "add_v"),
    "weighted": ("rem_delta", "add_s_u", "add_w_v", "add_s_v", "ucg_hi"),
}

#: Float totals that must be finite.
TOTALS = {
    "census": ("dist_total",),
    "delta": ("dist_total",),
    "weighted": ("dist_total", "edge_cost_total"),
}


def _build(kind: str):
    if kind == "census":
        return CensusStore.build(N, include_ucg=True)
    if kind == "delta":
        return DeltaStore.build(N)
    scenario = build_scenario("random_weights", N, seed=1)
    return WeightedStore.from_scenario(scenario, include_ucg=True)


@pytest.fixture(scope="module")
def stores():
    return {kind: _build(kind) for kind in KINDS}


def _corrupt(store, column: str, edit):
    """A copy of ``store`` whose ``column`` is ``edit(copy of column)``."""
    broken = copy.copy(store)
    values = np.array(getattr(store, column))
    setattr(broken, column, edit(values))
    return broken


def _assert_flagged(store, *fragments):
    audit = store.verify()
    assert not audit["ok"]
    assert any(
        all(fragment in error for fragment in fragments)
        for error in audit["errors"]
    ), (fragments, audit["errors"])


@pytest.mark.parametrize("kind", KINDS)
def test_intact_artifacts_pass(kind, stores):
    audit = stores[kind].verify()
    assert audit["ok"] and audit["errors"] == []


def _indptr_cases():
    for kind in KINDS:
        for group in GROUPS[kind]:
            for where in ("head", "order", "tail"):
                yield kind, group, where


@pytest.mark.parametrize("kind,group,where", list(_indptr_cases()))
def test_broken_indptr(kind, group, where, stores):
    def edit(indptr):
        if where == "head":
            indptr[0] = 1
        elif where == "order":
            # A dip in the middle keeps the head and the tail intact.
            middle = indptr.shape[0] // 2
            indptr[middle] = indptr[-1] + 1
        else:
            indptr[-1] += 1
        return indptr

    broken = _corrupt(stores[kind], f"{group}_indptr", edit)
    _assert_flagged(broken, f"{group}:", "indptr")


@pytest.mark.parametrize(
    "kind,column", [(kind, column) for kind in KINDS for column in SIBLINGS[kind]]
)
def test_sibling_of_wrong_length(kind, column, stores):
    broken = _corrupt(stores[kind], column, lambda values: values[:-1])
    _assert_flagged(broken, column, "lengths differ")


@pytest.mark.parametrize("column", ["dist_total", "cert_words"])
@pytest.mark.parametrize("kind", KINDS)
def test_dense_column_of_wrong_length(kind, column, stores):
    broken = _corrupt(stores[kind], column, lambda values: values[:-1])
    _assert_flagged(broken, column, "rows")


@pytest.mark.parametrize("group", ["rem", "add"])
@pytest.mark.parametrize("kind", KINDS)
def test_probe_counts_disagree_with_edges(kind, group, stores):
    """Moving one class boundary keeps the CSR layout valid but gives two
    classes probe counts that no longer match their edge counts."""

    def edit(indptr):
        assert indptr[1] < indptr[2]
        indptr[1] += 1
        return indptr

    broken = _corrupt(stores[kind], f"{group}_indptr", edit)
    _assert_flagged(broken, f"{group}:", "per-class probe counts")


@pytest.mark.parametrize("value", [-1, PAIRS + 1])
@pytest.mark.parametrize("kind", KINDS)
def test_num_edges_out_of_range(kind, value, stores):
    def edit(num_edges):
        num_edges[0] = value
        return num_edges

    _assert_flagged(
        _corrupt(stores[kind], "num_edges", edit), f"num_edges outside [0, {PAIRS}]"
    )


@pytest.mark.parametrize(
    "kind,column,value",
    [
        (kind, column, value)
        for kind in KINDS
        for column in TOTALS[kind]
        for value in (float("nan"), float("inf"))
    ],
)
def test_non_finite_totals(kind, column, value, stores):
    def edit(totals):
        totals[-1] = value
        return totals

    _assert_flagged(_corrupt(stores[kind], column, edit), column, "non-finite")


@pytest.mark.parametrize("kind", ["census", "weighted"])
def test_inverted_ucg_interval(kind, stores):
    store = stores[kind]
    bounded = np.flatnonzero(np.isfinite(store.ucg_hi))
    assert bounded.shape[0] > 0
    index = int(bounded[0])

    def edit(lo):
        lo[index] = store.ucg_hi[index] + 1.0
        return lo

    _assert_flagged(_corrupt(store, "ucg_lo", edit), "ucg:", "lo > hi")


@pytest.mark.parametrize("value", [-1, N])
@pytest.mark.parametrize("column", ["rem_pay", "rem_other", "add_u", "add_v"])
def test_delta_endpoint_out_of_range(column, value, stores):
    def edit(indices):
        indices[0] = value
        return indices

    _assert_flagged(
        _corrupt(stores["delta"], column, edit), column, f"outside [0, {N})"
    )


@pytest.mark.parametrize("shape", [(N, N + 1), (N,), (N - 1, N - 1)])
def test_weight_matrix_of_wrong_shape(shape, stores):
    broken = _corrupt(stores["weighted"], "weight_matrix", lambda _: np.ones(shape))
    _assert_flagged(broken, "weight_matrix", "shape")


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_weight_matrix_not_finite(value, stores):
    def edit(matrix):
        matrix[0, 1] = value
        return matrix

    broken = _corrupt(stores["weighted"], "weight_matrix", edit)
    _assert_flagged(broken, "weight_matrix", "non-finite")


_CLASSES = {"census": CensusStore, "delta": DeltaStore, "weighted": WeightedStore}


@pytest.mark.parametrize("kind", KINDS)
def test_flipped_byte_breaks_the_checksum(kind, stores, tmp_path):
    """The certificate bytes have no structural check: only the stamp can
    catch a flip there."""
    path = stores[kind].save(str(tmp_path / kind), format="dir")
    column = os.path.join(path, "cert_words.npy")
    with open(column, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        byte = handle.read(1)[0]
        handle.seek(-1, os.SEEK_END)
        handle.write(bytes([byte ^ 0x01]))
    audit = _CLASSES[kind].load(path).verify()
    assert not audit["ok"]
    assert audit["checksum"] == "mismatch"
    assert any("checksum" in error for error in audit["errors"])


# --------------------------------------------------------------------------- #
# meta.json column lists that disagree with the schema
# --------------------------------------------------------------------------- #


def _rewrite_columns(path: str, edit) -> None:
    meta_path = os.path.join(path, "meta.json")
    with open(meta_path, encoding="utf-8") as handle:
        meta = json.load(handle)
    meta["columns"] = edit(list(meta["columns"]))
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)


def _tampered(kind: str, case: str, stores, tmp_path) -> str:
    path = stores[kind].save(str(tmp_path / kind), format="dir")
    if case == "missing":
        _rewrite_columns(path, lambda names: [n for n in names if n != "dist_total"])
    elif case == "foreign":
        np.save(os.path.join(path, "bogus.npy"), np.zeros(3))
        _rewrite_columns(path, lambda names: names + ["bogus"])
    else:
        np.save(str(tmp_path / "outside.npy"), np.zeros(3))
        _rewrite_columns(path, lambda names: names + ["../outside"])
    return path


CASES = ("missing", "foreign", "outside")


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", KINDS)
def test_column_list_mismatch_is_a_value_error(kind, case, stores, tmp_path, monkeypatch):
    path = _tampered(kind, case, stores, tmp_path)
    opened = []
    real_load = np.load

    def recording_load(file, *args, **kwargs):
        opened.append(os.path.realpath(os.fspath(file)))
        return real_load(file, *args, **kwargs)

    monkeypatch.setattr(np, "load", recording_load)
    with pytest.raises(ValueError) as raised:
        _CLASSES[kind].load(path)
    message = str(raised.value)
    expected = {"missing": "dist_total", "foreign": "bogus", "outside": "../outside"}
    assert expected[case] in message
    assert os.path.realpath(str(tmp_path / "outside.npy")) not in opened


def _cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), "..", "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize(
    "kind,command", [("census", "census"), ("weighted", "scenarios")]
)
def test_cli_reports_column_list_mismatch(kind, command, case, stores, tmp_path):
    path = _tampered(kind, case, stores, tmp_path)
    result = _cli(command, "--load", path)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"cannot load {path}: ")
    assert "Traceback" not in result.stderr


# --------------------------------------------------------------------------- #
# Truncated npz archives release their file handle
# --------------------------------------------------------------------------- #


def _read_truncated(call: str, path: str) -> None:
    if call == "load_shard":
        fingerprint = config_fingerprint({"kind": "census", "n": N})
        assert load_shard(path, fingerprint) == ("corrupt", None)
        return
    with pytest.raises(zipfile.BadZipFile):
        if call == "load":
            CensusStore.load(path)
        else:
            read_meta(path)


@pytest.mark.parametrize("call", ["load_shard", "load", "read_meta"])
def test_truncated_npz_closes_its_file(call, stores, tmp_path):
    """``np.load`` hands an opened archive to ``NpzFile``, whose constructor
    raises on a truncated zip without closing it: every reader must own the
    handle itself, or the shard recovery, the catalog peek and the ensemble
    resume leak one file per torn archive."""
    path = stores["census"].save(str(tmp_path / "census.npz"))
    with open(path, "r+b") as handle:
        handle.truncate(40)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        _read_truncated(call, path)
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]
