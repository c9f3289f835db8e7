"""CI smoke: weighted-store build → save → load in a fresh process → parity.

Builds the :class:`~repro.analysis.weighted_store.WeightedStore` of the
``random_weights`` scenario on ``n`` players, checks its stability mask
against the per-graph reference loop
(:func:`repro.analysis.weighted.weighted_python_sweep_bcg`), persists the
artifact in **both** on-disk formats and re-loads each **in a separate
interpreter**.  Every loaded column must equal the in-memory store's byte
for byte (and so must ``content_checksum()``), and the loaded artifact must
answer the scale grid — stability masks, ``(t_min, t_max)`` windows,
count/link/social-cost aggregates — float-for-float like the in-memory
store.  Exercises exactly the production workflow: price the scenario once,
query the artifact anywhere.

Run::

    PYTHONPATH=src python benchmarks/smoke_weighted_store.py [--n 6]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.scenarios import build_scenario, default_t_grid
from repro.analysis.weighted import weighted_python_sweep_bcg
from repro.analysis.weighted_store import WeightedStore
from repro.graphs import enumerate_connected_graphs

_CHILD_SCRIPT = """
import json, sys
from repro.analysis.weighted_store import WeightedStore

path, ts_json, here = sys.argv[1], sys.argv[2], sys.argv[3]
sys.path.insert(0, here)
from smoke_weighted_store import column_digests

ts = json.loads(ts_json)
store = WeightedStore.load(path)
t_min, t_max = store.stability_windows()
json.dump(
    {
        "classes": len(store),
        "scenario": store.scenario_params,
        "checksum": store.content_checksum(),
        "columns": column_digests(store),
        "mask": store.stable_mask(ts).tolist(),
        "t_min": [repr(x) for x in t_min.tolist()],
        "t_max": [repr(x) for x in t_max.tolist()],
        "aggregates": store.aggregates(ts),
    },
    sys.stdout,
)
"""


def same(a: float, b: float) -> bool:
    return (a != a and b != b) or a == b


def column_digests(store: WeightedStore) -> dict:
    """``{name: [dtype, shape, sha256]}`` over every column of ``store``."""
    return {
        name: [
            str(array.dtype),
            list(array.shape),
            hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest(),
        ]
        for name, array in store._columns().items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)

    scenario = build_scenario("random_weights", args.n, seed=args.seed)
    ts = default_t_grid(args.n, 10) + [1.0]
    store = WeightedStore.from_scenario(scenario, jobs=args.jobs)
    mask = store.stable_mask(ts).tolist()
    reference = weighted_python_sweep_bcg(
        enumerate_connected_graphs(args.n), scenario.model, ts
    )
    assert mask == reference, "stability mask diverged from the per-graph loop"
    t_min, t_max = store.stability_windows()
    aggregates = store.aggregates(ts)
    digests = column_digests(store)

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), "..", "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    with tempfile.TemporaryDirectory() as tmp:
        paths = [
            store.save(os.path.join(tmp, f"weighted{args.n}.npz")),
            store.save(os.path.join(tmp, f"weighted{args.n}_dir"), format="dir"),
        ]
        for path in paths:
            child = subprocess.run(
                [
                    sys.executable, "-c", _CHILD_SCRIPT,
                    path, json.dumps(ts), os.path.dirname(os.path.abspath(__file__)),
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            if child.returncode != 0:
                print(child.stderr, file=sys.stderr)
                print("FAIL: loading process crashed", file=sys.stderr)
                return 1
            loaded = json.loads(child.stdout)

            assert loaded["classes"] == len(store), "class count diverged"
            assert loaded["scenario"] == scenario.params, "recipe diverged"
            assert loaded["columns"] == digests, "a column diverged"
            assert loaded["checksum"] == store.content_checksum(), "checksum"
            assert loaded["mask"] == mask, "stability mask diverged"
            assert [float(x) for x in loaded["t_min"]] == t_min.tolist(), "t_min"
            assert [float(x) for x in loaded["t_max"]] == t_max.tolist(), "t_max"
            assert loaded["aggregates"]["ts"] == aggregates["ts"]
            assert loaded["aggregates"]["bcg_counts"] == aggregates["bcg_counts"]
            for key in ("average_links", "average_social_cost"):
                assert all(
                    same(a, b)
                    for a, b in zip(loaded["aggregates"][key], aggregates[key])
                ), key

    print(
        f"OK: n={args.n} weighted store round trip ({len(store)} classes, "
        f"{len(ts)} grid points, npz + dir formats) matches the in-memory "
        "store column for column across processes, and its mask matches "
        "the per-graph reference loop"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
