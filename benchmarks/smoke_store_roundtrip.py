"""CI smoke: census-store build → save → load in a fresh process → parity.

Builds the n = 6 :class:`~repro.analysis.store.CensusStore`, persists it,
re-loads it **in a separate interpreter**, and asserts that the loaded
artifact answers an α-grid (stability masks, Nash masks, counts and PoA /
link-count aggregates) element-for-element identically to the in-memory
store.  Exercises exactly the production workflow: build on one
machine/process, query on another.

Run::

    PYTHONPATH=src python benchmarks/smoke_store_roundtrip.py [--n 6]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.store import CensusStore
from repro.analysis.sweeps import log_spaced_alphas

_CHILD_SCRIPT = """
import json, sys
from repro.analysis.store import CensusStore

path, alphas_json = sys.argv[1], sys.argv[2]
alphas = json.loads(alphas_json)
store = CensusStore.load(path)
json.dump(
    {
        "classes": len(store),
        "bcg": store.stable_mask(alphas, "bcg").tolist(),
        "ucg": store.stable_mask(alphas, "ucg").tolist(),
        "bcg_agg": store.grid_aggregates(alphas, "bcg"),
        "ucg_agg": store.grid_aggregates(alphas, "ucg"),
    },
    sys.stdout,
)
"""


def same(a: float, b: float) -> bool:
    return (a != a and b != b) or a == b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)

    store = CensusStore.build(args.n, jobs=args.jobs)
    alphas = log_spaced_alphas(0.2, float(args.n * args.n), 12) + [1.0]

    with tempfile.TemporaryDirectory() as tmp:
        path = store.save(os.path.join(tmp, f"census{args.n}.npz"))
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(__file__), "..", "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        child = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, path, json.dumps(alphas)],
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
    assert loaded["bcg"] == store.stable_mask(alphas, "bcg").tolist(), "BCG mask"
    assert loaded["ucg"] == store.stable_mask(alphas, "ucg").tolist(), "UCG mask"
    for game in ("bcg", "ucg"):
        for key, values in store.grid_aggregates(alphas, game).items():
            observed = loaded[f"{game}_agg"][key]
            assert len(observed) == len(values), (game, key)
            assert all(same(a, b) for a, b in zip(observed, values)), (game, key)

    print(
        f"OK: n={args.n} store round trip ({len(store)} classes, "
        f"{len(alphas)} grid points, {store.nbytes} bytes resident) matches "
        "the in-memory store element for element across processes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
