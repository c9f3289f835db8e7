"""CI smoke: weighted-store build → save → load in a fresh process → parity.

Sweeps the ``random_weights`` scenario on ``n`` players twice — as the
in-memory :func:`repro.analysis.weighted.weighted_census` sweep (reference
path) and as the persistent
:class:`~repro.analysis.weighted_store.WeightedStore` — persists the
artifact in **both** on-disk formats, re-loads each **in a separate
interpreter**, and asserts that the loaded artifacts answer the scale grid
(stability masks, ``(t_min, t_max)`` windows, count/link/social-cost
aggregates) float-for-float identically to the in-memory sweep.  Exercises
exactly the production workflow: price the scenario once, query the
artifact anywhere.

Run::

    PYTHONPATH=src python benchmarks/smoke_weighted_store.py [--n 6]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.scenarios import build_scenario, default_t_grid
from repro.analysis.weighted import weighted_census
from repro.analysis.weighted_store import WeightedStore

_CHILD_SCRIPT = """
import json, sys
from repro.analysis.weighted_store import WeightedStore

path, ts_json = sys.argv[1], sys.argv[2]
ts = json.loads(ts_json)
store = WeightedStore.load(path)
t_min, t_max = store.stability_windows()
json.dump(
    {
        "classes": len(store),
        "scenario": store.scenario_params,
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)

    scenario = build_scenario("random_weights", args.n, seed=args.seed)
    ts = default_t_grid(args.n, 10) + [1.0]
    sweep = weighted_census(args.n, scenario.model, ts, jobs=args.jobs)
    store = WeightedStore.from_scenario(scenario, jobs=args.jobs)

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
                [sys.executable, "-c", _CHILD_SCRIPT, path, json.dumps(ts)],
                capture_output=True,
                text=True,
                env=env,
            )
            if child.returncode != 0:
                print(child.stderr, file=sys.stderr)
                print("FAIL: loading process crashed", file=sys.stderr)
                return 1
            loaded = json.loads(child.stdout)

            assert loaded["classes"] == len(sweep.graphs), "class count diverged"
            assert loaded["scenario"] == scenario.params, "recipe diverged"
            expected_mask = [[bool(x) for x in row] for row in sweep.bcg_mask]
            assert loaded["mask"] == expected_mask, "stability mask diverged"
            assert [float(x) for x in loaded["t_min"]] == sweep.t_min, "t_min"
            assert [float(x) for x in loaded["t_max"]] == sweep.t_max, "t_max"
            aggregates = loaded["aggregates"]
            assert aggregates["bcg_counts"] == sweep.bcg_counts
            for key, expected in (
                ("average_links", sweep.average_links),
                ("average_social_cost", sweep.average_social_cost),
            ):
                assert all(
                    same(a, b) for a, b in zip(aggregates[key], expected)
                ), key

    print(
        f"OK: n={args.n} weighted store round trip ({len(sweep.graphs)} "
        f"classes, {len(ts)} grid points, npz + dir formats) matches the "
        "in-memory sweep float for float across processes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
