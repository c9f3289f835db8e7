"""The repository benchmark: three workloads, end to end or per layer.

    python3 perfbench/run.py --workload build_n8|ensemble_n7|serve_mixed|all \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of one workload with no
instrumentation.  ``--trace 1`` is the separate traced run: it times the
calls into every layer of all three workloads (so each per-layer metric
is measured in every traced run) and checks the traced counts against
the program's own telemetry.  Human-readable lines come first; the last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--workload all`` runs the three workloads in turn and
names each metric ``<workload>.<metric>``.

The benchmark needs the repository's ``src/`` next to ``perfbench/`` and
exits with status 2 without printing a result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from common import ROOT, env_stamp, require_checkout, result_line
from workloads import WORKLOADS, Outcome

#: Scratch space inside the checkout; removed when the run ends.
WORK_ROOT = ROOT / ".perfbench_work"


def _run(name: str, fn, seed: int, seconds: float) -> Outcome:
    """One workload function in a fresh scratch directory."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=str(WORK_ROOT))
    try:
        return fn(seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _declared_mismatch(metrics: dict, section: str) -> list:
    """Errors for metrics that differ from ``BENCHMARK.json``'s declaration."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)[section]}
    measured = {name: value["unit"] for name, value in metrics.items()}
    if declared == measured:
        return []
    return [
        f"{section} metrics differ from BENCHMARK.json: "
        f"missing {sorted(set(declared) - set(measured))}, "
        f"undeclared {sorted(set(measured) - set(declared))}, "
        f"unit changes {sorted(n for n in set(declared) & set(measured) if declared[n] != measured[n])}"
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("build_n8", "ensemble_n7", "serve_mixed", "all"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_checkout()

    if args.trace:
        # Every traced run measures the layers of all three workloads.
        jobs = [(name, traced) for name, (_plain, traced) in WORKLOADS.items()]
    elif args.workload == "all":
        jobs = [(name, plain) for name, (plain, _traced) in WORKLOADS.items()]
    else:
        jobs = [(args.workload, WORKLOADS[args.workload][0])]
    print("env " + json.dumps(env_stamp(args.workload, args.seed, bool(args.trace)), sort_keys=True))
    attempted = failed = 0
    errors, metrics = [], {}
    for name, fn in jobs:
        outcome = _run(name, fn, args.seed, args.seconds)
        attempted += outcome.attempted
        failed += outcome.failed
        errors += outcome.errors
        measured = outcome.metrics
        if args.workload == "all" and not args.trace:
            measured = {f"{name}.{key}": value for key, value in measured.items()}
        metrics.update(measured)
        print(f"== {name} ({'traced' if args.trace else 'end to end'})")
        for line in outcome.lines:
            print(line)
    if args.workload != "all":
        errors += _declared_mismatch(metrics, "per_layer" if args.trace else "end_to_end")
    for key, value in sorted(metrics.items()):
        print(f"{key} = {value['value']:.6g} {value['unit']}")
    print(f"error_ratio = {failed}/{attempted}")
    for error in errors[:20]:
        print(f"ERROR {error}")
    print(result_line(not errors and not failed, attempted, failed, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
