"""Smoke test: amortised ensembles answer exactly like the per-draw path.

Runs a seeded ``random_weights`` ensemble three ways — once per draw with
``batch_draws=1`` (every draw answered as a stack of one), once per draw
with a small streaming window buffer, and once through the shared
:class:`~repro.analysis.delta_store.DeltaStore` + stacked-weight kernels
in blocks with that same buffer — and asserts the counts matrix and count
summaries are bit-identical across all three, and that the two streamed
runs' window summaries (P² quantiles included) are bit-identical: block
size never changes a number.  Then exercises the artifact plumbing:
``--delta-cache`` writes a memory-mappable delta directory on the first
run and reuses it untouched on the second, and a ``--save-dir`` resume
reports its draws as resumed rather than recomputed.

Run from the repository root (CI runs it with ``--n 5``)::

    PYTHONPATH=src python benchmarks/smoke_ensemble_amortised.py --n 5
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.analysis.delta_store import DeltaStore
from repro.analysis.ensembles import run_ensemble


def assert_same_stats(a, b, context):
    # JSON text compares floats bit for bit, nan (an all-inf window's
    # spread) included.
    for key in ("mean", "std", "min", "max"):
        assert json.dumps(a[key]) == json.dumps(b[key]), (context, key)
    assert a["quantiles"].keys() == b["quantiles"].keys(), context
    for q in a["quantiles"]:
        assert json.dumps(a["quantiles"][q]) == json.dumps(b["quantiles"][q]), (
            context, q,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5, help="players (default 5)")
    parser.add_argument("--draws", type=int, default=8, help="draws (default 8)")
    parser.add_argument("--grid", type=int, default=6, help="t-grid points")
    args = parser.parse_args(argv)

    per_draw = run_ensemble(
        "random_weights", n=args.n, draws=args.draws, seed=1,
        grid=args.grid, jobs=1, batch_draws=1,
    )
    per_draw_streamed = run_ensemble(
        "random_weights", n=args.n, draws=args.draws, seed=1,
        grid=args.grid, jobs=1, batch_draws=1, window_exact_buffer=2,
    )
    stacked = run_ensemble(
        "random_weights", n=args.n, draws=args.draws, seed=1,
        grid=args.grid, jobs=1, batch_draws=4, window_exact_buffer=2,
    )
    assert np.array_equal(per_draw.counts, stacked.counts), (
        "stacked counts diverged from the per-draw path"
    )
    assert np.array_equal(per_draw_streamed.counts, stacked.counts)
    assert_same_stats(per_draw.count_stats, stacked.count_stats, "count_stats")
    # The exact-buffer run and the streamed runs differ only in quantiles.
    for key in ("mean", "min", "max"):
        assert per_draw.t_min_stats[key] == stacked.t_min_stats[key], key
        assert per_draw.t_max_stats[key] == stacked.t_max_stats[key], key
    assert_same_stats(per_draw_streamed.t_min_stats, stacked.t_min_stats, "t_min")
    assert_same_stats(per_draw_streamed.t_max_stats, stacked.t_max_stats, "t_max")

    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "deltas")
        cached = run_ensemble(
            "random_weights", n=args.n, draws=args.draws, seed=1,
            grid=args.grid, delta_cache=cache,
        )
        assert os.path.isdir(cache), "delta cache directory was not written"
        stamp = os.path.getmtime(os.path.join(cache, "meta.json"))
        DeltaStore.load(cache, mmap=True)
        again = run_ensemble(
            "random_weights", n=args.n, draws=args.draws, seed=1,
            grid=args.grid, delta_cache=cache,
        )
        assert os.path.getmtime(os.path.join(cache, "meta.json")) == stamp, (
            "delta cache was rewritten instead of reused"
        )
        assert np.array_equal(cached.counts, again.counts)
        assert np.array_equal(per_draw.counts, cached.counts)

        save_dir = os.path.join(tmp, "draws")
        first = run_ensemble(
            "random_weights", n=args.n, draws=args.draws, seed=1,
            grid=args.grid, save_dir=save_dir,
        )
        resumed = run_ensemble(
            "random_weights", n=args.n, draws=args.draws, seed=1,
            grid=args.grid, save_dir=save_dir,
        )
        assert (first.resumed, first.recomputed) == (0, args.draws)
        assert (resumed.resumed, resumed.recomputed) == (args.draws, 0)
        assert np.array_equal(first.counts, resumed.counts)

    print(
        f"amortised ensemble smoke OK: n = {args.n}, {per_draw.classes} "
        f"classes, {args.draws} draws x {len(per_draw.ts)} scales — "
        f"stacked/per-draw counts and streamed windows identical, "
        f"delta cache reused, "
        f"{resumed.resumed}/{args.draws} draws resumed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
