"""Smoke test: amortised ensembles answer exactly like the per-draw path.

The per-draw path is each draw's own
:class:`~repro.analysis.weighted_store.WeightedStore`
(``WeightedStore.from_delta(delta, model)``), answered by the per-draw
weighted kernels: every draw's count row must equal its
``stable_counts(ts)``, and the exact-regime window ``min``/``max``/``mean``
must equal those of its ``stability_windows()`` rows, bit for bit.

Block size must not change a number either.  A seeded ``random_weights``
ensemble runs three ways — with ``batch_draws=1`` (every draw a stacked
block of one), with ``batch_draws=1`` and a small streaming window buffer,
and in blocks of 4 with that same buffer — and the counts matrix and count
summaries must be bit-identical across all three, as must the two streamed
runs' window summaries (P² quantiles included).  Then exercises the
artifact plumbing:
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
from repro.analysis.scenarios import build_scenario
from repro.analysis.weighted_store import WeightedStore


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


def check_against_weighted_stores(result, delta) -> None:
    """Re-answer every draw through its own per-draw ``WeightedStore``."""
    t_min_rows, t_max_rows = [], []
    for k, seed in enumerate(result.seeds):
        model = build_scenario(result.scenario, result.n, seed=seed).model
        store = WeightedStore.from_delta(delta, model)
        counts = np.asarray(store.stable_counts(result.ts), dtype=np.int64)
        assert np.array_equal(result.counts[k], counts), (
            f"draw {k} counts diverged from its WeightedStore"
        )
        t_min, t_max = store.stability_windows()
        t_min_rows.append(t_min)
        t_max_rows.append(t_max)
    for label, rows, stats in (
        ("t_min", t_min_rows, result.t_min_stats),
        ("t_max", t_max_rows, result.t_max_stats),
    ):
        stacked = np.stack(rows)
        expected = {
            "mean": stacked.mean(axis=0).tolist(),
            "min": stacked.min(axis=0).tolist(),
            "max": stacked.max(axis=0).tolist(),
        }
        for key, values in expected.items():
            assert json.dumps(stats[key]) == json.dumps(values), (
                f"{label} {key} diverged from the per-draw WeightedStore windows"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5, help="players (default 5)")
    parser.add_argument("--draws", type=int, default=8, help="draws (default 8)")
    parser.add_argument("--grid", type=int, default=6, help="t-grid points")
    args = parser.parse_args(argv)

    # An exact window buffer of every draw keeps the window stats dense.
    per_draw = run_ensemble(
        "random_weights", n=args.n, draws=args.draws, seed=1,
        grid=args.grid, jobs=1, batch_draws=1, window_exact_buffer=args.draws,
    )
    per_draw_streamed = run_ensemble(
        "random_weights", n=args.n, draws=args.draws, seed=1,
        grid=args.grid, jobs=1, batch_draws=1, window_exact_buffer=2,
    )
    stacked = run_ensemble(
        "random_weights", n=args.n, draws=args.draws, seed=1,
        grid=args.grid, jobs=1, batch_draws=4, window_exact_buffer=2,
    )
    check_against_weighted_stores(per_draw, DeltaStore.build(args.n))
    assert np.array_equal(per_draw.counts, stacked.counts), (
        "block-of-4 counts diverged from the blocks of one"
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
        f"counts and windows equal the per-draw WeightedStores, "
        f"block sizes 1/4 identical, "
        f"delta cache reused, "
        f"{resumed.resumed}/{args.draws} draws resumed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
