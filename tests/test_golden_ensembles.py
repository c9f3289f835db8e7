"""Pinned ensemble outputs: ``run_ensemble`` answers byte for byte as recorded.

Each case serialises a seeded ensemble's per-draw counts and all three
summaries (``count_stats``, ``t_min_stats``, ``t_max_stats``) with
``json.dumps(..., sort_keys=True)`` and compares the text with
``tests/data/golden_ensembles/<name>.json``.  The cases cover both
window-aggregation regimes: the exact buffer (40 draws under the default
buffer of 64) and the P² streaming regime (300 draws; 120 draws past a
buffer of 8 in blocks of 5), plus an explicit scale grid holding NaN, a
duplicate, a negative point and ``+inf``.  A kernel or aggregator rewrite
that moves any float in any of them fails here.

To re-pin after an intended output change, write ``_payload(case)`` for each
case into its file.
"""

import json
import os

import pytest

from repro.analysis.ensembles import run_ensemble

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "golden_ensembles")

#: ``name -> run_ensemble`` keyword arguments of each pinned ensemble.
GOLDEN_ENSEMBLES = {
    "random_weights_n6_exact": dict(
        scenario="random_weights", n=6, draws=40, seed=3
    ),
    "random_weights_n6_streaming": dict(
        scenario="random_weights", n=6, draws=300, seed=3
    ),
    "two_tier_isp_n6_buffer8": dict(
        scenario="two_tier_isp", n=6, draws=120, seed=1,
        window_exact_buffer=8, batch_draws=5,
    ),
    "random_weights_n5_odd_grid": dict(
        scenario="random_weights", n=5, draws=90, seed=11,
        ts=[2.0, float("nan"), 0.5, -1.0, 2.0, float("inf"), 0.0, 7.5, 1e-9],
    ),
}


def _payload(name: str) -> str:
    result = run_ensemble(**GOLDEN_ENSEMBLES[name])
    return json.dumps(
        {
            "counts": result.counts.tolist(),
            "count_stats": result.count_stats,
            "t_min_stats": result.t_min_stats,
            "t_max_stats": result.t_max_stats,
        },
        sort_keys=True,
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_ENSEMBLES))
def test_ensemble_output_matches_golden(name):
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(path, encoding="utf-8") as handle:
        expected = handle.read()
    assert _payload(name) == expected
