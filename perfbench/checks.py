"""Correctness comparators: each returns a list of error strings (empty = ok).

They are pure functions of plain data so the driver, the workers and the
tests share them, and a deliberately flipped answer is rejected by the
same code that gates the timed runs.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from common import BENCH_DIR

#: Classes of connected graphs on 8 vertices (OEIS A001349).
CLASSES_N8 = 11117


def load_reference() -> Dict[str, object]:
    """The build_n8 answers pinned from the seed commit."""
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)


def compare_sequence(name: str, expected: Sequence, got: Sequence) -> List[str]:
    """Exact element-wise equality (NaN equals NaN; types must agree)."""
    expected, got = list(expected), list(got)
    if len(expected) != len(got):
        return [f"{name}: length {len(got)} != expected {len(expected)}"]
    for index, (want, have) in enumerate(zip(expected, got)):
        same = want == have or (want != want and have != have)
        if not same or type(want) is not type(have):
            return [f"{name}[{index}]: {have!r} != expected {want!r}"]
    return []


def mask_digest(mask) -> str:
    """sha256 of a ``bool[classes, alphas]`` equilibrium mask, bit-packed.

    Unlike the per-α counts it changes when two classes swap answers.
    """
    import hashlib

    import numpy as np

    packed = np.packbits(np.asarray(mask, dtype=bool).ravel())
    return hashlib.sha256(packed.tobytes()).hexdigest()


def compare_build(report: Dict[str, object], reference: Dict[str, object]) -> List[str]:
    """Gate one build_n8 report: class count, artifact audit, pinned answers."""
    errors: List[str] = []
    if report["classes"] != CLASSES_N8:
        errors.append(f"classes {report['classes']} != {CLASSES_N8}")
    verify = report["verify"]
    if not verify.get("ok") or verify.get("checksum") != "ok":
        errors.append(f"verify failed: {verify}")
    for game in ("bcg", "ucg"):
        errors += compare_sequence(
            f"{game} counts", reference["counts"][game], report["counts"][game]
        )
        if report["mask_sha256"][game] != reference["mask_sha256"][game]:
            errors.append(f"{game} per-class equilibrium mask differs from the reference")
    return errors


def compare_bytes(name: str, expected: bytes, got: bytes) -> List[str]:
    """Byte-for-byte equality of a response body."""
    if expected == got:
        return []
    at = next(
        (i for i, (a, b) in enumerate(zip(expected, got)) if a != b),
        min(len(expected), len(got)),
    )
    return [f"{name}: body differs from byte {at} ({len(got)} vs {len(expected)} bytes)"]


def compare_arrays(name: str, expected, got) -> List[str]:
    """Bit-for-bit equality of two NumPy arrays (dtype, shape and bytes)."""
    import numpy as np

    expected, got = np.asarray(expected), np.asarray(got)
    if expected.dtype != got.dtype or expected.shape != got.shape:
        return [
            f"{name}: {got.dtype}{got.shape} != expected "
            f"{expected.dtype}{expected.shape}"
        ]
    if expected.tobytes() != got.tobytes():
        return [f"{name}: values differ"]
    return []


def check_ensemble_draws(delta, result, indices: Sequence[int]) -> List[str]:
    """Re-answer sampled draws of an ensemble through the per-draw path.

    For each sampled draw the scenario is rebuilt from its seed and
    materialised as its own ``WeightedStore`` (``from_delta``).  Its stable
    counts must equal the ensemble's count row bit-for-bit, and its
    per-class windows must equal the stacked kernel's row for that draw
    and lie inside the ensemble's reported per-class extrema.
    """
    import numpy as np
    from repro.analysis.scenarios import build_scenario
    from repro.analysis.weighted_store import WeightedStore

    errors: List[str] = []
    for index in indices:
        seed = result.seeds[index]
        scenario = build_scenario(result.scenario, result.n, seed=seed)
        store = WeightedStore.from_delta(
            delta, scenario.model, scenario_params=dict(scenario.params)
        )
        counts = np.asarray(store.stable_counts(result.ts), dtype=np.int64)
        errors += compare_arrays(f"draw {index} counts", counts, result.counts[index])
        t_min, t_max = store.stability_windows()
        matrix = scenario.model.coefficient_matrix(result.n)
        stacked_min, stacked_max = delta.stability_windows_multi([matrix])
        errors += compare_arrays(f"draw {index} t_min", stacked_min[0], t_min)
        errors += compare_arrays(f"draw {index} t_max", stacked_max[0], t_max)
        for label, values, stats in (
            ("t_min", t_min, result.t_min_stats),
            ("t_max", t_max, result.t_max_stats),
        ):
            low, high = np.asarray(stats["min"]), np.asarray(stats["max"])
            known = ~np.isnan(values)
            outside = known & ((values < low) | (values > high))
            if bool(outside.any()):
                errors.append(
                    f"draw {index} {label}: {int(outside.sum())} classes outside "
                    "the ensemble's min/max"
                )
    return errors
