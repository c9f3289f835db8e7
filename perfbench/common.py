"""Helpers shared by the benchmark driver and its worker processes.

Everything here is stdlib-only so the driver can run (and refuse to run)
before the package under test is importable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

#: The checkout root: ``perfbench/`` sits directly below it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

#: A tail percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Environment variables that set the thread count of NumPy's BLAS.
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #


def percentile(values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile, refused without enough tail.

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    beyond the percentile's rank, so a tail figure is never read off a
    handful of samples.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(pct, value)`` of the highest supported tail percentile, or ``None``."""
    for pct in TAIL_PERCENTILES:
        try:
            return pct, percentile(values, pct)
        except ValueError:
            continue
    return None


def describe_ms(values_s: Sequence[float]) -> str:
    """``median`` plus the supported tail of second-valued samples, in ms."""
    text = f"p50 {statistics.median(values_s) * 1e3:.3f} ms"
    found = tail(values_s)
    if found is not None:
        text += f", p{found[0]:g} {found[1] * 1e3:.3f} ms"
    return text + f" (n = {len(values_s)})"


# --------------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------------- #


def require_checkout() -> None:
    """Exit non-zero unless the package sources sit next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no package sources under {SRC}; run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)


def child_env() -> Dict[str, str]:
    """The environment every benchmark child runs with (sources on the path)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_worker(args: Sequence[str], timeout: float) -> dict:
    """Run ``perfbench/worker.py`` in a fresh interpreter; return its report.

    The worker prints one JSON object as its last stdout line.  The spawn
    instant is passed in so the worker can report interpreter start-up plus
    import as its set-up time.
    """
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args, "--t0", repr(spawned)],
        cwd=str(ROOT),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# --------------------------------------------------------------------------- #
# Environment stamp and result line
# --------------------------------------------------------------------------- #


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def source_digest() -> str:
    """sha256 over every Python file under ``src/`` (path + bytes), sorted."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    """The checkout's git commit, or ``unknown`` outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"  # not a git checkout of its own (perhaps inside another)
    return lines[1]


def env_stamp(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    """Machine, interpreter and source identity recorded with every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "commit": commit(),
        "src_sha256": source_digest(),
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, dict]
) -> str:
    """The benchmark's final stdout line."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        },
        sort_keys=True,
    )
