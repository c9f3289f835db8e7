"""CI smoke: the streamed census store must match the materialised build exactly.

Run as a script (no pytest needed)::

    PYTHONPATH=src python benchmarks/smoke_streamed_census.py --n 7 --jobs 2

Builds :meth:`repro.analysis.CensusStore.build` and
:meth:`~repro.analysis.CensusStore.build_streamed` for the same ``n`` and
diffs them column for column — same canonical representatives in the same
order, bit-identical BCG deviation columns, identical UCG interval columns
when requested — and compares their content checksums.  Exits non-zero on
the first mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.store import CensusStore


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=7, help="census size (default 7)")
    parser.add_argument(
        "--jobs", type=int, default=None, help="worker processes for the streamed build"
    )
    parser.add_argument(
        "--ucg",
        action="store_true",
        help="also compare the (slower) UCG Nash interval columns",
    )
    args = parser.parse_args(argv)

    start = time.perf_counter()
    materialised = CensusStore.build(args.n, include_ucg=args.ucg)
    build_s = time.perf_counter() - start

    start = time.perf_counter()
    streamed = CensusStore.build_streamed(
        args.n, include_ucg=args.ucg, jobs=args.jobs
    )
    streamed_s = time.perf_counter() - start

    if len(materialised) != len(streamed):
        print(
            f"FAIL: {len(materialised)} materialised classes vs "
            f"{len(streamed)} streamed",
            file=sys.stderr,
        )
        return 1
    for name in CensusStore.SPEC.names(args.ucg):
        if not np.array_equal(getattr(materialised, name), getattr(streamed, name)):
            print(f"FAIL: column {name} differs", file=sys.stderr)
            return 1
    if materialised.content_checksum() != streamed.content_checksum():
        print("FAIL: content checksums differ", file=sys.stderr)
        return 1

    print(
        f"OK: n={args.n} census identical across paths "
        f"({len(streamed)} classes; materialised {build_s:.2f}s, "
        f"streamed {streamed_s:.2f}s, jobs={args.jobs})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
