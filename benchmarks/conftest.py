"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's figures or results (see
DESIGN.md's per-experiment index) and asserts the qualitative claim inside the
benchmarked function, so ``pytest benchmarks/ --benchmark-only`` doubles as an
end-to-end reproduction run with timings.

Heavyweight benchmarks use ``benchmark.pedantic(..., rounds=1, iterations=1)``
so a full benchmark run stays in the minutes range; the lightweight primitive
benchmarks use the normal calibrated mode.
"""

import pytest

from repro.analysis import cached_store


@pytest.fixture(scope="session")
def census5():
    """Exhaustive census store on 5 vertices (both games), shared across benchmarks."""
    return cached_store(5)


@pytest.fixture(scope="session")
def census6():
    """Exhaustive census store on 6 vertices (both games), shared across benchmarks."""
    return cached_store(6)
