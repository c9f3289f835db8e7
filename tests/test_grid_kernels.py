"""Parity of the sorted-grid mask kernels with the per-α reference loops.

:func:`repro.engine.columnar.bcg_stable_mask` and
:func:`~repro.engine.columnar.ucg_nash_mask` sort the grid once and place
each probe or interval with ``searchsorted``.  The loops below evaluate the
per-graph profiles' comparisons one grid point at a time, as the kernels
did before; they survive here only as oracles.  Every census with n ≤ 7 (BCG
and UCG) and the n = 8 BCG census are checked on grids built to hit the
tolerance edges, fed both the full addition columns and the per-class
frontier the store queries.
"""

import math

import numpy as np
import pytest

from repro.analysis.store import CensusStore
from repro.engine.columnar import (
    BCG_TOL,
    UCG_TOL,
    addition_frontier,
    bcg_stable_mask,
    segment_any,
    ucg_nash_mask,
)


def bcg_oracle(rem_min, add_lo, add_hi, add_indptr, alphas):
    """Definition 3 pairwise stability, one grid point at a time."""
    rem_min = np.asarray(rem_min, dtype=np.float64)
    lo = np.asarray(add_lo).astype(np.float64)
    hi = np.asarray(add_hi).astype(np.float64)
    out = np.empty((rem_min.shape[0], len(alphas)), dtype=bool)
    for column, alpha in enumerate(float(a) for a in alphas):
        below = alpha - BCG_TOL
        above = alpha + BCG_TOL
        severs = rem_min < below
        adds = segment_any((hi > above) & (lo >= below), add_indptr)
        np.logical_not(severs | adds, out=out[:, column])
    return out


def ucg_oracle(iv_lo, iv_hi, iv_indptr, alphas):
    """UCG interval membership, one grid point at a time."""
    lo = np.asarray(iv_lo, dtype=np.float64) - UCG_TOL
    hi = np.asarray(iv_hi, dtype=np.float64) + UCG_TOL
    out = np.empty((iv_indptr.shape[0] - 1, len(alphas)), dtype=bool)
    for column, alpha in enumerate(float(a) for a in alphas):
        out[:, column] = segment_any((lo <= alpha) & (alpha <= hi), iv_indptr)
    return out


def edge_grid(seed: int = 0):
    """Integers 0..40 and k ± 1e-12 / k ± 2e-12, plus signed zeros,
    infinities, NaN and repeats, shuffled."""
    grid = [
        k + delta
        for k in range(41)
        for delta in (-2e-12, -1e-12, 0.0, 1e-12, 2e-12)
    ]
    grid += [0.0, -0.0, math.inf, -math.inf, math.nan, 3.0, 3.0, 0.5, -1.0]
    order = np.random.default_rng(seed).permutation(len(grid))
    return [grid[i] for i in order]


def ucg_grid(store: CensusStore, seed: int = 0):
    """:func:`edge_grid` plus every stored UCG endpoint and its neighbours
    at the tolerance, where the membership test flips."""
    grid = edge_grid(seed)
    for value in np.concatenate([store.ucg_lo, store.ucg_hi]).tolist():
        for edge in (value - UCG_TOL, value + UCG_TOL):
            grid += [edge, np.nextafter(edge, -math.inf), np.nextafter(edge, math.inf)]
    return grid


GRIDS = {
    "edges": edge_grid,
    "single": lambda seed: [2.0 + 1e-12],
    "nan-only": lambda seed: [math.nan],
    "empty": lambda seed: [],
}


@pytest.fixture(scope="module")
def census_stores():
    return {n: CensusStore.build(n, include_ucg=True) for n in range(0, 8)}


@pytest.fixture(scope="module")
def census8():
    return CensusStore.build(8, include_ucg=False)


def assert_bcg_parity(store: CensusStore, alphas) -> None:
    rem_min = store._rem_min_column()
    expected = bcg_oracle(
        rem_min, store.add_lo, store.add_hi, store.add_indptr, alphas
    )
    full = bcg_stable_mask(
        rem_min, store.add_lo, store.add_hi, store.add_indptr, alphas
    )
    frontier = bcg_stable_mask(
        rem_min, *addition_frontier(store.add_lo, store.add_hi, store.add_indptr),
        alphas,
    )
    np.testing.assert_array_equal(full, expected)
    np.testing.assert_array_equal(frontier, expected)
    np.testing.assert_array_equal(store.stable_mask(alphas, "bcg"), expected)


class TestSortedKernelParity:
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("n", range(0, 8))
    def test_bcg_every_census_up_to_7(self, census_stores, n, grid):
        assert_bcg_parity(census_stores[n], GRIDS[grid](n))

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("n", range(0, 8))
    def test_ucg_every_census_up_to_7(self, census_stores, n, grid):
        store = census_stores[n]
        alphas = ucg_grid(store, n) if grid == "edges" else GRIDS[grid](n)
        expected = ucg_oracle(store.ucg_lo, store.ucg_hi, store.ucg_indptr, alphas)
        np.testing.assert_array_equal(
            ucg_nash_mask(store.ucg_lo, store.ucg_hi, store.ucg_indptr, alphas),
            expected,
        )
        np.testing.assert_array_equal(store.stable_mask(alphas, "ucg"), expected)

    def test_bcg_census_8(self, census8):
        assert_bcg_parity(census8, edge_grid(8))
        alphas = [0.4 * 320.0 ** (k / 23) for k in range(24)]
        assert_bcg_parity(census8, alphas[::-1])

    def test_random_columns_with_nan_and_inf_payoffs(self):
        """Hand-made columns the census never holds: NaN and ±inf payoffs,
        empty classes, ties — every answer still equals the oracle."""
        rng = np.random.default_rng(7)
        values = np.array([0.0, 1.0, 2.0, 3.0, 5.0, math.inf, -math.inf, math.nan])
        for _ in range(50):
            classes = int(rng.integers(1, 12))
            counts = rng.integers(0, 6, size=classes)
            indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            lo = rng.choice(values, size=int(indptr[-1]))
            hi = rng.choice(values, size=int(indptr[-1]))
            rem_min = rng.choice(values, size=classes)
            alphas = rng.choice(
                np.concatenate([values, values + 1e-12, values - 2e-12]),
                size=int(rng.integers(0, 9)),
            ).tolist()
            expected = bcg_oracle(rem_min, lo, hi, indptr, alphas)
            np.testing.assert_array_equal(
                bcg_stable_mask(rem_min, lo, hi, indptr, alphas), expected
            )
            np.testing.assert_array_equal(
                bcg_stable_mask(
                    rem_min, *addition_frontier(lo, hi, indptr), alphas
                ),
                expected,
            )
            np.testing.assert_array_equal(
                ucg_nash_mask(lo, hi, indptr, alphas),
                ucg_oracle(lo, hi, indptr, alphas),
            )


class TestAdditionFrontier:
    def test_census_8_keeps_only_undominated_pairs(self, census8):
        lo, hi, indptr = addition_frontier(
            census8.add_lo, census8.add_hi, census8.add_indptr
        )
        assert lo.shape[0] == 13011 and census8.add_lo.shape[0] == 151056
        full_lo = census8.add_lo.astype(np.float64)
        full_hi = census8.add_hi.astype(np.float64)
        for c in range(0, len(census8), 97):
            pairs = set(zip(
                full_lo[census8.add_indptr[c]:census8.add_indptr[c + 1]].tolist(),
                full_hi[census8.add_indptr[c]:census8.add_indptr[c + 1]].tolist(),
            ))
            kept = list(zip(
                lo[indptr[c]:indptr[c + 1]].tolist(),
                hi[indptr[c]:indptr[c + 1]].tolist(),
            ))
            assert len(set(kept)) == len(kept) and set(kept) <= pairs
            undominated = {
                (a, b)
                for a, b in pairs
                if not any(
                    x >= a and y >= b and (x, y) != (a, b) for x, y in pairs
                )
            }
            assert set(kept) == undominated

    def test_blocks_do_not_change_the_frontier(self, census8, monkeypatch):
        from repro.engine import columnar

        whole = addition_frontier(
            census8.add_lo, census8.add_hi, census8.add_indptr
        )
        monkeypatch.setattr(columnar, "FRONTIER_BLOCK", 7)
        blocked = addition_frontier(
            census8.add_lo, census8.add_hi, census8.add_indptr
        )
        for a, b in zip(whole, blocked):
            np.testing.assert_array_equal(a, b)

    def test_mapped_store_queries_the_same_frontier(
        self, census_stores, tmp_path
    ):
        store = census_stores[6]
        path = store.save(str(tmp_path / "c6"), format="dir")
        loaded = CensusStore.load(path, mmap=True)
        for a, b in zip(loaded._frontier_columns(), store._frontier_columns()):
            np.testing.assert_array_equal(a, b)
