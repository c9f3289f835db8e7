"""Dynamics-based sampling of equilibrium networks for larger player counts.

The paper's empirical study uses ten agents, which is out of reach for an
exhaustive pure-Python census (there are ~11.7 million connected topologies on
ten vertices).  As documented in DESIGN.md we substitute a *sampled* census:
run the decentralised dynamics of :mod:`repro.core.dynamics` from many random
starting networks and collect the converged equilibria.  Duplicates (up to
isomorphism) are removed so the averages are over distinct topologies, like
the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dynamics import sample_nash_networks_ucg, sample_stable_networks_bcg
from ..core.equilibria import is_pairwise_stable
from ..engine import batch_stability_deltas, ucg_alpha_sets
from ..engine.columnar import bcg_stable_mask, segment_min
from ..graphs import Graph, canonical_form
from .store import census_bcg_columns
from .sweeps import aligned_link_costs, map_over_grid


def deduplicate_up_to_isomorphism(graphs: Sequence[Graph]) -> List[Graph]:
    """Keep one representative per isomorphism class, preserving first-seen order."""
    seen = set()
    unique: List[Graph] = []
    for graph in graphs:
        key = canonical_form(graph)
        if key not in seen:
            seen.add(key)
            unique.append(graph)
    return unique


# --------------------------------------------------------------------------- #
# Store-backed sampling: columnar α-grid queries over sampled graph lists
# --------------------------------------------------------------------------- #


def sampled_bcg_columns(graphs: Sequence[Graph]):
    """BCG α-decision columns for a sampled graph list.

    One :func:`repro.engine.batch_stability_deltas` call probes every
    sampled graph, and the census's own reducer
    (:func:`repro.analysis.store.census_bcg_columns`) turns the probe
    columns into α-decision data, so dynamics-sampled runs get the same
    vectorised whole-α-grid queries as the exhaustive census store.
    Returns ``(rem_min, add_lo, add_hi, add_indptr)`` in float64, the
    layout of :func:`repro.analysis.store.bcg_alpha_columns`.
    """
    bcg = census_bcg_columns(batch_stability_deltas(list(graphs)))
    return (
        segment_min(bcg["rem_values"], bcg["rem_indptr"]),
        bcg["add_lo"].astype(np.float64),
        bcg["add_hi"].astype(np.float64),
        bcg["add_indptr"],
    )


def sampled_stable_mask(graphs: Sequence[Graph], alphas: Sequence[float]):
    """``bool[n_graphs, n_alphas]`` pairwise-stability mask of sampled graphs.

    Vectorised through :func:`repro.engine.columnar.bcg_stable_mask`
    (bit-identical to the per-graph Definition 3 check).
    """
    rem_min, add_lo, add_hi, add_indptr = sampled_bcg_columns(graphs)
    return bcg_stable_mask(rem_min, add_lo, add_hi, add_indptr, alphas)


def sampled_stable_counts(
    graphs: Sequence[Graph], alphas: Sequence[float]
) -> List[int]:
    """Stable-graph counts of a sampled list at every grid point."""
    mask = sampled_stable_mask(graphs, alphas)
    return [
        sum(1 for row in mask if row[column]) for column in range(len(alphas))
    ]


@dataclass
class SampledEquilibria:
    """Sampled equilibrium networks of both games at one total per-edge cost."""

    n: int
    total_edge_cost: float
    alpha_ucg: float
    alpha_bcg: float
    ucg: List[Graph]
    bcg: List[Graph]


def sample_equilibria_at_cost(
    n: int,
    total_edge_cost: float,
    num_samples: int = 20,
    seed: int = 0,
    verify: bool = False,
    jobs: Optional[int] = None,
) -> SampledEquilibria:
    """Sample UCG Nash networks and BCG pairwise-stable networks at one cost.

    ``verify=True`` re-checks every sampled network with the exact
    equilibrium tests (slower; used by the integration tests).  ``jobs``
    fans the independent seeded dynamics runs out over a process pool;
    results are identical for any value.
    """
    alpha_ucg, alpha_bcg = aligned_link_costs(total_edge_cost)
    ucg_samples = deduplicate_up_to_isomorphism(
        sample_nash_networks_ucg(n, alpha_ucg, num_samples, seed=seed, jobs=jobs)
    )
    bcg_samples = deduplicate_up_to_isomorphism(
        sample_stable_networks_bcg(n, alpha_bcg, num_samples, seed=seed + 1, jobs=jobs)
    )
    if verify:
        # One batched engine pass replaces the per-sample orientation
        # backtrack; containment matches is_nash_graph_ucg exactly (same
        # AlphaIntervalSet, same tolerance).
        ucg_sets = ucg_alpha_sets(ucg_samples)
        ucg_samples = [
            g
            for g, alpha_set in zip(ucg_samples, ucg_sets)
            if alpha_set.contains(alpha_ucg)
        ]
        bcg_samples = [g for g in bcg_samples if is_pairwise_stable(g, alpha_bcg)]
    return SampledEquilibria(
        n=n,
        total_edge_cost=total_edge_cost,
        alpha_ucg=alpha_ucg,
        alpha_bcg=alpha_bcg,
        ucg=ucg_samples,
        bcg=bcg_samples,
    )


def _sample_grid_point(
    args: Tuple[int, float, int, int]
) -> Tuple[float, List[Graph], List[Graph]]:
    """Sampled equilibria at one grid point (module-level for the pool)."""
    n, cost, num_samples, point_seed = args
    sampled = sample_equilibria_at_cost(n, cost, num_samples=num_samples, seed=point_seed)
    return cost, sampled.ucg, sampled.bcg


def sample_equilibria_over_grid(
    n: int,
    total_edge_costs: Sequence[float],
    num_samples: int = 20,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> Dict[float, Dict[str, List[Graph]]]:
    """Sampled equilibria for every cost on a grid, keyed for the figure builders.

    ``jobs`` fans the grid points out over a process pool via
    :func:`repro.analysis.sweeps.map_over_grid`; each point derives its own
    seed from its grid index, so parallel and serial sweeps agree exactly.
    """
    tasks = [
        (n, cost, num_samples, seed + 997 * index)
        for index, cost in enumerate(total_edge_costs)
    ]
    result: Dict[float, Dict[str, List[Graph]]] = {}
    for cost, ucg, bcg in map_over_grid(_sample_grid_point, tasks, jobs=jobs):
        result[cost] = {"ucg": ucg, "bcg": bcg}
    return result
