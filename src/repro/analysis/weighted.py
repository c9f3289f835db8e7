"""Per-graph reference for the weighted stability sweep.

Heterogeneous link costs break isomorphism invariance — relabelling a
graph moves its vertices onto different prices — so a weighted sweep asks,
for an explicit list of *labelled* graphs under one
:class:`~repro.costmodels.models.CostModel` ``W``, which graphs are pairwise
stable at every scale ``t`` of a grid (the game at ``t`` is ``C = t·W``).

Whole-grid sweeps over every connected class are answered by the columnar
:class:`~repro.analysis.weighted_store.WeightedStore`.
:func:`weighted_python_sweep_bcg` is the per-graph
:class:`~repro.costmodels.stability.WeightedStabilityProfile` loop the store
is benchmarked and tested against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..costmodels.models import CostModel
from ..costmodels.stability import weighted_stability_profile
from ..engine.oracle import DistanceOracle
from ..graphs import Graph


def weighted_python_sweep_bcg(
    graphs: Sequence[Graph],
    model: CostModel,
    ts: Sequence[float],
    oracle: Optional[DistanceOracle] = None,
) -> List[List[bool]]:
    """Reference per-graph weighted stability sweep.

    Returns ``mask[i][j]`` = graph ``i`` pairwise stable under ``ts[j]·W``,
    decision-identical to :meth:`WeightedStore.stable_mask
    <repro.analysis.weighted_store.WeightedStore.stable_mask>` (which is
    benchmarked against this loop in ``benchmarks/bench_engine.py``).
    """
    if oracle is None:
        oracle = DistanceOracle()
    mask: List[List[bool]] = []
    for graph in graphs:
        profile = weighted_stability_profile(graph, model, oracle=oracle)
        mask.append([profile.is_stable_at(t) for t in ts])
    return mask
