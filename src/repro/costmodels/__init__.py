"""Heterogeneous link-cost subsystem: per-player / per-edge α games.

The paper's games price every link at one global ``α``; this package
generalises the whole stack to a :class:`CostModel` assigning each ordered
pair ``(payer, other)`` its own strictly positive coefficient:

* :mod:`repro.costmodels.models` — the model hierarchy
  (:class:`UniformCost`, :class:`PerPlayerCost`, :class:`PerEdgeCost`,
  :class:`ScaledCost` and the ``scaled(t)`` view ``C = t·W``);
* :mod:`repro.costmodels.costs` — weighted player and social costs;
* :mod:`repro.costmodels.stability` — :class:`WeightedStabilityProfile`
  (per-probe ``(w, Δdist)`` coefficient records, exact stability
  ``t``-intervals) and the weighted UCG orientation search;
* :mod:`repro.costmodels.games` — :class:`WeightedBilateralGame` and
  :class:`WeightedUnilateralGame`.

With :class:`UniformCost` every quantity reduces float-exactly to the
scalar-α code, which the test suite asserts against the census store for
``n ≤ 7``.  The vectorised counterparts (whole-``t``-grid stability masks
over many graphs) live in :mod:`repro.engine.batch` /
:mod:`repro.engine.columnar`, and the scenario library over these models in
:mod:`repro.analysis.scenarios`.
"""

from .costs import (
    all_weighted_player_costs_bcg,
    all_weighted_player_costs_ucg,
    weighted_player_cost_bcg,
    weighted_player_cost_graph,
    weighted_player_cost_ucg,
    weighted_social_cost_bcg,
    weighted_social_cost_ucg,
)
from .games import (
    WeightedBilateralGame,
    WeightedConnectionGame,
    WeightedUnilateralGame,
)
from .models import (
    CostModel,
    PerEdgeCost,
    PerPlayerCost,
    ScaledCost,
    UniformCost,
    as_cost_model,
)
from .stability import (
    WeightedStabilityProfile,
    is_weighted_nash_graph_ucg,
    is_weighted_nash_profile_bcg,
    is_weighted_nash_profile_ucg,
    is_weighted_pairwise_stable,
    weighted_best_deviation_delta_bcg,
    weighted_ownership_interval,
    weighted_stability_profile,
    weighted_stability_t_interval,
    weighted_ucg_nash_t_set,
)

__all__ = [
    # models
    "CostModel",
    "UniformCost",
    "PerPlayerCost",
    "PerEdgeCost",
    "ScaledCost",
    "as_cost_model",
    # costs
    "weighted_player_cost_graph",
    "weighted_player_cost_bcg",
    "weighted_player_cost_ucg",
    "all_weighted_player_costs_bcg",
    "all_weighted_player_costs_ucg",
    "weighted_social_cost_bcg",
    "weighted_social_cost_ucg",
    # stability
    "WeightedStabilityProfile",
    "weighted_stability_profile",
    "weighted_stability_t_interval",
    "is_weighted_pairwise_stable",
    "weighted_best_deviation_delta_bcg",
    "is_weighted_nash_profile_bcg",
    "is_weighted_nash_profile_ucg",
    "weighted_ownership_interval",
    "weighted_ucg_nash_t_set",
    "is_weighted_nash_graph_ucg",
    # games
    "WeightedConnectionGame",
    "WeightedBilateralGame",
    "WeightedUnilateralGame",
]
