"""Census, sweep, sampling, persistence and reporting utilities.

The columnar census store (:mod:`.store`), the weighted store that answers
every heterogeneous-cost sweep (:mod:`.weighted_store`) with its per-graph
reference (:mod:`.weighted`) and the scenario library, seeded scenario
ensembles (:mod:`.ensembles`), grid helpers, sampling and the plain-text
report renderers.
"""

from .improvement import (
    ImprovementGraph,
    StochasticStabilityResult,
    build_improvement_graph,
    graph_to_mask,
    mask_to_graph,
    myopic_move,
    perturbed_transition_matrix,
    stationary_distribution,
    stochastic_stability_analysis,
)
from .figure_series import (
    FigureData,
    FigureSeries,
    SeriesPoint,
    census_figure_series,
    sampled_figure_series,
)
from .report import (
    format_ascii_series,
    format_figure,
    format_store_summary,
    format_table,
)
from .store import CensusStore, bcg_alpha_columns, cached_store, clear_store_cache
from .sampling import (
    SampledEquilibria,
    deduplicate_up_to_isomorphism,
    sample_equilibria_at_cost,
    sample_equilibria_over_grid,
    sampled_bcg_columns,
    sampled_stable_counts,
    sampled_stable_mask,
)
from .weighted import weighted_python_sweep_bcg
from .weighted_store import WeightedStore
from .delta_store import DeltaStore, cached_delta_store
from .ensembles import (
    EnsembleResult,
    ensemble_seeds,
    run_ensemble,
)
from .scenarios import (
    SCENARIOS,
    Scenario,
    available_scenarios,
    build_scenario,
    default_t_grid,
    scenario_from_params,
)
from .sweeps import (
    aligned_cost_grid,
    aligned_link_costs,
    default_alpha_grid,
    linear_alphas,
    log_spaced_alphas,
    map_over_grid,
    per_edge_cost_axis,
)

__all__ = [
    "ImprovementGraph",
    "StochasticStabilityResult",
    "build_improvement_graph",
    "graph_to_mask",
    "mask_to_graph",
    "myopic_move",
    "perturbed_transition_matrix",
    "stationary_distribution",
    "stochastic_stability_analysis",
    "CensusStore",
    "bcg_alpha_columns",
    "cached_store",
    "clear_store_cache",
    "FigureData",
    "FigureSeries",
    "SeriesPoint",
    "census_figure_series",
    "sampled_figure_series",
    "format_table",
    "format_figure",
    "format_store_summary",
    "format_ascii_series",
    "SampledEquilibria",
    "deduplicate_up_to_isomorphism",
    "sample_equilibria_at_cost",
    "sample_equilibria_over_grid",
    "sampled_bcg_columns",
    "sampled_stable_mask",
    "sampled_stable_counts",
    "weighted_python_sweep_bcg",
    "WeightedStore",
    "DeltaStore",
    "cached_delta_store",
    "EnsembleResult",
    "ensemble_seeds",
    "run_ensemble",
    "Scenario",
    "SCENARIOS",
    "available_scenarios",
    "build_scenario",
    "default_t_grid",
    "scenario_from_params",
    "log_spaced_alphas",
    "linear_alphas",
    "default_alpha_grid",
    "map_over_grid",
    "per_edge_cost_axis",
    "aligned_link_costs",
    "aligned_cost_grid",
]
