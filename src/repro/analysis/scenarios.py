"""Scenario library: named heterogeneous link-cost configurations.

Each scenario packages a player count and a
:class:`~repro.costmodels.models.CostModel` capturing one stylised peering
economy, ready for
:meth:`WeightedStore.from_scenario <repro.analysis.weighted_store.WeightedStore.from_scenario>`
and a sweep over a scale grid (:func:`default_t_grid`; the sweep plays
``C = t·W`` at every grid point ``t``):

* ``two_tier_isp`` — per-player rates: a small tier-1 core builds links
  cheaply, the stub networks dearly (asymmetric peering costs);
* ``hub_discounted`` — per-edge prices with every link into one hub (an
  exchange point) discounted relative to the flat rate;
* ``line_metric`` — distance-to-metric: players sit on a line and a link's
  price is proportional to the metric distance it spans (longer haul,
  higher build-out cost);
* ``random_weights`` — a seeded random per-edge ensemble (uniform prices in
  ``[low, high]``), the null model heterogeneous results are compared to.

Every factory is deterministic in ``(n, seed, params)`` — the RNG is a
dedicated ``random.Random(seed)`` — so parallel and repeated sweeps agree
exactly.  The registry is what the CLI ``scenarios`` subcommand exposes.

:attr:`Scenario.params` is the **single source of truth** for reproduction:
every factory records the complete recipe (``name``, ``n``, ``seed`` and all
family parameters, defaults included) in ``params``, and
:func:`scenario_from_params` rebuilds a bit-identical scenario — same weight
matrix, float for float — from that dict alone.  This is what lets the
persistent weighted artifacts (:mod:`repro.analysis.weighted_store`) and the
ensemble runner (:mod:`repro.analysis.ensembles`) stamp provenance into
their metadata and re-instantiate the exact cost model later.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..costmodels.models import CostModel, PerEdgeCost, PerPlayerCost
from .sweeps import log_spaced_alphas


@dataclass(frozen=True)
class Scenario:
    """A named heterogeneous link-cost configuration on ``n`` players.

    ``params`` carries the complete reproduction recipe — ``name``, ``n``,
    ``seed`` and every family parameter with its resolved value — so
    ``scenario_from_params(scenario.params)`` rebuilds the identical weight
    matrix.  The ``name``/``n`` fields are convenience mirrors of the
    corresponding ``params`` entries, checked for consistency on creation.
    """

    name: str
    description: str
    n: int
    model: CostModel
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, value in (("name", self.name), ("n", self.n)):
            if key in self.params and self.params[key] != value:
                raise ValueError(
                    f"scenario {key}={value!r} disagrees with "
                    f"params[{key!r}]={self.params[key]!r}"
                )


def _recipe(name: str, n: int, seed: int, **family_params) -> Dict[str, object]:
    """The full ``Scenario.params`` dict of one factory invocation."""
    params: Dict[str, object] = {"name": name, "n": int(n), "seed": int(seed)}
    params.update(family_params)
    return params


def two_tier_isp(
    n: int,
    seed: int = 0,
    core: int = 2,
    core_alpha: float = 0.5,
    stub_alpha: float = 2.0,
) -> Scenario:
    """Asymmetric two-tier ISP market: a cheap core, expensive stubs.

    Players ``0 .. core-1`` are tier-1 backbones paying ``core_alpha`` per
    link; the rest are stub networks paying ``stub_alpha``.  ``seed`` is
    accepted (registry contract) but unused — the scenario is deterministic.
    """
    if not 0 < core <= n:
        raise ValueError("the core size must satisfy 0 < core <= n")
    rates = [core_alpha if i < core else stub_alpha for i in range(n)]
    return Scenario(
        name="two_tier_isp",
        description=(
            f"{core} tier-1 players at α={core_alpha:g}, "
            f"{n - core} stubs at α={stub_alpha:g}"
        ),
        n=n,
        model=PerPlayerCost(rates),
        params=_recipe(
            "two_tier_isp", n, seed,
            core=core, core_alpha=core_alpha, stub_alpha=stub_alpha,
        ),
    )


def hub_discounted(
    n: int,
    seed: int = 0,
    hub: int = 0,
    alpha: float = 1.0,
    discount: float = 0.25,
) -> Scenario:
    """Per-edge prices with links into one hub discounted.

    Every pair costs ``alpha`` except pairs containing ``hub``, which cost
    ``discount·alpha`` — an exchange point subsidising attachment.
    """
    if not 0 <= hub < n:
        raise ValueError("the hub must be one of the players")
    if not 0 < discount:
        raise ValueError("the discount factor must be strictly positive")
    weights = [
        [
            0.0
            if i == j
            else (discount * alpha if hub in (i, j) else alpha)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return Scenario(
        name="hub_discounted",
        description=(
            f"flat α={alpha:g}, links into hub {hub} at {discount:g}×α"
        ),
        n=n,
        model=PerEdgeCost(weights),
        params=_recipe(
            "hub_discounted", n, seed, hub=hub, alpha=alpha, discount=discount
        ),
    )


def line_metric(n: int, seed: int = 0, alpha: float = 1.0) -> Scenario:
    """Distance-to-metric prices: players on a line, cost ∝ span.

    Player ``i`` sits at position ``i``; pair ``{i, j}`` costs
    ``alpha·|i - j|`` to each endpoint.
    """
    weights = [
        [0.0 if i == j else alpha * abs(i - j) for j in range(n)]
        for i in range(n)
    ]
    return Scenario(
        name="line_metric",
        description=f"line metric, pair {{i,j}} costs {alpha:g}·|i-j|",
        n=n,
        model=PerEdgeCost(weights),
        params=_recipe("line_metric", n, seed, alpha=alpha),
    )


def random_weights(
    n: int,
    seed: int = 0,
    low: float = 0.5,
    high: float = 2.0,
) -> Scenario:
    """Seeded random per-edge ensemble: pair prices uniform in ``[low, high]``."""
    if not 0 < low <= high:
        raise ValueError("need 0 < low <= high")
    rng = random.Random(seed)
    weights = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            weights[i][j] = weights[j][i] = rng.uniform(low, high)
    return Scenario(
        name="random_weights",
        description=(
            f"random pair prices uniform in [{low:g}, {high:g}] (seed {seed})"
        ),
        n=n,
        model=PerEdgeCost(weights),
        params=_recipe("random_weights", n, seed, low=low, high=high),
    )


#: Registry of scenario factories: ``name -> factory(n, seed=..., **params)``.
SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "two_tier_isp": two_tier_isp,
    "hub_discounted": hub_discounted,
    "line_metric": line_metric,
    "random_weights": random_weights,
}


def available_scenarios() -> List[str]:
    """The registered scenario names, sorted."""
    return sorted(SCENARIOS)


def build_scenario(name: str, n: int, /, seed: int = 0, **params) -> Scenario:
    """Instantiate a registered scenario by name.

    ``name`` and ``n`` are positional-only, so ``params`` may be a full
    :attr:`Scenario.params` recipe: redundant ``name``/``n`` entries are
    accepted when they agree with the explicit arguments (and rejected when
    they disagree), and ``build_scenario(s.name, s.n, **s.params)``
    round-trips.
    """
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(available_scenarios())}"
        ) from None
    for key, value in (("name", name), ("n", int(n))):
        if key in params:
            if params[key] != value:
                raise ValueError(
                    f"scenario {key}={value!r} disagrees with "
                    f"params[{key!r}]={params[key]!r}"
                )
            params = {k: v for k, v in params.items() if k != key}
    return factory(n, seed=seed, **params)


def scenario_from_params(params: Dict[str, object]) -> Scenario:
    """Rebuild a scenario from a :attr:`Scenario.params` recipe dict.

    The inverse of every factory: ``scenario_from_params(s.params)``
    reproduces ``s`` exactly — in particular the weight matrix is
    bit-for-bit identical, because the recipe records every parameter
    (``seed`` included) with its resolved value, so no registry default is
    re-applied on the round trip.  This is how persisted weighted artifacts
    and ensemble draws re-instantiate their cost model from metadata.
    """
    params = dict(params)
    try:
        name = params.pop("name")
        n = params.pop("n")
    except KeyError as missing:
        raise ValueError(
            f"scenario params must record {missing.args[0]!r}; got keys "
            f"{sorted(params)} (params written before the full-recipe "
            "contract must be rebuilt via build_scenario)"
        ) from None
    return build_scenario(str(name), int(n), **params)


def default_t_grid(n: int, count: int = 12) -> List[float]:
    """The default scale grid of a scenario sweep (log-spaced, like figures).

    ``max(2, count)`` points; ``count < 1`` asks for none and is refused.
    """
    if n < 1:
        raise ValueError(f"an n = {n} scenario has no scale grid")
    if count < 1:
        raise ValueError(f"a grid needs at least one point, got {count}")
    return log_spaced_alphas(0.2, float(n * n), max(2, count))

