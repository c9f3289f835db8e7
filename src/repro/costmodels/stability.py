"""Weighted stability analysis: per-probe ``(w, Δdist)`` coefficient records.

The scalar census machinery works because every single-link deviation payoff
of a graph is a pure *graph* quantity (a distance delta) compared against one
global threshold ``α``.  With heterogeneous link costs the threshold varies
per probe, so :class:`WeightedStabilityProfile` — the weighted analogue of
:class:`~repro.core.stability_intervals.PairwiseStabilityProfile` — stores a
coefficient *pair* ``(w, Δdist)`` per probe instead of a scalar threshold:

* for every edge ``(u, v)`` and endpoint ``e``: ``(w(e, other), removal
  increase of e)``;
* for every non-edge ``(u, v)`` and endpoint ``e``: ``(w(e, other),
  addition saving of e)``.

Stability of the scaled model ``C = t·W`` is then a per-probe linear
comparison (``Δ`` against ``t·w``), so the set of scales ``t`` at which the
graph is pairwise stable stays **one-dimensional**: an interval
``(t_min, t_max]`` exactly analogous to Lemma 2, with

    ``t_max = min over removal probes of Δ / w``
    ``t_min = max over non-edges of min(save_u / w_u, save_v / w_v)``

(each probe's deviation threshold simply divided by its own coefficient).
The same decomposition makes the weighted UCG tractable: every Nash
constraint of a fixed edge-ownership is linear in ``t``
(``t·Δw ≥ -Δdist``), so :func:`weighted_ucg_nash_t_set` reuses the scalar
orientation search with weight *sums* in place of purchase *counts* and
returns an :class:`~repro.core.stability_intervals.AlphaIntervalSet` over
``t``.

Distance deltas are delegated to the shared
:class:`~repro.engine.DistanceOracle` (identical numbers to the scalar
profile); with :class:`~repro.costmodels.models.UniformCost` all decisions
and intervals here are float-exactly those of the scalar code — every
comparison keeps the scalar expression shape with the coefficient
multiplied in (``t·w`` with ``w = α, t = 1`` or ``w = 1, t = α`` reproduces
the exact same IEEE values), which the test suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..core.stability_intervals import AlphaInterval, AlphaIntervalSet
from ..engine import DistanceOracle, get_default_oracle
from ..engine.oracle import distance_delta
from ..graphs import Graph, INFINITY
from .models import CostModel, as_cost_model

Edge = Tuple[int, int]
EndpointKey = Tuple[Edge, int]
#: A per-probe coefficient record: ``(weight, distance delta)``.
Coefficients = Tuple[float, float]

#: Interval returned when an ownership set is never a best response.
_EMPTY_INTERVAL = AlphaInterval(1.0, 0.0)


def _subsets(items: Sequence[int]) -> Iterable[Tuple[int, ...]]:
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


# --------------------------------------------------------------------------- #
# Weighted pairwise stability (BCG)
# --------------------------------------------------------------------------- #


@dataclass
class WeightedStabilityProfile:
    """All single-link deviation payoffs of a graph, with their coefficients.

    Attributes
    ----------
    graph:
        The analysed graph.
    model:
        The (unscaled) cost model ``W``; queries take the scale ``t``.
    removal:
        ``removal[((u, v), e)] = (w, Δ)`` — severing edge ``(u, v)`` saves
        endpoint ``e`` the link price ``w = w(e, other)`` and increases its
        distance cost by ``Δ``.
    addition:
        ``addition[((u, v), e)] = (w, save)`` — creating non-edge ``(u, v)``
        costs endpoint ``e`` the price ``w`` and saves it ``save`` in
        distance cost.
    """

    graph: Graph
    model: CostModel
    removal: Dict[EndpointKey, Coefficients]
    addition: Dict[EndpointKey, Coefficients]

    # -- the Lemma 2 analogue in the scale parameter t ---------------------- #

    @property
    def t_max(self) -> float:
        """Smallest ``Δ / w`` over removal probes (``inf`` for edgeless graphs).

        For any scale strictly above this value some player prefers to sever
        a link unilaterally.
        """
        if not self.removal:
            return INFINITY
        return min(delta / w for (w, delta) in self.removal.values())

    @property
    def t_min(self) -> float:
        """Largest least-interested-endpoint ``save / w`` over non-edges.

        For any scale strictly below this value some missing link would be
        added bilaterally.  ``0`` for complete graphs, ``inf`` for
        disconnected graphs.
        """
        best = 0.0
        for (u, v) in self.graph.non_edges():
            w_u, save_u = self.addition[((u, v), u)]
            w_v, save_v = self.addition[((u, v), v)]
            best = max(best, min(save_u / w_u, save_v / w_v))
        return best

    def stability_t_interval(self) -> Tuple[float, float]:
        """The interval ``(t_min, t_max]`` of stabilising scales, as a tuple."""
        return (self.t_min, self.t_max)

    def t_interval_set(self) -> AlphaIntervalSet:
        """The stabilising scales as an :class:`AlphaIntervalSet`.

        Like the scalar Lemma 2 interval, membership of the left endpoint
        itself is decided by the exact check (:meth:`is_stable_at`); the set
        is empty when no positive scale stabilises the graph.
        """
        lo, hi = self.stability_t_interval()
        if lo >= hi:
            return AlphaIntervalSet()
        return AlphaIntervalSet([AlphaInterval(lo, hi)])

    # -- exact Definition 3 checks at one scale ----------------------------- #

    def is_stable_at(self, t: float = 1.0) -> bool:
        """Exact weighted pairwise stability of ``C = t·W`` (Definition 3)."""
        return not self.violations_at(t)

    def violations_at(self, t: float = 1.0) -> List[str]:
        """Human-readable list of Definition 3 violations at scale ``t``."""
        violations: List[str] = []
        for (u, v) in self.graph.sorted_edges():
            for endpoint in (u, v):
                w, delta = self.removal[((u, v), endpoint)]
                if delta < t * w - 1e-12:
                    violations.append(
                        f"player {endpoint} strictly gains by severing edge ({u}, {v})"
                    )
        for (u, v) in self.graph.non_edges():
            w_u, save_u = self.addition[((u, v), u)]
            w_v, save_v = self.addition[((u, v), v)]
            # Violation of Definition 3: one endpoint strictly gains and the
            # other at least weakly gains from adding the missing link, each
            # measured against its own price t·w.
            if (save_u > t * w_u + 1e-12 and save_v >= t * w_v - 1e-12) or (
                save_v > t * w_v + 1e-12 and save_u >= t * w_u - 1e-12
            ):
                violations.append(
                    f"players {u} and {v} would bilaterally add missing edge ({u}, {v})"
                )
        return violations


def weighted_stability_profile(
    graph: Graph, model: CostModel, oracle: Optional[DistanceOracle] = None
) -> WeightedStabilityProfile:
    """Pair every single-link deviation payoff of ``graph`` with its coefficient.

    The distance deltas are exactly those of the scalar
    :func:`~repro.core.stability_intervals.pairwise_stability_profile`
    (shared oracle, shared ``∞ - ∞ = 0`` convention); the model only
    contributes the per-probe prices.  A model bound to another player
    count than ``graph.n`` is a :class:`ValueError`.
    """
    model = as_cost_model(model, graph.n)
    if oracle is None:
        oracle = get_default_oracle()
    removal_deltas, addition_deltas = oracle.stability_deltas(graph)
    removal = {
        ((u, v), endpoint): (model.weight(endpoint, v if endpoint == u else u), delta)
        for ((u, v), endpoint), delta in removal_deltas.items()
    }
    addition = {
        ((u, v), endpoint): (model.weight(endpoint, v if endpoint == u else u), save)
        for ((u, v), endpoint), save in addition_deltas.items()
    }
    return WeightedStabilityProfile(
        graph=graph, model=model, removal=removal, addition=addition
    )


def is_weighted_pairwise_stable(
    graph: Graph,
    model: CostModel,
    t: float = 1.0,
    oracle: Optional[DistanceOracle] = None,
) -> bool:
    """Exact weighted pairwise stability of ``graph`` under ``t·W``."""
    if t <= 0:
        raise ValueError("the scale t must be strictly positive")
    return weighted_stability_profile(graph, model, oracle=oracle).is_stable_at(t)


def weighted_stability_t_interval(
    graph: Graph, model: CostModel, oracle: Optional[DistanceOracle] = None
) -> Tuple[float, float]:
    """The ``(t_min, t_max]`` scale interval stabilising ``graph`` under ``W``."""
    return weighted_stability_profile(graph, model, oracle=oracle).stability_t_interval()


# --------------------------------------------------------------------------- #
# Weighted Nash checks on explicit profiles
# --------------------------------------------------------------------------- #


def weighted_best_deviation_delta_bcg(
    profile,
    player: int,
    model: CostModel,
    t: float = 1.0,
    oracle: Optional[DistanceOracle] = None,
) -> float:
    """The most negative weighted cost change ``player`` can achieve unilaterally.

    Mirrors :func:`repro.core.bilateral.best_deviation_delta_bcg`: a BCG
    unilateral deviation cannot create edges, so only subsets of the
    currently reciprocated requests are worth keeping; each dropped link
    ``j`` saves its own price ``t·w(player, j)``.
    """
    if oracle is None:
        oracle = get_default_oracle()
    reciprocated = [
        j for j in profile.requests_of(player) if profile.seeks(j, player)
    ]
    current = tuple(sorted(profile.requests_of(player)))
    before_graph = profile.bilateral_graph()
    before_distance = oracle.distance_sum(before_graph, player)
    current_links = t * model.player_link_cost(player, current)
    best = 0.0
    for kept in _subsets(reciprocated):
        after_graph = profile.with_player_strategy(player, kept).bilateral_graph()
        increase = distance_delta(
            oracle.distance_sum(after_graph, player), before_distance
        )
        delta = increase + (t * model.player_link_cost(player, kept) - current_links)
        if delta < best:
            best = delta
    return best


def is_weighted_nash_profile_bcg(
    profile,
    model: CostModel,
    t: float = 1.0,
    oracle: Optional[DistanceOracle] = None,
) -> bool:
    """Whether ``profile`` is a pure Nash equilibrium of the weighted BCG.

    An unreciprocated request always saves its strictly positive price when
    dropped, so such profiles are never Nash; otherwise the exact best
    response over reciprocated-link subsets is enumerated.
    """
    if t <= 0:
        raise ValueError("the scale t must be strictly positive")
    if oracle is None:
        oracle = get_default_oracle()
    for player in range(profile.n):
        wasted = [
            j for j in profile.requests_of(player) if not profile.seeks(j, player)
        ]
        if wasted:
            return False
        if (
            weighted_best_deviation_delta_bcg(
                profile, player, model, t=t, oracle=oracle
            )
            < -1e-12
        ):
            return False
    return True


def is_weighted_nash_profile_ucg(profile, model: CostModel, t: float = 1.0) -> bool:
    """Whether ``profile`` is a pure Nash equilibrium of the weighted UCG.

    Mirrors :func:`repro.core.unilateral.is_nash_profile_ucg` with each
    candidate purchase priced at its own coefficient ``t·w(player, j)``.
    """
    if t <= 0:
        raise ValueError("the scale t must be strictly positive")
    from ..core.unilateral import _source_distance_sum_with_extras

    oracle = get_default_oracle()
    full_graph = profile.unilateral_graph()
    for player in range(profile.n):
        others = profile.with_player_strategy(player, ()).unilateral_graph()
        current_distance = oracle.distance_sum(full_graph, player)
        current = tuple(sorted(profile.requests_of(player)))
        current_links = t * model.player_link_cost(player, current)
        candidates = [
            j
            for j in range(profile.n)
            if j != player and not others.has_edge(player, j)
        ]
        for subset in _subsets(candidates):
            candidate_distance = _source_distance_sum_with_extras(
                others, player, subset
            )
            delta = distance_delta(candidate_distance, current_distance) + (
                t * model.player_link_cost(player, subset) - current_links
            )
            if delta < -1e-12:
                return False
    return True


# --------------------------------------------------------------------------- #
# Weighted UCG: ownership t-intervals + orientation search
# --------------------------------------------------------------------------- #


def weighted_ownership_interval(
    graph: Graph,
    player: int,
    owned: FrozenSet[Edge],
    model: CostModel,
    oracle: Optional[DistanceOracle] = None,
) -> AlphaInterval:
    """Scales ``t`` at which owning exactly ``owned`` is a best response.

    The weighted generalisation of
    :func:`repro.core.unilateral.ownership_best_response_interval`: every
    Nash constraint ``c(owned) ≤ c(S)`` reads ``t·(w_S - w_owned) ≥ -Δdist``
    and is linear in ``t``, so the feasible region is a closed interval.
    Purchase *counts* become weight *sums*; with a uniform unit model the
    two coincide float-exactly.  A model bound to another player count than
    ``graph.n`` is a :class:`ValueError`.
    """
    from ..core.unilateral import _source_distance_sum_with_extras

    model = as_cost_model(model, graph.n)
    for (u, v) in owned:
        if player not in (u, v):
            raise ValueError(f"edge {(u, v)} is not incident to player {player}")
        if not graph.has_edge(u, v):
            raise ValueError(f"edge {(u, v)} is not in the graph")

    if oracle is None:
        oracle = get_default_oracle()
    base_distance = oracle.distance_sum(graph, player)
    owned_targets = tuple(sorted(v if player == u else u for (u, v) in owned))
    owned_weight = model.player_link_cost(player, owned_targets)
    others_graph = graph.remove_edges(owned)
    candidates = [
        j
        for j in range(graph.n)
        if j != player and not others_graph.has_edge(player, j)
    ]
    lo, hi = 0.0, INFINITY
    for subset in _subsets(candidates):
        candidate_distance = _source_distance_sum_with_extras(
            others_graph, player, subset
        )
        delta = distance_delta(candidate_distance, base_distance)
        dw = model.player_link_cost(player, subset) - owned_weight
        if dw == 0.0:
            if delta < -1e-12:
                return _EMPTY_INTERVAL
        elif dw > 0.0:
            # Spending dw more on links must not pay off: t >= -delta / dw.
            lo = max(lo, -delta / dw)
        else:
            # Saving -dw on links must not pay off: t <= delta / -dw.
            hi = min(hi, delta / -dw)
        if lo > hi:
            return _EMPTY_INTERVAL
    return AlphaInterval(lo, hi)


def weighted_ucg_nash_t_set(
    graph: Graph, model: CostModel, oracle: Optional[DistanceOracle] = None
) -> AlphaIntervalSet:
    """All scales ``t`` at which ``graph`` is a Nash network of ``t·W`` (UCG).

    Runs the shared backtracking engine
    (:func:`repro.core.unilateral.orientation_interval_search`) over the
    per-player :func:`weighted_ownership_interval` results — exactly the
    scalar :func:`~repro.core.unilateral.ucg_nash_alpha_set` with weight
    sums in place of purchase counts.
    """
    from ..core.unilateral import orientation_interval_search

    if oracle is None:
        oracle = get_default_oracle()

    interval_cache: Dict[Tuple[int, FrozenSet[Edge]], AlphaInterval] = {}

    def player_interval(player: int, owned: FrozenSet[Edge]) -> AlphaInterval:
        key = (player, owned)
        if key not in interval_cache:
            interval_cache[key] = weighted_ownership_interval(
                graph, player, owned, model, oracle=oracle
            )
        return interval_cache[key]

    return orientation_interval_search(graph, player_interval)


def is_weighted_nash_graph_ucg(
    graph: Graph,
    model: CostModel,
    t: float = 1.0,
    oracle: Optional[DistanceOracle] = None,
) -> bool:
    """Whether ``graph`` is achievable as a Nash network of the weighted UCG."""
    if t <= 0:
        raise ValueError("the scale t must be strictly positive")
    return weighted_ucg_nash_t_set(graph, model, oracle=oracle).contains(t)
