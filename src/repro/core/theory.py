"""Closed-form quantities stated by the paper (the "theory oracle").

These are the formulas the experiments compare against: social costs of the
canonical topologies, the Lemma 6 stability window of the cycle, the Moore
bound, and the asymptotic price-of-anarchy bound shapes of Propositions 3
and 4.  Everything is a plain function of ``n`` and ``α`` so the benchmarks
can print "paper formula vs measured" side by side.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..graphs import moore_bound
from .efficiency import _check_game
from .efficiency import (  # noqa: F401 - the closed forms, re-exported here
    complete_graph_social_cost,
    star_social_cost,
)


# --------------------------------------------------------------------------- #
# Social costs of canonical topologies (ordered-pair distance convention)
# --------------------------------------------------------------------------- #


def complete_graph_total_distance(n: int) -> int:
    """``Σ_{i,j} d`` of the complete graph: every ordered pair at distance 1."""
    return n * (n - 1)


def star_total_distance(n: int) -> int:
    """``Σ_{i,j} d`` of the star: ``2(n-1)`` at distance 1, the rest at distance 2."""
    if n < 2:
        return 0
    return 2 * (n - 1) + 2 * (n - 1) * (n - 2)


def cycle_total_distance(n: int) -> int:
    """``Σ_{i,j} d`` of the cycle ``C_n``.

    Each vertex's distance sum is ``n²/4`` for even ``n`` and ``(n²-1)/4`` for
    odd ``n``.
    """
    if n < 3:
        raise ValueError("a cycle requires at least 3 vertices")
    per_vertex = n * n // 4 if n % 2 == 0 else (n * n - 1) // 4
    return n * per_vertex


def path_total_distance(n: int) -> int:
    """``Σ_{i,j} d`` of the path ``P_n`` (equals ``(n³ - n) / 3``)."""
    return (n ** 3 - n) // 3


def cycle_social_cost(n: int, alpha: float, game: str = "bcg") -> float:
    """Closed-form social cost of the cycle ``C_n``."""
    per_edge = 2.0 if _check_game(game) == "bcg" else 1.0
    return per_edge * alpha * n + cycle_total_distance(n)


# --------------------------------------------------------------------------- #
# Lemma 6: the stability window of the cycle in the BCG
# --------------------------------------------------------------------------- #


def cycle_stability_window(n: int) -> Tuple[float, float]:
    """The Lemma 6 link-cost window ``(lower, upper)`` for the cycle ``C_n``.

    The paper's case analysis (for ``k ∈ ℕ``):

    * ``n = 4k - 2``:  ``(n² - 4n + 4) / 8  <  α  <  n(n - 2) / 4``
    * ``n = 4k``:      ``(n² - 4n + 8) / 8  <  α  <  n(n - 2) / 4``
    * ``n = 2k - 1``:  ``(n - 3)(n + 1) / 8 <  α  <  (n + 1)(n - 1) / 4``

    Any ``α`` strictly inside the window makes ``C_n`` pairwise stable (the
    window is derived from link convexity, so it is a sufficient range).
    """
    if n < 3:
        raise ValueError("a cycle requires at least 3 vertices")
    if n % 2 == 1:
        lower = (n - 3) * (n + 1) / 8.0
        upper = (n + 1) * (n - 1) / 4.0
    elif n % 4 == 0:
        lower = (n * n - 4 * n + 8) / 8.0
        upper = n * (n - 2) / 4.0
    else:  # n ≡ 2 (mod 4)
        lower = (n * n - 4 * n + 4) / 8.0
        upper = n * (n - 2) / 4.0
    return lower, upper


def cycle_poa_is_constant(n: int, alpha: float) -> float:
    """The cycle's price of anarchy ``ρ(C_n)`` used in Lemma 6's ``O(1)`` claim.

    Computed from the closed forms: ``(2αn + Θ(n³)) / (2αn + 2n(n-1))`` with
    ``α = Θ(n²)`` inside the stability window, which is bounded by a constant.
    """
    numerator = cycle_social_cost(n, alpha, "bcg")
    denominator = star_social_cost(n, alpha, "bcg")
    return numerator / denominator


# --------------------------------------------------------------------------- #
# Propositions 3 and 4: price-of-anarchy bound shapes
# --------------------------------------------------------------------------- #


def poa_lower_bound_shape(alpha: float) -> float:
    """The Ω(log₂ α) lower-bound shape of Proposition 3 (up to a constant)."""
    if alpha <= 1:
        return 1.0
    return math.log2(alpha)


def poa_upper_bound_shape(alpha: float, n: Optional[int] = None) -> float:
    """The O(√α) upper-bound shape of Proposition 4 (up to a constant).

    When ``n`` is provided the refined ``O(min(√α, n/√α))`` form (tight by
    Demaine et al.) is returned.
    """
    if alpha <= 0:
        raise ValueError("link cost must be positive")
    root = math.sqrt(alpha)
    if n is None:
        return root
    return min(root, n / root)


def moore_bound_order(degree: int, diameter: int) -> int:
    """Re-export of the Moore bound used in the Proposition 3 construction."""
    return moore_bound(degree, diameter)


def proposition3_alpha_estimate(diameter: int) -> float:
    """The ``α = Θ(2^D)`` scaling used in the proof of Proposition 3."""
    return float(2 ** diameter)


def ucg_efficiency_threshold() -> float:
    """Link cost at which the UCG optimum switches from complete graph to star."""
    return 2.0


def bcg_efficiency_threshold() -> float:
    """Link cost at which the BCG optimum switches from complete graph to star (Lemmas 4–5)."""
    return 1.0
