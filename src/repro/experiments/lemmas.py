"""Computational checks of Lemmas 4, 5 and 6 of the paper.

* **Lemma 4** (``α < 1``): the complete graph is the *only* efficient graph
  and the *only* pairwise-stable graph of the BCG.
* **Lemma 5** (``α > 1``): the star is the *only* efficient graph; it is
  pairwise stable but one of many stable graphs.
* **Lemma 6**: the cycle ``C_n`` is pairwise stable for a window of link
  costs ``α > 1`` given in closed form, and its price of anarchy is ``O(1)``.

Lemmas 4 and 5 are verified exhaustively over all connected topologies on a
small number of vertices; Lemma 6 is verified by comparing the paper's
closed-form window with the exact stability interval of the cycle and by
evaluating the PoA inside the window.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.report import format_table
from ..analysis.store import cached_store
from ..core.anarchy import price_of_anarchy
from ..core.bilateral import is_pairwise_stable
from ..core.efficiency import exhaustive_social_optimum
from ..core.stability_intervals import pairwise_stability_interval
from ..core.theory import cycle_stability_window
from ..graphs import cycle_graph, is_complete, is_star
from .base import ExperimentResult


def run_lemma4(
    n: int = 6,
    alphas: Sequence[float] = (0.25, 0.5, 0.9),
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Lemma 4: for ``α < 1`` the complete graph is uniquely efficient and uniquely stable."""
    result = ExperimentResult(
        experiment_id="lemma4",
        title=f"Lemma 4 — α < 1: the complete graph is uniquely efficient and stable (n = {n})",
    )
    store = cached_store(n, include_ucg=False, jobs=jobs)
    graphs = store.graphs()
    rows = []
    for alpha in alphas:
        _, optima = exhaustive_social_optimum(graphs, alpha, "bcg")
        stable = store.stable_graphs_bcg(alpha)
        optima_complete = len(optima) == 1 and is_complete(optima[0])
        stable_complete = len(stable) == 1 and is_complete(stable[0])
        result.add_claim(
            description=f"α = {alpha}: unique efficient graph is K_{n}",
            expected="exactly the complete graph",
            observed=f"{len(optima)} optimal graph(s), complete: {optima_complete}",
            passed=optima_complete,
        )
        result.add_claim(
            description=f"α = {alpha}: unique pairwise stable graph is K_{n}",
            expected="exactly the complete graph",
            observed=f"{len(stable)} stable graph(s), complete: {stable_complete}",
            passed=stable_complete,
        )
        rows.append([alpha, len(optima), len(stable)])
    result.tables.append(
        format_table(["alpha", "#efficient graphs", "#stable graphs"], rows)
    )
    return result


def run_lemma5(
    n: int = 6,
    alphas: Sequence[float] = (1.5, 2.0, 4.0),
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Lemma 5: for ``α > 1`` the star is uniquely efficient, stable but not unique."""
    result = ExperimentResult(
        experiment_id="lemma5",
        title=f"Lemma 5 — α > 1: the star is uniquely efficient and stable but not unique (n = {n})",
    )
    store = cached_store(n, include_ucg=False, jobs=jobs)
    graphs = store.graphs()
    rows = []
    for alpha in alphas:
        _, optima = exhaustive_social_optimum(graphs, alpha, "bcg")
        stable = store.stable_graphs_bcg(alpha)
        optima_star = len(optima) == 1 and is_star(optima[0])
        star_is_stable = any(is_star(g) for g in stable)
        not_unique = len(stable) > 1
        result.add_claim(
            description=f"α = {alpha}: unique efficient graph is the star",
            expected="exactly the star",
            observed=f"{len(optima)} optimal graph(s), star: {optima_star}",
            passed=optima_star,
        )
        result.add_claim(
            description=f"α = {alpha}: the star is pairwise stable",
            expected="star in the stable set",
            observed=f"star stable: {star_is_stable}",
            passed=star_is_stable,
        )
        result.add_claim(
            description=f"α = {alpha}: the star is not the only stable graph",
            expected="more than one stable topology",
            observed=f"{len(stable)} stable topologies",
            passed=not_unique,
        )
        rows.append([alpha, len(optima), len(stable)])
    result.tables.append(
        format_table(["alpha", "#efficient graphs", "#stable graphs"], rows)
    )
    return result


def run_lemma6(sizes: Sequence[int] = (5, 6, 7, 8, 10, 12, 16, 20, 24)) -> ExperimentResult:
    """Lemma 6: cycles are pairwise stable inside the paper's closed-form window, with O(1) PoA."""
    result = ExperimentResult(
        experiment_id="lemma6",
        title="Lemma 6 — the cycle C_n is pairwise stable for some α > 1 and has O(1) PoA",
    )
    rows = []
    poa_values = []
    odd_deviation_noted = False
    for n in sizes:
        cycle = cycle_graph(n)
        window_lo, window_hi = cycle_stability_window(n)
        exact_lo, exact_hi = pairwise_stability_interval(cycle)
        # Evaluate stability at the midpoint of the *exact* window; the
        # paper's closed form is compared against it in the table.
        midpoint = (exact_lo + exact_hi) / 2.0
        stable_at_midpoint = midpoint > 0 and is_pairwise_stable(cycle, midpoint)
        windows_overlap = max(window_lo, exact_lo) < min(window_hi, exact_hi) + 1e-9
        window_matches = (
            abs(window_lo - exact_lo) < 1e-9 and abs(window_hi - exact_hi) < 1e-9
        )
        poa = price_of_anarchy(cycle, midpoint, "bcg") if midpoint > 0 else float("nan")
        poa_values.append(poa)
        if n >= 5:
            result.add_claim(
                description=f"C_{n} is pairwise stable for some link cost α > 1",
                expected="non-empty stability window above α = 1, stable at its midpoint",
                observed=(
                    f"exact window ({exact_lo:.4g}, {exact_hi:.4g}], stable at "
                    f"α = {midpoint:.4g}: {stable_at_midpoint}"
                ),
                passed=stable_at_midpoint and midpoint > 1,
            )
            result.add_claim(
                description=f"Lemma 6 closed-form window for C_{n} overlaps the exact stability interval",
                expected=f"({window_lo:.4g}, {window_hi:.4g}) ∩ ({exact_lo:.4g}, {exact_hi:.4g}] ≠ ∅",
                observed=f"overlap: {windows_overlap}",
                passed=windows_overlap,
            )
        if n % 2 == 1 and not window_matches and not odd_deviation_noted:
            odd_deviation_noted = True
            result.notes.append(
                "for odd n the paper's closed-form window (n-3)(n+1)/8 < α < (n+1)(n-1)/4 "
                "differs from the exact interval ((n-1)²/4 is the exact upper endpoint); "
                "the windows overlap but do not coincide — see EXPERIMENTS.md"
            )
        rows.append(
            [
                n,
                f"({window_lo:.4g}, {window_hi:.4g})",
                f"({exact_lo:.4g}, {exact_hi:.4g}]",
                midpoint,
                poa,
            ]
        )
    # Lemma 6 also asserts the window scales like α = Θ(n²): check the exact
    # lower endpoint divided by n² stays within constant factors.
    scale_ratios = []
    for n, row in zip(sizes, rows):
        exact_lo = pairwise_stability_interval(cycle_graph(n))[0]
        scale_ratios.append(exact_lo / (n * n))
    spread = max(scale_ratios) / min(scale_ratios) if min(scale_ratios) > 0 else float("inf")
    result.add_claim(
        description="the stabilising link cost of C_n scales as Θ(n²)",
        expected="α_min / n² within a constant factor across n",
        observed=f"α_min/n² ∈ [{min(scale_ratios):.3f}, {max(scale_ratios):.3f}]",
        passed=spread < 8.0,
    )
    bounded = max(v for v in poa_values if v == v) <= 2.0
    result.add_claim(
        description="the cycle's price of anarchy stays bounded as n grows (O(1))",
        expected="ρ(C_n) below a small constant for all tested n",
        observed=f"max ρ = {max(poa_values):.4f}",
        passed=bounded,
    )
    result.tables.append(
        format_table(
            ["n", "Lemma 6 window", "exact interval", "α (midpoint)", "ρ(C_n)"],
            rows,
        )
    )
    return result


def run(n: int = 6) -> ExperimentResult:
    """Run all three lemma experiments and merge them into a single report."""
    merged = ExperimentResult(
        experiment_id="lemmas",
        title="Lemmas 4, 5, 6 — efficiency and stability of canonical topologies",
    )
    for sub in (run_lemma4(n), run_lemma5(n), run_lemma6()):
        merged.claims.extend(sub.claims)
        merged.tables.extend(sub.tables)
        merged.notes.extend(sub.notes)
    return merged
