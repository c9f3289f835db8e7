"""Computational checks of Propositions 1, 3, 4, 5 and Footnote 6.

* **Proposition 1**: pairwise stability and pairwise Nash coincide in the BCG
  (checked exhaustively over a small census, independent implementations).
* **Proposition 3**: regular graphs near the Moore bound (cages) are pairwise
  stable and give a price of anarchy of order ``log₂ α``.
* **Proposition 4**: the worst-case PoA over pairwise-stable graphs is
  ``O(√α)`` — checked as ``max PoA ≤ c·min(√α, n/√α)`` on an exhaustive
  census.
* **Proposition 5**: a tree that is a UCG Nash graph is pairwise stable in
  the BCG at the same link cost — checked for every tree on up to ``n``
  vertices and every link cost in its UCG Nash interval.
* **Footnote 6**: ``ρ_UCG(G) ≤ 2·ρ_BCG(G)`` for every graph and link cost.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..analysis.report import format_table
from ..analysis.store import cached_store
from ..core.anarchy import compare_price_of_anarchy, price_of_anarchy
from ..core.bilateral import is_pairwise_nash, is_pairwise_stable
from ..core.convexity import is_link_convex
from ..core.stability_intervals import pairwise_stability_interval
from ..core.unilateral import ucg_nash_alpha_set
from ..graphs import (
    enumerate_trees,
    heawood_graph,
    hoffman_singleton_graph,
    mcgee_graph,
    petersen_graph,
    regular_graph_profile,
    tutte_coxeter_graph,
)
from .base import ExperimentResult

#: Cage / Moore graphs used for the Proposition 3 lower-bound construction.
PROP3_GRAPHS = {
    "petersen (3,5)-cage": petersen_graph,
    "heawood (3,6)-cage": heawood_graph,
    "mcgee (3,7)-cage": mcgee_graph,
    "tutte-coxeter (3,8)-cage": tutte_coxeter_graph,
    "hoffman-singleton (7,5)-cage": hoffman_singleton_graph,
}


# --------------------------------------------------------------------------- #
# Proposition 1
# --------------------------------------------------------------------------- #


def run_proposition1(
    n: int = 5,
    alphas: Sequence[float] = (0.5, 1.0, 1.5, 2.5, 4.0, 8.0),
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Proposition 1: pairwise stable ⟺ pairwise Nash, checked exhaustively."""
    result = ExperimentResult(
        experiment_id="prop1",
        title=f"Proposition 1 — pairwise stability coincides with pairwise Nash (n = {n})",
    )
    graphs = cached_store(n, include_ucg=False, jobs=jobs).graphs()
    rows = []
    for alpha in alphas:
        stable = {
            graph.edge_key() for graph in graphs if is_pairwise_stable(graph, alpha)
        }
        nash = {
            graph.edge_key() for graph in graphs if is_pairwise_nash(graph, alpha)
        }
        agrees = stable == nash
        result.add_claim(
            description=f"α = {alpha}: the two solution concepts select the same graphs",
            expected="identical sets",
            observed=f"|pairwise stable| = {len(stable)}, |pairwise Nash| = {len(nash)}, equal: {agrees}",
            passed=agrees,
        )
        rows.append([alpha, len(stable), len(nash), "yes" if agrees else "no"])
    result.tables.append(
        format_table(["alpha", "#pairwise stable", "#pairwise Nash", "identical"], rows)
    )
    return result


# --------------------------------------------------------------------------- #
# Proposition 3
# --------------------------------------------------------------------------- #


def run_proposition3() -> ExperimentResult:
    """Proposition 3: Moore-bound regular graphs are stable with PoA of order log₂ α."""
    result = ExperimentResult(
        experiment_id="prop3",
        title="Proposition 3 — lower bound: pairwise stable graphs with PoA Ω(log₂ α)",
    )
    rows = []
    ratios = []
    for name, builder in PROP3_GRAPHS.items():
        graph = builder()
        profile = regular_graph_profile(graph)
        alpha_min, alpha_max = pairwise_stability_interval(graph)
        has_window = alpha_min < alpha_max
        alpha = alpha_min + 1.0 if alpha_max == float("inf") else (alpha_min + alpha_max) / 2.0
        stable = has_window and is_pairwise_stable(graph, alpha)
        link_convex = is_link_convex(graph)
        poa = price_of_anarchy(graph, alpha, "bcg")
        log_alpha = math.log2(alpha) if alpha > 1 else 1.0
        ratio = poa / log_alpha
        ratios.append(ratio)
        result.add_claim(
            description=f"{name} is link convex and pairwise stable for some α",
            expected="link convex, non-empty stability window",
            observed=f"link convex: {link_convex}, window ({alpha_min:.4g}, {alpha_max:.4g}], stable: {stable}",
            passed=link_convex and stable,
        )
        rows.append(
            [
                name,
                graph.n,
                profile.degree,
                f"{profile.girth:g}",
                f"{profile.moore_ratio:.3f}",
                f"({alpha_min:.4g}, {alpha_max:.4g}]",
                alpha,
                poa,
                log_alpha,
                ratio,
            ]
        )
    spread = max(ratios) / min(ratios)
    result.add_claim(
        description="PoA scales like log₂ α across the cage family (bounded ratio)",
        expected="ρ / log₂(α) within a small constant factor across the family",
        observed=f"ratio range [{min(ratios):.3f}, {max(ratios):.3f}], spread {spread:.2f}x",
        passed=spread < 6.0,
    )
    result.tables.append(
        format_table(
            [
                "graph",
                "n",
                "degree",
                "girth",
                "n / Moore bound",
                "stable α window",
                "α used",
                "ρ(G)",
                "log2(α)",
                "ρ / log2(α)",
            ],
            rows,
        )
    )
    return result


# --------------------------------------------------------------------------- #
# Proposition 4 (+ Footnote 6)
# --------------------------------------------------------------------------- #


def run_proposition4(
    n: int = 6,
    alphas: Sequence[float] = (1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 36.0),
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Proposition 4: worst-case PoA over pairwise-stable graphs is O(min(√α, n/√α))."""
    result = ExperimentResult(
        experiment_id="prop4",
        title=f"Proposition 4 — upper bound: worst-case PoA of the BCG is O(√α) (n = {n})",
    )
    store = cached_store(n, include_ucg=False, jobs=jobs)
    rows = []
    ratios = []
    for alpha in alphas:
        worst = store.worst_price_of_anarchy(alpha, "bcg")
        bound_shape = min(math.sqrt(alpha), n / math.sqrt(alpha))
        ratio = worst / bound_shape if bound_shape > 0 else float("nan")
        ratios.append(ratio)
        rows.append([alpha, worst, bound_shape, ratio])
    constant = max(r for r in ratios if r == r)
    result.add_claim(
        description="worst-case PoA stays below a constant multiple of min(√α, n/√α)",
        expected="bounded ratio across the α grid",
        observed=f"max ratio = {constant:.3f}",
        passed=constant < 4.0,
    )
    result.tables.append(
        format_table(["alpha", "worst PoA (BCG)", "min(sqrt(a), n/sqrt(a))", "ratio"], rows)
    )

    # Footnote 6: rho_UCG(G) <= 2 rho_BCG(G) for every connected graph and α.
    violations = 0
    checked = 0
    for graph in store.graphs():
        for alpha in alphas:
            comparison = compare_price_of_anarchy(graph, alpha)
            checked += 1
            if not comparison.satisfies_footnote6:
                violations += 1
    result.add_claim(
        description="Footnote 6: ρ_UCG(G) ≤ 2·ρ_BCG(G) for every graph and link cost",
        expected="no violations",
        observed=f"{violations} violations out of {checked} (graph, α) pairs",
        passed=violations == 0,
    )
    return result


# --------------------------------------------------------------------------- #
# Proposition 5
# --------------------------------------------------------------------------- #


def run_proposition5(max_n: int = 7, samples_per_tree: int = 3) -> ExperimentResult:
    """Proposition 5: UCG-Nash trees are pairwise stable in the BCG at the same α."""
    result = ExperimentResult(
        experiment_id="prop5",
        title=f"Proposition 5 — Nash trees of the UCG are pairwise stable in the BCG (n ≤ {max_n})",
    )
    rows = []
    total_trees = 0
    nash_trees = 0
    counterexamples = 0
    checks = 0
    for n in range(3, max_n + 1):
        for tree in enumerate_trees(n):
            total_trees += 1
            nash_set = ucg_nash_alpha_set(tree)
            if nash_set.is_empty():
                continue
            nash_trees += 1
            for interval in nash_set.intervals:
                lo = max(interval.lo, 1e-6)
                hi = interval.hi if interval.hi != float("inf") else lo + 10.0 * n
                if hi < lo:
                    continue
                step = (hi - lo) / max(samples_per_tree - 1, 1)
                for k in range(samples_per_tree):
                    alpha = lo + k * step
                    if alpha <= 0:
                        continue
                    checks += 1
                    if not is_pairwise_stable(tree, alpha):
                        counterexamples += 1
            rows.append(
                [
                    n,
                    tree.num_edges,
                    str(nash_set),
                ]
            )
    result.add_claim(
        description="every UCG-Nash tree is pairwise stable in the BCG at the same link cost",
        expected="no counterexamples",
        observed=(
            f"{nash_trees}/{total_trees} trees are UCG-Nash for some α; "
            f"{checks} (tree, α) checks, {counterexamples} counterexamples"
        ),
        passed=counterexamples == 0 and checks > 0,
    )
    result.tables.append(
        format_table(["n", "edges", "UCG Nash α-set"], rows[:40])
    )
    if len(rows) > 40:
        result.notes.append(f"table truncated to the first 40 of {len(rows)} Nash trees")
    return result


def run(n: int = 6) -> ExperimentResult:
    """Run all proposition experiments and merge them into a single report."""
    merged = ExperimentResult(
        experiment_id="propositions",
        title="Propositions 1, 3, 4, 5 and Footnote 6",
    )
    for sub in (
        run_proposition1(min(n, 5)),
        run_proposition3(),
        run_proposition4(n),
        run_proposition5(),
    ):
        merged.claims.extend(sub.claims)
        merged.tables.extend(sub.tables)
        merged.notes.extend(sub.notes)
    return merged
