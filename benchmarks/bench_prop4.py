"""Benchmark: Proposition 4 (upper bound O(√α)) and Footnote 6.

Regenerates the worst-case-PoA-vs-bound table over the exhaustive census and
the ρ_UCG ≤ 2·ρ_BCG check over every (graph, α) pair.
"""

import math

from repro.core import compare_price_of_anarchy
from repro.experiments import propositions


def test_prop4_full_experiment(benchmark, census6):
    result = benchmark.pedantic(
        propositions.run_proposition4, kwargs={"n": 6}, rounds=1, iterations=1
    )
    assert result.all_passed


def test_prop4_worst_poa_single_alpha(benchmark, census6):
    """Worst-case PoA over the stable set at one link cost (the inner loop)."""
    alpha = 8.0
    worst = benchmark(census6.worst_price_of_anarchy, alpha, "bcg")
    assert worst <= 4.0 * min(math.sqrt(alpha), 6 / math.sqrt(alpha))


def test_footnote6_comparison_sweep(benchmark, census5):
    """ρ_UCG vs 2·ρ_BCG across the full 5-vertex census and an α grid."""

    graphs = census5.graphs()

    def sweep():
        violations = 0
        for graph in graphs:
            for alpha in (1.5, 3.0, 8.0, 20.0):
                if not compare_price_of_anarchy(graph, alpha).satisfies_footnote6:
                    violations += 1
        return violations

    assert benchmark(sweep) == 0
