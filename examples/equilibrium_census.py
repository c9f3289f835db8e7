"""Reproduce the paper's empirical study (Figures 2 and 3) on a small census.

Enumerates every connected topology on ``n`` vertices up to isomorphism,
computes each one's BCG stability window and UCG Nash α-set once, and prints
the average price of anarchy (Figure 2) and the average number of links
(Figure 3) of the two games' equilibrium sets across a log-spaced grid of
link costs, using the paper's aligned per-edge-cost axis.

Run with::

    python examples/equilibrium_census.py [n]

``n`` defaults to 6; 7 is feasible but takes a few minutes.
"""

import sys

from repro.analysis import (
    cached_store,
    census_figure_series,
    format_ascii_series,
    format_figure,
)


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    print(f"Building the equilibrium census for n = {n} ...")
    # The columnar store answers the whole α-grid vectorised.
    census = cached_store(n)
    print(f"{len(census)} connected topologies analysed\n")

    figure2 = census_figure_series(census, "average_poa")
    print(format_figure(figure2, "Figure 2 — average price of anarchy"))
    print()
    print(format_ascii_series(figure2.ucg.values(), label="UCG avg PoA "))
    print(format_ascii_series(figure2.bcg.values(), label="BCG avg PoA "))
    print()

    figure3 = census_figure_series(census, "average_links")
    print(format_figure(figure3, "Figure 3 — average number of links"))
    print()
    print(format_ascii_series(figure3.ucg.values(), label="UCG avg links "))
    print(format_ascii_series(figure3.bcg.values(), label="BCG avg links "))

    crossover = figure2.crossover_cost()
    if crossover is not None:
        print(
            f"\nThe BCG's average PoA becomes worse than the UCG's near a total "
            f"per-edge cost of {crossover:.3g} — the qualitative reversal the paper reports."
        )


if __name__ == "__main__":
    main()
