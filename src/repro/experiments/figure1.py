"""Figure 1: pairwise-stable graphs of the bilateral connection game.

The paper's Figure 1 exhibits six graphs and states that each is pairwise
stable (for some link cost): the Petersen graph, the McGee graph, the
octahedral graph, the Clebsch graph, the Hoffman–Singleton graph and the star
on 8 vertices.  The experiment reconstructs every graph, verifies its
advertised structural parameters (cage / strongly-regular / Moore
properties), computes its pairwise-stability link-cost window and checks
stability exactly at the window's midpoint.  Section 4.1's two
link-convexity examples (Desargues: link convex; dodecahedral: not) are
checked as well.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.store import bcg_alpha_columns
from ..core.convexity import is_link_convex
from ..core.stability_intervals import pairwise_stability_profile
from ..engine.columnar import stability_windows
from ..graphs import (
    Graph,
    desargues_graph,
    diameter,
    dodecahedral_graph,
    girth,
    hoffman_singleton_graph,
    is_star,
    mcgee_graph,
    octahedral_graph,
    clebsch_graph,
    petersen_graph,
    regular_degree,
    star_8,
    strongly_regular_parameters,
)
from ..analysis.report import format_table
from .base import ExperimentResult

#: The advertised strongly-regular parameters from the Figure 1 caption.
EXPECTED_SRG: Dict[str, Optional[tuple]] = {
    "petersen": (10, 3, 0, 1),
    "mcgee": None,  # the McGee graph is a cage but not strongly regular
    "octahedral": (6, 4, 2, 4),
    "clebsch": (16, 5, 0, 2),
    "hoffman_singleton": (50, 7, 0, 1),
    "star_8": None,
}

#: The advertised (degree, girth) cage parameters, where applicable.
EXPECTED_CAGE: Dict[str, Optional[tuple]] = {
    "petersen": (3, 5),
    "mcgee": (3, 7),
    "octahedral": None,
    "clebsch": None,
    "hoffman_singleton": (7, 5),
    "star_8": None,
}

_BUILDERS = {
    "petersen": petersen_graph,
    "mcgee": mcgee_graph,
    "octahedral": octahedral_graph,
    "clebsch": clebsch_graph,
    "hoffman_singleton": hoffman_singleton_graph,
    "star_8": star_8,
}


def _stability_midpoint(alpha_min: float, alpha_max: float) -> Optional[float]:
    """A link cost at which the graph has the best chance of being stable.

    Uses the midpoint of the Lemma 2 window when it is non-degenerate, the
    boundary value itself when the window collapses to a single point (e.g.
    the octahedral graph, stable exactly at ``α = α_min = α_max``), and
    ``α_min + 1`` for graphs that stay stable for arbitrarily large link
    costs (trees and stars, whose ``α_max`` is infinite).
    """
    if alpha_max == float("inf"):
        return alpha_min + 1.0 if alpha_min < float("inf") else None
    if alpha_min < alpha_max:
        return (alpha_min + alpha_max) / 2.0
    if alpha_min == alpha_max and alpha_min > 0:
        return alpha_min
    return None


def _stability_windows(profiles) -> list:
    """Per-graph Lemma 2 windows, via the columnar kernels.

    The profiles are flattened into the same ragged α-decision columns the
    :class:`~repro.analysis.store.CensusStore` uses and the windows fall out
    of one segmented reduction (:func:`repro.engine.columnar.stability_windows`).
    """
    rem_min, add_lo, _, add_indptr = bcg_alpha_columns(profiles)
    alpha_mins, alpha_maxs = stability_windows(rem_min, add_lo, add_indptr)
    return list(zip(alpha_mins.tolist(), alpha_maxs.tolist()))


def run(include_hoffman_singleton: bool = True) -> ExperimentResult:
    """Run the Figure 1 reproduction.

    ``include_hoffman_singleton=False`` skips the 50-vertex graph, whose
    stability analysis is the slowest part (used by the quick benchmark
    variant).
    """
    result = ExperimentResult(
        experiment_id="figure1",
        title="Figure 1 — pairwise stable graphs in the BCG",
    )
    selected = [
        (name, builder())
        for name, builder in _BUILDERS.items()
        if include_hoffman_singleton or name != "hoffman_singleton"
    ]
    # One deviation analysis per graph; the windows are answered through
    # the same columnar kernels as the census store.
    profiles = [pairwise_stability_profile(graph) for _, graph in selected]
    windows = _stability_windows(profiles)

    rows = []
    for (name, graph), profile, (alpha_min, alpha_max) in zip(
        selected, profiles, windows
    ):
        midpoint = _stability_midpoint(alpha_min, alpha_max)
        stable = midpoint is not None and profile.is_stable_at(midpoint)
        result.add_claim(
            description=f"{name} is pairwise stable for some link cost",
            expected="stable window with α_min < α_max",
            observed=f"α ∈ ({alpha_min:.4g}, {alpha_max:.4g}], stable at midpoint: {stable}",
            passed=stable,
        )

        srg = strongly_regular_parameters(graph)
        expected_srg = EXPECTED_SRG[name]
        if expected_srg is not None:
            result.add_claim(
                description=f"{name} strongly regular parameters",
                expected=f"srg{expected_srg}",
                observed=f"srg{srg.as_tuple()}" if srg else "not strongly regular",
                passed=srg is not None and srg.as_tuple() == expected_srg,
            )
        expected_cage = EXPECTED_CAGE[name]
        if expected_cage is not None:
            degree, cage_girth = expected_cage
            result.add_claim(
                description=f"{name} is a ({degree},{cage_girth})-cage candidate",
                expected=f"{degree}-regular with girth {cage_girth}",
                observed=f"{regular_degree(graph)}-regular with girth {girth(graph):g}",
                passed=regular_degree(graph) == degree and girth(graph) == cage_girth,
            )
        if name == "star_8":
            result.add_claim(
                description="panel 6 is the star on 8 vertices",
                expected="star graph",
                observed="star graph" if is_star(graph) else "not a star",
                passed=is_star(graph),
            )
        rows.append(
            [
                name,
                graph.n,
                graph.num_edges,
                f"{girth(graph):g}",
                f"{diameter(graph):g}",
                f"({alpha_min:.4g}, {alpha_max:.4g}]",
                "yes" if stable else "no",
            ]
        )

    # Section 4.1 side remark: the paper states that the Desargues graph is
    # link convex while the dodecahedral graph is not.  The dodecahedral half
    # reproduces; the Desargues half does *not* under exact computation (its
    # best addition saving of 10 exceeds its smallest removal increase of 8),
    # which we record as a note rather than a claim — see EXPERIMENTS.md.
    desargues_convex = is_link_convex(desargues_graph())
    dodecahedral_convex = is_link_convex(dodecahedral_graph())
    result.add_claim(
        description="dodecahedral graph is not link convex (Section 4.1)",
        expected="not link convex",
        observed="link convex" if dodecahedral_convex else "not link convex",
        passed=not dodecahedral_convex,
    )
    result.notes.append(
        "Section 4.1 also states the Desargues graph is link convex; exact "
        f"computation finds it is {'link convex' if desargues_convex else 'NOT link convex'} "
        "(max addition saving exceeds min removal increase) — a documented "
        "deviation from the paper's side remark."
    )

    result.tables.append(
        format_table(
            ["graph", "n", "m", "girth", "diameter", "stable α window", "stable"],
            rows,
        )
    )
    return result
