"""Integration tests: every experiment reproduces its paper claims."""

import os

import pytest

from repro.analysis.store import cached_store
from repro.core import (
    is_pairwise_stable,
    is_pairwise_stable_with_transfers,
    price_of_anarchy,
    transfer_stable_graphs,
    worst_case_price_of_anarchy,
)
from repro.experiments import (
    ExperimentResult,
    available_experiments,
    run_experiment,
)
from repro.experiments import (
    extensions,
    figure1,
    figure2,
    figure3,
    lemmas,
    propositions,
)
from repro.experiments.base import ClaimCheck
from repro.graphs import Graph

#: ``run_experiment(id).render()`` of the census-backed experiments at their
#: default sizes, one ``<id>.txt`` per experiment.
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "golden_experiments")


class TestRegistry:
    def test_expected_ids_registered(self):
        ids = available_experiments()
        for expected in (
            "figure1",
            "figure2",
            "figure3",
            "lemma4",
            "lemma5",
            "lemma6",
            "prop1",
            "prop3",
            "prop4",
            "prop5",
        ):
            assert expected in ids

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("figure99")


class TestResultTypes:
    def test_claim_rendering(self):
        claim = ClaimCheck("d", "e", "o", True)
        assert claim.render().startswith("[PASS]")
        assert ClaimCheck("d", "e", "o", False).render().startswith("[FAIL]")

    def test_experiment_result_render_and_summary(self):
        result = ExperimentResult("x", "Title")
        result.add_claim("a", "b", "c", True)
        result.notes.append("a note")
        result.tables.append("a table")
        text = result.render()
        assert "Title" in text and "a note" in text and "a table" in text
        assert result.summary() == "x: 1/1 claims reproduced"
        assert result.all_passed


class TestFigureExperiments:
    def test_figure1_claims_reproduce(self):
        result = figure1.run(include_hoffman_singleton=False)
        assert result.all_passed
        assert result.tables

    def test_figure2_claims_reproduce_on_default_census(self):
        # n = 6 (the default) is the smallest census on which the paper's
        # high-cost reversal is visible; at n = 5 the two games' stable sets
        # coincide for very expensive links and the gap is exactly zero.
        result = figure2.run()
        assert result.all_passed

    def test_figure3_claims_reproduce_on_default_census(self):
        result = figure3.run()
        assert result.all_passed

    def test_figure2_compute_returns_aligned_series(self):
        figure = figure2.compute_figure2(n=5, total_edge_costs=[2.0, 8.0])
        assert len(figure.ucg.points) == 2
        assert figure.bcg.points[0].alpha == 1.0


class TestLemmaExperiments:
    def test_lemma4(self):
        for n in (5, 7):
            assert lemmas.run_lemma4(n=n).all_passed, n

    def test_lemma5(self):
        for n in (5, 7):
            assert lemmas.run_lemma5(n=n).all_passed, n

    def test_lemma6(self):
        result = lemmas.run_lemma6(sizes=(5, 6, 8, 12))
        assert result.all_passed

    def test_merged_runner(self):
        result = lemmas.run(n=5)
        assert result.all_passed
        assert len(result.tables) >= 3


class TestPropositionExperiments:
    def test_prop1(self):
        assert propositions.run_proposition1(n=5, alphas=(0.5, 2.0, 5.0)).all_passed

    def test_prop3(self):
        assert propositions.run_proposition3().all_passed

    def test_prop4(self):
        for n in (5, 7):
            result = propositions.run_proposition4(n=n, alphas=(1.5, 3.0, 8.0))
            assert result.all_passed, n

    def test_prop5(self):
        result = propositions.run_proposition5(max_n=6)
        assert result.all_passed


@pytest.mark.parametrize(
    "experiment_id",
    sorted(name[: -len(".txt")] for name in os.listdir(GOLDEN_DIR)),
)
def test_rendered_report_matches_golden(experiment_id):
    """Claims, observations and tables print byte for byte as pinned."""
    path = os.path.join(GOLDEN_DIR, f"{experiment_id}.txt")
    with open(path, encoding="utf-8") as handle:
        expected = handle.read()
    assert run_experiment(experiment_id).render() + "\n" == expected


@pytest.mark.skipif(
    not os.environ.get("REPRO_SLOW_TESTS"),
    reason="the n=8 claims take ~60s; set REPRO_SLOW_TESTS=1 to run",
)
def test_paper_claims_at_n8():
    """The exhaustive checks over all 11,117 connected classes on 8 vertices.

    Every claim holds except one: at α = 3 bilateral transfers *raise* the
    worst-case PoA of the stable set, because two 4-cycles joined by the
    edges 4–6 and 5–7 are transfer-stable without being pairwise stable.
    """
    for result in (
        lemmas.run_lemma4(n=8),
        lemmas.run_lemma5(n=8),
        propositions.run_proposition4(n=8),
        extensions.run_proposition2(census_n=8),
        extensions.run_price_of_stability(n=8),
    ):
        assert result.all_passed, result.experiment_id
    transfers = extensions.run_transfers(n=8)
    assert [claim.passed for claim in transfers.claims] == [False, True, True]

    alpha = 3.0
    store = cached_store(8, include_ucg=False)
    plain = store.stable_graphs_bcg(alpha)
    with_transfers = transfer_stable_graphs(store.graphs(), alpha)
    assert worst_case_price_of_anarchy(plain, alpha, "bcg") == 1.1571428571428573
    worst = worst_case_price_of_anarchy(with_transfers, alpha, "bcg")
    assert worst == 1.1714285714285715
    joined_cycles = Graph(
        8,
        [(0, 4), (4, 1), (1, 5), (5, 0), (2, 6), (6, 3), (3, 7), (7, 2), (4, 6), (5, 7)],
    )
    assert price_of_anarchy(joined_cycles, alpha, "bcg") == worst
    assert is_pairwise_stable_with_transfers(joined_cycles, alpha)
    assert not is_pairwise_stable(joined_cycles, alpha)
