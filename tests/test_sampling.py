"""Unit tests for dynamics-based equilibrium sampling."""

from repro.analysis import (
    bcg_alpha_columns,
    deduplicate_up_to_isomorphism,
    sample_equilibria_at_cost,
    sample_equilibria_over_grid,
    sampled_bcg_columns,
    sampled_stable_counts,
    sampled_stable_mask,
)
from repro.core import is_nash_graph_ucg, is_pairwise_stable, pairwise_stability_profile
from repro.graphs import Graph, cycle_graph, star_graph


def test_deduplicate_up_to_isomorphism():
    star_a = star_graph(5)
    star_b = star_graph(5, center=2)
    cycle = cycle_graph(5)
    unique = deduplicate_up_to_isomorphism([star_a, star_b, cycle, star_a])
    assert len(unique) == 2
    assert unique[0] == star_a


def test_sample_equilibria_at_cost_small_n():
    sampled = sample_equilibria_at_cost(6, total_edge_cost=4.0, num_samples=5, seed=3)
    assert sampled.alpha_ucg == 4.0
    assert sampled.alpha_bcg == 2.0
    assert sampled.ucg, "best-response dynamics should converge for small n"
    assert sampled.bcg, "pairwise dynamics should converge for small n"
    # Every sampled network really is an equilibrium of its game.
    assert all(is_nash_graph_ucg(g, 4.0) for g in sampled.ucg)
    assert all(is_pairwise_stable(g, 2.0) for g in sampled.bcg)


def test_sample_equilibria_with_verification_filter():
    sampled = sample_equilibria_at_cost(
        5, total_edge_cost=3.0, num_samples=4, seed=1, verify=True
    )
    assert all(is_pairwise_stable(g, 1.5) for g in sampled.bcg)


def test_sample_equilibria_over_grid_keys():
    grid = sample_equilibria_over_grid(5, [2.0, 10.0], num_samples=3, seed=2)
    assert set(grid) == {2.0, 10.0}
    assert set(grid[2.0]) == {"ucg", "bcg"}


# --------------------------------------------------------------------------- #
# Store-backed sampling: columnar α-grid queries over sampled graph lists
# --------------------------------------------------------------------------- #


def test_sampled_profiles_match_per_graph_analysis(small_random_graphs):
    # The census reducer over batched probe columns equals the per-graph
    # profiles pushed through bcg_alpha_columns, dtype and bit for bit,
    # down to an empty sample (zero-graph columns).
    graphs = small_random_graphs + [Graph(1), Graph(4, [(0, 1)])]
    for batch in (graphs, []):
        columns = sampled_bcg_columns(batch)
        reference = bcg_alpha_columns([pairwise_stability_profile(g) for g in batch])
        assert len(columns) == len(reference) == 4
        for ours, theirs in zip(columns, reference):
            assert ours.dtype == theirs.dtype
            assert ours.tolist() == theirs.tolist()


def test_sampled_stable_mask_matches_exact_checks():
    sampled = sample_equilibria_at_cost(6, total_edge_cost=4.0, num_samples=6, seed=3)
    alphas = [0.5, 1.0, 2.0, 4.0, 9.0]
    mask = sampled_stable_mask(sampled.bcg, alphas)
    for i, graph in enumerate(sampled.bcg):
        for j, alpha in enumerate(alphas):
            assert bool(mask[i][j]) == is_pairwise_stable(graph, alpha)
    # Every sampled BCG network is stable at the cost it was sampled at.
    counts = sampled_stable_counts(sampled.bcg, [sampled.alpha_bcg])
    assert counts == [len(sampled.bcg)]


def test_sampled_columns_feed_the_columnar_kernels():
    graphs = [star_graph(6), cycle_graph(6), star_graph(5)]  # mixed n is fine
    rem_min, add_lo, add_hi, add_indptr = sampled_bcg_columns(graphs)
    assert rem_min.shape[0] == len(graphs)
    assert add_indptr.shape[0] == len(graphs) + 1
    counts = sampled_stable_counts(graphs, [3.0])
    expected = sum(1 for g in graphs if is_pairwise_stable(g, 3.0))
    assert counts == [expected]
