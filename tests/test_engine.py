"""Equivalence tests for the bitset kernel and the incremental engine.

The PR that introduced the bitset graph kernel and :mod:`repro.engine` keeps
the seed's adjacency-set BFS as ``*_reference`` functions precisely so these
tests can assert, on random graphs (connected and disconnected, ``n <= 9``):

* word-parallel bitset BFS == reference BFS (plain, forbidden-edge and
  extra-edge variants);
* :class:`~repro.engine.DistanceOracle` toggle deltas == naive recomputation;
* stability profiles and dynamics samples are identical through the
  engine, serially and through the process pool.
"""

import os
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dynamics import (
    pairwise_dynamics_bcg,
    sample_nash_networks_ucg,
    sample_stable_networks_bcg,
)
from repro.core.stability_intervals import distance_delta, pairwise_stability_profile
from repro.engine import (
    DistanceOracle,
    batch_stability_deltas,
    chunk_evenly,
    parallel_map,
    resolve_jobs,
)
from repro.graphs import (
    Graph,
    bfs_distances,
    bfs_distances_reference,
    bfs_distances_with_extra_edge,
    bfs_distances_with_extra_edge_reference,
    bfs_distances_with_forbidden_edge,
    bfs_distances_with_forbidden_edge_reference,
    bitset_distance_sum,
    distance_sum,
    distance_sum_reference,
    random_graph,
    total_distance,
)

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #


@st.composite
def graphs(draw, min_n=1, max_n=9):
    """Random small graphs over the full density range (often disconnected)."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, keep in zip(pairs, mask) if keep]
    return Graph(n, edges)


RELAXED = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


# --------------------------------------------------------------------------- #
# Bitset BFS == reference BFS
# --------------------------------------------------------------------------- #


@RELAXED
@given(graphs())
def test_bitset_bfs_matches_reference(graph):
    for source in range(graph.n):
        assert bfs_distances(graph, source) == bfs_distances_reference(graph, source)
        assert distance_sum(graph, source) == distance_sum_reference(graph, source)


@RELAXED
@given(graphs(min_n=2))
def test_bitset_toggle_bfs_matches_reference(graph):
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            for source in (u, v):
                if graph.has_edge(u, v):
                    assert bfs_distances_with_forbidden_edge(
                        graph, source, (u, v)
                    ) == bfs_distances_with_forbidden_edge_reference(graph, source, (u, v))
                else:
                    assert bfs_distances_with_extra_edge(
                        graph, source, (u, v)
                    ) == bfs_distances_with_extra_edge_reference(graph, source, (u, v))


@RELAXED
@given(graphs(min_n=2))
def test_toggle_bfs_agrees_with_materialized_graph(graph):
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            toggled = graph.toggle_edge(u, v)
            if graph.has_edge(u, v):
                probe = bfs_distances_with_forbidden_edge(graph, u, (u, v))
            else:
                probe = bfs_distances_with_extra_edge(graph, u, (u, v))
            assert probe == bfs_distances(toggled, u)


def test_bitset_distance_sum_on_rows_matches_graph_api():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 9)
        graph = random_graph(n, rng.random(), rng)
        for source in range(n):
            assert bitset_distance_sum(
                graph.adjacency_rows(), n, source
            ) == distance_sum(graph, source)


# --------------------------------------------------------------------------- #
# DistanceOracle deltas == naive recomputation
# --------------------------------------------------------------------------- #


@RELAXED
@given(graphs(min_n=2))
def test_oracle_deltas_match_naive(graph):
    oracle = DistanceOracle()
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            for endpoint in (u, v):
                if graph.has_edge(u, v):
                    naive = distance_delta(
                        sum(
                            bfs_distances_with_forbidden_edge_reference(
                                graph, endpoint, (u, v)
                            )
                        ),
                        distance_sum_reference(graph, endpoint),
                    )
                    assert oracle.removal_increase(graph, (u, v), endpoint) == naive
                    assert oracle.toggle_delta(graph, (u, v), endpoint) == naive
                else:
                    naive = distance_delta(
                        distance_sum_reference(graph, endpoint),
                        sum(
                            bfs_distances_with_extra_edge_reference(
                                graph, endpoint, (u, v)
                            )
                        ),
                    )
                    assert oracle.addition_saving(graph, (u, v), endpoint) == naive
                    assert oracle.toggle_delta(graph, (u, v), endpoint) == -naive


def test_oracle_cache_hits_return_identical_values():
    rng = random.Random(3)
    graph = random_graph(7, 0.4, rng)
    oracle = DistanceOracle()
    first = [oracle.distance_sum(graph, v) for v in range(graph.n)]
    hits_before = oracle.hits
    second = [oracle.distance_sum(graph, v) for v in range(graph.n)]
    assert first == second
    assert oracle.hits == hits_before + graph.n


def test_oracle_lru_eviction_bounds_memory():
    oracle = DistanceOracle(max_graphs=4)
    rng = random.Random(11)
    for _ in range(40):
        graph = random_graph(6, rng.random(), rng)
        oracle.distance_sums(graph)
    assert len(oracle) <= 4


def test_stability_profile_identical_through_oracle():
    """Profiles via the oracle are value-identical to the seed's naive path."""
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 7)
        graph = random_graph(n, rng.random(), rng)
        profile = pairwise_stability_profile(graph, oracle=DistanceOracle())

        base = [distance_sum_reference(graph, v) for v in range(n)]
        for (u, v) in graph.sorted_edges():
            for endpoint in (u, v):
                naive = distance_delta(
                    sum(bfs_distances_with_forbidden_edge_reference(graph, endpoint, (u, v))),
                    base[endpoint],
                )
                assert profile.removal_increase[((u, v), endpoint)] == naive
        for (u, v) in graph.non_edges():
            for endpoint in (u, v):
                naive = distance_delta(
                    base[endpoint],
                    sum(bfs_distances_with_extra_edge_reference(graph, endpoint, (u, v))),
                )
                assert profile.addition_saving[((u, v), endpoint)] == naive


# --------------------------------------------------------------------------- #
# Vectorised batch backend == per-graph oracle
# --------------------------------------------------------------------------- #


def test_batch_stability_deltas_match_oracle(delta_tables):
    from repro.graphs import cycle_graph, path_graph
    from repro.graphs.isomorphism import canonical_record

    rng = random.Random(13)
    pool = [random_graph(rng.randint(1, 9), rng.random(), rng) for _ in range(120)]
    pool.append(Graph(1))
    pool.append(Graph(4))  # disconnected, no edges
    # The n = 0 corner and wide graphs (n > 63: the per-graph path, fresh
    # and with a memoised record) interleaved with the tensor groups must
    # all come back in input order.
    memoised = path_graph(66)
    canonical_record(memoised)
    pool[40:40] = [Graph(0), cycle_graph(70)]
    pool[90:90] = [memoised]
    columns = batch_stability_deltas(pool)
    oracle = DistanceOracle()
    tables = delta_tables(pool, columns)
    assert len(tables) == len(pool)
    for graph, (removal, addition) in zip(pool, tables):
        ref_removal, ref_addition = oracle.stability_deltas(graph)
        assert removal == ref_removal
        assert addition == ref_addition
    assert columns["dist_total"].tolist() == [total_distance(g) for g in pool]

    dtypes = {name: str(column.dtype) for name, column in columns.items()}
    assert dtypes == {
        "num_edges": "int32", "dist_total": "float64",
        "rem_delta": "float32", "rem_pay": "int32", "rem_other": "int32",
        "rem_indptr": "int64",
        "add_s_u": "float32", "add_s_v": "float32", "add_u": "int32",
        "add_v": "int32", "add_indptr": "int64",
    }
    empty = batch_stability_deltas([])
    assert {name: str(column.dtype) for name, column in empty.items()} == dtypes
    for name, column in empty.items():
        assert column.tolist() == ([0] if name.endswith("indptr") else []), name


def test_batch_falls_back_to_oracle_for_wide_graphs(delta_tables):
    """Graphs with n > 63 exceed the int64 tensor lanes; the batch API must
    answer them through the per-graph oracle instead of crashing.

    A fresh instance and one whose canonical record is memoised take the
    same path.  Both must agree with full oracle probing, and the fresh one
    must not start a canonical search.
    """
    from repro.graphs import cycle_graph, path_graph
    from repro.graphs.isomorphism import canonical_record

    # Ordered-pair distance sums: 2·Σ d·(64 − d) for P_64, 64·1024 for C_64.
    for make, total in ((path_graph, 87360.0), (cycle_graph, 65536.0)):
        fresh, memoised = make(64), make(64)
        assert total_distance(fresh) == total
        reference = DistanceOracle().stability_deltas(fresh)
        canonical_record(memoised)
        for wide in (fresh, memoised):
            columns = batch_stability_deltas([wide])
            assert delta_tables([wide], columns) == [reference]
            assert columns["dist_total"].tolist() == [total]
        assert fresh._canon is None


@RELAXED
@given(graphs())
def test_batch_profile_matches_profile_api(delta_tables, graph):
    ((removal, addition),) = delta_tables([graph], batch_stability_deltas([graph]))
    profile = pairwise_stability_profile(graph, oracle=DistanceOracle())
    assert removal == profile.removal_increase
    assert addition == profile.addition_saving


# --------------------------------------------------------------------------- #
# Pool semantics: identical results for any jobs value
# --------------------------------------------------------------------------- #


def test_chunk_evenly_partitions_in_order():
    items = list(range(11))
    for pieces in (1, 2, 3, 5, 11, 20):
        chunks = chunk_evenly(items, pieces)
        assert [x for chunk in chunks for x in chunk] == items
        assert all(chunk for chunk in chunks)
        assert len(chunks) <= pieces
    assert chunk_evenly([], 4) == []


def test_resolve_jobs_semantics():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(0) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(-1) >= 1


def test_parallel_map_preserves_order():
    items = list(range(23))
    assert parallel_map(_square, items, jobs=None) == [x * x for x in items]
    assert parallel_map(_square, items, jobs=4) == [x * x for x in items]


def _square(x):
    return x * x


def _square_crash_once(task):
    """Kill the worker the first time item 3 is seen; succeed ever after.

    The ``O_CREAT|O_EXCL`` marker makes "first time" race-free across
    processes, so the retried chunk computes the real value.
    """
    spool, value = task
    if value == 3:
        marker = os.path.join(spool, "crashed")
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            pass
        else:
            os._exit(13)
    return value * value


def test_parallel_map_salvages_completed_chunks_on_pool_breakage(tmp_path):
    """A worker killed mid-map costs a retry of its chunk, not the map."""
    items = [(str(tmp_path), value) for value in range(8)]
    results = parallel_map(_square_crash_once, items, jobs=2)
    assert results == [value * value for _, value in items]
    assert os.path.exists(tmp_path / "crashed")


def test_parallel_samplers_match_serial():
    serial_bcg = sample_stable_networks_bcg(6, 2.0, 8, seed=1, jobs=None)
    pooled_bcg = sample_stable_networks_bcg(6, 2.0, 8, seed=1, jobs=2)
    assert serial_bcg == pooled_bcg
    serial_ucg = sample_nash_networks_ucg(6, 2.0, 6, seed=1, jobs=None)
    pooled_ucg = sample_nash_networks_ucg(6, 2.0, 6, seed=1, jobs=2)
    assert serial_ucg == pooled_ucg


def test_oracle_accepts_unnormalized_edges_regardless_of_cache_state():
    graph = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    oracle = DistanceOracle()
    fresh_removal = oracle.removal_increase(graph, (1, 0), 0)
    fresh_addition = oracle.addition_saving(graph, (2, 0), 0)
    pairwise_stability_profile(graph, oracle=oracle)  # caches the full profile
    assert oracle.removal_increase(graph, (1, 0), 0) == fresh_removal
    assert oracle.addition_saving(graph, (2, 0), 0) == fresh_addition


def test_explicit_empty_oracle_is_actually_used():
    """A fresh DistanceOracle has len() == 0 and is falsy; the consumers must
    test `is None`, not truthiness, or they silently swap in the default."""
    oracle = DistanceOracle()
    assert not oracle  # the trap: empty oracle is falsy
    outcome = pairwise_dynamics_bcg(6, 2.0, rng=random.Random(5), oracle=oracle)
    assert outcome.rounds >= 1
    assert len(oracle) > 0 or oracle.misses > 0


def test_dynamics_fixed_points_unchanged_by_engine():
    """BCG dynamics through the oracle still lands on pairwise-stable graphs."""
    from repro.core.bilateral import is_pairwise_stable

    for alpha in (0.6, 2.0, 5.0):
        outcome = pairwise_dynamics_bcg(6, alpha, rng=random.Random(42))
        if outcome.converged:
            assert is_pairwise_stable(outcome.graph, alpha)


# --------------------------------------------------------------------------- #
# Kernel odds and ends the engine relies on
# --------------------------------------------------------------------------- #


def test_graph_pickles_across_the_pool_boundary():
    graph = Graph(5, [(0, 1), (1, 2), (3, 4)])
    clone = pickle.loads(pickle.dumps(graph))
    assert clone == graph
    assert hash(clone) == hash(graph)
    assert clone.edges == graph.edges
    assert clone.adjacency_rows() == graph.adjacency_rows()


def test_has_edge_out_of_range_is_false_not_an_error():
    graph = Graph(3, [(0, 2)])
    assert not graph.has_edge(-1, 0)
    assert not graph.has_edge(0, -1)
    assert not graph.has_edge(0, 3)
    assert not graph.has_edge(5, 7)


def test_stability_deltas_returns_caller_owned_copies():
    graph = Graph(4, [(0, 1), (1, 2)])
    oracle = DistanceOracle()
    removal, addition = oracle.stability_deltas(graph)
    removal[((0, 1), 0)] = -123.0
    addition.clear()
    fresh_removal, fresh_addition = oracle.stability_deltas(graph)
    assert fresh_removal[((0, 1), 0)] != -123.0
    assert fresh_addition


def test_mutations_do_not_share_state():
    graph = Graph(4, [(0, 1)])
    bigger = graph.add_edge(2, 3)
    toggled = bigger.toggle_edge(0, 1)
    assert graph.edges == {(0, 1)}
    assert bigger.edges == {(0, 1), (2, 3)}
    assert toggled.edges == {(2, 3)}
    assert graph.adjacency_rows() != bigger.adjacency_rows()
