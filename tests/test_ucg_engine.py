"""Tests for the vectorised UCG orientation engine.

Pins the acceptance contract of the batched UCG path: the engine's
α-interval sets are **float-exact** (endpoint-for-endpoint, with the same
edgeless/disconnected conventions) against the per-graph orientation
backtracking of :func:`repro.core.unilateral.ucg_nash_alpha_set` and
:func:`repro.costmodels.stability.weighted_ucg_nash_t_set`, a memoised
canonical record (the graph's own or another's) changes nothing, uniform
weights reduce to the scalar path, and the
per-``Graph`` memo obeys the staleness contract (mutations build new
instances, so a memo can never go stale).
"""

import hashlib
import math
import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.scenarios import available_scenarios, build_scenario
from repro.core.stability_intervals import AlphaIntervalSet
from repro.core.unilateral import (
    ownership_best_response_interval,
    ucg_nash_alpha_set,
)
from repro.costmodels import PerPlayerCost, UniformCost
from repro.costmodels.stability import (
    weighted_ownership_interval,
    weighted_stability_profile,
    weighted_ucg_nash_t_set,
)
from repro.engine import ucg_alpha_sets, weighted_ucg_t_sets
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_connected_graphs,
    path_graph,
    petersen_graph,
    random_graph,
    random_tree,
    star_graph,
)
from repro.graphs.isomorphism import canonical_record

INF = float("inf")


def endpoints(interval_set: AlphaIntervalSet):
    """Comparable endpoint tuples of an interval set."""
    return [(iv.lo, iv.hi) for iv in interval_set.intervals]


def fresh(graph: Graph) -> Graph:
    """A new instance of the same topology (no memo, no canonical record)."""
    return Graph(graph.n, graph.sorted_edges())


def submasks(mask: int):
    """Every submask of ``mask``, empty set first (deterministic order)."""
    subs = [0]
    rest = mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        subs += [s | bit for s in subs]
    return subs


def sets_digest(interval_sets) -> str:
    """sha256 over the ``float.hex`` endpoints, one line per interval set."""
    digest = hashlib.sha256()
    for interval_set in interval_sets:
        line = ";".join(
            f"{float.hex(lo)},{float.hex(hi)}" for lo, hi in endpoints(interval_set)
        )
        digest.update(line.encode("ascii") + b"\n")
    return digest.hexdigest()


def tree_with_chords(n: int, seed: int, chords: int) -> Graph:
    """A seeded random tree on ``n`` vertices plus ``chords`` extra edges."""
    rng = random.Random(seed)
    tree = random_tree(n, rng)
    extra = []
    while len(extra) < chords:
        u, v = sorted(rng.sample(range(n), 2))
        if not tree.has_edge(u, v) and (u, v) not in extra:
            extra.append((u, v))
    return tree.add_edges(extra)


#: Sparse graphs with 9 ≤ n ≤ 12, where a player's (n − 1)-bit masks no
#: longer fit a byte and the backtracking reference is still cheap (~1.3 s
#: for all of them).  Stars and two of the trees have non-empty α-sets.
SPARSE_WIDE_GRAPHS = {
    **{f"S{n}": star_graph(n) for n in range(9, 13)},
    **{
        f"tree{n}_seed{seed}": random_tree(n, random.Random(seed))
        for n, seed in [(9, 1), (10, 2), (11, 3), (12, 4)]
    },
    **{
        f"tree{n}_seed{seed}+{k}": tree_with_chords(n, seed, k)
        for n, seed, k in [(9, 5, 1), (10, 6, 2), (11, 7, 1), (12, 8, 2), (10, 9, 1)]
    },
}


def dense_wide_graphs():
    """Graphs with 9 ≤ n ≤ 12 that the backtracking reference cannot reach."""
    graphs = [complete_graph(n) for n in range(9, 13)]
    for n in range(9, 13):
        for p in (0.5, 0.7):
            graphs.append(random_graph(n, p, random.Random(1000 * n + int(10 * p))))
    graphs.append(petersen_graph())
    graphs.append(empty_graph(10))
    graphs.append(Graph(10, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7)]))
    return graphs


# --------------------------------------------------------------------------- #
# Float-exact parity against the backtracking reference
# --------------------------------------------------------------------------- #


class TestScalarParity:

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_connected_classes(self, n):
        graphs = enumerate_connected_graphs(n)
        engine_sets = ucg_alpha_sets([fresh(g) for g in graphs])
        for graph, engine_set in zip(graphs, engine_sets):
            assert endpoints(engine_set) == endpoints(
                ucg_nash_alpha_set(fresh(graph))
            ), f"UCG engine mismatch on n={n} {graph.sorted_edges()}"

    def test_trivial_graphs_full_interval(self):
        for graph in (empty_graph(0), empty_graph(1)):
            (interval_set,) = ucg_alpha_sets([graph])
            assert endpoints(interval_set) == [(0.0, INF)]

    def test_edgeless_graphs_inf_inf_convention(self):
        # The reference backtracking yields the degenerate [(inf, inf)]
        # interval for edgeless graphs (base distances are infinite, so
        # lo = hi = inf and the interval is formally nonempty); the engine
        # must reproduce the convention exactly, not "fix" it.
        for n in (2, 3, 5):
            graph = empty_graph(n)
            (interval_set,) = ucg_alpha_sets([fresh(graph)])
            assert endpoints(interval_set) == endpoints(ucg_nash_alpha_set(graph))
            assert endpoints(interval_set) == [(INF, INF)]

    def test_disconnected_with_edges_empty_set(self):
        # A disconnected graph that still has edges is never
        # Nash-supportable: some player faces an infinite base distance
        # while owning a finite-cost purchase, so every interval is empty.
        graph = Graph(5, [(0, 1), (1, 2)])  # vertices 3, 4 isolated
        (interval_set,) = ucg_alpha_sets([fresh(graph)])
        assert endpoints(interval_set) == endpoints(ucg_nash_alpha_set(graph))
        assert endpoints(interval_set) == []

    @pytest.mark.parametrize("name", sorted(SPARSE_WIDE_GRAPHS))
    def test_sparse_wide_mask_graphs(self, name):
        graph = SPARSE_WIDE_GRAPHS[name]
        (engine_set,) = ucg_alpha_sets([fresh(graph)])
        assert endpoints(engine_set) == endpoints(ucg_nash_alpha_set(fresh(graph)))

    def test_mixed_sizes_one_call(self):
        graphs = [
            empty_graph(1),
            path_graph(4),
            cycle_graph(5),
            Graph(4, [(0, 1)]),  # disconnected, has an edge
            complete_graph(3),
        ]
        engine_sets = ucg_alpha_sets([fresh(g) for g in graphs])
        for graph, engine_set in zip(graphs, engine_sets):
            assert endpoints(engine_set) == endpoints(ucg_nash_alpha_set(fresh(graph)))


#: sha256 over the ``float.hex`` endpoints of ``ucg_alpha_sets`` on every
#: connected class of ``enumerate_connected_graphs(n)``, one line per class in
#: census order: the exact path a census build runs on the enumerated graphs,
#: which carry memoised canonical records that the engine does not read.
#: Pinned from the float64 superset-min engine.
ALPHA_SET_DIGESTS = {
    1: "f1d0fd456de2b9f596d4dd1df121a334b987dde617f32dd6325bf7d1081c4ceb",
    2: "f1d0fd456de2b9f596d4dd1df121a334b987dde617f32dd6325bf7d1081c4ceb",
    3: "a50763fef98ddb75e78e64399e617d2b6c178e128b81eb962ad601fe2a5155b4",
    4: "1f47fea901e1fa9bd35c358452f90b683c060ffe1f15d997bced5cdfa58bf6a9",
    5: "d743aea96eecf90bb95fea09e02ee99e2ea16529846f6ed8ec3e4ad9e8e93f42",
    6: "c7c22f01ce17894128c19546dedbbe5b14ea41aa511f9c591c1e3748595c5781",
    7: "4ab8ea87b42f6a52cc62e2de51926fb2fdf1670b45979296a2935ffa652cc684",
    8: "5ef1fc10759894836aab4c130e01e0d6a80a0b713d4a79e1feafae8ed082b70a",
}


#: The same digest over :func:`dense_wide_graphs` (K_9–K_12, seeded
#: G(n, 0.5) and G(n, 0.7) for n = 9–12, the Petersen graph, an edgeless and
#: a disconnected n = 10 graph), captured before the tables moved to the
#: (n − 1)-bit masks of V∖{p}.
WIDE_MASK_DIGEST = "74de300a414bea8e53e5d137441dcff37976c010cbabf0f81bcb752c01fe992b"

#: The same digest over ``weighted_ucg_t_sets`` of every connected n = 7
#: class under ``random_weights`` (seed 3), captured at the same point.
WEIGHTED_N7_DIGEST = "c7dc0b37dd7dc5a965083b04e33e809f1b7893016f17d21a4fbbfabf8fe29737"

#: The same digest over every connected n = 8 class (seed 3), captured from
#: the per-owned-set weighted loop that the weighted fold replaced.
WEIGHTED_N8_DIGESTS = {
    "random_weights": "5bb39a2a1487a3a4c1409f043b5b50bf084187f3b2928d06d7f6ab1b9f37e52e",
    "two_tier_isp": "7ebf2a77f7e7db5551643dd8deec83395c9cd73426e3f52f28369be474438ae1",
}


def alpha_set_digest(n: int) -> str:
    graphs = enumerate_connected_graphs(n)
    for graph in graphs:
        graph._ucg_set = None  # recompute through the engine, not the memo
    return sets_digest(ucg_alpha_sets(graphs))


class TestPinnedCensusDigests:

    @pytest.mark.parametrize("n", range(1, 8))
    def test_enumerated_classes(self, n):
        assert alpha_set_digest(n) == ALPHA_SET_DIGESTS[n]

    def test_enumerated_classes_n8(self):
        # The exact path a cold n = 8 census build times (~5 s).
        assert alpha_set_digest(8) == ALPHA_SET_DIGESTS[8]

    def test_dense_wide_mask_graphs(self):
        graphs = [fresh(g) for g in dense_wide_graphs()]
        assert sets_digest(ucg_alpha_sets(graphs)) == WIDE_MASK_DIGEST


class TestWeightedParity:

    @pytest.mark.parametrize("name", sorted(available_scenarios()))
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_registry_scenarios(self, name, n):
        scenario = build_scenario(name, n, seed=7)
        graphs = enumerate_connected_graphs(n)
        engine_sets = weighted_ucg_t_sets([fresh(g) for g in graphs], scenario.model)
        for graph, engine_set in zip(graphs, engine_sets):
            assert endpoints(engine_set) == endpoints(
                weighted_ucg_nash_t_set(graph, scenario.model)
            ), f"weighted UCG mismatch ({name}, n={n}) {graph.sorted_edges()}"

    def test_random_weights_n6_multiword_bitsets(self, monkeypatch):
        # Weighted tables carry many more distinct endpoints than scalar
        # ones: an interval over K endpoints needs 2K - 1 bits, so a graph
        # with more than 32 endpoints runs the DP on two 64-bit words.
        import repro.engine.ucg as ucg

        widest = []
        real = ucg._chunk_intervals

        def spy(option_code, values, feasible, nbrs):
            widest.append(values.shape[1])
            return real(option_code, values, feasible, nbrs)

        monkeypatch.setattr(ucg, "_chunk_intervals", spy)
        model = build_scenario("random_weights", 6, seed=3).model
        graphs = enumerate_connected_graphs(6)
        engine_sets = weighted_ucg_t_sets([fresh(g) for g in graphs], model)
        assert max(widest) > 32
        for graph, engine_set in zip(graphs, engine_sets):
            assert endpoints(engine_set) == endpoints(
                weighted_ucg_nash_t_set(graph, model)
            ), f"weighted UCG mismatch (n=6) {graph.sorted_edges()}"

    def test_random_weights_n7_digest(self):
        model = build_scenario("random_weights", 7, seed=3).model
        sets = weighted_ucg_t_sets(enumerate_connected_graphs(7), model)
        assert sets_digest(sets) == WEIGHTED_N7_DIGEST

    @pytest.mark.skipif(
        not os.environ.get("REPRO_SLOW_TESTS"),
        reason="each n=8 weighted sweep takes ~4 s; set REPRO_SLOW_TESTS=1 to run",
    )
    @pytest.mark.parametrize("name", sorted(WEIGHTED_N8_DIGESTS))
    def test_weighted_n8_digest(self, name):
        model = build_scenario(name, 8, seed=3).model
        sets = weighted_ucg_t_sets(enumerate_connected_graphs(8), model)
        assert sets_digest(sets) == WEIGHTED_N8_DIGESTS[name]

    def test_uniform_cost_reduces_to_scalar(self):
        # With UniformCost the weighted t-sets must equal the scalar α-sets
        # float-exactly — same closed-form link-cost table, same intervals.
        graphs = enumerate_connected_graphs(5)
        weighted_sets = weighted_ucg_t_sets(
            [fresh(g) for g in graphs], UniformCost(1.0)
        )
        scalar_sets = ucg_alpha_sets([fresh(g) for g in graphs])
        for weighted_set, scalar_set in zip(weighted_sets, scalar_sets):
            assert endpoints(weighted_set) == endpoints(scalar_set)

    def test_weighted_disconnected_and_trivial(self):
        model = build_scenario("random_weights", 5, seed=1).model
        graphs = [empty_graph(1), empty_graph(5), Graph(5, [(0, 1), (2, 3)])]
        engine_sets = weighted_ucg_t_sets([fresh(g) for g in graphs], model)
        assert endpoints(engine_sets[0]) == [(0.0, INF)]
        # The reference refuses the 5-player model on the 1-vertex graph.
        for graph, engine_set in zip(graphs[1:], engine_sets[1:]):
            assert endpoints(engine_set) == endpoints(
                weighted_ucg_nash_t_set(graph, model)
            )

    @pytest.mark.parametrize("players", [8, 3])
    def test_model_bound_to_another_player_count(self, monkeypatch, players):
        # A model for more players must not silently price P_5 with the
        # first five rates, nor one for fewer fail on an index.  Every n
        # group is checked before any chunk runs, so the model's own n
        # group (first when players = 3) never runs either.
        import repro.engine.ucg as ucg

        monkeypatch.setattr(
            ucg, "_chunk_sets", lambda *args: pytest.fail("a chunk ran")
        )
        model = PerPlayerCost([float(k) for k in range(1, players + 1)])
        for graphs in ([path_graph(5)], [path_graph(players), path_graph(5)]):
            with pytest.raises(ValueError, match=f"bound to n = {players}"):
                weighted_ucg_t_sets(graphs, model)

    @pytest.mark.parametrize("players", [8, 3])
    def test_references_refuse_another_player_count(self, players):
        # The per-graph references check the model's player count as the
        # engine does: an 8-player model must not price P_5 with its first
        # five rates (it read [4, inf]), nor a 3-player one fail on an index.
        model = PerPlayerCost([float(k) for k in range(1, players + 1)])
        graph = path_graph(5)
        match = f"bound to n = {players}"
        with pytest.raises(ValueError, match=match):
            weighted_ucg_nash_t_set(graph, model)
        with pytest.raises(ValueError, match=match):
            weighted_ownership_interval(graph, 0, frozenset({(0, 1)}), model)
        with pytest.raises(ValueError, match=match):
            weighted_stability_profile(graph, model)


# --------------------------------------------------------------------------- #
# Oracles for the distance-sum tables and the interval fold
# --------------------------------------------------------------------------- #


@st.composite
def any_graphs(draw, max_n):
    """Random graphs on 2..max_n vertices, edgeless and disconnected included."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, kept in zip(pairs, keep) if kept])


def brute_distance_sum(graph: Graph, p: int, sources: int) -> float:
    """``Σ_{j≠p} (1 + d(sources, j))`` by a BFS in ``G - p``, ∞ if one is cut off."""
    rows = graph.adjacency_rows()
    allowed = ((1 << graph.n) - 1) & ~(1 << p)
    seen = frontier = sources
    total, level = 0, 1
    while frontier:
        total += level * bin(frontier).count("1")
        reached = 0
        for v in range(graph.n):
            if frontier >> v & 1:
                reached |= rows[v]
        frontier = reached & allowed & ~seen
        seen |= frontier
        level += 1
    return float(total) if seen == allowed else INF


def spread(mask: int, p: int) -> int:
    """The mask of ``V`` whose bits, with bit ``p`` left out, are ``mask``."""
    low = mask & ((1 << p) - 1)
    return low | ((mask ^ low) << 1)


def every_player_tables(graph: Graph):
    """``(dsum, p_arr, nbr_arr)`` of every player of ``graph``, unpruned."""
    import numpy as np

    from repro.engine.ucg import _adjacency, _distance_sums

    adjacency = _adjacency([graph])
    p_arr = np.arange(graph.n)
    dsum = _distance_sums(np.repeat(adjacency, graph.n, axis=0), p_arr)
    return dsum, p_arr, adjacency[0]


def fold_entries(nbrs, rows, subs, lo, hi):
    """``{(row, A): (lo, hi)}`` of a fold's entry arrays.

    ``subs`` names each ``A`` by its :func:`submasks` position among the
    subsets of its row's neighbour set ``nbrs[row]``.
    """
    return {
        (r, submasks(int(nbrs[r]))[s]): (x, y)
        for r, s, x, y in zip(rows.tolist(), subs.tolist(), lo, hi)
    }


def reference_entries(graph: Graph, interval):
    """``{(p, A): (lo, hi)}`` of every non-empty ``interval(p, owned)``.

    ``owned`` is the edge set of ``N(p) ∖ A``, for every opponent mask
    ``A ⊆ N(p)`` of every player ``p``.
    """
    want = {}
    for p, nbr in enumerate(graph.adjacency_rows()):
        for opp in submasks(nbr):
            owned = frozenset(
                (min(p, v), max(p, v))
                for v in range(graph.n)
                if (nbr & ~opp) >> v & 1
            )
            result = interval(p, owned)
            if not result.is_empty():
                want[p, opp] = (result.lo, result.hi)
    return want


class BulkDiscount(PerPlayerCost):
    """Per-player rates with a custom ``player_link_cost``.

    A purchase of two or more links costs a quarter less than its rates.
    """

    def player_link_cost(self, player, others):
        total = super().player_link_cost(player, others)
        return 0.75 * total if len(others) >= 2 else total


@st.composite
def weighted_cases(draw, max_n):
    """A graph of :func:`any_graphs` and a cost model bound to its ``n``.

    The model is a registry scenario draw, or per-player rates tied to a
    few values (so ``dw == 0`` holds for every equal-size purchase), plain
    or with :class:`BulkDiscount`'s custom link-cost sum.
    """
    graph = draw(any_graphs(max_n))
    kind = draw(st.sampled_from(["scenario", "tied", "custom"]))
    if kind == "scenario":
        name = draw(st.sampled_from(sorted(available_scenarios())))
        seed = draw(st.integers(min_value=0, max_value=9))
        return graph, build_scenario(name, graph.n, seed=seed).model
    rates = draw(
        st.lists(
            st.sampled_from([0.5, 1.0, 3.0]), min_size=graph.n, max_size=graph.n
        )
    )
    return graph, (PerPlayerCost if kind == "tied" else BulkDiscount)(rates)


class TestTableOracles:

    @settings(max_examples=40, deadline=None)
    @given(graph=any_graphs(max_n=11))
    @example(graph=empty_graph(6))
    @example(graph=Graph(10, [(0, 1), (1, 2), (4, 5), (7, 9)]))
    @example(graph=complete_graph(11))
    def test_distance_sums_match_bfs(self, graph):
        dsum, _, _ = every_player_tables(graph)
        assert dsum.shape == (1 << (graph.n - 1), graph.n)
        for p in range(graph.n):
            got = [INF if v == 255 else float(v) for v in dsum[:, p].tolist()]
            want = [
                brute_distance_sum(graph, p, spread(mask, p))
                for mask in range(1 << (graph.n - 1))
            ]
            assert got == want, f"D_{p} differs on {graph.sorted_edges()}"

    @settings(max_examples=30, deadline=None)
    @given(graph=any_graphs(max_n=7))
    @example(graph=empty_graph(4))
    @example(graph=Graph(6, [(0, 1), (1, 2), (3, 4)]))
    @example(graph=complete_graph(7))
    def test_fold_matches_ownership_intervals(self, graph):
        from repro.engine.ucg import _scalar_intervals

        dsum, p_arr, nbrs = every_player_tables(graph)
        got = fold_entries(nbrs, *_scalar_intervals(dsum, p_arr, nbrs, graph.n))
        want = reference_entries(
            graph, lambda p, owned: ownership_best_response_interval(graph, p, owned)
        )
        assert got == want, f"fold differs on {graph.sorted_edges()}"

    @settings(max_examples=40, deadline=None)
    @given(case=weighted_cases(max_n=7))
    @example(case=(empty_graph(4), PerPlayerCost([1.0, 1.0, 3.0, 1.0])))
    @example(case=(Graph(6, [(0, 1), (1, 2), (3, 4)]), BulkDiscount([1.0] * 6)))
    @example(case=(path_graph(5), PerPlayerCost([1.0] * 5)))
    @example(case=(star_graph(5), BulkDiscount([0.5, 1.0, 1.0, 3.0, 0.5])))
    @example(
        case=(complete_graph(7), build_scenario("hub_discounted", 7, seed=5).model)
    )
    def test_weighted_fold_matches_ownership_intervals(self, case):
        from repro.engine.ucg import _link_cost_tables, _weighted_intervals

        graph, model = case
        dsum, p_arr, nbrs = every_player_tables(graph)
        wsum = _link_cost_tables(model, graph.n)
        got = fold_entries(
            nbrs, *_weighted_intervals(dsum, p_arr, nbrs, graph.n, wsum)
        )
        want = reference_entries(
            graph,
            lambda p, owned: weighted_ownership_interval(graph, p, owned, model),
        )
        assert got == want, f"weighted fold differs on {graph.sorted_edges()}"


class TestFoldTables:

    @staticmethod
    def reference_delta(s: int, b: int) -> float:
        """The fold's ``Δ = s - b`` of two uint8 distance sums (255 is ∞)."""
        delta = (INF if s == 255 else float(s)) - (INF if b == 255 else float(b))
        return 0.0 if delta != delta else delta  # ∞ - ∞ counts as no change

    def test_every_reachable_pair_and_step(self):
        # Every distance sum of n ≤ 12 is at most (n - 1)² = 121 or ∞, and
        # every purchase-count step m - d lies in ±1..±11: the tables must
        # hold the fold's -Δ/(m - d), sign of zero included, and its empty
        # test at each (s, b) index.
        from repro.engine.ucg import _fold_tables

        quotients, nonnegative = _fold_tables()
        sums = [*range(122), 255]
        for s in sums:
            for b in sums:
                index = s - b + 255
                delta = self.reference_delta(s, b)
                assert nonnegative[index] == (not delta < -1e-12), (s, b)
                for k in [*range(-11, 0), *range(1, 12)]:
                    want = -delta / k
                    got = float(quotients[k, index])
                    assert (got, math.copysign(1.0, got)) == (
                        want,
                        math.copysign(1.0, want),
                    ), (s, b, k)


class TestDenseIds:

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=1, max_value=12),
        ),
        per_key=st.sampled_from([1, 4, 16, 17, 64, 10**6]),
        data=st.data(),
    )
    def test_matches_numpy_unique(self, shape, per_key, data):
        # Key spans of up to 16 per key are ranked by counting, wider ones
        # by np.unique: both must give np.unique's inverse and count.
        import numpy as np

        from repro.engine.ucg import _dense_ids

        size = shape[0] * shape[1]
        top = per_key * size - 1
        values = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=top),
                min_size=size,
                max_size=size,
            )
        )
        key = np.asarray(values, dtype=np.int64).reshape(shape)
        ids, count = _dense_ids(key)
        distinct, inverse = np.unique(key.ravel(), return_inverse=True)
        assert ids.shape == key.shape
        assert ids.ravel().tolist() == inverse.tolist()
        assert count == len(distinct)


class TestChunking:

    @pytest.mark.parametrize("budget", [1, 1 << 40], ids=["per-graph", "one-chunk"])
    def test_budget_extremes_keep_every_set(self, monkeypatch, budget):
        # A budget of one byte gives every graph its own chunk and every DP
        # state its own expansion slice; a huge one puts every graph in one
        # chunk and never slices.  Neither may move an endpoint.
        import repro.engine.ucg as ucg

        model = build_scenario("random_weights", 6, seed=3).model
        graphs = enumerate_connected_graphs(6)
        weighted = [endpoints(s) for s in weighted_ucg_t_sets(graphs, model)]
        chunks = []
        real = ucg._chunk_sets

        def spy(nbrs, intervals):
            chunks.append(len(nbrs))
            return real(nbrs, intervals)

        monkeypatch.setattr(ucg, "_chunk_sets", spy)
        monkeypatch.setattr(ucg, "_TABLE_BYTE_BUDGET", budget)
        assert alpha_set_digest(7) == ALPHA_SET_DIGESTS[7]
        patched = weighted_ucg_t_sets(graphs, model)
        assert [endpoints(s) for s in patched] == weighted
        assert chunks == ([1] * 965 if budget == 1 else [853, 112])

    def test_dense_graph_expansion_is_sliced(self):
        # One K_12 expands 2,048 DP states by 1,024 options at its second
        # step (2.1 M pairs, ~195 MB at once); sliced by the byte budget
        # the whole call stays within twice that budget (48 MB).
        import tracemalloc

        import repro.engine.ucg as ucg

        tracemalloc.start()
        try:
            (interval_set,) = ucg_alpha_sets([fresh(complete_graph(12))])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert endpoints(interval_set) == [(0.0, 1.0)]
        assert peak <= 2 * ucg._TABLE_BYTE_BUDGET


# --------------------------------------------------------------------------- #
# Future-equivalence classes of the orientation DP
# --------------------------------------------------------------------------- #


def signature_tuple_classes(v, nbr, lo_row, hi_row, ok_row):
    """Brute-force oracle for :func:`repro.engine.ucg._class_tables`.

    The class of an inherited mask ``I`` is the tuple of option-set ids of
    ``I ∪ D`` over every earlier-neighbour mask ``D`` (O(4^e) work for ``e``
    earlier neighbours), numbered by first appearance in :func:`submasks`
    order.  Returns ``(classes, options_by_class, transitions)`` with
    ``classes`` in ``submasks(earlier)`` order.
    """
    earlier = nbr & ((1 << v) - 1)
    local = nbr & ~((1 << (v + 1)) - 1)
    j_list = submasks(earlier)
    option_ids, option_id, options_of = {}, {}, {}
    for inherited in j_list:
        options = []
        for kept in submasks(local):
            opponents = nbr ^ (inherited | kept)
            if ok_row[opponents]:
                options.append((lo_row[opponents], hi_row[opponents], local ^ kept))
        key = frozenset(options)
        option_id[inherited] = option_ids.setdefault(key, len(option_ids))
        options_of[inherited] = options
    class_ids, cls_of = {}, {}
    for inherited in j_list:
        signature = tuple(option_id[inherited | d] for d in j_list)
        cls_of[inherited] = class_ids.setdefault(signature, len(class_ids))
    options_by_class = [None] * len(class_ids)
    transitions = [dict() for _ in class_ids]
    for inherited in j_list:
        cls = cls_of[inherited]
        if options_by_class[cls] is None:
            options_by_class[cls] = options_of[inherited]
        for u in range(v):
            if (earlier & ~inherited) >> u & 1:
                transitions[cls][u] = cls_of[inherited | (1 << u)]
    return [cls_of[i] for i in j_list], options_by_class, transitions


def kernel_classes(n, v, nbr, lo_row, hi_row, ok_row):
    """The class kernel run on one ``(vertex, table)`` row.

    Returns ``(classes, options_by_class, trans)`` in the oracle's shape:
    the class of each inherited mask in ``submasks(earlier)`` order (found
    by walking the transitions up from class 0, one earlier bit at a time,
    as the DP does), each class's ``(lo, hi, deferred)`` options and the
    ``trans[u, class]`` table.
    """
    import numpy as np

    from repro.engine.ucg import _class_tables, _option_codes

    subs = [s for s, mask in enumerate(submasks(nbr)) if ok_row[mask]]
    masks = [submasks(nbr)[s] for s in subs]
    codes, values, _ = _option_codes(
        np.zeros(1, dtype=np.int64),
        np.zeros(len(masks), dtype=np.int64),
        np.asarray(subs, dtype=np.int64),
        np.asarray([lo_row[mask] for mask in masks], dtype=np.float64),
        np.asarray([hi_row[mask] for mask in masks], dtype=np.float64),
        np.asarray([0, 1 << bin(nbr).count("1")], dtype=np.int64),
    )
    nbrs = np.zeros((1, n), dtype=np.int64)
    nbrs[0, v] = nbr
    base, opt_ptr, opt_code, opt_def, trans = _class_tables(
        lambda rows, sub: codes[(rows - v) + sub],
        np.asarray([v], dtype=np.int64),
        nbrs,
    )
    assert base.tolist() == [0]
    K = values.shape[1]
    options_by_class = []
    for cls in range(len(opt_ptr) - 1):
        span = slice(opt_ptr[cls], opt_ptr[cls + 1])
        lo_rank, hi_rank = np.divmod(opt_code[span] - 1, K)
        options_by_class.append(
            list(
                zip(
                    values[0, lo_rank].tolist(),
                    values[0, hi_rank].tolist(),
                    opt_def[span].tolist(),
                )
            )
        )
    earlier = [u for u in range(v) if nbr >> u & 1]
    classes = [0]
    for u in earlier:  # submasks order: the next bit doubles the list
        classes += [int(trans[u, cls]) for cls in classes]
    return classes, options_by_class, trans


class TestVertexClasses:

    def test_matches_signature_tuple_oracle(self):
        rng = random.Random(20050717)
        merged = 0
        for draw in range(600):
            n = rng.randint(1, 8)
            v = rng.randrange(n)
            nbr = rng.getrandbits(n) & ~(1 << v)
            size = 1 << n
            if draw % 2:
                # Tables that depend only on |A| (as on K_n) merge many masks.
                key = [bin(mask).count("1") for mask in range(size)]
            else:
                key = [rng.randrange(4) for _ in range(size)]
            lo_vals = [rng.choice([0.0, 0.5, 1.0]) for _ in range(n + 4)]
            hi_vals = [rng.choice([1.0, 2.0, INF]) for _ in range(n + 4)]
            ok_vals = [rng.random() < 0.7 for _ in range(n + 4)]
            lo_row = [lo_vals[k] for k in key]
            hi_row = [hi_vals[k] for k in key]
            ok_row = [ok_vals[k] for k in key]
            want_cls, want_options, want_trans = signature_tuple_classes(
                v, nbr, lo_row, hi_row, ok_row
            )
            got_cls, got_options, trans = kernel_classes(
                n, v, nbr, lo_row, hi_row, ok_row
            )
            # The partition agrees up to a renumbering that keeps class 0.
            renumber = {}
            for ours, theirs in zip(got_cls, want_cls):
                assert renumber.setdefault(ours, theirs) == theirs
            assert renumber[0] == 0
            assert len(renumber) == len(got_options) == len(want_options)
            assert sorted(renumber.values()) == list(range(len(want_options)))
            for ours, theirs in renumber.items():
                assert sorted(got_options[ours]) == sorted(want_options[theirs])
                for u, target in want_trans[theirs].items():
                    assert renumber[int(trans[u, ours])] == target
            # A mask of the k lowest earlier neighbours has a class below 2^k:
            # the DP packs each vertex's class into that many key bits.
            assert all(c < 1 << i.bit_length() for i, c in enumerate(got_cls))
            merged += len(got_options) < len(got_cls)
        assert merged >= 50  # the draws exercise non-trivial quotients


# --------------------------------------------------------------------------- #
# Memoised canonical records
# --------------------------------------------------------------------------- #


class TestOrbitPruning:
    """The engine's answers never depend on a memoised canonical record.

    Instances with the graph's own record, with another graph's record and
    with none must all agree with the backtracking reference.
    """

    @pytest.mark.parametrize(
        "graph",
        [cycle_graph(5), cycle_graph(6), complete_graph(4), complete_graph(6)],
        ids=["C5", "C6", "K4", "K6"],
    )
    def test_vertex_transitive_expansion(self, graph):
        # Every player of a vertex-transitive graph is automorphic to every
        # other.  An instance with a memoised canonical record, a fresh
        # instance and the backtracking reference must agree
        # endpoint-for-endpoint, and the engine never runs a canonical
        # search of its own.
        memoised, bare = fresh(graph), fresh(graph)
        canonical_record(memoised)
        with_record = endpoints(ucg_alpha_sets([memoised])[0])
        without = endpoints(ucg_alpha_sets([bare])[0])
        assert bare._canon is None
        assert with_record == without == endpoints(ucg_nash_alpha_set(fresh(graph)))

    @pytest.mark.parametrize(
        "graph, donor",
        [(path_graph(5), cycle_graph(5)), (star_graph(6), complete_graph(6))],
        ids=["P5-C5", "S6-K6"],
    )
    def test_foreign_record_changes_nothing(self, graph, donor):
        # A record is a cache of the graph's symmetry; one copied from
        # another graph (here with the wrong automorphisms) must not leak
        # into the answer.
        carrier = fresh(graph)
        carrier._canon = canonical_record(fresh(donor))
        (got,) = ucg_alpha_sets([carrier])
        assert endpoints(got) == endpoints(ucg_nash_alpha_set(fresh(graph)))

    def test_weighted_orbit_equivalence(self):
        model = build_scenario("line_metric", 6, seed=0).model
        graphs = [cycle_graph(6), complete_graph(6), path_graph(6)]
        memoised = [fresh(g) for g in graphs]
        for graph in memoised:
            canonical_record(graph)
        with_record = weighted_ucg_t_sets(memoised, model)
        without = weighted_ucg_t_sets([fresh(g) for g in graphs], model)
        for a, b, graph in zip(with_record, without, graphs):
            assert endpoints(a) == endpoints(b)
            assert endpoints(a) == endpoints(weighted_ucg_nash_t_set(graph, model))

    def test_weighted_foreign_record_changes_nothing(self):
        model = build_scenario("line_metric", 6, seed=0).model
        carrier = path_graph(6)
        carrier._canon = canonical_record(cycle_graph(6))
        (got,) = weighted_ucg_t_sets([carrier], model)
        reference = weighted_ucg_nash_t_set(path_graph(6), model)
        assert endpoints(got) == endpoints(reference)


# --------------------------------------------------------------------------- #
# Per-Graph memoisation and its staleness contract
# --------------------------------------------------------------------------- #


class TestMemoisation:

    def test_reference_memoises_per_instance(self):
        graph = path_graph(5)
        assert graph._ucg_set is None
        first = ucg_nash_alpha_set(graph)
        assert graph._ucg_set == tuple(endpoints(first))
        assert endpoints(ucg_nash_alpha_set(graph)) == endpoints(first)

    def test_engine_populates_reference_hits(self):
        graph = cycle_graph(5)
        (engine_set,) = ucg_alpha_sets([graph])
        assert graph._ucg_set == tuple(endpoints(engine_set))
        # The reference now answers from the shared memo without searching.
        assert endpoints(ucg_nash_alpha_set(graph)) == endpoints(engine_set)

    def test_engine_consults_existing_memo(self):
        graph = path_graph(4)
        graph._ucg_set = ((1.25, 2.5),)  # sentinel: obviously not the truth
        (interval_set,) = ucg_alpha_sets([graph])
        assert endpoints(interval_set) == [(1.25, 2.5)]

    def test_mutation_builds_fresh_unmemoised_instance(self):
        # Graphs are immutable: add_edge/remove_edge return *new* instances,
        # so a memoised set can never go stale — the mutated graph starts
        # with an empty memo and is re-analysed from scratch.
        graph = path_graph(4)
        before = endpoints(ucg_nash_alpha_set(graph))
        mutated = graph.add_edge(0, 3)  # closes the path into C4
        assert mutated is not graph
        assert mutated._ucg_set is None
        assert graph._ucg_set == tuple(before)  # original memo untouched
        after = endpoints(ucg_nash_alpha_set(mutated))
        assert after == endpoints(ucg_nash_alpha_set(fresh(mutated)))
        assert mutated._ucg_set == tuple(after)


# --------------------------------------------------------------------------- #
# Columnar UCG kernels and the batch façade
# --------------------------------------------------------------------------- #


class TestUcgColumns:

    def test_interval_columns_pack_endpoints(self):
        import numpy as np

        from repro.engine.columnar import ucg_interval_columns

        graphs = [path_graph(4), Graph(4, [(0, 1)]), cycle_graph(4)]
        sets = ucg_alpha_sets([fresh(g) for g in graphs])
        lo, hi, indptr = ucg_interval_columns(sets)
        assert indptr.tolist()[0] == 0
        for i, interval_set in enumerate(sets):
            segment = list(
                zip(lo[indptr[i] : indptr[i + 1]], hi[indptr[i] : indptr[i + 1]])
            )
            assert segment == endpoints(interval_set)
        # The disconnected class contributes an empty segment.
        assert indptr[1] == indptr[2]
        assert np.all(np.diff(indptr) >= 0)

    def test_weighted_windows_empty_convention(self):
        import numpy as np

        from repro.engine.columnar import ucg_interval_columns, weighted_ucg_windows

        sets = ucg_alpha_sets(
            [fresh(g) for g in (path_graph(4), Graph(4, [(0, 1)]))]
        )
        t_min, t_max = weighted_ucg_windows(*ucg_interval_columns(sets))
        lo0, hi0 = endpoints(sets[0])[0]
        assert t_min[0] == lo0 and t_max[0] == endpoints(sets[0])[-1][1]
        # Empty interval set → (inf, -inf) window: never Nash-supportable.
        assert t_min[1] == INF and t_max[1] == -INF
        assert np.isinf(t_max[1])

    def test_batch_ucg_columns_scalar_and_weighted(self):
        from repro.engine import batch_ucg_columns
        from repro.engine.columnar import ucg_nash_mask

        graphs = enumerate_connected_graphs(4)
        columns = batch_ucg_columns([fresh(g) for g in graphs])
        assert set(columns) == {"ucg_lo", "ucg_hi", "ucg_indptr"}
        alphas = [0.5, 1.0, 2.0, 5.0]
        mask = ucg_nash_mask(
            columns["ucg_lo"], columns["ucg_hi"], columns["ucg_indptr"], alphas
        )
        for i, graph in enumerate(graphs):
            reference = ucg_nash_alpha_set(fresh(graph))
            assert [bool(x) for x in mask[i]] == [
                reference.contains(a) for a in alphas
            ]

        model = build_scenario("hub_discounted", 4, seed=2).model
        weighted = batch_ucg_columns([fresh(g) for g in graphs], model=model)
        for i, graph in enumerate(graphs):
            start, stop = weighted["ucg_indptr"][i], weighted["ucg_indptr"][i + 1]
            segment = list(
                zip(weighted["ucg_lo"][start:stop], weighted["ucg_hi"][start:stop])
            )
            assert segment == endpoints(weighted_ucg_nash_t_set(graph, model))


# --------------------------------------------------------------------------- #
# Store round trips carrying UCG columns
# --------------------------------------------------------------------------- #


class TestStoreRoundTrips:

    def test_census_store_ucg_round_trip(self, tmp_path):
        from repro.analysis.store import CensusStore

        store = CensusStore.build(5, include_ucg=True)
        assert store.include_ucg
        report = store.verify()
        assert report["ok"] and not report["errors"]
        path = store.save(str(tmp_path / "census5.npz"))
        loaded = CensusStore.load(path)
        assert loaded.include_ucg
        assert loaded.ucg_lo.tolist() == store.ucg_lo.tolist()
        assert loaded.ucg_hi.tolist() == store.ucg_hi.tolist()
        assert loaded.ucg_indptr.tolist() == store.ucg_indptr.tolist()
        alphas = [0.5, 1.0, 2.0, 4.0]
        assert (
            loaded.stable_mask(alphas, game="ucg").tolist()
            == store.stable_mask(alphas, game="ucg").tolist()
        )

    def test_weighted_store_ucg_round_trip(self, tmp_path):
        from repro.analysis.weighted_store import WeightedStore

        scenario = build_scenario("random_weights", 5, seed=3)
        store = WeightedStore.from_scenario(scenario, include_ucg=True)
        assert store.include_ucg
        report = store.verify()
        assert report["ok"] and not report["errors"]
        path = store.save(str(tmp_path / "weighted5.npz"))
        loaded = WeightedStore.load(path)
        assert loaded.include_ucg
        assert loaded.ucg_lo.tolist() == store.ucg_lo.tolist()
        assert loaded.ucg_hi.tolist() == store.ucg_hi.tolist()
        assert loaded.ucg_indptr.tolist() == store.ucg_indptr.tolist()
        # Stored endpoints are the reference backtracking's, float-exactly.
        graphs = store.graphs()
        for i, graph in enumerate(graphs):
            start, stop = store.ucg_indptr[i], store.ucg_indptr[i + 1]
            segment = list(zip(store.ucg_lo[start:stop], store.ucg_hi[start:stop]))
            assert segment == endpoints(
                weighted_ucg_nash_t_set(fresh(graph), scenario.model)
            )
        ts = [0.25, 1.0, 4.0]
        assert loaded.ucg_nash_counts(ts) == store.ucg_nash_counts(ts)
        t_min, t_max = loaded.ucg_windows()
        for value in t_min.tolist() + t_max.tolist():
            assert value == value or math.isnan(value)  # finite or inf, not NaN

    def test_bcg_only_weighted_store_refuses_ucg_queries(self):
        from repro.analysis.weighted_store import WeightedStore

        scenario = build_scenario("random_weights", 4, seed=0)
        store = WeightedStore.from_scenario(scenario)  # BCG only
        assert not store.include_ucg
        with pytest.raises(ValueError, match="no UCG columns"):
            store.ucg_nash_counts([1.0])
        with pytest.raises(ValueError, match="no UCG columns"):
            store.ucg_windows()
