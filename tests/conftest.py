"""Shared fixtures for the test suite."""

import random

import pytest

from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
)


@pytest.fixture
def triangle() -> Graph:
    """The triangle K_3."""
    return complete_graph(3)


@pytest.fixture
def p4() -> Graph:
    """The path on four vertices."""
    return path_graph(4)


@pytest.fixture
def star6() -> Graph:
    """The star on six vertices."""
    return star_graph(6)


@pytest.fixture
def c6() -> Graph:
    """The cycle on six vertices."""
    return cycle_graph(6)


@pytest.fixture
def petersen() -> Graph:
    """The Petersen graph."""
    return petersen_graph()


@pytest.fixture
def small_random_graphs():
    """A deterministic batch of small connected random graphs."""
    rng = random.Random(20050717)  # the PODC'05 dates, for flavour
    return [
        random_connected_graph(n, p, rng)
        for n in (4, 5, 6, 7)
        for p in (0.2, 0.5)
    ]


def _delta_tables(graphs, columns):
    """Per-graph ``(removal, addition)`` tables rebuilt from delta columns.

    Keyed ``((u, v), endpoint)`` like
    :meth:`repro.engine.DistanceOracle.stability_deltas`, so a test can
    compare the columns with the oracle's tables.  Also asserts the probe
    layout: two removal probes per edge in ``sorted_edges`` order (``u``
    paying first, then ``v``) and one savings pair per non-edge in
    ``non_edges`` order.
    """
    assert columns["num_edges"].tolist() == [graph.num_edges for graph in graphs]
    rem_indptr = columns["rem_indptr"].tolist()
    add_indptr = columns["add_indptr"].tolist()
    assert len(rem_indptr) == len(add_indptr) == len(graphs) + 1
    tables = []
    for g, graph in enumerate(graphs):
        rem = slice(rem_indptr[g], rem_indptr[g + 1])
        probes = list(
            zip(columns["rem_pay"][rem].tolist(), columns["rem_other"][rem].tolist())
        )
        assert probes == [
            probe for u, v in graph.sorted_edges() for probe in ((u, v), (v, u))
        ]
        removal = {
            ((min(pay, other), max(pay, other)), pay): value
            for (pay, other), value in zip(probes, columns["rem_delta"][rem].tolist())
        }
        add = slice(add_indptr[g], add_indptr[g + 1])
        pairs = list(zip(columns["add_u"][add].tolist(), columns["add_v"][add].tolist()))
        assert pairs == graph.non_edges()
        addition = {}
        for (u, v), s_u, s_v in zip(
            pairs, columns["add_s_u"][add].tolist(), columns["add_s_v"][add].tolist()
        ):
            addition[((u, v), u)] = s_u
            addition[((u, v), v)] = s_v
        tables.append((removal, addition))
    return tables


@pytest.fixture(scope="session")
def delta_tables():
    """The delta-column → oracle-table helper (session scope for hypothesis)."""
    return _delta_tables
