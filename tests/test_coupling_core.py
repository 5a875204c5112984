"""The array-native coupling core against networkx as an oracle.

:class:`repro.transpile.CouplingMap` and its kernels must visit nodes in
exactly the order networkx does (the tie-break contract in
:mod:`repro.transpile.coupling`), because the SC backend's SWAP and tree
choices follow that order.  networkx stays a test dependency for this
comparison only.  Also here: the SC gather's handling of dead couplers
(rates >= 1) and invalid rates.
"""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.gates import OP
from repro.core import SCSynthesizer, sc_compile
from repro.ir import PauliBlock, PauliProgram
from repro.transpile import CouplingMap, Layout, linear
from repro.transpile.coupling import dijkstra


@st.composite
def graphs(draw, max_nodes=12):
    """Random edge lists with repeats, reversed repeats and isolated
    trailing qubits."""
    n = draw(st.integers(2, max_nodes))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, min_size=1, max_size=3 * n))
    return n, edges


def _oracle(n, edges):
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return graph


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_adjacency_edges_and_hops_match_networkx(case):
    n, edges = case
    cmap, graph = CouplingMap(edges, num_qubits=n), _oracle(n, edges)
    for q in range(n):
        assert cmap.neighbors(q) == tuple(graph.neighbors(q))
        assert cmap.degree(q) == graph.degree(q)
    assert cmap.edges == tuple(tuple(sorted(e)) for e in graph.edges())
    assert cmap.is_fully_connected == nx.is_connected(graph)
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    for a in range(n):
        for b in range(n):
            expected = lengths[a].get(b, 2 * n)
            assert cmap.distance_matrix()[a][b] == expected
            assert cmap.is_connected(a, b) == graph.has_edge(a, b)


@settings(max_examples=80, deadline=None)
@given(graphs(max_nodes=40), st.data())
def test_components_match_networkx_order(case, data):
    n, edges = case
    cmap, graph = CouplingMap(edges, num_qubits=n), _oracle(n, edges)
    members = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    active = set()
    for q in members:  # insertion order shapes the set's iteration order
        active.add(q)
    expected = [list(c) for c in nx.connected_components(graph.subgraph(active))]
    got = [list(c) for c in cmap.components(set(q for q in active))]
    assert got == expected


@pytest.mark.parametrize("n, members", [
    # Small kept set (walked in its own order): 40 lands before 8.
    (65, [40, 8]),
    # Large kept set (walked in node order): 33 wraps to the front of the
    # set's table, node order puts it last.
    (36, list(range(4, 21)) + [33]),
])
def test_components_walk_order_follows_kept_size(n, members):
    cmap, graph = linear(n), _oracle(n, [(i, i + 1) for i in range(n - 1)])
    active = set()
    for q in members:
        active.add(q)
    expected = [list(c) for c in nx.connected_components(graph.subgraph(active))]
    assert [list(c) for c in cmap.components(set(q for q in active))] == expected


@settings(max_examples=80, deadline=None)
@given(graphs(), st.data())
def test_dijkstra_matches_networkx(case, data):
    n, edges = case
    cmap, graph = CouplingMap(edges, num_qubits=n), _oracle(n, edges)
    # Small integer weights force distance ties, which the push counter
    # must break the way networkx does.
    weight = {e: data.draw(st.sampled_from([0.5, 1.0, 2.0])) for e in cmap.edges}

    def cost(u, v):
        return weight[(min(u, v), max(u, v))]

    sources = set(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)))
    blocked = frozenset(data.draw(st.lists(st.integers(0, n - 1), max_size=3))) - sources
    view = graph.subgraph([q for q in range(n) if q not in blocked])
    dist, paths = nx.multi_source_dijkstra(
        view, set(sources), weight=lambda u, v, _attrs: cost(u, v))

    got, pred = dijkstra(cmap.arc_table(cost), set(sources), blocked=blocked)
    assert list(got.items()) == list(dist.items())
    for node, path in paths.items():
        walk = [node]
        while walk[-1] in pred:
            walk.append(pred[walk[-1]])
        assert walk[::-1] == path

    # A target-bounded search is a prefix of the full run.
    targets = set(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)))
    bounded, _ = dijkstra(cmap.arc_table(cost), set(sources), blocked, targets)
    assert list(bounded.items()) == list(got.items())[:len(bounded)]
    reached = [d for q, d in got.items() if q in targets]
    if reached:
        assert all(q in bounded for q, d in got.items() if d <= min(reached))


def test_pairwise_distance_raises_on_disconnected_pair():
    cmap = CouplingMap([(0, 1), (2, 3)], num_qubits=4)
    assert cmap.pairwise_distance([0, 1]) == 1
    with pytest.raises(ValueError, match="disconnected"):
        cmap.pairwise_distance([0, 1, 2])


def _gather_on(cmap, edge_error, active):
    synthesizer = SCSynthesizer(cmap, edge_error=edge_error)
    synthesizer._reset(Layout({q: q for q in range(cmap.num_qubits)}))
    synthesizer._gather(set(active), frozenset())
    op, q0, q1, _ = synthesizer._columns
    return [(a, b) for code, a, b in zip(op, q0, q1) if code == OP["swap"]]


class TestDeadCouplers:
    def test_gather_never_joins_over_a_dead_coupler(self):
        # The only path from 0 to 2 crosses the dead (0, 1) coupler: the
        # gather must refuse, not pull qubit 2 next to 0 over it.
        with pytest.raises(ValueError, match="gather blocked"):
            _gather_on(linear(3), {(0, 1): 1.0, (1, 2): 0.01}, {0, 2})


class TestInvalidRates:
    @pytest.mark.parametrize("rate", [-0.01, math.nan])
    def test_synthesizer_rejects_rate_naming_the_edge(self, rate):
        with pytest.raises(ValueError, match=r"edge \(1, 2\)"):
            SCSynthesizer(linear(4), edge_error={(1, 2): rate})

    def test_invalid_rate_is_not_swallowed_by_parallel_blocks(self):
        # The bad coupler is far from the primary block; a lazy check
        # inside the speculative parallel-block attempt would be caught
        # and turned into a silent deferral.
        program = PauliProgram([
            PauliBlock(["ZZIIII"], 0.5),
            PauliBlock(["IIIIZZ"], 0.5),
        ])
        with pytest.raises(ValueError, match=r"edge \(4, 5\)"):
            sc_compile(program, linear(6), edge_error={(4, 5): math.nan})
