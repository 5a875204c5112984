"""The SC synthesis kernels against their plain forms.

* :func:`repro.transpile.coupling.uniform_dijkstra`, the gather's BFS on
  a one-cost arc table, returns exactly what :func:`dijkstra` returns:
  the same ``dist`` items in the same order, with the same value types,
  and the same ``pred``.
* :meth:`CouplingMap.centre` is the argmin of ``(eccentricity, summed
  in-subgraph distance, index)`` over a connected kept set.
* The placement's array-native interaction counts give the layout the
  per-pair dict loop gave (``tests/oracles/sc_layout.py``).
* ``do_schedule``'s one-argmax primary pick breaks ties in overlap and
  length as the scalar oracle's ``max`` does.
"""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.scheduling import scalar_do_schedule
from oracles.sc_layout import dict_interaction_layout
from repro.core import SCSynthesizer, do_schedule, gco_schedule
from repro.ir import PauliBlock, PauliProgram
from repro.transpile import (
    CouplingMap, falcon_27, grid, heavy_hex, linear, manhattan_65, ring,
)
from repro.transpile.coupling import dijkstra, uniform_dijkstra

DEVICES = {
    "linear-9": linear(9),
    "ring-10": ring(10),
    "grid-4x5": grid(4, 5),
    "heavy-hex-3x7": heavy_hex(3, 7),
    "falcon-27": falcon_27(),
    "manhattan-65": manhattan_65(),
}


@st.composite
def connected_maps(draw, max_nodes=16):
    """A random connected edge list: a random spanning tree, extra edges,
    and repeats of some edges in either orientation."""
    n = draw(st.integers(2, max_nodes))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges += draw(st.lists(pairs, max_size=n))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=4))
    edges += [(b, a) if draw(st.booleans()) else (a, b) for a, b in repeats]
    order = draw(st.permutations(range(len(edges))))
    return CouplingMap([edges[i] for i in order], num_qubits=n)


@st.composite
def coupling_maps(draw):
    if draw(st.booleans()):
        return DEVICES[draw(st.sampled_from(sorted(DEVICES)))]
    return draw(connected_maps())


def _qubit_set(draw, n, min_size, max_size):
    """A set built in a drawn insertion order (which fixes its iteration
    order, as the gather's sets have one)."""
    members = draw(st.lists(st.integers(0, n - 1), min_size=min_size,
                            max_size=max_size, unique=True))
    out = set()
    for q in members:
        out.add(q)
    return out


@settings(max_examples=200, deadline=None)
@given(coupling_maps(), st.sampled_from([1.0, 0.35]), st.data())
def test_uniform_bfs_matches_dijkstra(cmap, cost, data):
    n = cmap.num_qubits
    # Dead couplers are left out of the table; every arc left costs the same.
    dead = set(data.draw(st.lists(st.sampled_from(cmap.edges), max_size=3)))
    arcs = cmap.arc_table(
        lambda u, v: math.inf if (min(u, v), max(u, v)) in dead else cost)
    sources = _qubit_set(data.draw, n, 1, 4)
    blocked = frozenset(_qubit_set(data.draw, n, 0, 4)) - sources
    targets = _qubit_set(data.draw, n, 0, 4)

    for bound in (targets, frozenset()):
        expected = dijkstra(arcs, sources, blocked, bound)
        got = uniform_dijkstra(arcs, cost, sources, blocked, bound)
        assert list(got[0].items()) == list(expected[0].items())
        assert [type(d) for d in got[0].values()] == [
            type(d) for d in expected[0].values()]
        assert list(got[1].items()) == list(expected[1].items())


def test_uniform_bfs_settles_the_whole_target_level():
    # Sources {0}; qubits 1 and 2 both sit one hop away and 1 is the
    # target, reached first.  Dijkstra settles 2 as well and records the
    # second level's predecessors; so must the BFS.
    cmap = CouplingMap([(0, 1), (0, 2), (1, 3), (2, 4)])
    arcs = cmap.arc_table(lambda u, v: 1.0)
    expected = dijkstra(arcs, {0}, targets={1})
    assert list(expected[0]) == [0, 1, 2]
    assert expected[1] == {1: 0, 2: 0, 3: 1, 4: 2}
    assert uniform_dijkstra(arcs, 1.0, {0}, frozenset(), {1}) == expected


def test_synthesizer_searches_by_bfs_only_on_one_positive_cost():
    cmap = linear(4)
    assert SCSynthesizer(cmap)._uniform_cost == 1.0
    assert SCSynthesizer(cmap, edge_error={(0, 1): 0.01})._uniform_cost is None
    # Dead couplers drop out of the table; the arcs left cost one.
    assert SCSynthesizer(cmap, edge_error={(0, 1): 1.0})._uniform_cost == 1.0
    # Zero-error calibrations cost nothing: dijkstra then runs past the
    # first target's level, so the BFS must not stand in for it.
    every = {edge: 0.0 for edge in cmap.edges}
    assert SCSynthesizer(cmap, edge_error=every)._uniform_cost is None


@st.composite
def connected_kept_sets(draw):
    """A connected set of 1-20 qubits grown from a random qubit, on a
    device or a random connected map."""
    cmap = draw(coupling_maps())
    size = draw(st.integers(1, min(20, cmap.num_qubits)))
    kept = [draw(st.integers(0, cmap.num_qubits - 1))]
    while len(kept) < size:
        frontier = sorted({v for u in kept for v in cmap.neighbors(u)}
                          - set(kept))
        kept.append(draw(st.sampled_from(frontier)))
    return cmap, frozenset(kept)


@settings(max_examples=200, deadline=None)
@given(connected_kept_sets())
def test_centre_is_the_brute_force_argmin(case):
    cmap, kept = case
    graph = nx.Graph()
    graph.add_nodes_from(kept)
    graph.add_edges_from((u, v) for u, v in cmap.edges
                         if u in kept and v in kept)
    keys = []
    for q in kept:
        lengths = nx.single_source_shortest_path_length(graph, q)
        keys.append((max(lengths.values()), sum(lengths.values()), q))
    assert cmap.centre(kept) == min(keys)[2]


def _program(labels_per_block):
    return PauliProgram([PauliBlock(labels, 0.3) for labels in labels_per_block])


LAYOUT_PROGRAMS = {
    "chain": [["ZZIII", "IXXII"], ["IIYYI"], ["IIIZZ", "XIIIX"]],
    "identity-strings": [["ZZIII", "IIIII"], ["IIIII", "IXYZI"], ["XIIIZ"]],
    "no-two-qubit-terms": [["ZIIII", "IIXII"], ["IIIIY"], ["IIIII"]],
    "dense": [["XXXXX", "ZZZZZ"], ["YIYIY"], ["IZZZI", "ZIIIZ"]],
}


@pytest.mark.parametrize("name", sorted(LAYOUT_PROGRAMS))
@pytest.mark.parametrize("seed", [None, 3, 11])
@pytest.mark.parametrize("device", ["linear-9", "grid-4x5", "falcon-27"])
def test_placement_counts_match_the_dict_loop(name, seed, device):
    program = _program(LAYOUT_PROGRAMS[name])
    cmap = DEVICES[device]
    for schedule in (do_schedule(program), gco_schedule(program)):
        rng = None if seed is None else random.Random(seed)
        got = SCSynthesizer(cmap, rng=rng)._interaction_aware_layout(
            schedule, program.num_qubits)
        oracle_rng = None if seed is None else random.Random(seed)
        expected = dict_interaction_layout(cmap, schedule, program.num_qubits,
                                           oracle_rng)
        assert list(got.as_dict().items()) == list(expected.as_dict().items())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.text(alphabet="IXYZ", min_size=7, max_size=7),
                         min_size=1, max_size=4),
                min_size=1, max_size=10),
       st.sampled_from([None, 5]))
def test_placement_counts_match_the_dict_loop_on_random_programs(blocks, seed):
    program = _program(blocks)
    schedule = do_schedule(program)
    cmap = DEVICES["falcon-27"]
    rng = None if seed is None else random.Random(seed)
    got = SCSynthesizer(cmap, rng=rng)._interaction_aware_layout(
        schedule, program.num_qubits)
    oracle_rng = None if seed is None else random.Random(seed)
    expected = dict_interaction_layout(cmap, schedule, program.num_qubits,
                                       oracle_rng)
    assert list(got.as_dict().items()) == list(expected.as_dict().items())


def _signature(schedule):
    return [[tuple(ws.string.label for ws in block) for block in layer]
            for layer in schedule]


@pytest.mark.parametrize("blocks", [
    # After the primary ZZZZ, the three 2-qubit Z blocks tie in overlap
    # (2) and in length (2): the first in remaining order wins.
    [["ZZZZ"], ["IIZZ"], ["ZZII"], ["IZZI"], ["XXII"]],
    # Tied overlap (2), different lengths: the longer block wins (the
    # candidates are in decreasing length, so it is also the first).
    [["ZZZZ"], ["IIZZ"], ["XZZI"], ["ZIIX"]],
    # Tied length (3), different overlaps: the larger overlap wins.
    [["ZZZZ"], ["XXZI"], ["ZZZI"], ["IYYY"], ["IXZZ"]],
    # Nothing overlaps: zero overlap everywhere, lengths decide.
    [["ZZZZ"], ["XXII"], ["IXXX"], ["YIII"]],
])
def test_do_pick_breaks_ties_as_the_scalar_max(blocks):
    program = _program(blocks)
    assert _signature(do_schedule(program)) == _signature(
        scalar_do_schedule(program))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.text(alphabet="IZ", min_size=4, max_size=4).filter(
    lambda s: set(s) != {"I"}), min_size=1, max_size=2), min_size=2, max_size=10))
def test_do_pick_on_tie_heavy_programs(blocks):
    # One operator on four qubits: overlaps and lengths tie often.
    program = _program(blocks)
    assert _signature(do_schedule(program)) == _signature(
        scalar_do_schedule(program))
