"""Device coupling maps.

A :class:`CouplingMap` is an undirected connectivity graph over physical
qubits, plus optional per-edge error rates used by the noise-aware passes
(Section 5.2 uses the calibration data to pick low-error paths).

The coupling core is array-native and built once, at construction: one
neighbour tuple per qubit, the edge tuple, and the all-pairs hop matrix
(BFS).  The graph kernels the SC backend and the router run on it —
:func:`dijkstra` and its uniform-cost BFS form :func:`uniform_dijkstra`,
and the masked BFS of :meth:`CouplingMap.components` and
:meth:`CouplingMap.centre` — take forbidden or outside qubits as a set
mask and build no subgraph objects.

Tie-break contract.  The kernels reproduce the order in which networkx
(3.x, the library the compiler used before) visits nodes, so compiled
circuits stay gate-identical (pinned by ``tests/test_sc_golden.py``):

* neighbours come in adjacency-insertion order (first mention in the edge
  list; duplicate edges are dropped), and :attr:`CouplingMap.edges` in
  ``nx.Graph.edges()`` order;
* :func:`dijkstra` pops ``(distance, push counter, node)`` entries,
  pushes the sources in their iteration order, and updates a path only
  on a strict improvement;
* :func:`uniform_dijkstra` is :func:`dijkstra` on a table whose arcs all
  cost one ``c > 0``, as a BFS.  With one cost, every push is ``c`` more
  than the popped distance, and pops come in non-decreasing distance, so
  pushes arrive in non-decreasing distance and the heap pops in push
  order: BFS order, level by level.  A later offer to a reached node is
  equal, not strictly better, so a node is pushed once, by the node that
  first reached it, which is its ``pred``.  Distances are the sources'
  ``0``, then the previous level's value ``+ c``, the same float sums.
  The target stop settles the whole level of the first target, and the
  nodes its level reaches keep their ``pred``, as the heap's pushes do;
* :meth:`CouplingMap.centre` searches its qubits in the order of their
  device-distance bound ``(max, sum, index)``, a lower bound of the
  in-subgraph key ``(eccentricity, sum, index)`` on a connected kept set,
  and stops at the first bound not below the best key, so the bound
  order cannot change the answer;
* :meth:`CouplingMap.components` yields components in
  ``nx.connected_components`` order over a subgraph view: it walks the
  kept set itself when ``2 * len(kept) < num_qubits`` and the node range
  otherwise, and grows each component set in BFS insertion order.

Device generators:

* :func:`linear` / :func:`ring` / :func:`grid` / :func:`full` — standard
  academic topologies;
* :func:`heavy_hex` — parametric IBM-style heavy-hexagon lattice;
* :func:`manhattan_65` — a 65-qubit heavy-hex instance standing in for
  IBM Manhattan (the paper's SC target);
* :func:`melbourne` — the 15-qubit ladder of ibmq_16_melbourne (the paper's
  real-system device; the device exposes 15 usable qubits).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import (
    AbstractSet,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = [
    "ArcTable",
    "CouplingMap",
    "dijkstra",
    "uniform_dijkstra",
    "linear",
    "ring",
    "grid",
    "full",
    "heavy_hex",
    "manhattan_65",
    "melbourne",
    "falcon_27",
    "sycamore_like",
    "ion_trap",
]

#: Per-qubit ``(neighbour, cost)`` arcs in neighbour order; infinite-cost
#: arcs are left out (see :meth:`CouplingMap.arc_table`).
ArcTable = Tuple[Tuple[Tuple[int, float], ...], ...]

_NONE: AbstractSet[int] = frozenset()


class CouplingMap:
    """Undirected qubit-connectivity graph with distance queries."""

    def __init__(
        self,
        edges: Iterable[Tuple[int, int]],
        num_qubits: Optional[int] = None,
        name: str = "",
    ):
        edge_list = [(int(a), int(b)) for a, b in edges]
        for a, b in edge_list:
            if a < 0 or b < 0:
                raise ValueError(f"edge ({a}, {b}) has a negative qubit index")
            if a == b:
                raise ValueError(f"edge ({a}, {b}) is a self-loop")
        inferred = max((max(a, b) for a, b in edge_list), default=-1) + 1
        if num_qubits is None:
            if not edge_list:
                raise ValueError(
                    "a coupling map needs edges or an explicit qubit count"
                )
            self.num_qubits = inferred
        else:
            # ``num_qubits`` may legitimately exceed the inferred count
            # (isolated trailing qubits), but an explicit 0 is not "use the
            # default": a device with no qubits is an error, not a fallback.
            self.num_qubits = int(num_qubits)
            if self.num_qubits < 1:
                raise ValueError(
                    f"num_qubits must be >= 1, got {self.num_qubits}"
                )
            if inferred > self.num_qubits:
                raise ValueError(
                    f"edge endpoints reach qubit {inferred - 1} but "
                    f"num_qubits is {self.num_qubits}"
                )
        self.name = name
        # Dicts as insertion-ordered sets: a repeated edge keeps the
        # neighbour's first position, as a networkx adjacency dict does.
        adjacency: List[Dict[int, None]] = [{} for _ in range(self.num_qubits)]
        for a, b in edge_list:
            adjacency[a][b] = None
            adjacency[b][a] = None
        self._neighbors: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(nbrs) for nbrs in adjacency
        )
        self._neighbor_sets = tuple(frozenset(nbrs) for nbrs in adjacency)
        self._edges: Tuple[Tuple[int, int], ...] = tuple(
            (u, v) for u, nbrs in enumerate(self._neighbors) for v in nbrs if v > u
        )
        self._dist = self._hop_matrix()
        self._fully_connected = max(self._dist[0]) < self.num_qubits

    def _hop_matrix(self) -> List[List[int]]:
        """All-pairs hop counts by BFS; disconnected pairs keep a
        ``2 * num_qubits`` sentinel (no hop count exists) that
        :meth:`distance` refuses to serve."""
        n = self.num_qubits
        neighbors = self._neighbors
        dist = []
        for source in range(n):
            row = [2 * n] * n
            row[source] = 0
            frontier = [source]
            hops = 0
            while frontier:
                hops += 1
                reached = []
                for u in frontier:
                    for v in neighbors[u]:
                        if row[v] > hops:
                            row[v] = hops
                            reached.append(v)
                frontier = reached
            dist.append(row)
        return dist

    # ------------------------------------------------------------------
    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Each edge once as ``(low, high)``, in ``nx.Graph.edges()`` order
        (calibrations jitter rates in this order)."""
        return self._edges

    def is_connected(self, a: int, b: int) -> bool:
        try:
            return b in self._neighbor_sets[a]
        except IndexError:  # a qubit beyond the device couples to nothing
            return False

    def neighbors(self, qubit: int) -> Tuple[int, ...]:
        return self._neighbors[qubit]

    def degree(self, qubit: int) -> int:
        return len(self._neighbors[qubit])

    @property
    def is_fully_connected(self) -> bool:
        """True when every pair of qubits has a path between them.

        A trimmed :func:`heavy_hex` can orphan bridge qubits, and an
        explicit ``num_qubits`` larger than the edge span leaves isolated
        trailing qubits; both make the graph disconnected.
        """
        return self._fully_connected

    def distance(self, a: int, b: int) -> int:
        """Shortest hop count between two physical qubits.

        Raises ``ValueError`` for a disconnected pair instead of returning
        the internal ``2 * num_qubits`` placeholder: routing on a
        fictitious distance silently produces unroutable circuits.
        """
        d = self._dist[a][b]
        if d >= self.num_qubits:  # real shortest paths use < n hops
            raise ValueError(
                f"qubits {a} and {b} are disconnected in coupling map "
                f"{self.name or '<anonymous>'}; check is_fully_connected "
                f"before routing"
            )
        return d

    def distance_matrix(self) -> List[List[int]]:
        """All-pairs hop-count matrix (do not mutate).

        Disconnected pairs hold a ``2 * num_qubits`` sentinel; callers that
        cannot tolerate it should check :attr:`is_fully_connected` first
        (:func:`repro.transpile.route` does).
        """
        return self._dist

    def pairwise_distance(self, qubits: Sequence[int]) -> int:
        """Sum of the hop distances over all pairs of ``qubits``.

        Raises :meth:`distance`'s ``ValueError`` when a pair is
        disconnected.
        """
        dist = self._dist
        total = 0
        for i, a in enumerate(qubits):
            row = dist[a]
            for b in qubits[i + 1:]:
                total += row[b]
        if total >= self.num_qubits and not self._fully_connected:
            # Only a sum this large can hide a disconnected-pair sentinel.
            for i, a in enumerate(qubits):
                for b in qubits[i + 1:]:
                    self.distance(a, b)
        return total

    # -- graph kernels -------------------------------------------------------
    def arc_table(self, cost: Callable[[int, int], float]) -> ArcTable:
        """Per-qubit ``(neighbour, cost(u, neighbour))`` arcs for
        :func:`dijkstra`.  Arcs costing ``inf`` are impassable and left
        out."""
        table = []
        for u, nbrs in enumerate(self._neighbors):
            arcs = ((v, cost(u, v)) for v in nbrs)
            table.append(tuple(arc for arc in arcs if arc[1] != math.inf))
        return tuple(table)

    def components(self, kept: Collection[int]) -> List[Set[int]]:
        """Connected components of the subgraph induced by ``kept``, in
        ``nx.connected_components`` order over a subgraph view (module
        docstring).  ``kept`` is walked as given when it is small, so pass
        the set whose iteration order a subgraph view would see."""
        neighbors = self._neighbors
        if 2 * len(kept) < self.num_qubits:
            order: Iterable[int] = kept
        else:
            order = (v for v in range(self.num_qubits) if v in kept)
        seen: Set[int] = set()
        found = []
        for source in order:
            if source in seen:
                continue
            component = {source}
            frontier = [source]
            while frontier:
                reached = []
                for u in frontier:
                    for v in neighbors[u]:
                        if v in kept and v not in component:
                            component.add(v)
                            reached.append(v)
                frontier = reached
            seen |= component
            found.append(component)
        return found

    def centre(self, kept: Collection[int]) -> int:
        """The qubit of the connected subgraph induced by ``kept`` with the
        smallest ``(eccentricity, summed hop distance, index)``, distances
        taken inside the subgraph."""
        neighbors = self._neighbors
        dist = self._dist
        # Device distances bound the in-subgraph ones from below, so each
        # qubit's ``(max, sum, index)`` over device distances is at most
        # its key: search in bound order, and stop at the first bound that
        # cannot beat the best key.
        bounds = []
        for source in kept:
            row = dist[source]
            spans = [row[v] for v in kept]
            bounds.append((max(spans), sum(spans), source))
        bounds.sort()
        best: Optional[Tuple[int, int, int]] = None
        for bound in bounds:
            if best is not None and bound >= best:
                break
            source = bound[2]
            seen = {source}
            frontier = [source]
            hops = total = 0
            while True:
                reached = []
                for u in frontier:
                    for v in neighbors[u]:
                        if v in kept and v not in seen:
                            seen.add(v)
                            reached.append(v)
                if not reached:
                    break
                hops += 1
                total += hops * len(reached)
                frontier = reached
            key = (hops, total, source)
            if best is None or key < best:
                best = key
        return best[2]

    def subgraph_is_connected(self, qubits: Sequence[int]) -> bool:
        return len(qubits) > 0 and len(self.components(set(qubits))) == 1

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"CouplingMap{tag}(qubits={self.num_qubits}, "
            f"edges={len(self._edges)})"
        )


def dijkstra(
    arcs: ArcTable,
    sources: Iterable[int],
    blocked: AbstractSet[int] = _NONE,
    targets: AbstractSet[int] = _NONE,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Multi-source Dijkstra over an :meth:`CouplingMap.arc_table`.

    Returns ``(dist, pred)``: final distances in the order nodes were
    settled, and each reached non-source node's predecessor on its path.
    ``blocked`` qubits (never a source) are never entered.  With
    ``targets``, the search stops once every node as close as the nearest
    target is settled — a prefix of the full run, so distances and paths
    match it.  Costs must be non-negative.  Heap entries and tie-breaks
    follow the module docstring's contract.
    """
    dist: Dict[int, float] = {}
    pred: Dict[int, int] = {}
    best = [math.inf] * len(arcs)
    closed = bytearray(len(arcs))  # settled or blocked
    for q in blocked:
        closed[q] = 1
    heap: List[Tuple[float, int, int]] = []
    pushes = 0
    for source in sources:
        best[source] = 0
        heap.append((0, pushes, source))  # equal keys, rising counter: a heap
        pushes += 1
    stop = math.inf
    while heap:
        d, _, u = heappop(heap)
        if u in dist:
            continue
        if d > stop:
            break
        dist[u] = d
        closed[u] = 1
        if u in targets and stop == math.inf:
            stop = d
        for v, cost in arcs[u]:
            if closed[v]:
                continue
            dv = d + cost
            if dv < best[v]:
                best[v] = dv
                heappush(heap, (dv, pushes, v))
                pushes += 1
                pred[v] = u
    return dist, pred


def uniform_dijkstra(
    arcs: ArcTable,
    cost: float,
    sources: Iterable[int],
    blocked: AbstractSet[int],
    targets: AbstractSet[int],
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """:func:`dijkstra` over an arc table whose arcs all cost ``cost > 0``,
    run as a level-by-level BFS: the same ``(dist, pred)``, in the same
    order (module docstring).

    A node is marked when first reached, and the node that reached it is
    its ``pred``.  With ``targets``, the level that holds the first target
    is settled and expanded, then the search stops.
    """
    dist: Dict[int, float] = {}
    pred: Dict[int, int] = {}
    seen = bytearray(len(arcs))  # reached or blocked
    for q in blocked:
        seen[q] = 1
    frontier = []
    for source in sources:
        if source not in dist:
            seen[source] = 1
            dist[source] = 0
            frontier.append(source)
    d = 0
    while frontier:
        reached = []
        for u in frontier:
            for v, _ in arcs[u]:
                if not seen[v]:
                    seen[v] = 1
                    pred[v] = u
                    reached.append(v)
        if not targets.isdisjoint(frontier):
            break
        d += cost
        for v in reached:
            dist[v] = d
        frontier = reached
    return dist, pred


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

def linear(num_qubits: int) -> CouplingMap:
    """A 1-D chain."""
    return CouplingMap(
        [(i, i + 1) for i in range(num_qubits - 1)],
        num_qubits=num_qubits,
        name=f"linear-{num_qubits}",
    )


def ring(num_qubits: int) -> CouplingMap:
    """A 1-D ring."""
    edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
    return CouplingMap(edges, num_qubits=num_qubits, name=f"ring-{num_qubits}")


def grid(rows: int, cols: int) -> CouplingMap:
    """A 2-D grid, row-major numbering."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + cols))
    return CouplingMap(edges, num_qubits=rows * cols, name=f"grid-{rows}x{cols}")


def full(num_qubits: int) -> CouplingMap:
    """All-to-all connectivity (the FT backend's effective topology)."""
    edges = [
        (i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)
    ]
    return CouplingMap(edges, num_qubits=num_qubits, name=f"full-{num_qubits}")


def heavy_hex(rows: int, row_len: int, trim: int = 0) -> CouplingMap:
    """Parametric heavy-hexagon lattice in the IBM style.

    ``rows`` horizontal chains of ``row_len`` qubits each, with bridge qubits
    between consecutive rows at every fourth column (offset alternating by
    two per row pair).  ``trim`` removes that many highest-numbered qubits.
    """
    edges: List[Tuple[int, int]] = []
    row_start = [r * row_len for r in range(rows)]
    next_id = rows * row_len
    for r in range(rows):
        base = row_start[r]
        for c in range(row_len - 1):
            edges.append((base + c, base + c + 1))
    for r in range(rows - 1):
        offset = 0 if r % 2 == 0 else 2
        for c in range(offset, row_len, 4):
            bridge = next_id
            next_id += 1
            edges.append((row_start[r] + c, bridge))
            edges.append((bridge, row_start[r + 1] + c))
    num = next_id - trim
    kept = [(a, b) for a, b in edges if a < num and b < num]
    return CouplingMap(kept, num_qubits=num, name=f"heavy-hex-{rows}x{row_len}")


def manhattan_65() -> CouplingMap:
    """A 65-qubit heavy-hex device standing in for IBM Manhattan.

    The exact IBM edge list is not reproduced; what matters for the paper's
    SC experiments is the sparse heavy-hex connectivity class (degree <= 3),
    which this instance matches.
    """
    cmap = heavy_hex(rows=5, row_len=11, trim=2)
    assert cmap.num_qubits == 65, cmap.num_qubits
    cmap.name = "manhattan-65"
    return cmap


def falcon_27() -> CouplingMap:
    """A 27-qubit heavy-hex device in the IBM Falcon class."""
    cmap = heavy_hex(rows=3, row_len=8, trim=1)
    assert cmap.num_qubits == 27, cmap.num_qubits
    cmap.name = "falcon-27"
    return cmap


def sycamore_like(rows: int = 5, cols: int = 6) -> CouplingMap:
    """A Sycamore-style diagonal grid: each node couples to up to four
    diagonal neighbours of the next row."""
    edges: List[Tuple[int, int]] = []
    for r in range(rows - 1):
        for c in range(cols):
            q = r * cols + c
            below = (r + 1) * cols + c
            edges.append((q, below))
            if c + 1 < cols and r % 2 == 0:
                edges.append((q, below + 1))
            elif c > 0 and r % 2 == 1:
                edges.append((q, below - 1))
    return CouplingMap(edges, num_qubits=rows * cols, name=f"sycamore-{rows}x{cols}")


def ion_trap(num_qubits: int) -> CouplingMap:
    """Trapped-ion chain with all-to-all connectivity (paper Section 7
    names ion traps as an extension target; routing becomes trivial but
    gate counts still matter)."""
    cmap = full(num_qubits)
    cmap.name = f"ion-trap-{num_qubits}"
    return cmap


def melbourne() -> CouplingMap:
    """The ibmq_16_melbourne ladder (15 usable qubits).

    Row A: 0-1-2-3-4-5-6; row B: 14-13-12-11-10-9-8, with 7 hanging off 8
    and rungs between the rows.
    """
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
        (14, 13), (13, 12), (12, 11), (11, 10), (10, 9), (9, 8), (8, 7),
        (0, 14), (1, 13), (2, 12), (3, 11), (4, 10), (5, 9), (6, 8),
    ]
    return CouplingMap(edges, num_qubits=15, name="melbourne-15")
