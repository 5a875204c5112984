"""Block-wise optimization for the superconducting backend (Section 5.2).

Algorithm 3 fuses circuit synthesis, SWAP insertion and layout transition.
For each scheduled layer:

1. **Root selection** (line 5) — the primary block's root is the core qubit
   whose physical position sits in the largest connected component of the
   core positions under the *current* mapping, minimizing transition
   overhead from the previous layer.
2. **Region connection** (line 6) — remaining active qubits are pulled into
   the root's component along lowest-error shortest paths; these SWAPs are
   persistent layout transitions.
3. **String synthesis** (lines 8-17) — for every Pauli string, active
   qubits that are still scattered are gathered (``ps[n] != I`` and
   ``ps[np] == I`` -> SWAP toward the region, also persistent), then the
   string is realized as a parity sandwich on a CNOT tree embedded in the
   coupling subgraph of its active nodes: basis changes, leaf-to-root
   CNOTs, the central ``Rz``, and the exact mirror.  No swaps occur inside
   the sandwich, so the mirror is position-stable.
4. **Small-block parallelism** (lines 18-20) — other blocks in the layer
   are synthesized speculatively with all paths forbidden from touching the
   primary block's qubits; if impossible they are deferred to the
   ``remain`` pool, processed at the end in increasing cumulative-distance
   order (lines 21-23).  Deferral is legal because Pauli IR semantics are
   order-free.

The emitted ``(string, coefficient)`` order and the layout history are
recorded so tests can check full unitary equivalence on small devices.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..circuit import QuantumCircuit
from ..ir import PauliBlock, PauliProgram
from ..pauli import PauliString
from ..transpile import CouplingMap, Layout, dense_initial_layout
from ..transpile.coupling import ArcTable, dijkstra
from . import passes
# The SC flow's scheduling passes call these through this module at call
# time (see repro.core.passes), so they stay bound here.
from .scheduling import Schedule, do_schedule, gco_schedule
from .streaming import stream_schedule

__all__ = [
    "SCResult", "EmbeddedTree", "sc_compile", "SCSynthesizer", "swap_cost_table",
]

_NO_FORBIDDEN: FrozenSet[int] = frozenset()


def swap_cost_table(
    coupling: CouplingMap,
    edge_error: Optional[Dict[Tuple[int, int], float]] = None,
) -> ArcTable:
    """SWAP reliability cost of every coupler, for gather path selection.

    Calibrated edges cost ``3 * -log(1 - e)`` (a SWAP is 3 CNOTs; summing
    along a path minimizes the product of failure-free probabilities — the
    same cost model as :func:`repro.transpile.reliability_cost_matrix`).
    Rates >= 1 are impassable: the arc is left out, so a gather that needs
    a dead coupler raises instead of swapping across it.  Uncalibrated
    edges keep the historical uniform cost of 1, which both preserves plain
    hop-count behaviour with no ``edge_error`` and makes uncalibrated hops
    far pricier than any realistic calibrated one.  ``(u, v)`` is looked up
    before ``(v, u)`` for the arc leaving ``u``.  Negative or NaN rates
    raise ``ValueError`` naming the edge.
    """
    edge_error = edge_error or {}

    def cost(u: int, v: int) -> float:
        rate = edge_error.get((u, v), edge_error.get((v, u)))
        if rate is None:
            return 1.0
        if not rate >= 0.0:
            raise ValueError(
                f"edge ({u}, {v}) error rate {rate!r} is negative or NaN"
            )
        if rate >= 1.0:
            return math.inf
        return 3.0 * -math.log(1.0 - rate)

    return coupling.arc_table(cost)


class EmbeddedTree:
    """A BFS tree over physical qubits embedded in the coupling map."""

    def __init__(self, root: int, parent: Dict[int, int], depth: Dict[int, int]):
        self.root = root
        self.parent = parent  # node -> parent node (root absent)
        self.depth = depth    # node -> distance from root

    def nodes_by_depth_desc(self) -> List[int]:
        return sorted(self.depth, key=lambda n: (-self.depth[n], n))

    @classmethod
    def bfs(cls, coupling: CouplingMap, nodes: Sequence[int], root: int) -> "EmbeddedTree":
        node_set = set(nodes)
        if root not in node_set:
            raise ValueError("root must be one of the tree nodes")
        parent: Dict[int, int] = {}
        depth = {root: 0}
        frontier = [root]
        while frontier:
            nxt: List[int] = []
            for node in frontier:
                for nbr in coupling.neighbors(node):
                    if nbr in node_set and nbr not in depth:
                        depth[nbr] = depth[node] + 1
                        parent[nbr] = node
                        nxt.append(nbr)
            frontier = nxt
        if set(depth) != node_set:
            raise ValueError("tree nodes are not connected in the coupling map")
        return cls(root, parent, depth)


class SCResult:
    """Output of the SC pass."""

    def __init__(
        self,
        circuit: QuantumCircuit,
        initial_layout: Layout,
        final_layout: Layout,
        emitted_terms: List[Tuple[PauliString, float]],
        transition_swaps: int,
    ):
        self.circuit = circuit
        self.initial_layout = initial_layout
        self.final_layout = final_layout
        self.emitted_terms = emitted_terms
        self.transition_swaps = transition_swaps


class SCSynthesizer:
    """Stateful Algorithm 3 executor.

    Parameters
    ----------
    coupling:
        Device connectivity.
    edge_error:
        Optional ``{(u, v): error_rate}`` turned into a SWAP reliability
        cost (see :func:`swap_cost_table`) when moving qubits (lowest-error
        path, Algorithm 3 line 6).  Missing edges default to a uniform
        cost of 1.
    """

    def __init__(
        self,
        coupling: CouplingMap,
        edge_error: Optional[Dict[Tuple[int, int], float]] = None,
        rng: Optional["random.Random"] = None,
        release_views: bool = False,
    ):
        self.coupling = coupling
        self._costs = swap_cost_table(coupling, edge_error)
        self._rng = rng
        self._release_views = release_views

    # -- public ---------------------------------------------------------
    def run(self, schedule: Schedule, num_logical: int) -> SCResult:
        initial_layout = self._interaction_aware_layout(schedule, num_logical)
        self.layout = initial_layout.copy()
        self.circuit = QuantumCircuit(self.coupling.num_qubits)
        self.emitted: List[Tuple[PauliString, float]] = []
        self.transition_swaps = 0

        remain: List[PauliBlock] = []
        for layer in schedule:
            primary = layer[0]
            self._process_block(primary, _NO_FORBIDDEN)
            primary_region = frozenset(
                self.layout.physical(q) for q in primary.active_qubits
            )
            if self._release_views:
                primary.release_view()
            for small in layer[1:]:
                if self._try_parallel_block(small, primary_region):
                    if self._release_views:
                        small.release_view()
                else:
                    remain.append(small)

        while remain:
            block = min(remain, key=lambda b: self._hop_sum(b.active_qubits))
            remain.remove(block)
            self._process_block(block, _NO_FORBIDDEN)
            if self._release_views:
                block.release_view()

        return SCResult(
            self.circuit,
            initial_layout,
            self.layout.copy(),
            self.emitted,
            self.transition_swaps,
        )

    # -- initial placement --------------------------------------------------
    def _interaction_aware_layout(self, schedule: Schedule, num_logical: int) -> Layout:
        """Initial mapping onto the most connected subgraph, interaction-first.

        Refines Algorithm 3 line 1: logical qubits are placed inside the
        densest device region in order of interaction weight, each next to
        the already-placed qubits it couples with most, so that early
        strings need no gather swaps at all.
        """
        interactions: Dict[Tuple[int, int], float] = {}
        for layer in schedule:
            for block in layer:
                for ws in block:
                    support = ws.string.support
                    for i in range(len(support)):
                        for j in range(i + 1, len(support)):
                            pair = (support[i], support[j])
                            interactions[pair] = interactions.get(pair, 0.0) + 1.0
        if not interactions:
            return dense_initial_layout(self.coupling, num_logical)

        region = dense_initial_layout(self.coupling, num_logical).physical_qubits()
        free = set(region)
        weight_of = {q: 0.0 for q in range(num_logical)}
        # Logical-qubit adjacency lists: the placement loops below query
        # "which placed qubits does q couple with" per candidate, and
        # scanning the full interaction dict each time is
        # O(n^2 * |interactions|) — fatal at hundreds of qubits.  The
        # adjacency form makes each query O(degree).
        adjacency: Dict[int, List[Tuple[int, float]]] = {
            q: [] for q in range(num_logical)
        }
        for (a, b), w in interactions.items():
            weight_of[a] += w
            weight_of[b] += w
            adjacency[a].append((b, w))
            adjacency[b].append((a, w))

        placed: Dict[int, int] = {}
        order = sorted(range(num_logical), key=lambda q: -weight_of[q])
        anchor = self._pick(order[:3]) if self._rng else order[0]
        start_candidates = sorted(
            free,
            key=lambda p: -sum(1 for n in self.coupling.neighbors(p) if n in free),
        )
        start = self._pick(start_candidates[:3]) if self._rng else start_candidates[0]
        placed[anchor] = start
        free.discard(start)
        unplaced = [q for q in order if q != anchor]
        while unplaced:
            # Next logical: the one most coupled to already-placed qubits.
            def coupling_to_placed(q: int) -> float:
                return sum(w for other, w in adjacency[q] if other in placed)

            logical = max(unplaced, key=lambda q: (coupling_to_placed(q), weight_of[q]))
            unplaced.remove(logical)
            placed_neighbors = [
                (placed[other], w)
                for other, w in adjacency[logical]
                if other in placed
            ]

            def placement_cost(p: int) -> float:
                return sum(
                    w * self.coupling.distance(p, position)
                    for position, w in placed_neighbors
                )

            ranked = sorted(free, key=placement_cost)
            best = self._pick(ranked[:2]) if self._rng else ranked[0]
            placed[logical] = best
            free.discard(best)
        return Layout(placed)

    def _pick(self, candidates):
        return self._rng.choice(candidates)

    # -- block processing -------------------------------------------------
    def _process_block(self, block: PauliBlock, forbidden: FrozenSet[int]) -> None:
        """Connect the block's active region, then synthesize its strings."""
        positions = {self.layout.physical(q) for q in block.active_qubits}
        if positions & forbidden:
            raise ValueError("block overlaps a protected region")
        root = self._select_root(block)
        seed = set(
            self.coupling.connected_component_within(root, sorted(positions))
        )
        self._gather(positions, forbidden, seed=seed)
        self._synthesize_block(block, forbidden)

    def _try_parallel_block(self, block: PauliBlock, protected: FrozenSet[int]) -> bool:
        """Speculatively synthesize a small block without touching the
        primary block's qubits; roll back and defer on failure."""
        recorded = len(self.circuit)
        layout_before = self.layout.copy()
        emitted_before = len(self.emitted)
        swaps_before = self.transition_swaps
        try:
            self._process_block(block, protected)
            return True
        except ValueError:
            self.circuit.truncate(recorded)
            self.layout = layout_before
            del self.emitted[emitted_before:]
            self.transition_swaps = swaps_before
            return False

    def _select_root(self, block: PauliBlock) -> int:
        """Root = core qubit whose physical position lies in the largest
        connected component of the core positions (Algorithm 3 line 5)."""
        candidates = list(block.core_qubits) or list(block.active_qubits)
        positions = [self.layout.physical(q) for q in candidates]
        size = {
            p: len(component)
            for component in self.coupling.components(set(positions))
            for p in component
        }
        return max(
            positions,
            key=lambda p: (size[p], self.coupling.degree(p), -p),
        )

    # -- qubit movement ----------------------------------------------------
    def _gather(
        self,
        active: Set[int],
        forbidden: FrozenSet[int],
        seed: Optional[Set[int]] = None,
    ) -> None:
        """Persistently SWAP active qubits until they form one connected
        component of the coupling graph.

        ``active`` is mutated to the final positions.  Each round pulls the
        nearest outside qubit into the sink component along the cheapest
        (error-weighted) path.  ``seed`` selects the initial sink (defaults
        to the largest component).  Raises ``ValueError`` when ``forbidden``
        nodes make connection impossible.
        """
        if len(active) <= 1:
            return
        # Qubits outside the allowed region: forbidden ones, unless they
        # held an active qubit when the gather began.
        blocked = forbidden - active
        while True:
            # A fresh set built from ``active``'s iteration order, as a
            # subgraph view's node filter is: component order follows it.
            components = self.coupling.components(set(q for q in active))
            if len(components) <= 1:
                return
            if seed:
                sink = next(
                    (set(c) for c in components if c & seed),
                    max(components, key=len),
                )
            else:
                sink = max(components, key=len)
            seed = None  # only the first round honours the seed
            path = self._cheapest_path_to_sink(sink, active, blocked)
            if path is None:
                raise ValueError("gather blocked by forbidden region")
            # path runs sink ... qubit; walk the qubit inward, stopping one
            # short of the sink (adjacency suffices) or at another active
            # node (components merge by adjacency).
            pos = path[-1]
            for nxt in reversed(path[1:-1]):
                if nxt in active:
                    break
                self._emit_swap(pos, nxt, transition=True)
                active.discard(pos)
                active.add(nxt)
                pos = nxt

    def _cheapest_path_to_sink(
        self, sink: Set[int], active: Set[int], blocked: FrozenSet[int]
    ) -> Optional[List[int]]:
        """Cheapest path from the sink component to any outside active
        node, avoiding ``blocked`` qubits."""
        outside = active - sink
        distances, pred = dijkstra(
            self._costs, set(sink), blocked=blocked, targets=outside
        )
        candidates = [n for n in active if n not in sink and n in distances]
        if not candidates:
            return None
        node = min(candidates, key=distances.__getitem__)
        path = [node]
        while node in pred:
            node = pred[node]
            path.append(node)
        path.reverse()
        return path

    # -- string synthesis ----------------------------------------------------
    def _synthesize_block(self, block: PauliBlock, forbidden: FrozenSet[int]) -> None:
        """Synthesize a block's strings cheapest-gather-first.

        The string-level analogue of Algorithm 3's cumulative-distance rule
        (line 22): under the current (persistent) mapping, always pick the
        remaining string whose active qubits are closest together, breaking
        ties by operator overlap with the previous string so the FT-style
        junction cancellation is preserved.  Strings whose qubits are
        already adjacent cost zero movement, and each gather improves the
        mapping for its neighbours in the interaction graph.
        """
        remaining = [
            (ws.string, ws.weight * block.parameter)
            for ws in block
            if not ws.string.is_identity
        ]
        previous: Optional[PauliString] = None
        priced_at = None
        while remaining:
            if priced_at != self.transition_swaps:
                # Only gather swaps move the mapping; re-price after them.
                priced_at = self.transition_swaps
                hops = [self._hop_sum(string.support) for string, _ in remaining]

            def key(i):
                string = remaining[i][0]
                overlap = previous.overlap(string) if previous is not None else 0
                return (hops[i], -overlap, string.lex_key())

            i = min(range(len(remaining)), key=key)
            string, coefficient = remaining.pop(i)
            del hops[i]
            self._synthesize_string(string, coefficient, forbidden)
            self.emitted.append((string, coefficient))
            previous = string

    def _hop_sum(self, logicals: Sequence[int]) -> int:
        """Cumulative pairwise hop distance of logical qubits under the
        current mapping (Algorithm 3 line 22's cumulative distance)."""
        return self.coupling.pairwise_distance(
            [self.layout.physical(q) for q in logicals]
        )

    def _synthesize_string(
        self, string: PauliString, coefficient: float, forbidden: FrozenSet[int]
    ) -> None:
        """Gather the string's qubits, then emit the parity sandwich."""
        active = {self.layout.physical(q) for q in string.support}
        self._gather(active, forbidden)

        circuit = self.circuit
        basis: List[Tuple[Callable[[int], QuantumCircuit], int]] = []
        for logical in string.support:
            code = string[logical]
            if code == "X":
                basis.append((circuit.h, self.layout.physical(logical)))
            elif code == "Y":
                basis.append((circuit.yh, self.layout.physical(logical)))
        for change, phys in basis:
            change(phys)

        if len(active) == 1:
            circuit.rz(-2.0 * coefficient, next(iter(active)))
        else:
            # The sandwich root is the centre of the active subgraph: it
            # minimizes the CNOT-tree depth.
            tree = EmbeddedTree.bfs(
                self.coupling, sorted(active), self.coupling.centre(active)
            )
            cnots = [
                (node, tree.parent[node])
                for node in tree.nodes_by_depth_desc()
                if node != tree.root
            ]
            for control, target in cnots:
                circuit.cx(control, target)
            circuit.rz(-2.0 * coefficient, tree.root)
            for control, target in reversed(cnots):
                circuit.cx(control, target)

        for change, phys in reversed(basis):
            change(phys)

    # -- bookkeeping -------------------------------------------------------
    def _emit_swap(self, a: int, b: int, transition: bool) -> None:
        self.circuit.swap(a, b)
        self.layout.swap_physical(a, b)
        if transition:
            self.transition_swaps += 1


def sc_compile(
    program: PauliProgram,
    coupling: CouplingMap,
    scheduler: str = "do",
    edge_error: Optional[Dict[Tuple[int, int], float]] = None,
    run_peephole: bool = True,
    restarts: int = 1,
    seed: int = 7,
    cancel: Optional[Callable[[], bool]] = None,
    peephole_level: Optional[int] = None,
) -> passes.PipelineResult:
    """Full SC flow: schedule, tree-embedded synthesis, peephole cleanup.

    ``scheduler`` accepts ``"do"`` (default), ``"gco"``, ``"none"``, and
    the streaming variants ``"do-stream"`` / ``"gco-stream"`` that
    schedule through :mod:`repro.core.streaming` and release block views
    after synthesis (the large-scale path).  ``restarts > 1`` re-runs
    synthesis and peephole with jittered initial placements and keeps the
    lowest-CNOT result (deterministic given ``seed``; the first attempt is
    always the un-jittered layout).  The returned circuit acts on physical
    qubits and respects the coupling map (validated on return).
    ``edge_error`` switches synthesis to calibration-weighted paths.
    ``cancel`` is polled after every pass and before each restart attempt
    (see :mod:`repro.core.cancellation`).  ``peephole_level`` (``None``
    = full fixpoint) restricts the cleanup to the level's rule subset —
    the speculative fast tier compiles at level 1.  The pass sequence is
    :func:`repro.core.passes.pass_sequence`'s ``sc`` flow; the return
    value is the driver's :class:`~repro.core.passes.PipelineResult`.
    """
    return passes.Pipeline.for_backend(
        "sc", scheduler, run_peephole, peephole_level, edge_error,
    ).run(program, coupling=coupling, edge_error=edge_error,
          restarts=restarts, seed=seed, cancel=cancel)
