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

The synthesizer writes every gate straight into tape columns (opcode,
operands, angle), which the circuit adopts once at the end; a rolled-back
parallel block deletes its suffix of the columns.  What depends only on
the coupling and a string's set of positions is computed once per run: the
sandwich's root and CNOT tree, and whether the set is connected (so a
gather with nothing to move does no component walk).  When a peephole
level follows, the flow takes the emission with its wire links built and
the seeds, the slots where a peephole rule can fire, so the peephole step
starts there, on a linked tape, instead of at every gate; its output is
gate for gate the level's rules run on the emission.

The emitted ``(string, coefficient)`` order and the layout history are
recorded so tests can check full unitary equivalence on small devices.
"""

from __future__ import annotations

import logging
import math
import operator
import random
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..circuit import QuantumCircuit
from ..circuit.gates import OP, OPCODES
from ..circuit.tape import NO_SLOT, GateTape, _wire_links
from ..ir import PauliBlock, PauliProgram
from ..pauli import PauliString
from ..pauli import operators as ops
from ..transpile import CouplingMap, Layout, dense_initial_layout, peephole
from ..transpile.coupling import ArcTable, dijkstra, uniform_dijkstra
from . import passes
# The SC flow's scheduling passes call these through this module at call
# time (see repro.core.passes), so they stay bound here.
from .scheduling import Schedule, do_schedule, gco_schedule
from .streaming import stream_schedule

__all__ = [
    "SCResult", "EmbeddedTree", "sc_compile", "SCSynthesizer", "swap_cost_table",
]

_NO_FORBIDDEN: FrozenSet[int] = frozenset()

_OP_H, _OP_YH, _OP_RZ = OP["h"], OP["yh"], OP["rz"]
_OP_CX, _OP_SWAP = OP["cx"], OP["swap"]

#: Strings per chunk of the placement's incidence matrix, which bounds its
#: memory on large programs.
_INCIDENCE_ROWS = 4096

#: At DEBUG, each seeded emission logs its size, sandwich sets and seeds.
_log = logging.getLogger(__name__)


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
        # One positive cost on every arc (every uncalibrated coupling): the
        # gather searches by BFS, which finds what dijkstra finds.
        costs = {cost for arcs in self._costs for _, cost in arcs}
        only = costs.pop() if len(costs) == 1 else 0.0
        self._uniform_cost = only if only > 0 else None
        self._rng = rng
        self._release_views = release_views

    # -- public ---------------------------------------------------------
    def run(self, schedule: Schedule, num_logical: int) -> SCResult:
        """Algorithm 3 over ``schedule``: the emission on the coupling's
        physical qubits, its initial and final layouts and string order."""
        return self._run(schedule, num_logical)[0]

    def _run(
        self, schedule: Schedule, num_logical: int, seeded: bool = False,
    ) -> Tuple[SCResult, Optional[Tuple[List[int], Callable[[], QuantumCircuit]]]]:
        """:meth:`run`; with ``seeded``, the result's tape comes with its
        wire links, and ``(seeds, raw)`` come back with it: the slots where
        a peephole rule can fire, and a rebuild of the emission as it was
        (the peephole step rewrites the tape in place)."""
        initial_layout = self._interaction_aware_layout(schedule, num_logical)
        self._reset(initial_layout.copy())

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

        num_qubits = self.coupling.num_qubits
        _check_operands(num_qubits, *self._columns[:3])
        if seeded:
            tape, seeds = self._linked_tape()
        else:
            tape, seeds = GateTape.from_columns(num_qubits, *self._columns), None
        result = SCResult(
            QuantumCircuit.from_tape(tape),
            initial_layout,
            self.layout.copy(),
            self.emitted,
            self.transition_swaps,
        )
        return result, seeds

    def _linked_tape(
        self,
    ) -> Tuple[GateTape, Tuple[List[int], Callable[[], QuantumCircuit]]]:
        """The emission's columns as a tape with its wire links, the seeds
        read off them (:func:`~repro.transpile.peephole._fire_sites`), and
        a rebuild of the emission from compact copies of the columns."""
        num_qubits = self.coupling.num_qubits
        op, q0, q1, param = self._columns
        opcodes = np.array(op, dtype=np.uint8)
        wires = np.array(q0, dtype=np.int32), np.array(q1, dtype=np.int32)
        angles = np.array(param)
        links = _wire_links(*wires, num_qubits)
        nxt0, _, nxt1 = (np.frombuffer(link, np.int64) for link in links[:3])
        seeds = peephole._fire_sites(opcodes, *wires, angles, nxt0,
                                     nxt1).tolist()
        if _log.isEnabledFor(logging.DEBUG):
            sandwiches = sum(len(s.support) > 1 for s, _ in self.emitted)
            _log.debug("sc: %d gates, %d distinct CNOT trees for %d "
                       "multi-qubit strings, %d seeds", len(op),
                       len(self._trees), sandwiches, len(seeds))

        def raw() -> QuantumCircuit:
            return QuantumCircuit.from_tape(GateTape.from_columns(
                num_qubits, opcodes.tolist(), wires[0].tolist(),
                wires[1].tolist(), angles.tolist()))

        counts = np.bincount(opcodes, minlength=len(OPCODES)).tolist()
        tape = GateTape._adopt(num_qubits, op, q0, q1, param, counts, links)
        return tape, (seeds, raw)

    def _reset(self, layout: Layout) -> None:
        """Start a run from ``layout``: empty gate columns and memos."""
        self.layout = layout
        #: The emission as tape columns: opcode, operands, angle.
        self._columns: Tuple[List[int], List[int], List[int], List[float]] = (
            [], [], [], [])
        self.emitted: List[Tuple[PauliString, float]] = []
        self.transition_swaps = 0
        #: Per position set, what depends only on it and the coupling: the
        #: sandwich's root and CNOT tree, and whether it is connected.
        self._trees: Dict[FrozenSet[int], Tuple[int, List[int], List[int]]] = {}
        self._connected: Set[FrozenSet[int]] = set()

    # -- initial placement --------------------------------------------------
    def _interaction_aware_layout(self, schedule: Schedule, num_logical: int) -> Layout:
        """Initial mapping onto the most connected subgraph, interaction-first.

        Refines Algorithm 3 line 1: logical qubits are placed inside the
        densest device region in order of interaction weight, each next to
        the already-placed qubits it couples with most, so that early
        strings need no gather swaps at all.
        """
        counts = _interaction_counts(schedule, num_logical)
        if not counts.any():
            return dense_initial_layout(self.coupling, num_logical)

        region = dense_initial_layout(self.coupling, num_logical).physical_qubits()
        free = set(region)
        weight_of = dict(enumerate(counts.sum(axis=1).tolist()))
        # Logical-qubit adjacency lists: the placement loops below query
        # "which placed qubits does q couple with" per candidate, and
        # scanning every pair each time is O(n^2 * pairs) — fatal at
        # hundreds of qubits.  The adjacency form makes each query
        # O(degree).  The weights are whole numbers, so no sum below
        # depends on the order of its terms.
        adjacency: Dict[int, List[Tuple[int, float]]] = {
            q: [(other, w) for other, w in enumerate(row) if w]
            for q, row in enumerate(counts.tolist())
        }

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
        """Connect the block's active region, then synthesize its strings.
        A block of identity strings only has nothing to synthesize."""
        if not block.active_qubits:
            return
        positions = {self.layout.physical(q) for q in block.active_qubits}
        if positions & forbidden:
            raise ValueError("block overlaps a protected region")
        self._gather(positions, forbidden, root=self._select_root(block))
        self._synthesize_block(block, forbidden)

    def _try_parallel_block(self, block: PauliBlock, protected: FrozenSet[int]) -> bool:
        """Speculatively synthesize a small block without touching the
        primary block's qubits; roll back and defer on failure."""
        recorded = len(self._columns[0])
        layout_before = self.layout.copy()
        emitted_before = len(self.emitted)
        swaps_before = self.transition_swaps
        try:
            self._process_block(block, protected)
            return True
        except ValueError:
            for column in self._columns:
                del column[recorded:]
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
        root: Optional[int] = None,
    ) -> FrozenSet[int]:
        """Persistently SWAP active qubits until they form one connected
        component of the coupling graph; returns the final positions.

        ``active`` is mutated to the final positions.  Each round pulls the
        nearest outside qubit into the sink component along the cheapest
        (error-weighted) path.  The first round's sink is the component
        holding the position ``root``, when given; every other sink is the
        largest component.  Raises ``ValueError`` when ``forbidden``
        nodes make connection impossible.
        """
        positions = frozenset(active)
        if len(active) <= 1 or positions in self._connected:
            return positions
        # Qubits outside the allowed region: forbidden ones, unless they
        # held an active qubit when the gather began.
        blocked = forbidden - active
        while True:
            # A fresh set built from ``active``'s iteration order, as a
            # subgraph view's node filter is: component order follows it.
            components = self.coupling.components(set(q for q in active))
            if len(components) <= 1:
                positions = frozenset(active)
                self._connected.add(positions)
                return positions
            if root is not None:
                sink = next(set(c) for c in components if root in c)
            else:
                sink = max(components, key=len)
            root = None  # only the first round honours the root
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
        if self._uniform_cost is None:
            distances, pred = dijkstra(
                self._costs, set(sink), blocked=blocked, targets=outside
            )
        else:
            distances, pred = uniform_dijkstra(
                self._costs, self._uniform_cost, set(sink), blocked, outside
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
        supports = [string.support for string, _ in remaining]
        lex_keys = [string.lex_key() for string, _ in remaining]
        previous: Optional[PauliString] = None
        priced_at = None
        while remaining:
            if priced_at != self.transition_swaps:
                # Only gather swaps move the mapping; re-price after them.
                priced_at = self.transition_swaps
                hops = [self._hop_sum(support) for support in supports]

            def key(i):
                overlap = (previous.overlap(remaining[i][0])
                           if previous is not None else 0)
                return (hops[i], -overlap, lex_keys[i])

            i = min(range(len(remaining)), key=key)
            string, coefficient = remaining.pop(i)
            support = supports.pop(i)
            del hops[i], lex_keys[i]
            self._synthesize_string(string, support, coefficient, forbidden)
            self.emitted.append((string, coefficient))
            previous = string

    def _hop_sum(self, logicals: Sequence[int]) -> int:
        """Cumulative pairwise hop distance of logical qubits under the
        current mapping (Algorithm 3 line 22's cumulative distance)."""
        return self.coupling.pairwise_distance(
            [self.layout.physical(q) for q in logicals]
        )

    def _synthesize_string(
        self, string: PauliString, support: Sequence[int], coefficient: float,
        forbidden: FrozenSet[int],
    ) -> None:
        """Gather the string's qubits, then emit the parity sandwich."""
        physical = self.layout.physical
        active = {physical(q) for q in support}
        positions = self._gather(active, forbidden)

        basis_ops: List[int] = []
        basis_wires: List[int] = []
        for logical in support:
            code = string.code_at(logical)
            if code != ops.Z:
                basis_ops.append(_OP_H if code == ops.X else _OP_YH)
                basis_wires.append(physical(logical))
        if len(positions) == 1:
            root, controls, targets = next(iter(positions)), [], []
        else:
            root, controls, targets = self._tree(positions)
        # Column by column: basis changes, CNOTs leaf to root, the rotation
        # on the root, then the mirror image.
        basis, cnots = len(basis_ops), len(controls)
        op, q0, q1, param = self._columns
        op += basis_ops
        op += [_OP_CX] * cnots
        op.append(_OP_RZ)
        op += [_OP_CX] * cnots
        op += reversed(basis_ops)
        q0 += basis_wires
        q0 += controls
        q0.append(root)
        q0 += reversed(controls)
        q0 += reversed(basis_wires)
        q1 += [NO_SLOT] * basis
        q1 += targets
        q1.append(NO_SLOT)
        q1 += reversed(targets)
        q1 += [NO_SLOT] * basis
        param += [0.0] * (basis + cnots)
        param.append(-2.0 * coefficient)
        param += [0.0] * (cnots + basis)

    def _tree(self, positions: FrozenSet[int]) -> Tuple[int, List[int], List[int]]:
        """The sandwich over connected ``positions``: its root, the centre
        of their subgraph (which minimizes the CNOT-tree depth), and the
        controls and targets of its CNOTs, leaf to root."""
        tree = self._trees.get(positions)
        if tree is None:
            embedded = EmbeddedTree.bfs(
                self.coupling, sorted(positions), self.coupling.centre(positions)
            )
            leaves = [node for node in embedded.nodes_by_depth_desc()
                      if node != embedded.root]
            tree = self._trees[positions] = (
                embedded.root, leaves, [embedded.parent[n] for n in leaves])
        return tree

    # -- bookkeeping -------------------------------------------------------
    def _emit_swap(self, a: int, b: int, transition: bool) -> None:
        op, q0, q1, param = self._columns
        op.append(_OP_SWAP)
        q0.append(a)
        q1.append(b)
        param.append(0.0)
        self.layout.swap_physical(a, b)
        if transition:
            self.transition_swaps += 1


def _interaction_counts(schedule: Schedule, num_logical: int) -> np.ndarray:
    """How many of the schedule's strings act on each pair of logical
    qubits: ``S.T @ S`` with its diagonal zeroed, ``S`` the strings x
    qubits 0/1 incidence matrix, summed over row chunks.  The counts are
    whole numbers, exact in float64."""
    codes = [ws.string.codes for layer in schedule for block in layer
             for ws in block]
    counts = np.zeros((num_logical, num_logical))
    for start in range(0, len(codes), _INCIDENCE_ROWS):
        chunk = codes[start:start + _INCIDENCE_ROWS]
        incidence = np.frombuffer(b"".join(chunk), dtype=np.uint8).reshape(
            len(chunk), -1) != 0
        width = incidence.shape[1]
        incidence = incidence.astype(np.float64)
        counts[:width, :width] += incidence.T @ incidence
    np.fill_diagonal(counts, 0.0)
    return counts


def _check_operands(num_qubits: int, op: List[int], q0: List[int],
                    q1: List[int]) -> None:
    """The circuit builders' operand checks, once over the columns: every
    qubit in range and no two-qubit gate on one qubit twice.  Raises the
    builders' ``ValueError`` for the first gate that fails."""
    if not q0 or (min(q0) >= 0 and max(q0) < num_qubits
                  and min(q1) >= NO_SLOT and max(q1) < num_qubits
                  and not any(map(operator.eq, q0, q1))):
        return
    for name, a, b in zip(map(OPCODES.__getitem__, op), q0, q1):
        for qubit in (a, b) if b != NO_SLOT else (a,):
            if not 0 <= qubit < num_qubits:
                raise ValueError(f"qubit {qubit} out of range for a "
                                 f"{num_qubits}-qubit circuit")
        if a == b:
            raise ValueError(f"gate {name!r} applied to duplicate qubits {(a, b)}")


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
