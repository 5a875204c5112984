"""SABRE-style swap routing.

Maps a logical circuit onto a coupling-constrained device by inserting SWAP
gates.  This is the generic qubit-mapping stage of the baseline compilers
(the paper routes TK/naive output through "Qiskit_L3", whose router is
SABRE); Paulihedral's own SC pass avoids most of this cost by construction.

The heuristic follows Li, Ding & Xie (ASPLOS 2019): a front layer of blocked
two-qubit gates, a lookahead ("extended") set, per-qubit decay to spread
swaps, and the distance-sum score.

Bookkeeping reads the circuit's columnar tape: the per-wire sequences and
each gate's position on its wires are taken once from the tape links, the
front layer is maintained incrementally as gates are emitted (instead of
re-scanning every wire per step), and swap candidates are scored against
a flat logical-to-physical array with no per-candidate layout copies.  The
decision sequence — and therefore the routed circuit — is identical to the
seed implementation kept in ``tests/oracles/transpile.py``, which the
tests assert gate-for-gate.
"""

from __future__ import annotations

import math

from typing import Dict, List, Optional, Set, Tuple

from ..circuit import QuantumCircuit
from ..circuit.gates import OP
from ..circuit.tape import NO_SLOT, GateTape
from .coupling import CouplingMap, dijkstra
from .layout import Layout, dense_initial_layout

__all__ = [
    "route",
    "RoutingResult",
    "validate_routed",
    "reliability_cost_matrix",
]

_EXTENDED_SIZE = 20
_EXTENDED_WEIGHT = 0.5
_DECAY_STEP = 0.001
_DECAY_RESET_INTERVAL = 5

_OP_SWAP = OP["swap"]


def reliability_cost_matrix(
    coupling: CouplingMap,
    edge_error: Optional[Dict[Tuple[int, int], float]],
) -> Optional[List[List[float]]]:
    """All-pairs reliability cost, or ``None`` when there is no signal.

    Each edge is weighted by the cost of one SWAP across it,
    ``3 * -log(1 - e)`` (a SWAP is 3 CNOTs), so the Dijkstra path sum
    between two qubits is ``-log`` of the probability that a swap chain
    along the most reliable path succeeds — minimizing the sum maximizes
    the product of success probabilities (the qiskit-terra
    ``NoiseAdaptiveLayout`` swap-reliability idiom, paper Section 5.2).

    Returns ``None`` for an empty/absent ``edge_error`` or a *uniform* one
    (every edge the same rate): a uniform model cannot prefer one
    equal-hop path over another, and falling back to the exact integer
    hop matrix keeps the router gate-identical to the distance-only
    reference in that case.  Coupled edges missing from ``edge_error``
    pessimistically get the worst calibrated rate.  A rate outside
    ``[0, 1)`` raises ``ValueError`` naming the edge.
    """
    if not edge_error:
        return None
    rates = {round(r, 12) for r in edge_error.values()}
    if len(rates) <= 1:
        return None
    worst = max(edge_error.values())

    def swap_cost(a: int, b: int) -> float:
        edge = (a, b) if a < b else (b, a)
        rate = edge_error.get(edge, worst)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"edge {edge} error rate {rate!r} outside [0, 1)")
        return 3.0 * -math.log(1.0 - rate)

    arcs = coupling.arc_table(swap_cost)
    n = coupling.num_qubits
    cost = []
    for src in range(n):
        row = [math.inf] * n
        for dst, d in dijkstra(arcs, (src,))[0].items():
            row[dst] = d
        cost.append(row)
    return cost


class RoutingResult:
    """Output of :func:`route`: the physical circuit plus layout history."""

    def __init__(
        self,
        circuit: QuantumCircuit,
        initial_layout: Layout,
        final_layout: Layout,
        swap_count: int,
    ):
        self.circuit = circuit
        self.initial_layout = initial_layout
        self.final_layout = final_layout
        self.swap_count = swap_count


#: Weight of the (normalized) reliability term in the hybrid swap-scoring
#: matrix: hop distance stays the primary objective, reliability breaks
#: near-ties toward low-error corridors.  Larger blends let the router
#: chase cheap edges instead of making progress, which bloats swap counts
#: and loses more fidelity than the better edges recover.
_RELIABILITY_BLEND = 0.05


def _hybrid_cost_matrix(
    coupling: CouplingMap, rel: List[List[float]]
) -> List[List[float]]:
    """Hop distance plus a small normalized reliability term.

    The reliability matrix is rescaled so one mean-cost hop contributes
    ``_RELIABILITY_BLEND``: a full hop of extra distance always outweighs
    any realistic reliability spread, so the router keeps SABRE's progress
    behaviour and only *prefers* the reliable path among comparable ones.
    """
    hop = coupling.distance_matrix()
    edge_costs = [rel[a][b] for a, b in coupling.edges]
    mean = sum(edge_costs) / len(edge_costs)
    scale = _RELIABILITY_BLEND / mean
    n = coupling.num_qubits
    return [
        [hop[a][b] + scale * rel[a][b] for b in range(n)]
        for a in range(n)
    ]


def _two_qubit_cost(
    circuit: QuantumCircuit,
    edge_error: Dict[Tuple[int, int], float],
) -> float:
    """``-log`` of the routed circuit's two-qubit success product.

    The portfolio selection metric: computable from ``edge_error`` alone
    (no full noise model needed inside the router), dominated by exactly
    the terms routing controls — which coupled edges carry the CNOTs and
    how many SWAPs were spent.
    """
    worst = max(edge_error.values())
    total = 0.0
    tape = circuit.tape
    for slot in tape.iter_slots():
        q1 = tape.q1[slot]
        if q1 == NO_SLOT:
            continue
        q0 = tape.q0[slot]
        edge = (q0, q1) if q0 < q1 else (q1, q0)
        rate = edge_error.get(edge, worst)
        if rate >= 1.0:
            return float("inf")
        cost = -math.log(1.0 - rate)
        total += 3.0 * cost if tape.op[slot] == _OP_SWAP else cost
    return total


def route(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    initial_layout: Optional[Layout] = None,
    edge_error: Optional[Dict[Tuple[int, int], float]] = None,
) -> RoutingResult:
    """Insert SWAPs so every two-qubit gate touches a coupled pair.

    The returned circuit acts on *physical* qubits (``coupling.num_qubits``
    wide).

    With ``edge_error`` (per-edge two-qubit error rates), the router runs
    a small deterministic portfolio — plain and reliability-seeded dense
    layouts, each scored by plain hop distance and by the hybrid
    hop+reliability matrix — and keeps the variant whose routed circuit
    has the lowest two-qubit failure cost.  The distance-only baseline is
    always in the portfolio, so the noise-aware result is never less
    reliable than it.  When ``edge_error`` is absent (or uniform, i.e.
    carries no signal) the decision sequence is bit-identical to the
    historical distance-only router, which the reference tests assert
    gate-for-gate.
    """
    if not coupling.is_fully_connected:
        raise ValueError(
            f"coupling map {coupling.name or '<anonymous>'} is disconnected; "
            f"routing cannot bridge isolated components"
        )
    rel = reliability_cost_matrix(coupling, edge_error)
    if rel is None:
        if initial_layout is None:
            initial_layout = dense_initial_layout(coupling, circuit.num_qubits)
        return _route_with(circuit, coupling, initial_layout, None)

    hybrid = _hybrid_cost_matrix(coupling, rel)
    if initial_layout is not None:
        layouts = [initial_layout]
    else:
        plain = dense_initial_layout(coupling, circuit.num_qubits)
        seeded = dense_initial_layout(
            coupling, circuit.num_qubits, edge_error=edge_error
        )
        layouts = [plain] if seeded == plain else [plain, seeded]
    best: Optional[RoutingResult] = None
    best_cost = float("inf")
    # Baseline (first layout, hop distance) is tried first; strict `<`
    # keeps it on ties, so the portfolio can only improve on it.
    for layout in layouts:
        for dist in (None, hybrid):
            result = _route_with(circuit, coupling, layout, dist)
            cost = _two_qubit_cost(result.circuit, edge_error)
            if cost < best_cost:
                best = result
                best_cost = cost
    assert best is not None
    return best


def _route_with(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    initial_layout: Layout,
    cost: Optional[List[List[float]]],
) -> RoutingResult:
    """One SABRE pass with a fixed layout and distance matrix (``cost``
    ``None`` means the exact integer hop matrix — the seed-identical
    path)."""
    layout = initial_layout.copy()
    # The routed circuit is accumulated as raw columns and adopted as a
    # tape in one shot at the end (per-gate appends would dominate).
    out_op: List[int] = []
    out_q0: List[int] = []
    out_q1: List[int] = []
    out_param: List[float] = []

    # Dense row view of the logical circuit, straight off the tape.
    tape = circuit.tape
    ops: List[int] = []
    gq0: List[int] = []
    gq1: List[int] = []
    gparam: List[float] = []
    for slot in tape.iter_slots():
        op, q0, q1, param = tape.row(slot)
        ops.append(op)
        gq0.append(q0)
        gq1.append(q1)
        gparam.append(param)
    n = len(ops)
    num_logical = circuit.num_qubits

    # Per-wire sequences plus each gate's position on its wires, derived
    # once (the tape keeps gates wire-linked, so this is a single walk).
    per_qubit: List[List[int]] = [[] for _ in range(num_logical)]
    pos0 = [0] * n
    pos1 = [0] * n
    for i in range(n):
        seq = per_qubit[gq0[i]]
        pos0[i] = len(seq)
        seq.append(i)
        q1 = gq1[i]
        if q1 != NO_SLOT:
            seq = per_qubit[q1]
            pos1[i] = len(seq)
            seq.append(i)

    cursor = [0] * num_logical
    l2p = [layout.physical(q) for q in range(num_logical)]
    p2l = [-1] * coupling.num_qubits
    for logical, physical in enumerate(l2p):
        p2l[physical] = logical
    dist = cost if cost is not None else coupling.distance_matrix()
    is_connected = coupling.is_connected
    neighbor_list = [coupling.neighbors(p) for p in range(coupling.num_qubits)]
    decay = [1.0] * coupling.num_qubits
    steps_since_reset = 0
    swap_count = 0

    # Scratch buffers for swap scoring, reset lazily via generation stamps
    # so no per-decision dict/set allocation is needed.
    touched: List[List[Tuple[int, int, int, int]]] = [[] for _ in range(coupling.num_qubits)]
    touched_stamp = [0] * coupling.num_qubits
    decision_stamp = 0

    def is_ready(idx: int) -> bool:
        if per_qubit[gq0[idx]][cursor[gq0[idx]]] != idx:
            return False
        q1 = gq1[idx]
        return q1 == NO_SLOT or per_qubit[q1][cursor[q1]] == idx

    # The ready ("front") set, maintained incrementally.  Ready gates hold
    # every wire cursor they touch, so sorting by the minimum wire
    # reproduces the seed front_layer()'s qubit-scan order exactly.
    ready: Set[int] = set()
    for q in range(num_logical):
        if per_qubit[q]:
            idx = per_qubit[q][0]
            if is_ready(idx):
                ready.add(idx)

    def front_key(idx: int) -> int:
        q1 = gq1[idx]
        q0 = gq0[idx]
        return q0 if q1 == NO_SLOT or q0 < q1 else q1

    # The extended set depends only on the front layer (not the layout),
    # so it stays valid across consecutive swap decisions; emitting any
    # gate changes the front and invalidates it.
    ext_cache: Optional[List[int]] = None

    def emit(idx: int) -> None:
        nonlocal ext_cache
        ext_cache = None
        ready.discard(idx)
        q0 = gq0[idx]
        q1 = gq1[idx]
        out_op.append(ops[idx])
        out_q0.append(l2p[q0])
        out_q1.append(NO_SLOT if q1 == NO_SLOT else l2p[q1])
        out_param.append(gparam[idx])
        cursor[q0] += 1
        if q1 != NO_SLOT:
            cursor[q1] += 1
        seq = per_qubit[q0]
        c = cursor[q0]
        if c < len(seq):
            nxt = seq[c]
            other = gq1[nxt] if gq0[nxt] == q0 else gq0[nxt]
            if other == NO_SLOT or per_qubit[other][cursor[other]] == nxt:
                ready.add(nxt)
        if q1 != NO_SLOT:
            seq = per_qubit[q1]
            c = cursor[q1]
            if c < len(seq):
                nxt = seq[c]
                other = gq1[nxt] if gq0[nxt] == q1 else gq0[nxt]
                if other == NO_SLOT or per_qubit[other][cursor[other]] == nxt:
                    ready.add(nxt)

    ext_seen = bytearray(n)

    def extended_set(front: List[int]) -> List[int]:
        # Successor two-qubit gates of the front layer, breadth-first.
        result: List[int] = []
        frontier = list(front)
        for idx in frontier:
            ext_seen[idx] = 1
        k = 0
        while k < len(frontier) and len(result) < _EXTENDED_SIZE:
            idx = frontier[k]
            k += 1
            q = gq0[idx]
            seq = per_qubit[q]
            nxt = pos0[idx] + 1
            if nxt < len(seq):
                succ = seq[nxt]
                if not ext_seen[succ]:
                    ext_seen[succ] = 1
                    if gq1[succ] != NO_SLOT:
                        result.append(succ)
                    frontier.append(succ)
            q = gq1[idx]
            if q != NO_SLOT:
                seq = per_qubit[q]
                nxt = pos1[idx] + 1
                if nxt < len(seq):
                    succ = seq[nxt]
                    if not ext_seen[succ]:
                        ext_seen[succ] = 1
                        if gq1[succ] != NO_SLOT:
                            result.append(succ)
                        frontier.append(succ)
        for idx in frontier:
            ext_seen[idx] = 0
        return result

    while ready:
        front = sorted(ready, key=front_key)
        progressed = False
        for idx in front:
            q1 = gq1[idx]
            if q1 == NO_SLOT or is_connected(l2p[gq0[idx]], l2p[q1]):
                emit(idx)
                progressed = True
        if progressed:
            continue

        # All front gates are blocked two-qubit gates: pick the best SWAP.
        blocked_physical: Set[int] = set()
        front_pairs: List[Tuple[int, int]] = []
        for idx in front:
            pa, pb = l2p[gq0[idx]], l2p[gq1[idx]]
            front_pairs.append((pa, pb))
            blocked_physical.add(pa)
            blocked_physical.add(pb)
        candidates: Set[Tuple[int, int]] = set()
        for p in blocked_physical:
            for nbr in neighbor_list[p]:
                candidates.add((p, nbr) if p < nbr else (nbr, p))
        if ext_cache is None:
            ext_cache = extended_set(front)
        ext_pairs = [(l2p[gq0[i]], l2p[gq1[i]]) for i in ext_cache]
        num_ext = len(ext_pairs)

        # Delta scoring: only pairs touching a candidate's two physical
        # qubits change distance, so each candidate adjusts the base sums
        # instead of re-walking every pair.  On the hop-distance path all
        # sums stay integers until the final float expression, which
        # matches the seed's full-recompute arithmetic bit for bit (with
        # a reliability cost matrix the sums are floats; there is no seed
        # oracle for that path, only determinism).
        decision_stamp += 1
        base_front = 0
        base_ext = 0
        for group, pairs in ((0, front_pairs), (1, ext_pairs)):
            for a, b in pairs:
                d = dist[a][b]
                if group == 0:
                    base_front += d
                else:
                    base_ext += d
                entry = (group, a, b, d)
                if touched_stamp[a] != decision_stamp:
                    touched_stamp[a] = decision_stamp
                    touched[a] = [entry]
                else:
                    touched[a].append(entry)
                if touched_stamp[b] != decision_stamp:
                    touched_stamp[b] = decision_stamp
                    touched[b] = [entry]
                else:
                    touched[b].append(entry)
        best_swap = None
        best_score = None
        for swap in sorted(candidates):
            p, r = swap
            delta_front = 0
            delta_ext = 0
            if touched_stamp[p] == decision_stamp:
                for group, a, b, old in touched[p]:
                    na = r if a == p else (p if a == r else a)
                    nb = r if b == p else (p if b == r else b)
                    diff = dist[na][nb] - old
                    if group == 0:
                        delta_front += diff
                    else:
                        delta_ext += diff
            if touched_stamp[r] == decision_stamp:
                for group, a, b, old in touched[r]:
                    if a == p or b == p:
                        continue  # counted from p's bucket already
                    na = p if a == r else a
                    nb = p if b == r else b
                    diff = dist[na][nb] - old
                    if group == 0:
                        delta_front += diff
                    else:
                        delta_ext += diff
            dp, dr = decay[p], decay[r]
            total = float(base_front + delta_front) * (dp if dp >= dr else dr)
            if num_ext:
                total += _EXTENDED_WEIGHT * float(base_ext + delta_ext) / num_ext
            if best_score is None or total < best_score:
                best_score = total
                best_swap = swap
        assert best_swap is not None, "no swap candidates on a connected device"
        p, r = best_swap
        out_op.append(_OP_SWAP)
        out_q0.append(p)
        out_q1.append(r)
        out_param.append(0.0)
        layout.swap_physical(p, r)
        lp, lr = p2l[p], p2l[r]
        p2l[p], p2l[r] = lr, lp
        if lr != -1:
            l2p[lr] = p
        if lp != -1:
            l2p[lp] = r
        swap_count += 1
        decay[p] += _DECAY_STEP
        decay[r] += _DECAY_STEP
        steps_since_reset += 1
        if steps_since_reset >= _DECAY_RESET_INTERVAL:
            decay = [1.0] * coupling.num_qubits
            steps_since_reset = 0

    out = QuantumCircuit.from_tape(
        GateTape.from_columns(coupling.num_qubits, out_op, out_q0, out_q1, out_param),
        name=circuit.name,
    )
    return RoutingResult(out, initial_layout, layout, swap_count)


def validate_routed(circuit: QuantumCircuit, coupling: CouplingMap) -> None:
    """Raise if any two-qubit gate acts on a non-coupled pair."""
    tape = circuit.tape
    for slot in tape.iter_slots():
        q1 = tape.q1[slot]
        if q1 != NO_SLOT and not coupling.is_connected(tape.q0[slot], q1):
            raise ValueError(
                f"gate {tape.gate_at(slot)!r} acts on non-adjacent qubits"
            )
