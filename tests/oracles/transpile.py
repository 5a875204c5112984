"""Seed implementations of the peephole passes and the SABRE router.

These are faithful copies of the original rebuild-the-world implementations
(mutable gate lists with per-sweep ``_wire_sequences``/position-dict
rebuilds, and the cursor-scanning router), kept as the *oracle* for the
tape-based worklist engine in :mod:`repro.transpile.peephole` and the
incremental router in :mod:`repro.transpile.routing`:

* the equivalence tests check that the new passes produce circuits
  statevector/unitary-equivalent to these (and, for the router,
  gate-for-gate identical);
* ``benchmarks/bench_kernels.py`` times the new engine against these to
  report the transpile-stage speedups.

Do not "optimize" this module — its value is being the unchanged seed
semantics.  It shares no code with the live passes so the two cannot
drift together.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.circuit import Gate, QuantumCircuit
from repro.circuit.gates import ROTATION_GATES, inverse_gate
from repro.transpile.coupling import CouplingMap
from repro.transpile.layout import Layout, dense_initial_layout

__all__ = [
    "seed_cancel_adjacent_pairs",
    "seed_merge_rotations",
    "seed_commutative_cancel",
    "seed_fuse_swap_cx",
    "seed_optimize",
    "seed_route",
]

_TWO_PI = 2.0 * math.pi

_DIAGONAL_1Q = frozenset({"z", "s", "sdg", "rz"})
_X_AXIS_1Q = frozenset({"x", "rx"})

_MERGE_AXIS = {"rz": "z", "rx": "x", "ry": "y", "z": "z", "x": "x", "y": "y",
               "s": "z", "sdg": "z", "h": "h", "yh": "yh"}

_FIXED_ANGLE = {"z": math.pi, "x": math.pi, "y": math.pi,
                "s": math.pi / 2.0, "sdg": -math.pi / 2.0}


def _wire_sequences(gates: List[Optional[Gate]]) -> Dict[int, List[int]]:
    wires: Dict[int, List[int]] = {}
    for idx, gate in enumerate(gates):
        if gate is None:
            continue
        for q in gate.qubits:
            wires.setdefault(q, []).append(idx)
    return wires


def _rebuild(circuit: QuantumCircuit, gates: List[Optional[Gate]]) -> QuantumCircuit:
    out = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    out.extend(g for g in gates if g is not None)
    return out


def seed_cancel_adjacent_pairs(circuit: QuantumCircuit) -> Tuple[QuantumCircuit, int]:
    """Seed pass: cancel gate/inverse pairs adjacent on every shared wire."""
    gates: List[Optional[Gate]] = list(circuit.gates)
    removed = 0
    changed = True
    while changed:
        changed = False
        wires = _wire_sequences(gates)
        position = {
            (idx, q): pos
            for q, seq in wires.items()
            for pos, idx in enumerate(seq)
        }
        for idx, gate in enumerate(gates):
            if gate is None:
                continue
            succ = _common_successor(gates, wires, position, idx, gate)
            if succ is None:
                continue
            partner = gates[succ]
            if partner is None:
                continue
            if partner == inverse_gate(gate) and partner.qubits == gate.qubits:
                if gate.name in ROTATION_GATES:
                    continue  # rotation pairs are handled by merge_rotations
                gates[idx] = None
                gates[succ] = None
                removed += 2
                changed = True
        if changed:
            gates = [g for g in gates if g is not None]
    return _rebuild(circuit, gates), removed


def _common_successor(gates, wires, position, idx, gate) -> Optional[int]:
    succ = None
    for q in gate.qubits:
        seq = wires[q]
        pos = position[(idx, q)]
        if pos + 1 >= len(seq):
            return None
        nxt = seq[pos + 1]
        if succ is None:
            succ = nxt
        elif succ != nxt:
            return None
    return succ


def seed_merge_rotations(circuit: QuantumCircuit) -> Tuple[QuantumCircuit, int]:
    """Seed pass: fuse adjacent same-axis 1q rotations; drop ~zero angles,
    merged or alone."""
    gates: List[Optional[Gate]] = [
        g for g in circuit.gates if not _is_zero_rotation(g)]
    removed = len(circuit.gates) - len(gates)
    changed = True
    while changed:
        changed = False
        wires = _wire_sequences(gates)
        for q, seq in wires.items():
            for pos in range(len(seq) - 1):
                i, j = seq[pos], seq[pos + 1]
                a, b = gates[i], gates[j]
                if a is None or b is None:
                    continue
                if a.num_qubits != 1 or b.num_qubits != 1:
                    continue
                merged = _merge_pair(a, b)
                if merged is None:
                    continue
                gates[i] = None
                gates[j] = merged if merged != "drop" else None
                removed += 2 if merged == "drop" else 1
                changed = True
        if changed:
            gates = [g for g in gates if g is not None]
    return _rebuild(circuit, gates), removed


def _is_zero_rotation(gate: Gate) -> bool:
    return (gate.name in ("rx", "ry", "rz")
            and abs(math.remainder(gate.params[0], _TWO_PI)) < 1e-12)


def _merge_pair(a: Gate, b: Gate):
    axis_a = _MERGE_AXIS.get(a.name)
    axis_b = _MERGE_AXIS.get(b.name)
    if axis_a is None or axis_a != axis_b:
        return None
    qubit = a.qubits
    if axis_a in ("h", "yh"):
        return "drop" if a.name == b.name else None
    angle_a = a.params[0] if a.params else _FIXED_ANGLE[a.name]
    angle_b = b.params[0] if b.params else _FIXED_ANGLE[b.name]
    total = math.remainder(angle_a + angle_b, _TWO_PI)
    if abs(total) < 1e-12:
        return "drop"
    return Gate(f"r{axis_a}", qubit, (total,))


def seed_commutative_cancel(circuit: QuantumCircuit) -> Tuple[QuantumCircuit, int]:
    """Seed pass: cancel equal CNOT pairs separated by commuting 1q gates."""
    gates: List[Optional[Gate]] = list(circuit.gates)
    removed = 0
    changed = True
    while changed:
        changed = False
        wires = _wire_sequences(gates)
        position = {
            (idx, q): pos
            for q, seq in wires.items()
            for pos, idx in enumerate(seq)
        }
        for idx, gate in enumerate(gates):
            if gate is None or gate.name != "cx":
                continue
            control, target = gate.qubits
            j_c = _next_blocking(gates, wires, position, idx, control, _DIAGONAL_1Q)
            j_t = _next_blocking(gates, wires, position, idx, target, _X_AXIS_1Q)
            if j_c is None or j_c != j_t:
                continue
            partner = gates[j_c]
            if partner is not None and partner.name == "cx" and partner.qubits == gate.qubits:
                gates[idx] = None
                gates[j_c] = None
                removed += 2
                changed = True
        if changed:
            gates = [g for g in gates if g is not None]
    return _rebuild(circuit, gates), removed


def _next_blocking(gates, wires, position, idx, qubit, transparent) -> Optional[int]:
    seq = wires[qubit]
    pos = position[(idx, qubit)]
    for nxt in seq[pos + 1:]:
        gate = gates[nxt]
        if gate is None:
            continue
        if gate.num_qubits == 1 and gate.name in transparent:
            continue
        return nxt
    return None


def seed_fuse_swap_cx(circuit: QuantumCircuit) -> Tuple[QuantumCircuit, int]:
    """Seed pass: fuse a SWAP with an adjacent CNOT on the same qubit pair."""
    gates: List[Optional[Gate]] = list(circuit.gates)
    fused = 0
    changed = True
    while changed:
        changed = False
        wires = _wire_sequences(gates)
        position = {
            (idx, q): pos
            for q, seq in wires.items()
            for pos, idx in enumerate(seq)
        }
        for idx, gate in enumerate(gates):
            if gate is None:
                continue
            succ = _common_successor(gates, wires, position, idx, gate)
            if succ is None:
                continue
            partner = gates[succ]
            if partner is None or set(partner.qubits) != set(gate.qubits):
                continue
            if gate.name == "swap" and partner.name == "cx":
                c, t = partner.qubits
                gates[idx] = Gate("cx", (c, t))
                gates[succ] = Gate("cx", (t, c))
            elif gate.name == "cx" and partner.name == "swap":
                c, t = gate.qubits
                gates[idx] = Gate("cx", (t, c))
                gates[succ] = Gate("cx", (c, t))
            else:
                continue
            fused += 1
            changed = True
            break
    return _rebuild(circuit, gates), fused


def seed_optimize(circuit: QuantumCircuit, max_rounds: int = 50) -> QuantumCircuit:
    """Seed fixpoint loop: run all four passes until none fires."""
    current = circuit
    for _ in range(max_rounds):
        total = 0
        current, n = seed_cancel_adjacent_pairs(current)
        total += n
        current, n = seed_merge_rotations(current)
        total += n
        current, n = seed_commutative_cancel(current)
        total += n
        current, n = seed_fuse_swap_cx(current)
        total += n
        if total == 0:
            break
    return current


# ----------------------------------------------------------------------
# Seed SABRE router
# ----------------------------------------------------------------------

_EXTENDED_SIZE = 20
_EXTENDED_WEIGHT = 0.5
_DECAY_STEP = 0.001
_DECAY_RESET_INTERVAL = 5


def seed_route(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    initial_layout: Optional[Layout] = None,
):
    """Seed SABRE routing; returns ``(circuit, initial_layout, final_layout,
    swap_count)``."""
    if initial_layout is None:
        initial_layout = dense_initial_layout(coupling, circuit.num_qubits)
    layout = initial_layout.copy()
    out = QuantumCircuit(coupling.num_qubits, name=circuit.name)
    gates = list(circuit.gates)
    n = len(gates)

    per_qubit: Dict[int, List[int]] = {q: [] for q in range(circuit.num_qubits)}
    for idx, gate in enumerate(gates):
        for q in gate.qubits:
            per_qubit[q].append(idx)
    cursor = {q: 0 for q in per_qubit}
    emitted = [False] * n
    decay = [1.0] * coupling.num_qubits
    steps_since_reset = 0
    swap_count = 0

    def ready(idx: int) -> bool:
        return all(
            per_qubit[q][cursor[q]] == idx for q in gates[idx].qubits
        )

    def advance(idx: int) -> None:
        for q in gates[idx].qubits:
            cursor[q] += 1

    def front_layer() -> List[int]:
        front = []
        for q, seq in per_qubit.items():
            if cursor[q] < len(seq):
                idx = seq[cursor[q]]
                if not emitted[idx] and ready(idx) and idx not in front:
                    front.append(idx)
        return front

    def emit(idx: int) -> None:
        gate = gates[idx]
        physical = tuple(layout.physical(q) for q in gate.qubits)
        out.append(Gate(gate.name, physical, gate.params))
        emitted[idx] = True
        advance(idx)

    def executable(idx: int) -> bool:
        gate = gates[idx]
        if gate.num_qubits == 1:
            return True
        p0, p1 = (layout.physical(q) for q in gate.qubits)
        return coupling.is_connected(p0, p1)

    def extended_set(front: Sequence[int]) -> List[int]:
        result: List[int] = []
        local_cursor = dict(cursor)
        frontier = list(front)
        seen: Set[int] = set(front)
        while frontier and len(result) < _EXTENDED_SIZE:
            idx = frontier.pop(0)
            for q in gates[idx].qubits:
                pos = local_cursor[q]
                seq = per_qubit[q]
                while pos < len(seq) and seq[pos] != idx:
                    pos += 1
                nxt = pos + 1
                if nxt < len(seq):
                    succ = seq[nxt]
                    if succ not in seen:
                        seen.add(succ)
                        if gates[succ].num_qubits == 2:
                            result.append(succ)
                        frontier.append(succ)
        return result

    def score(front: Sequence[int], ext: Sequence[int], trial: Layout, swap: Tuple[int, int]) -> float:
        total = 0.0
        for idx in front:
            q0, q1 = gates[idx].qubits
            total += coupling.distance(trial.physical(q0), trial.physical(q1))
        total *= max(decay[swap[0]], decay[swap[1]])
        if ext:
            ext_sum = 0.0
            for idx in ext:
                q0, q1 = gates[idx].qubits
                ext_sum += coupling.distance(trial.physical(q0), trial.physical(q1))
            total += _EXTENDED_WEIGHT * ext_sum / len(ext)
        return total

    while True:
        front = front_layer()
        if not front:
            break
        progressed = False
        for idx in list(front):
            if executable(idx):
                emit(idx)
                progressed = True
        if progressed:
            continue

        front = front_layer()
        blocked_physical: Set[int] = set()
        for idx in front:
            for q in gates[idx].qubits:
                blocked_physical.add(layout.physical(q))
        candidates: Set[Tuple[int, int]] = set()
        for p in blocked_physical:
            for nbr in coupling.neighbors(p):
                candidates.add(tuple(sorted((p, nbr))))
        ext = extended_set(front)
        best_swap = None
        best_score = None
        for swap in sorted(candidates):
            trial = layout.copy()
            trial.swap_physical(*swap)
            s = score(front, ext, trial, swap)
            if best_score is None or s < best_score:
                best_score = s
                best_swap = swap
        assert best_swap is not None, "no swap candidates on a connected device"
        out.append(Gate("swap", best_swap))
        layout.swap_physical(*best_swap)
        swap_count += 1
        decay[best_swap[0]] += _DECAY_STEP
        decay[best_swap[1]] += _DECAY_STEP
        steps_since_reset += 1
        if steps_since_reset >= _DECAY_RESET_INTERVAL:
            decay = [1.0] * coupling.num_qubits
            steps_since_reset = 0

    return out, initial_layout, layout, swap_count
