"""A minimal but complete quantum circuit container.

:class:`QuantumCircuit` keeps the ordered-gate-list API (builder methods,
depth and gate-count metrics, composition/inversion, SWAP decomposition)
but stores gates on a columnar :class:`~repro.circuit.tape.GateTape`:
structure-of-arrays opcode/qubit/param columns with persistent per-wire
successor/predecessor links.  Metrics read the tape's running counters in
O(1), and the transpile passes (worklist peephole engine, SABRE router)
consume the wire links directly instead of re-deriving position tables.
It is the common target of the Paulihedral passes and every baseline
compiler in this repository.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .gates import OP, OP_INVERSE, OP_ROTATION, OPCODES, OP_SINGLE, Gate
from .tape import NO_SLOT, GateTape

__all__ = ["QuantumCircuit"]

_OP_H = OP["h"]
_OP_X = OP["x"]
_OP_Y = OP["y"]
_OP_Z = OP["z"]
_OP_S = OP["s"]
_OP_SDG = OP["sdg"]
_OP_YH = OP["yh"]
_OP_RX = OP["rx"]
_OP_RY = OP["ry"]
_OP_RZ = OP["rz"]
_OP_CX = OP["cx"]
_OP_CZ = OP["cz"]
_OP_SWAP = OP["swap"]


class QuantumCircuit:
    """An ordered sequence of gates on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, name: str = ""):
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._tape = GateTape(self.num_qubits)
        #: Per-slot Gate cache (lazily materialized from the tape columns).
        self._slot_gates: List[Optional[Gate]] = []
        #: Dense list of live gates in order; None when stale.
        self._dense: Optional[List[Gate]] = None

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def _check_1q(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(
                f"qubit {qubit} out of range for a {self.num_qubits}-qubit circuit"
            )

    def _push(self, op: int, q0: int, q1: int, param: float,
              gate: Optional[Gate]) -> "QuantumCircuit":
        self._tape.append(op, q0, q1, param)
        self._slot_gates.append(gate)
        self._dense = None
        return self

    def append(self, gate: Gate) -> "QuantumCircuit":
        for q in gate.qubits:
            self._check_1q(q)
        qubits = gate.qubits
        q1 = qubits[1] if len(qubits) == 2 else NO_SLOT
        param = gate.params[0] if gate.params else 0.0
        return self._push(OP[gate.name], qubits[0], q1, param, gate)

    def h(self, qubit: int) -> "QuantumCircuit":
        self._check_1q(qubit)
        return self._push(_OP_H, qubit, NO_SLOT, 0.0, None)

    def x(self, qubit: int) -> "QuantumCircuit":
        self._check_1q(qubit)
        return self._push(_OP_X, qubit, NO_SLOT, 0.0, None)

    def y(self, qubit: int) -> "QuantumCircuit":
        self._check_1q(qubit)
        return self._push(_OP_Y, qubit, NO_SLOT, 0.0, None)

    def z(self, qubit: int) -> "QuantumCircuit":
        self._check_1q(qubit)
        return self._push(_OP_Z, qubit, NO_SLOT, 0.0, None)

    def s(self, qubit: int) -> "QuantumCircuit":
        self._check_1q(qubit)
        return self._push(_OP_S, qubit, NO_SLOT, 0.0, None)

    def sdg(self, qubit: int) -> "QuantumCircuit":
        self._check_1q(qubit)
        return self._push(_OP_SDG, qubit, NO_SLOT, 0.0, None)

    def yh(self, qubit: int) -> "QuantumCircuit":
        """Y-basis Hadamard (self-inverse, maps Y <-> Z)."""
        self._check_1q(qubit)
        return self._push(_OP_YH, qubit, NO_SLOT, 0.0, None)

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        self._check_1q(qubit)
        return self._push(_OP_RX, qubit, NO_SLOT, float(theta), None)

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        self._check_1q(qubit)
        return self._push(_OP_RY, qubit, NO_SLOT, float(theta), None)

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        self._check_1q(qubit)
        return self._push(_OP_RZ, qubit, NO_SLOT, float(theta), None)

    def _check_2q(self, a: int, b: int, name: str) -> None:
        self._check_1q(a)
        self._check_1q(b)
        if a == b:
            raise ValueError(f"gate {name!r} applied to duplicate qubits {(a, b)}")

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        self._check_2q(control, target, "cx")
        return self._push(_OP_CX, control, target, 0.0, None)

    def cz(self, a: int, b: int) -> "QuantumCircuit":
        self._check_2q(a, b, "cz")
        return self._push(_OP_CZ, a, b, 0.0, None)

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        self._check_2q(a, b, "swap")
        return self._push(_OP_SWAP, a, b, 0.0, None)

    def extend(self, gates: Iterable[Gate]) -> "QuantumCircuit":
        for gate in gates:
            self.append(gate)
        return self

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Append another circuit's gates (same qubit count required)."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit-count mismatch in compose")
        # A snapshot of the live rows first: ``other`` may be this circuit.
        gates = list(compress(other._slot_gates, other._tape.alive))
        self._tape.extend(other._tape)
        self._slot_gates.extend(gates)
        self._dense = None
        return self

    # ------------------------------------------------------------------
    # Tape access (compiler passes read/adopt the columnar storage)
    # ------------------------------------------------------------------
    @property
    def tape(self) -> GateTape:
        """The underlying columnar tape (read-only for external callers)."""
        return self._tape

    @classmethod
    def from_tape(cls, tape: GateTape, name: str = "") -> "QuantumCircuit":
        """Adopt a tape produced by a pass (compacted, all rows live)."""
        out = cls(tape.num_qubits, name=name)
        out._tape = tape
        out._slot_gates = [None] * len(tape.op)
        return out

    def _materialize(self) -> List[Gate]:
        """Dense list of live gates, materializing Gate records lazily."""
        if self._dense is None:
            tape = self._tape
            slot_gates = self._slot_gates
            dense: List[Gate] = []
            for slot in tape.iter_slots():
                gate = slot_gates[slot]
                if gate is None:
                    gate = tape.gate_at(slot)
                    slot_gates[slot] = gate
                dense.append(gate)
            self._dense = dense
        return self._dense

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def gates(self) -> Tuple[Gate, ...]:
        return tuple(self._materialize())

    def __len__(self) -> int:
        return self._tape.alive_count

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def count_ops(self) -> Dict[str, int]:
        return {
            OPCODES[op]: count
            for op, count in enumerate(self._tape.counts)
            if count
        }

    @property
    def cnot_count(self) -> int:
        """CNOT count with SWAP expanded as 3 CNOTs (hardware convention)."""
        counts = self._tape.counts
        return counts[_OP_CX] + 3 * counts[_OP_SWAP] + counts[_OP_CZ]

    @property
    def single_qubit_count(self) -> int:
        counts = self._tape.counts
        return sum(counts[op] for op in OP_SINGLE)

    @property
    def two_qubit_count(self) -> int:
        counts = self._tape.counts
        return counts[_OP_CX] + counts[_OP_CZ] + counts[_OP_SWAP]

    @property
    def size(self) -> int:
        return self._tape.alive_count

    def depth(self, swap_depth: int = 1) -> int:
        """Circuit depth counting every gate as one time step.

        ``swap_depth=3`` charges each SWAP three steps on both wires,
        matching ``decompose_swaps().depth()`` without building the
        expanded circuit.
        """
        tape = self._tape
        level = [0] * self.num_qubits
        depth = 0
        ops, q0s, q1s = tape.op, tape.q0, tape.q1
        for slot in tape.iter_slots():
            a = q0s[slot]
            b = q1s[slot]
            cost = swap_depth if ops[slot] == _OP_SWAP else 1
            if b == NO_SLOT:
                finish = level[a] + cost
                level[a] = finish
            else:
                la, lb = level[a], level[b]
                finish = (la if la >= lb else lb) + cost
                level[a] = finish
                level[b] = finish
            if finish > depth:
                depth = finish
        return depth

    def two_qubit_depth(self) -> int:
        """Depth counting only two-qubit gates (single-qubit gates are free)."""
        tape = self._tape
        level = [0] * self.num_qubits
        depth = 0
        q0s, q1s = tape.q0, tape.q1
        for slot in tape.iter_slots():
            b = q1s[slot]
            if b == NO_SLOT:
                continue
            a = q0s[slot]
            la, lb = level[a], level[b]
            finish = (la if la >= lb else lb) + 1
            level[a] = finish
            level[b] = finish
            if finish > depth:
                depth = finish
        return depth

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def inverse(self) -> "QuantumCircuit":
        inv = QuantumCircuit(self.num_qubits, name=f"{self.name}_dg" if self.name else "")
        tape = self._tape
        for slot in reversed(list(tape.iter_slots())):
            op, q0, q1, param = tape.row(slot)
            if op in OP_ROTATION:
                inv._push(op, q0, q1, -float(param), None)
            else:
                inv._push(OP_INVERSE[op], q0, q1, 0.0, None)
        return inv

    def decompose_swaps(self) -> "QuantumCircuit":
        """Rewrite every SWAP as three CNOTs (for hardware-level metrics)."""
        out = QuantumCircuit(self.num_qubits, name=self.name)
        tape = self._tape
        for slot in tape.iter_slots():
            op, q0, q1, param = tape.row(slot)
            if op == _OP_SWAP:
                out._push(_OP_CX, q0, q1, 0.0, None)
                out._push(_OP_CX, q1, q0, 0.0, None)
                out._push(_OP_CX, q0, q1, 0.0, None)
            else:
                out._push(op, q0, q1, param, self._slot_gates[slot])
        return out

    def copy(self) -> "QuantumCircuit":
        out = QuantumCircuit.__new__(QuantumCircuit)
        out.num_qubits = self.num_qubits
        out.name = self.name
        out._tape = self._tape.copy()
        out._slot_gates = list(self._slot_gates)
        out._dense = self._dense
        return out

    def remap_qubits(self, mapping: Dict[int, int], num_qubits: Optional[int] = None) -> "QuantumCircuit":
        """Relabel qubits via ``mapping`` (old index -> new index)."""
        out = QuantumCircuit(num_qubits or self.num_qubits, name=self.name)
        tape = self._tape
        for slot in tape.iter_slots():
            op, q0, q1, param = tape.row(slot)
            new_q0 = mapping[q0]
            new_q1 = mapping[q1] if q1 != NO_SLOT else NO_SLOT
            out._check_1q(new_q0)
            if new_q1 != NO_SLOT:
                out._check_2q(new_q0, new_q1, OPCODES[op])
            out._push(op, new_q0, new_q1, param, None)
        return out

    # ------------------------------------------------------------------
    # Pretty printing
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"QuantumCircuit{tag}(qubits={self.num_qubits}, gates={len(self)}, "
            f"depth={self.depth()})"
        )

    def to_text(self) -> str:
        """One gate per line, assembly style."""
        return "\n".join(repr(g) for g in self._materialize())
