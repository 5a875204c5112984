"""Statevector simulation of circuits.

Little-endian convention throughout: basis state index ``b`` assigns qubit
``i`` the bit ``(b >> i) & 1``.  This matches the Pauli-string convention
where the label's rightmost character acts on ``q0``.

The simulator is exact and dense; it is meant for verification (<= ~16
qubits) and for the noisy QAOA study, not for large-scale simulation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .circuit import QuantumCircuit
from .gates import Gate, gate_matrix, matrix_for_op
from .tape import NO_SLOT

__all__ = ["apply_gate", "simulate", "circuit_unitary", "equivalent_up_to_global_phase"]


def _apply_single(state: np.ndarray, matrix: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Apply a 2x2 matrix to ``qubit`` of a dense state."""
    # Reshape so the target qubit becomes its own axis.  With little-endian
    # indexing, axis k of shape (2,)*n (C order) corresponds to qubit n-1-k.
    tensor = state.reshape((2,) * num_qubits)
    axis = num_qubits - 1 - qubit
    tensor = np.moveaxis(tensor, axis, 0)
    tensor = np.tensordot(matrix, tensor, axes=([1], [0]))
    tensor = np.moveaxis(tensor, 0, axis)
    return tensor.reshape(-1)


def _apply_two(state: np.ndarray, matrix: np.ndarray, q0: int, q1: int, num_qubits: int) -> np.ndarray:
    """Apply a 4x4 matrix (basis ``|q1 q0>``) to qubits ``q0``, ``q1``."""
    tensor = state.reshape((2,) * num_qubits)
    axis0 = num_qubits - 1 - q0
    axis1 = num_qubits - 1 - q1
    # Move q1 to axis 0 and q0 to axis 1 so the combined index is q1*2 + q0.
    tensor = np.moveaxis(tensor, (axis1, axis0), (0, 1))
    shape = tensor.shape
    tensor = tensor.reshape(4, -1)
    tensor = matrix @ tensor
    tensor = tensor.reshape(shape)
    tensor = np.moveaxis(tensor, (0, 1), (axis1, axis0))
    return tensor.reshape(-1)


def apply_gate(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply one gate to a dense statevector, returning a new array."""
    matrix = gate_matrix(gate)
    if gate.num_qubits == 1:
        return _apply_single(state, matrix, gate.qubits[0], num_qubits)
    q0, q1 = gate.qubits
    return _apply_two(state, matrix, q0, q1, num_qubits)


def simulate(
    circuit: QuantumCircuit,
    initial_state: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Run a circuit on ``initial_state`` (default ``|0...0>``)."""
    dim = 2 ** circuit.num_qubits
    if initial_state is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
    else:
        state = np.asarray(initial_state, dtype=complex)
        if state.shape != (dim,):
            raise ValueError(f"initial state must have shape ({dim},)")
        state = state.copy()
    # Walk the tape columns directly: simulation needs only (op, qubits,
    # angle) per row, so no Gate records are materialized.
    tape = circuit.tape
    num_qubits = circuit.num_qubits
    for slot in tape.iter_slots():
        op, q0, q1, param = tape.row(slot)
        matrix = matrix_for_op(op, param)
        if q1 == NO_SLOT:
            state = _apply_single(state, matrix, q0, num_qubits)
        else:
            state = _apply_two(state, matrix, q0, q1, num_qubits)
    return state


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Dense unitary of a circuit.  Only sensible for small circuits."""
    if circuit.num_qubits > 12:
        raise ValueError("refusing to build a dense unitary for > 12 qubits")
    dim = 2 ** circuit.num_qubits
    out = np.eye(dim, dtype=complex)
    for col in range(dim):
        out[:, col] = simulate(circuit, out[:, col].copy())
    return out


def equivalent_up_to_global_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> bool:
    """True when two matrices (or vectors) are equal up to a global phase.

    A (near-)zero input has no well-defined phase, so it is never
    equivalent to anything — not even another zero array.  Meaningful
    inputs (statevectors, unitaries) have norm >= 1; an all-zero array
    here means an upstream bug, and an equivalence oracle must fail loudly
    rather than vacuously certify it.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    flat_a = a.reshape(-1)
    flat_b = b.reshape(-1)
    if np.linalg.norm(flat_a) <= atol or np.linalg.norm(flat_b) <= atol:
        return False
    # norm > atol guarantees the largest |a| element is non-zero, so the
    # phase estimate below is always well-defined; a genuinely different b
    # fails either the |phase| == 1 check or the final allclose.
    idx = int(np.argmax(np.abs(flat_a)))
    phase = flat_b[idx] / flat_a[idx]
    if not np.isclose(abs(phase), 1.0, atol=atol):
        return False
    return bool(np.allclose(flat_a * phase, flat_b, atol=atol))
