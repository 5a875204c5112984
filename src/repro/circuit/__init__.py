"""Gate-level circuit substrate: gates, circuits, exact simulation."""

from .circuit import QuantumCircuit
from .gates import Gate, gate_matrix, inverse_gate
from .qasm import from_qasm, to_qasm
from .tape import GateTape
from .statevector import (
    apply_gate,
    circuit_unitary,
    equivalent_up_to_global_phase,
    simulate,
)

__all__ = [
    "Gate",
    "GateTape",
    "QuantumCircuit",
    "from_qasm",
    "to_qasm",
    "apply_gate",
    "circuit_unitary",
    "equivalent_up_to_global_phase",
    "gate_matrix",
    "inverse_gate",
    "simulate",
]
