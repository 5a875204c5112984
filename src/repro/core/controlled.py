"""Controlled quantum simulation kernels: ``controlled-exp(i c P)``.

The paper's Section 2.2 defines the simulation kernel as implementing
"(controlled-)exp(iHt)"; the controlled form is what phase estimation and
amplitude-estimation style algorithms consume (Section 7 names phase
estimation as the natural extension target).

Making a Pauli rotation controlled only touches the *central* ``Rz``: the
basis changes and CNOT trees are self-inverse bookkeeping that cancels when
the control is off, so ``c-exp(-i a/2 P)`` is the same sandwich with the
``Rz(a)`` replaced by a controlled ``Rz`` — decomposed here into
``rz(a/2); cx; rz(-a/2); cx``.  Paulihedral's scheduling and junction
cancellation therefore carry over unchanged: only rotations differ.
"""

from __future__ import annotations

from typing import List, Optional

from ..circuit import Gate, QuantumCircuit
from ..ir import PauliProgram
from ..pauli import PauliString
from .synthesis import (
    SynthesisPlan,
    aligned_chain_plan,
    better_neighbor,
    chain_plan,
    pauli_rotation_gates,
)

__all__ = [
    "controlled_rz_gates",
    "controlled_pauli_rotation_gates",
    "controlled_pauli_evolution_circuit",
    "controlled_program_circuit",
]


def controlled_rz_gates(angle: float, control: int, target: int) -> List[Gate]:
    """``CRz(angle)`` on ``(control, target)`` as basic gates.

    ``Rz(a/2) . CX . Rz(-a/2) . CX`` (target rotations), exact up to global
    phase.
    """
    return [
        Gate("rz", (target,), (angle / 2.0,)),
        Gate("cx", (control, target)),
        Gate("rz", (target,), (-angle / 2.0,)),
        Gate("cx", (control, target)),
    ]


def controlled_pauli_rotation_gates(
    string: PauliString,
    angle: float,
    control: int,
    plan: Optional[SynthesisPlan] = None,
) -> List[Gate]:
    """Gate list for ``controlled-exp(-i angle/2 P)`` with ``control`` as an
    extra qubit outside the string's register.

    The string acts on qubits ``0 .. n-1``; ``control`` must be a distinct
    qubit index in the enclosing circuit.
    """
    if 0 <= control < string.num_qubits and string[control] != "I":
        raise ValueError("control qubit overlaps the string's support")
    support = string.support
    if not support:
        # Controlled global phase: a bare Rz on the control (up to phase).
        return [Gate("rz", (control,), (angle,))]
    base = pauli_rotation_gates(string, angle, plan)
    out: List[Gate] = []
    for gate in base:
        if gate.name == "rz":
            out.extend(controlled_rz_gates(gate.params[0], control, gate.qubits[0]))
        else:
            out.append(gate)
    return out


def controlled_pauli_evolution_circuit(
    string: PauliString,
    coefficient: float,
    control: int,
    num_qubits: Optional[int] = None,
) -> QuantumCircuit:
    """Circuit for ``controlled-exp(i coefficient P)`` on ``num_qubits``
    wires (defaults to ``string.num_qubits + 1`` with the control last)."""
    total = num_qubits or string.num_qubits + 1
    circuit = QuantumCircuit(total)
    circuit.extend(
        controlled_pauli_rotation_gates(string, -2.0 * coefficient, control)
    )
    return circuit


def controlled_program_circuit(
    program: PauliProgram,
    control: int,
    power: int = 1,
) -> QuantumCircuit:
    """``controlled-U^power`` where ``U = prod exp(i w P parameter)``.

    The phase-estimation workhorse: repeated controlled applications of one
    Trotter step, with adaptive junction alignment between neighbouring
    strings (the FT pass's trick carries over because only the central
    rotations are controlled).
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    terms = [
        (ws.string, ws.weight * parameter)
        for ws, parameter in program.all_weighted_strings()
        if not ws.string.is_identity
    ]
    circuit = QuantumCircuit(max(program.num_qubits, control + 1))
    repeated = terms * power
    for idx, (string, coefficient) in enumerate(repeated):
        prev_string = repeated[idx - 1][0] if idx > 0 else None
        next_string = repeated[idx + 1][0] if idx + 1 < len(repeated) else None
        neighbor = better_neighbor(string, prev_string, next_string)
        plan = aligned_chain_plan(string, neighbor)
        circuit.extend(
            controlled_pauli_rotation_gates(string, -2.0 * coefficient, control, plan)
        )
    return circuit
