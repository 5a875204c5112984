"""The "TK" baseline: tket-style simultaneous diagonalization.

This reimplements the published optimization pipeline behind tket's Pauli
gadget passes (Cowtan et al. 2019/2020; van den Berg & Temme 2020), the
paper's main frontend baseline:

1. **Partition** the program's weighted strings into sets of mutually
   commuting strings (greedy sequential partitioning — tket uses graph
   colouring; greedy gives the same structure class).  Commutation is
   read off the tableau's per-qubit bit columns: one int per term, one
   bit test per term and open set.
2. **Diagonalize** each set with a Clifford circuit ``C`` found by symplectic
   elimination (:mod:`repro.baselines.tableau`).
3. **Synthesize** the set as ``C`` + a ladder of Z-parity rotations
   (one CNOT chain + ``Rz`` per string) + ``C^dagger``.

As the paper observes (Section 6.2), the Clifford conjugation before and
after every set is exactly the overhead that Paulihedral avoids: for some
workloads (e.g. 1-D Ising, where everything already commutes) the
diagonalization *adds* gates.

Note the paper relaxes block constraints for TK ("this relaxation allows a
larger optimization space"); accordingly this pass ignores block boundaries
and works on the flattened term list.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..circuit import QuantumCircuit
from ..ir import PauliProgram
from ..pauli import PauliString, SignedPauli
from .tableau import ConjugationTracker, simultaneous_diagonalize

__all__ = ["partition_commuting", "diagonal_rotation_gates", "tk_compile", "TKResult"]


class TKResult:
    """Output of the TK frontend."""

    def __init__(
        self,
        circuit: QuantumCircuit,
        sets: List[List[Tuple[PauliString, float]]],
    ):
        self.circuit = circuit
        self.sets = sets


def partition_commuting(
    terms: Sequence[Tuple[PauliString, float]],
) -> List[List[Tuple[PauliString, float]]]:
    """Greedy partition into mutually-commuting sets, preserving order.

    Each term joins the first set all of whose members commute with it.
    The test is one bit: a term's commute row (bit ``r`` set when term
    ``r`` commutes with it) is read off the tableau's per-qubit columns,
    and each open set carries the AND of its members' commute rows.
    """
    if not terms:
        return []
    strings = [string for string, _ in terms]
    tracker = ConjugationTracker(strings, strings[0].num_qubits)
    every_row = (1 << len(strings)) - 1
    groups: List[List[Tuple[PauliString, float]]] = []
    commuting_with_group: List[int] = []
    for i, term in enumerate(terms):
        commuting = every_row ^ tracker.anticommuting_rows(term[0])
        bit = 1 << i
        for g, rows in enumerate(commuting_with_group):
            if rows & bit:
                groups[g].append(term)
                commuting_with_group[g] = rows & commuting
                break
        else:
            groups.append([term])
            commuting_with_group.append(commuting)
    return groups


def diagonal_rotation_gates(
    circuit: QuantumCircuit,
    tracked: SignedPauli,
    coefficient: float,
) -> None:
    """Append the rotation for one diagonalized (Z-only, signed) string.

    Implements ``exp(i * coefficient * sign * Z_support)`` as a CNOT parity
    chain plus a central ``Rz``.
    """
    support = [q for q in range(tracked.num_qubits) if tracked.z_bit(q)]
    if not support:
        return  # identity up to sign: global phase only
    angle = -2.0 * coefficient * tracked.sign
    for a, b in zip(support, support[1:]):
        circuit.cx(a, b)
    circuit.rz(angle, support[-1])
    for a, b in reversed(list(zip(support, support[1:]))):
        circuit.cx(a, b)


def tk_compile(program: PauliProgram) -> TKResult:
    """Compile a program with the simultaneous-diagonalization strategy."""
    terms = [
        (ws.string, ws.weight * parameter)
        for ws, parameter in program.all_weighted_strings()
        if not ws.string.is_identity
    ]
    circuit = QuantumCircuit(program.num_qubits)
    sets = partition_commuting(terms)
    for group in sets:
        strings = [s for s, _ in group]
        if len(strings) == 1:
            # A singleton gains nothing from diagonalization; synthesize
            # directly (tket does the same for isolated gadgets).
            from ..core.synthesis import pauli_rotation_gates

            circuit.extend(
                pauli_rotation_gates(strings[0], -2.0 * group[0][1])
            )
            continue
        clifford, tracked = simultaneous_diagonalize(strings)
        circuit.compose(clifford)
        for entry, (_, coefficient) in zip(tracked, group):
            diagonal_rotation_gates(circuit, entry, coefficient)
        circuit.compose(clifford.inverse())
    return TKResult(circuit, sets)
