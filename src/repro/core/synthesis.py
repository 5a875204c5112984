"""Synthesis of ``exp(i * coefficient * P)`` into basic gates.

This implements the circuit template of Figure 2 in the paper: a layer of
basis-change gates (``H`` for X, the Y-basis Hadamard ``yh`` for Y), a left
CNOT tree accumulating the parity of all active qubits onto a *root*, a
central ``Rz`` on the root, the mirrored right CNOT tree, and the mirrored
basis-change layer.

The key freedom Paulihedral exploits (Section 2.1, Figure 4) is the *plan*:
which CNOT tree to use and which qubit is the root.  A :class:`SynthesisPlan`
pins that choice down; the FT pass picks plans that put operators shared with
a neighbouring string at the **leaf end** of a chain so that the junction
gates cancel.

Sign convention: the emitted circuit implements ``exp(-i * angle/2 * P)``
where ``angle`` is the ``Rz`` angle, so :func:`pauli_evolution_circuit`
passes ``angle = -2 * coefficient`` to realize ``exp(i * coefficient * P)``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..circuit import Gate, QuantumCircuit
from ..pauli import PauliString
from ..pauli import operators as ops

__all__ = [
    "SynthesisPlan",
    "chain_plan",
    "aligned_chain_plan",
    "better_neighbor",
    "pauli_rotation_gates",
    "pauli_evolution_circuit",
    "naive_program_circuit",
]


class SynthesisPlan:
    """A concrete CNOT-tree choice for one Pauli string.

    Parameters
    ----------
    edges:
        Left-tree CNOT edges ``(control, target)`` in emission order.  The
        parity must flow so that after all edges the total parity sits on
        ``root`` (for a chain ``[a, b, c]`` the edges are
        ``[(a, b), (b, c)]`` and the root is ``c``).
    root:
        The qubit carrying the central ``Rz``.
    """

    __slots__ = ("edges", "root")

    def __init__(self, edges: Sequence[Tuple[int, int]], root: int):
        self.edges = tuple((int(c), int(t)) for c, t in edges)
        self.root = int(root)
        targets = [t for _, t in self.edges]
        if self.edges and targets[-1] != self.root:
            raise ValueError("the last CNOT of a plan must target the root")

    def __repr__(self) -> str:
        return f"SynthesisPlan(root={self.root}, edges={list(self.edges)})"


def chain_plan(support: Sequence[int], root: Optional[int] = None) -> SynthesisPlan:
    """Simple chain plan over ``support`` in the given order.

    ``root`` defaults to the last qubit of the order; if given, the order is
    rotated so that ``root`` comes last.
    """
    order = list(support)
    if not order:
        raise ValueError("cannot synthesize an identity string")
    if root is not None:
        if root not in order:
            raise ValueError(f"root {root} not in support {order}")
        order.remove(root)
        order.append(root)
    edges = [(order[i], order[i + 1]) for i in range(len(order) - 1)]
    return SynthesisPlan(edges, order[-1])


def aligned_chain_plan(
    string: PauliString,
    neighbor: Optional[PauliString] = None,
    secondary: Optional[PauliString] = None,
) -> SynthesisPlan:
    """Chain plan that maximizes junction cancellation with ``neighbor``.

    Qubits where ``string`` and ``neighbor`` carry the *same* non-identity
    operator are placed at the leaf end of the chain in canonical (ascending)
    order; the remaining support follows, also ascending.  Two adjacent
    strings planned against each other therefore open/close with identical
    gate prefixes, which the peephole pass cancels (paper Figure 4a).

    ``secondary`` (the string's other neighbour, when it has two) only
    orders the *remaining* support: qubits it shares come right after the
    ``neighbor``-shared prefix.  That cannot disturb the primary junction —
    the common prefix is untouched — but when the secondary's shared set
    nests inside the primary's, the other junction picks up the same
    cancellations for free.
    """
    support = list(string.support)
    if neighbor is None and secondary is None:
        return chain_plan(support)
    shared = set(string.shared_support(neighbor)) if neighbor is not None else set()
    shared2 = (
        set(string.shared_support(secondary)) - shared
        if secondary is not None
        else set()
    )
    order = (
        sorted(q for q in support if q in shared)
        + sorted(q for q in support if q in shared2)
        + sorted(q for q in support if q not in shared and q not in shared2)
    )
    return chain_plan(order)


def better_neighbor(
    string: PauliString,
    prev_string: Optional[PauliString],
    next_string: Optional[PauliString],
) -> Optional[PauliString]:
    """The one-sided alignment rule: the neighbour sharing more operators
    with ``string`` (the previous one on ties), or ``None`` when neither
    shares any."""
    prev_overlap = string.overlap(prev_string) if prev_string is not None else 0
    next_overlap = string.overlap(next_string) if next_string is not None else 0
    if prev_overlap <= 0 and next_overlap <= 0:
        # No operator shared with either neighbour: aligning is pointless,
        # so keep the canonical ascending chain (a zero-overlap neighbour
        # must not win just because the other side is missing).
        return None
    return prev_string if prev_overlap >= next_overlap else next_string


def _basis_change_gates(string: PauliString) -> List[Gate]:
    gates: List[Gate] = []
    for qubit in string.support:
        code = string.code_at(qubit)
        if code == ops.X:
            gates.append(Gate("h", (qubit,)))
        elif code == ops.Y:
            gates.append(Gate("yh", (qubit,)))
    return gates


def pauli_rotation_gates(
    string: PauliString,
    angle: float,
    plan: Optional[SynthesisPlan] = None,
) -> List[Gate]:
    """Gate list implementing ``exp(-i * angle/2 * P)``.

    Identity strings produce an empty list (a global phase).
    """
    support = string.support
    if not support:
        return []
    if plan is None:
        plan = chain_plan(support)
    _validate_plan(string, plan)

    basis = _basis_change_gates(string)
    left = [Gate("cx", edge) for edge in plan.edges]
    middle = [Gate("rz", (plan.root,), (angle,))]
    right = [Gate("cx", edge) for edge in reversed(plan.edges)]
    return basis + left + middle + right + list(reversed(basis))


def pauli_evolution_circuit(
    string: PauliString,
    coefficient: float,
    plan: Optional[SynthesisPlan] = None,
) -> QuantumCircuit:
    """Circuit implementing ``exp(i * coefficient * P)``."""
    circuit = QuantumCircuit(string.num_qubits)
    circuit.extend(pauli_rotation_gates(string, -2.0 * coefficient, plan))
    return circuit


def naive_program_circuit(program) -> QuantumCircuit:
    """Baseline synthesis: every string in program order with default chain
    plans and no cross-string optimization (paper's 'naive synthesis')."""
    circuit = QuantumCircuit(program.num_qubits)
    for ws, parameter in program.all_weighted_strings():
        if ws.string.is_identity:
            continue
        circuit.extend(
            pauli_rotation_gates(ws.string, -2.0 * ws.weight * parameter)
        )
    return circuit


def _validate_plan(string: PauliString, plan: SynthesisPlan) -> None:
    support = set(string.support)
    touched = set()
    for control, target in plan.edges:
        touched.update((control, target))
    if plan.edges:
        if touched != support:
            raise ValueError(
                f"plan touches qubits {sorted(touched)} but support is {sorted(support)}"
            )
    elif support != {plan.root}:
        raise ValueError("empty plan requires a single-qubit support equal to the root")
    if plan.root not in support:
        raise ValueError(f"root {plan.root} is not in the support of {string.label}")
