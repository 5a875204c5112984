"""Gate definitions for the circuit substrate.

The gate zoo covers everything the Paulihedral passes and the baseline
compilers emit:

* single-qubit: ``h``, ``x``, ``y``, ``z``, ``s``, ``sdg``, ``yh`` (the
  self-inverse Y-basis Hadamard ``(Y+Z)/sqrt(2)`` used for Pauli-Y basis
  changes), ``rx``, ``ry``, ``rz``;
* two-qubit: ``cx``, ``cz``, ``swap``.

A :class:`Gate` is an immutable ``(name, qubits, params)`` record.  Matrices
are produced on demand for simulation and equivalence checking.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "Gate",
    "OPCODES",
    "OP",
    "OP_ROTATION",
    "OP_SINGLE",
    "OP_TWO",
    "SINGLE_QUBIT_GATES",
    "TWO_QUBIT_GATES",
    "SELF_INVERSE_GATES",
    "ROTATION_GATES",
    "gate_matrix",
    "matrix_for_op",
    "inverse_gate",
]

_SQRT_HALF = 1.0 / math.sqrt(2.0)

_FIXED_1Q: Dict[str, np.ndarray] = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": _SQRT_HALF * np.array([[1, 1], [1, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    # Y-basis Hadamard: (Y + Z)/sqrt(2); self-inverse; maps Y <-> Z.
    "yh": _SQRT_HALF * np.array([[1, -1j], [1j, -1]], dtype=complex),
}

SINGLE_QUBIT_GATES = frozenset(_FIXED_1Q) | {"rx", "ry", "rz"}
TWO_QUBIT_GATES = frozenset({"cx", "cz", "swap"})
SELF_INVERSE_GATES = frozenset({"id", "x", "y", "z", "h", "yh", "cx", "cz", "swap"})
ROTATION_GATES = frozenset({"rx", "ry", "rz"})

_INVERSE_NAME = {"s": "sdg", "sdg": "s"}

# ----------------------------------------------------------------------
# Opcode table for the columnar gate tape.  The tape stores one small int
# per gate instead of a name string; everything keyed by name above has an
# opcode-keyed twin here so hot loops never touch strings.
# ----------------------------------------------------------------------
OPCODES: Tuple[str, ...] = (
    "id", "x", "y", "z", "h", "s", "sdg", "yh", "rx", "ry", "rz",
    "cx", "cz", "swap",
)
OP: Dict[str, int] = {name: code for code, name in enumerate(OPCODES)}
OP_SINGLE = frozenset(OP[name] for name in SINGLE_QUBIT_GATES)
OP_TWO = frozenset(OP[name] for name in TWO_QUBIT_GATES)
OP_ROTATION = frozenset(OP[name] for name in ROTATION_GATES)
#: opcode -> opcode of the inverse gate (rotations negate their angle and
#: keep their opcode; ``s``/``sdg`` swap; the rest are self-inverse).
OP_INVERSE: Tuple[int, ...] = tuple(
    OP[_INVERSE_NAME.get(name, name)] for name in OPCODES
)


class Gate:
    """An immutable gate application.

    Parameters
    ----------
    name:
        Lower-case gate mnemonic.
    qubits:
        Target qubits.  For ``cx`` the order is ``(control, target)``.
    params:
        Rotation angles for ``rx``/``ry``/``rz``; empty otherwise.
    """

    __slots__ = ("name", "qubits", "params")

    def __init__(self, name: str, qubits: Tuple[int, ...], params: Tuple[float, ...] = ()):
        if name not in SINGLE_QUBIT_GATES and name not in TWO_QUBIT_GATES:
            raise ValueError(f"unknown gate {name!r}")
        expected = 1 if name in SINGLE_QUBIT_GATES else 2
        if len(qubits) != expected:
            raise ValueError(f"gate {name!r} expects {expected} qubit(s), got {qubits}")
        if name in ROTATION_GATES and len(params) != 1:
            raise ValueError(f"gate {name!r} expects one angle parameter")
        if name not in ROTATION_GATES and params:
            raise ValueError(f"gate {name!r} takes no parameters")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"gate {name!r} applied to duplicate qubits {qubits}")
        self.name = name
        self.qubits = tuple(int(q) for q in qubits)
        self.params = tuple(float(p) for p in params)

    @classmethod
    def _from_row(cls, name: str, qubits: Tuple[int, ...], params: Tuple[float, ...]) -> "Gate":
        """Build a gate from an already-validated tape row, skipping checks."""
        gate = cls.__new__(cls)
        gate.name = name
        gate.qubits = qubits
        gate.params = params
        return gate

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        return (
            self.name == other.name
            and self.qubits == other.qubits
            and self.params == other.params
        )

    def __hash__(self) -> int:
        return hash((self.name, self.qubits, self.params))

    def __repr__(self) -> str:
        if self.params:
            args = ", ".join(f"{p:.6g}" for p in self.params)
            return f"{self.name}({args}) q{list(self.qubits)}"
        return f"{self.name} q{list(self.qubits)}"


_CX_MATRIX = np.array(
    # control = qubits[0] (bit 0 in the local basis), target = qubits[1]
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ],
    dtype=complex,
)
_CZ_MATRIX = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP_MATRIX = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

#: opcode -> fixed matrix (None for the three parametric rotations).
_FIXED_2Q = {"cx": _CX_MATRIX, "cz": _CZ_MATRIX, "swap": _SWAP_MATRIX}
_FIXED_BY_OP: Tuple[Optional[np.ndarray], ...] = tuple(
    _FIXED_1Q[name] if name in _FIXED_1Q else _FIXED_2Q.get(name)
    for name in OPCODES
)
_OP_RX, _OP_RY, _OP_RZ = OP["rx"], OP["ry"], OP["rz"]


def matrix_for_op(op: int, param: float = 0.0) -> np.ndarray:
    """Unitary for a tape row: opcode plus rotation angle (if any).

    Two-qubit matrices are in the basis ``|q1 q0>`` with ``q0`` the row's
    first qubit (little-endian within the gate).
    """
    fixed = _FIXED_BY_OP[op]
    if fixed is not None:
        return fixed
    c, s = math.cos(param / 2.0), math.sin(param / 2.0)
    if op == _OP_RZ:
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]], dtype=complex)
    if op == _OP_RX:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    return np.array([[c, -s], [s, c]], dtype=complex)  # ry


def gate_matrix(gate: Gate) -> np.ndarray:
    """Return the unitary of a gate on its own qubits.

    For two-qubit gates the matrix is given in the basis ``|q1 q0>`` where
    ``q0`` is ``gate.qubits[0]`` (little-endian within the gate).
    """
    op = OP.get(gate.name)
    if op is None:
        raise ValueError(f"no matrix for gate {gate.name!r}")
    return matrix_for_op(op, gate.params[0] if gate.params else 0.0)


def inverse_gate(gate: Gate) -> Gate:
    """Return the inverse of a gate as another :class:`Gate`."""
    if gate.name in SELF_INVERSE_GATES:
        return gate
    if gate.name in ROTATION_GATES:
        return Gate(gate.name, gate.qubits, (-gate.params[0],))
    other = _INVERSE_NAME.get(gate.name)
    if other is None:
        raise ValueError(f"cannot invert gate {gate.name!r}")
    return Gate(other, gate.qubits)
