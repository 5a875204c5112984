"""Bit-packed Clifford conjugation engine: the reference for the TK tableau.

A :class:`SignedPauliTable` holds ``m`` signed Pauli operators on ``n``
qubits as bit-packed symplectic X/Z matrices (same packing as
:class:`~repro.pauli.symplectic.PauliTable`: qubit ``i`` is bit ``i % 8``
of byte ``i // 8``) plus a per-row phase bit.  Conjugating the whole table
by a Clifford gate ``P -> g P g^dagger`` touches only the byte column(s)
of the gate's qubits.  ``conjugate_rows`` carries the standard CHP/tableau
update rule of every Clifford opcode; ``apply_inverse`` conjugates by
``g^dagger``.

:class:`repro.baselines.tableau.ConjugationTracker` keeps its own int
bit-columns for the six gates the TK baseline emits; the tests check it
row for row against this table, and this table against explicit matrix
conjugation and the scalar per-qubit update tables in
``tests/test_verify.py``.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.circuit.gates import OP, OP_ROTATION
from repro.circuit.tape import NO_SLOT
from repro.pauli import PauliString, SignedPauli

__all__ = ["SignedPauliTable", "conjugate_rows"]

_OP_ID = OP["id"]
_OP_X = OP["x"]
_OP_Y = OP["y"]
_OP_Z = OP["z"]
_OP_H = OP["h"]
_OP_S = OP["s"]
_OP_SDG = OP["sdg"]
_OP_YH = OP["yh"]
_OP_CX = OP["cx"]
_OP_CZ = OP["cz"]
_OP_SWAP = OP["swap"]

#: opcode -> opcode whose forward conjugation equals this gate's inverse
#: conjugation (every Clifford here is self-inverse except s <-> sdg).
_CONJ_INVERSE = {
    _OP_ID: _OP_ID, _OP_X: _OP_X, _OP_Y: _OP_Y, _OP_Z: _OP_Z,
    _OP_H: _OP_H, _OP_S: _OP_SDG, _OP_SDG: _OP_S, _OP_YH: _OP_YH,
    _OP_CX: _OP_CX, _OP_CZ: _OP_CZ, _OP_SWAP: _OP_SWAP,
}


def conjugate_rows(
    x: np.ndarray, z: np.ndarray, phase: np.ndarray, op: int, q0: int, q1: int = NO_SLOT
) -> None:
    """Apply ``P -> g P g^dagger`` in place to every row of ``(x, z, phase)``.

    ``x``/``z`` are ``(m, ceil(n/8))`` bit-packed ``uint8`` matrices and
    ``phase`` an ``(m,)`` ``uint8`` vector of sign bits (``sign =
    (-1)**phase``); all three may be views (row slices) of larger tables.
    ``op`` must be a Clifford opcode — rotations are rejected.
    """
    j0, s0 = q0 >> 3, q0 & 7
    if op == _OP_H:
        xq = (x[:, j0] >> s0) & 1
        zq = (z[:, j0] >> s0) & 1
        phase ^= xq & zq
        flip = (xq ^ zq) << s0
        x[:, j0] ^= flip
        z[:, j0] ^= flip
    elif op == _OP_S:
        xq = (x[:, j0] >> s0) & 1
        zq = (z[:, j0] >> s0) & 1
        phase ^= xq & zq
        z[:, j0] ^= xq << s0
    elif op == _OP_SDG:
        xq = (x[:, j0] >> s0) & 1
        zq = (z[:, j0] >> s0) & 1
        phase ^= xq & (zq ^ 1)
        z[:, j0] ^= xq << s0
    elif op == _OP_YH:
        # (Y+Z)/sqrt(2): X -> -X, Y <-> Z.
        xq = (x[:, j0] >> s0) & 1
        zq = (z[:, j0] >> s0) & 1
        phase ^= xq & (zq ^ 1)
        x[:, j0] ^= zq << s0
    elif op == _OP_X:
        phase ^= (z[:, j0] >> s0) & 1
    elif op == _OP_Z:
        phase ^= (x[:, j0] >> s0) & 1
    elif op == _OP_Y:
        phase ^= ((x[:, j0] ^ z[:, j0]) >> s0) & 1
    elif op == _OP_CX:
        j1, s1 = q1 >> 3, q1 & 7
        xc = (x[:, j0] >> s0) & 1
        zc = (z[:, j0] >> s0) & 1
        xt = (x[:, j1] >> s1) & 1
        zt = (z[:, j1] >> s1) & 1
        phase ^= xc & zt & (xt ^ zc ^ 1)
        x[:, j1] ^= xc << s1
        z[:, j0] ^= zt << s0
    elif op == _OP_CZ:
        j1, s1 = q1 >> 3, q1 & 7
        xa = (x[:, j0] >> s0) & 1
        za = (z[:, j0] >> s0) & 1
        xb = (x[:, j1] >> s1) & 1
        zb = (z[:, j1] >> s1) & 1
        phase ^= xa & xb & (za ^ zb)
        z[:, j0] ^= xb << s0
        z[:, j1] ^= xa << s1
    elif op == _OP_SWAP:
        j1, s1 = q1 >> 3, q1 & 7
        dx = ((x[:, j0] >> s0) ^ (x[:, j1] >> s1)) & 1
        x[:, j0] ^= dx << s0
        x[:, j1] ^= dx << s1
        dz = ((z[:, j0] >> s0) ^ (z[:, j1] >> s1)) & 1
        z[:, j0] ^= dz << s0
        z[:, j1] ^= dz << s1
    elif op == _OP_ID:
        pass
    elif op in OP_ROTATION:
        raise ValueError("rotations are not Clifford; peel them as gadgets instead")
    else:
        raise ValueError(f"unknown Clifford opcode {op}")


class SignedPauliTable:
    """A mutable batch of signed Pauli rows under Clifford conjugation."""

    __slots__ = ("x", "z", "phase", "num_qubits")

    def __init__(self, x: np.ndarray, z: np.ndarray, phase: np.ndarray, num_qubits: int):
        self.x = x
        self.z = z
        self.phase = phase
        self.num_qubits = num_qubits

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, num_rows: int, num_qubits: int) -> "SignedPauliTable":
        """All-identity rows with positive sign."""
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        nbytes = (num_qubits + 7) >> 3
        return cls(
            np.zeros((num_rows, nbytes), dtype=np.uint8),
            np.zeros((num_rows, nbytes), dtype=np.uint8),
            np.zeros(num_rows, dtype=np.uint8),
            num_qubits,
        )

    @classmethod
    def from_strings(cls, strings: Iterable[PauliString]) -> "SignedPauliTable":
        string_list = list(strings)
        if not string_list:
            raise ValueError("a SignedPauliTable needs at least one row")
        n = string_list[0].num_qubits
        for s in string_list:
            if s.num_qubits != n:
                raise ValueError("all rows must act on the same qubit count")
        codes = np.frombuffer(
            b"".join(s.codes for s in string_list), dtype=np.uint8
        ).reshape(len(string_list), n)
        table = cls.zeros(len(string_list), n)
        table.x[:] = np.packbits(codes & 1, axis=1, bitorder="little")
        table.z[:] = np.packbits(codes >> 1, axis=1, bitorder="little")
        return table

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, op: int, q0: int, q1: int = NO_SLOT) -> None:
        """Conjugate every row by the gate: ``P -> g P g^dagger``."""
        conjugate_rows(self.x, self.z, self.phase, op, q0, q1)

    def apply_inverse(self, op: int, q0: int, q1: int = NO_SLOT) -> None:
        """Conjugate every row by the inverse gate: ``P -> g^dagger P g``."""
        self.apply(_CONJ_INVERSE[op], q0, q1)

    # ------------------------------------------------------------------
    # Row queries
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self.x.shape[0]

    def __len__(self) -> int:
        return self.num_rows

    def x_bit(self, row: int, qubit: int) -> int:
        return int((self.x[row, qubit >> 3] >> (qubit & 7)) & 1)

    def z_bit(self, row: int, qubit: int) -> int:
        return int((self.z[row, qubit >> 3] >> (qubit & 7)) & 1)

    def sign(self, row: int) -> int:
        return -1 if self.phase[row] else 1

    def signs(self) -> np.ndarray:
        """Per-row signs as an ``int8`` vector of +1/-1."""
        return np.where(self.phase & 1, -1, 1).astype(np.int8)

    def is_diagonal(self, row: int) -> bool:
        """True when the row has no X component (Z/I only)."""
        return not self.x[row].any()

    def codes(self) -> np.ndarray:
        """Unpacked ``(m, n)`` Pauli-code matrix (column = qubit)."""
        n = self.num_qubits
        xb = np.unpackbits(self.x, axis=1, bitorder="little", count=n)
        zb = np.unpackbits(self.z, axis=1, bitorder="little", count=n)
        return (xb | (zb << 1)).astype(np.uint8)

    def string(self, row: int) -> PauliString:
        n = self.num_qubits
        xb = np.unpackbits(self.x[row], bitorder="little", count=n)
        zb = np.unpackbits(self.z[row], bitorder="little", count=n)
        return PauliString((xb | (zb << 1)).tobytes())

    def signed(self, row: int) -> SignedPauli:
        return SignedPauli(self.string(row), self.sign(row))

    def to_signed_paulis(self) -> List[SignedPauli]:
        codes = self.codes()
        signs = self.signs()
        return [
            SignedPauli(PauliString(codes[k].tobytes()), int(signs[k]))
            for k in range(self.num_rows)
        ]


