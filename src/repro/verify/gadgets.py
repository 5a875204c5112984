"""Gadget extraction: recover the rotation-gadget form of a circuit.

Any circuit over this repository's gate zoo is a word in Cliffords and the
three rotations, so it factors exactly as

.. code-block:: text

    U  =  C_total * R'_K * ... * R'_2 * R'_1

where ``R'_k = exp(-i theta_k/2 * P_k)`` is the ``k``-th rotation *peeled
back* through the Cliffords that precede it (``P_k = C_k^dagger A_k C_k``
with ``A_k`` the rotation's axis Pauli and ``C_k`` the Clifford prefix in
circuit order), and ``C_total`` is the product of every Clifford in the
circuit with the rotations deleted.

The peel is one forward sweep maintaining the *inverse conjugation map*
``M(P) = C^dagger P C`` of the growing Clifford prefix, tabulated on the
``2n`` generator rows ``X_q``/``Z_q``.  Appending a gate updates
``M' = M . Ad(g^dagger)``: since ``g^dagger P g`` is a +/-(i) product of
generators on ``g``'s qubits, each gate is at most two signed row
products.  Rows are stored as arbitrary-precision **integer bitmasks**
(X part, Z part, sign bit), so a row product is a handful of word-wide
XORs plus ``int.bit_count`` popcounts — ``O(n/64)`` machine words per
gate with no per-gate array dispatch, which is what keeps a 30-qubit
160k-gate verification in the hundreds of milliseconds.  When the sweep
meets a rotation on qubit ``q`` it reads the gadget straight off the
current row (``M(Z_q)`` for ``rz``, etc.).

Routed/permuted circuits need no special casing: SWAP gates are Cliffords,
so a rotation placed under an evolved layout conjugates back to its
initial-frame position automatically, and the layout's net permutation is
exactly what remains in ``C_total`` (see :class:`ResidualClifford`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..circuit import QuantumCircuit
from ..circuit.gates import OP, OPCODES
from ..pauli import PauliString, SignedPauli

__all__ = ["RotationGadget", "ResidualClifford", "ExtractionResult", "extract_gadgets"]

_OP_ID = OP["id"]
_OP_X = OP["x"]
_OP_Y = OP["y"]
_OP_Z = OP["z"]
_OP_H = OP["h"]
_OP_S = OP["s"]
_OP_SDG = OP["sdg"]
_OP_YH = OP["yh"]
_OP_RX = OP["rx"]
_OP_RY = OP["ry"]
_OP_RZ = OP["rz"]
_OP_CX = OP["cx"]
_OP_CZ = OP["cz"]
_OP_SWAP = OP["swap"]


def _mul(
    x1: int, z1: int, s1: int, x2: int, z2: int, s2: int
) -> Tuple[int, int, int]:
    """Signed Pauli row product ``(i^t) * (X^x Z^z)`` of two rows.

    Rows are ``(-1)^s X^{x} Z^{z}``-style signed Paulis in the ``Y = iXZ``
    convention; the returned ``t`` is the product's total ``i`` exponent
    mod 4 (callers fold in any extra ``i`` factors and then require ``t``
    even, since images of Hermitian Paulis stay Hermitian).
    """
    t = (
        2 * (s1 + s2)
        + (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        - ((x1 ^ x2) & (z1 ^ z2)).bit_count()
        + 2 * (z1 & x2).bit_count()
    )
    return x1 ^ x2, z1 ^ z2, t % 4


def _sign_bit(t: int) -> int:
    """Sign bit of a Hermitian row's ``i`` exponent (must be 0 or 2)."""
    if t & 1:
        raise AssertionError("non-Hermitian Pauli row; conjugation rules are broken")
    return (t >> 1) & 1


def _mask_string(x: int, z: int, num_qubits: int) -> PauliString:
    """Bitmask row -> positive-representative :class:`PauliString`."""
    codes = bytearray(num_qubits)
    support = x | z
    while support:
        qubit = (support & -support).bit_length() - 1
        codes[qubit] = ((x >> qubit) & 1) | (((z >> qubit) & 1) << 1)
        support &= support - 1
    return PauliString(bytes(codes))


@dataclass(frozen=True)
class RotationGadget:
    """One effective rotation ``exp(-i angle/2 * string)``.

    The row's sign is already folded into ``angle`` so ``string`` is
    always the positive representative.  ``position`` is the dense index
    (in live-gate order) of the originating rotation gate — mismatch
    reports point at it.
    """

    string: PauliString
    angle: float
    position: int

    @property
    def label(self) -> str:
        return self.string.label


class ResidualClifford:
    """The Clifford ``C_total`` left after all rotations are peeled out.

    Stored as its inverse conjugation map: row ``q`` of ``xs``/``zs`` is
    ``C^dagger X_q C`` / ``C^dagger Z_q C`` as ``(x_mask, z_mask, sign)``
    triples.  For a well-formed compilation this must be the identity
    (unrouted) or a pure qubit permutation matching the recorded layout
    transition (routed).
    """

    __slots__ = ("num_qubits", "x_rows", "z_rows")

    def __init__(
        self,
        num_qubits: int,
        x_rows: List[Tuple[int, int, int]],
        z_rows: List[Tuple[int, int, int]],
    ):
        self.num_qubits = num_qubits
        self.x_rows = x_rows
        self.z_rows = z_rows

    def inverse_image_of_x(self, qubit: int) -> SignedPauli:
        """``C^dagger X_q C`` as a signed Pauli."""
        x, z, s = self.x_rows[qubit]
        return SignedPauli(_mask_string(x, z, self.num_qubits), -1 if s else 1)

    def inverse_image_of_z(self, qubit: int) -> SignedPauli:
        """``C^dagger Z_q C`` as a signed Pauli."""
        x, z, s = self.z_rows[qubit]
        return SignedPauli(_mask_string(x, z, self.num_qubits), -1 if s else 1)

    def is_identity(self) -> bool:
        """True when ``C`` is the identity up to global phase."""
        return all(
            self.x_rows[q] == (1 << q, 0, 0) and self.z_rows[q] == (0, 1 << q, 0)
            for q in range(self.num_qubits)
        )

    def permutation(self) -> Optional[List[int]]:
        """The qubit permutation ``sigma`` realized by ``C``, if pure.

        Returns ``sigma`` with ``C X_p C^dagger = X_sigma(p)`` and
        ``C Z_p C^dagger = Z_sigma(p)`` (all signs positive), or ``None``
        when ``C`` is not a signless qubit permutation.
        """
        n = self.num_qubits
        sigma: List[Optional[int]] = [None] * n
        for q in range(n):
            x, z, s = self.x_rows[q]
            if s or z or x == 0 or x & (x - 1):
                return None
            source = x.bit_length() - 1
            zx, zz, zs = self.z_rows[q]
            if zs or zx or zz != x:
                return None
            if sigma[source] is not None:
                return None
            # C^dagger X_q C = X_source  <=>  C X_source C^dagger = X_q.
            sigma[source] = q
        return sigma  # bijective by construction (all n rows assigned)


@dataclass
class ExtractionResult:
    """A circuit's gadget factorization: gadgets in application order plus
    the residual Clifford applied after all of them."""

    gadgets: List[RotationGadget]
    frame: ResidualClifford
    num_qubits: int


def extract_gadgets(circuit: QuantumCircuit) -> ExtractionResult:
    """Factor a circuit into rotation gadgets and a residual Clifford."""
    n = circuit.num_qubits
    # Inverse-map rows M(X_q), M(Z_q) as parallel mask/sign lists.
    xx = [1 << q for q in range(n)]
    xz = [0] * n
    xsign = [0] * n
    zx = [0] * n
    zz = [1 << q for q in range(n)]
    zsign = [0] * n

    gadgets: List[RotationGadget] = []
    tape = circuit.tape
    ops, q0s, q1s, params = tape.op, tape.q0, tape.q1, tape.param
    position = 0
    for slot in tape.iter_slots():
        op = ops[slot]
        q = q0s[slot]
        if op == _OP_CX:
            t = q1s[slot]
            # CX^dagger X_c CX = X_c X_t ; CX^dagger Z_t CX = Z_c Z_t.
            x, z, e = _mul(xx[q], xz[q], xsign[q], xx[t], xz[t], xsign[t])
            xx[q], xz[q], xsign[q] = x, z, _sign_bit(e)
            x, z, e = _mul(zx[q], zz[q], zsign[q], zx[t], zz[t], zsign[t])
            zx[t], zz[t], zsign[t] = x, z, _sign_bit(e)
        elif op == _OP_RZ:
            gadgets.append(
                RotationGadget(
                    _mask_string(zx[q], zz[q], n),
                    -params[slot] if zsign[q] else params[slot],
                    position,
                )
            )
        elif op == _OP_H:
            xx[q], xz[q], xsign[q], zx[q], zz[q], zsign[q] = (
                zx[q], zz[q], zsign[q], xx[q], xz[q], xsign[q],
            )
        elif op == _OP_S:
            # S^dagger X S = -Y = i^2 * (i X Z) => row product exponent + 3.
            x, z, e = _mul(xx[q], xz[q], xsign[q], zx[q], zz[q], zsign[q])
            xx[q], xz[q], xsign[q] = x, z, _sign_bit(e + 3)
        elif op == _OP_SDG:
            # Sdg^dagger X Sdg = Y = i X Z.
            x, z, e = _mul(xx[q], xz[q], xsign[q], zx[q], zz[q], zsign[q])
            xx[q], xz[q], xsign[q] = x, z, _sign_bit(e + 1)
        elif op == _OP_YH:
            # yh^dagger X yh = -X ; yh^dagger Z yh = Y = i X Z.
            x, z, e = _mul(xx[q], xz[q], xsign[q], zx[q], zz[q], zsign[q])
            zx[q], zz[q], zsign[q] = x, z, _sign_bit(e + 1)
            xsign[q] ^= 1
        elif op == _OP_SWAP:
            t = q1s[slot]
            xx[q], xx[t] = xx[t], xx[q]
            xz[q], xz[t] = xz[t], xz[q]
            xsign[q], xsign[t] = xsign[t], xsign[q]
            zx[q], zx[t] = zx[t], zx[q]
            zz[q], zz[t] = zz[t], zz[q]
            zsign[q], zsign[t] = zsign[t], zsign[q]
        elif op == _OP_CZ:
            t = q1s[slot]
            # CZ^dagger X_a CZ = X_a Z_b (both rows read pre-update).
            new_a = _mul(xx[q], xz[q], xsign[q], zx[t], zz[t], zsign[t])
            new_b = _mul(xx[t], xz[t], xsign[t], zx[q], zz[q], zsign[q])
            xx[q], xz[q], xsign[q] = new_a[0], new_a[1], _sign_bit(new_a[2])
            xx[t], xz[t], xsign[t] = new_b[0], new_b[1], _sign_bit(new_b[2])
        elif op == _OP_RX:
            gadgets.append(
                RotationGadget(
                    _mask_string(xx[q], xz[q], n),
                    -params[slot] if xsign[q] else params[slot],
                    position,
                )
            )
        elif op == _OP_RY:
            # Y_q = i X_q Z_q.
            x, z, e = _mul(xx[q], xz[q], xsign[q], zx[q], zz[q], zsign[q])
            sign = _sign_bit(e + 1)
            gadgets.append(
                RotationGadget(
                    _mask_string(x, z, n),
                    -params[slot] if sign else params[slot],
                    position,
                )
            )
        elif op == _OP_X:
            zsign[q] ^= 1
        elif op == _OP_Z:
            xsign[q] ^= 1
        elif op == _OP_Y:
            xsign[q] ^= 1
            zsign[q] ^= 1
        elif op == _OP_ID:
            pass
        else:  # pragma: no cover - the opcode table is closed
            raise ValueError(f"unknown opcode {OPCODES[op]!r}")
        position += 1

    frame = ResidualClifford(
        n,
        [(xx[q], xz[q], xsign[q]) for q in range(n)],
        [(zx[q], zz[q], zsign[q]) for q in range(n)],
    )
    return ExtractionResult(gadgets=gadgets, frame=frame, num_qubits=n)
