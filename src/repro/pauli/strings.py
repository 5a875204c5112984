"""Multi-qubit Pauli strings.

A :class:`PauliString` is the basic datum of the Pauli IR (Section 3.2 of the
paper): an ``n``-qubit tensor product of single-qubit Paulis,
``P = sigma_{n-1} (x) sigma_{n-2} (x) ... (x) sigma_0``.

Conventions
-----------
* Qubit ``i`` corresponds to position ``i`` counted **from the right** of a
  text label, matching the paper: the label ``"YZIXZ"`` places ``Y`` on
  ``q4`` and ``Z`` on ``q0``.
* Internally, the string is a ``bytes`` object indexed by qubit number
  (``codes[i]`` is the operator on qubit ``i``), so indexing is natural and
  the object is hashable and immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from . import operators as ops

__all__ = ["PauliString", "SignedPauli"]

#: Label byte -> Pauli code; everything outside "IXYZ" maps to 0xFF, which
#: the constructor's 0..3 range check rejects.
_LABEL_TRANSLATION = bytes(
    ops.LABEL_TO_CODE.get(chr(byte), 0xFF) for byte in range(256)
)

#: Interned strings by label.  PauliString is immutable and hashable, so
#: sharing instances is safe; the cap bounds memory against adversarial
#: label streams (fuzzers) while real workloads reuse a few hundred labels.
_INTERNED = {}
_INTERN_CAP = 1 << 16


class PauliString:
    """An immutable n-qubit Pauli string.

    Parameters
    ----------
    codes:
        Iterable of integer Pauli codes, indexed by qubit number
        (``codes[0]`` acts on ``q0``).

    Examples
    --------
    >>> p = PauliString.from_label("YZIXZ")
    >>> p[4], p[0]
    ('Y', 'Z')
    >>> p.support
    (0, 1, 3, 4)
    """

    __slots__ = ("_codes", "_hash")

    def __init__(self, codes: Iterable[int]):
        data = bytes(codes)
        if not data:
            raise ValueError("a Pauli string must act on at least one qubit")
        if max(data) > 3:
            raise ValueError("Pauli codes must be in 0..3")
        self._codes = data
        self._hash = hash(data)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a text label, leftmost character = highest qubit.

        Instances are interned by label (immutability makes sharing safe);
        repeated labels — artifact deserialization, workload generators —
        skip construction entirely.
        """
        cached = _INTERNED.get(label)
        if cached is not None:
            return cached
        if not label:
            raise ValueError("a Pauli string must act on at least one qubit")
        try:
            encoded = label.encode("ascii")
        except UnicodeEncodeError:
            encoded = None
        string = None
        if encoded is not None:
            # Hot path: one translate call instead of a per-character dict
            # lookup.  Invalid characters map above 3 and are rejected by
            # the constructor's range scan.
            codes = encoded[::-1].translate(_LABEL_TRANSLATION)
            try:
                string = cls(codes)
            except ValueError:
                string = None
        if string is None:
            raise ValueError(
                f"invalid Pauli label {label!r}; expected characters I, X, Y, Z"
            )
        if len(_INTERNED) < _INTERN_CAP:
            _INTERNED[label] = string
        return string

    @classmethod
    def from_sparse(cls, num_qubits: int, terms: dict) -> "PauliString":
        """Build from ``{qubit_index: 'X'|'Y'|'Z'}``; all other qubits are I.

        >>> PauliString.from_sparse(4, {0: "Z", 2: "X"}).label
        'IXIZ'
        """
        codes = bytearray(num_qubits)
        for qubit, label in terms.items():
            if not 0 <= qubit < num_qubits:
                raise ValueError(f"qubit {qubit} out of range for {num_qubits} qubits")
            codes[qubit] = ops.code_of(label)
        return cls(codes)

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        """The all-identity string on ``num_qubits`` qubits."""
        return cls(bytes(num_qubits))

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return len(self._codes)

    @property
    def label(self) -> str:
        """Text label, leftmost character = highest qubit."""
        return "".join(ops.CODE_TO_LABEL[c] for c in reversed(self._codes))

    @property
    def codes(self) -> bytes:
        """Raw per-qubit codes (index = qubit number)."""
        return self._codes

    @property
    def support(self) -> Tuple[int, ...]:
        """Qubit indices carrying a non-identity operator, ascending."""
        return tuple(i for i, c in enumerate(self._codes) if c != ops.I)

    @property
    def weight(self) -> int:
        """Number of non-identity operators."""
        return sum(1 for c in self._codes if c != ops.I)

    @property
    def is_identity(self) -> bool:
        return not any(self._codes)  # ops.I is code 0

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, qubit: int) -> str:
        return ops.CODE_TO_LABEL[self._codes[qubit]]

    def code_at(self, qubit: int) -> int:
        return self._codes[qubit]

    def __iter__(self) -> Iterator[str]:
        """Iterate labels by ascending qubit index."""
        return (ops.CODE_TO_LABEL[c] for c in self._codes)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def commutes_with(self, other: "PauliString") -> bool:
        """True if the two strings commute as operators.

        Two Pauli strings commute iff they anticommute on an even number of
        qubits.
        """
        self._check_compatible(other)
        anti = 0
        for a, b in zip(self._codes, other._codes):
            if a != ops.I and b != ops.I and a != b:
                anti ^= 1
        return anti == 0

    def compose(self, other: "PauliString") -> Tuple[complex, "PauliString"]:
        """Return ``(phase, P)`` with ``self @ other == phase * P``."""
        self._check_compatible(other)
        phase_exp = 0
        codes = bytearray(len(self._codes))
        for i, (a, b) in enumerate(zip(self._codes, other._codes)):
            codes[i] = a ^ b
            phase_exp = (phase_exp + ops.PRODUCT_PHASE[a][b]) % 4
        return 1j ** phase_exp, PauliString(codes)

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Phase-discarding product (useful for stabilizer bookkeeping)."""
        return self.compose(other)[1]

    def overlap(self, other: "PauliString") -> int:
        """Number of qubits where both strings carry the *same* non-identity
        operator.  This is the paper's gate-cancellation potential metric
        (Sections 4 and 5)."""
        self._check_compatible(other)
        return sum(
            1
            for a, b in zip(self._codes, other._codes)
            if a != ops.I and a == b
        )

    def shared_support(self, other: "PauliString") -> Tuple[int, ...]:
        """Qubits where both strings have the same non-identity operator."""
        self._check_compatible(other)
        return tuple(
            i
            for i, (a, b) in enumerate(zip(self._codes, other._codes))
            if a != ops.I and a == b
        )

    def disjoint_from(self, other: "PauliString") -> bool:
        """True when the supports do not intersect."""
        self._check_compatible(other)
        return all(
            a == ops.I or b == ops.I for a, b in zip(self._codes, other._codes)
        )

    # ------------------------------------------------------------------
    # Symplectic form
    # ------------------------------------------------------------------
    @property
    def x_bits(self) -> np.ndarray:
        """Boolean X-part in symplectic form, indexed by qubit."""
        return np.fromiter(((c & 1) for c in self._codes), dtype=bool, count=len(self._codes))

    @property
    def z_bits(self) -> np.ndarray:
        """Boolean Z-part in symplectic form, indexed by qubit."""
        return np.fromiter(((c >> 1) & 1 for c in self._codes), dtype=bool, count=len(self._codes))

    @classmethod
    def from_bits(cls, x_bits: Sequence[bool], z_bits: Sequence[bool]) -> "PauliString":
        """Build from symplectic X/Z bit vectors (indexed by qubit)."""
        if len(x_bits) != len(z_bits):
            raise ValueError("x and z bit vectors must have equal length")
        return cls(int(x) | (int(z) << 1) for x, z in zip(x_bits, z_bits))

    # ------------------------------------------------------------------
    # Ordering / comparison
    # ------------------------------------------------------------------
    def lex_key(self) -> Tuple[int, ...]:
        """Paper's lexicographic key: X < Y < Z < I, read from the highest
        qubit down to ``q0`` (Section 4.1)."""
        return tuple(ops.LEX_RANK[c] for c in reversed(self._codes))

    # ------------------------------------------------------------------
    # Dense forms
    # ------------------------------------------------------------------
    def to_matrix(self) -> np.ndarray:
        """Dense ``2**n x 2**n`` matrix.  Only sensible for small ``n``."""
        if self.num_qubits > 12:
            raise ValueError("refusing to build a dense matrix for > 12 qubits")
        out = np.ones((1, 1), dtype=complex)
        for code in reversed(self._codes):  # highest qubit is the leftmost factor
            out = np.kron(out, ops.matrix_of(code))
        return out

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return self._codes == other._codes

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PauliString('{self.label}')"

    def _check_compatible(self, other: "PauliString") -> None:
        if len(self._codes) != len(other._codes):
            raise ValueError(
                f"qubit-count mismatch: {len(self._codes)} vs {len(other._codes)}"
            )


@dataclass(frozen=True)
class SignedPauli:
    """An immutable ``sign * PauliString`` pair (``sign`` is +1 or -1).

    The row record of a Clifford tableau: the TK baseline's diagonalized
    strings, the measurement planner's readout rows and the verifier's
    residual-frame images all read it.
    """

    string: PauliString
    sign: int

    @property
    def num_qubits(self) -> int:
        return self.string.num_qubits

    def x_bit(self, qubit: int) -> int:
        return self.string.code_at(qubit) & 1

    def z_bit(self, qubit: int) -> int:
        return (self.string.code_at(qubit) >> 1) & 1

    def is_diagonal(self) -> bool:
        return all((c & 1) == 0 for c in self.string.codes)

    def to_string(self) -> PauliString:
        return self.string
