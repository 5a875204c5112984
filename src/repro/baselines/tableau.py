"""Clifford conjugation tracking and simultaneous diagonalization.

This is the substrate of the TK baseline (tket-style ``PauliSimp``): given a
set of *mutually commuting* Pauli strings, find a Clifford circuit ``C``
such that ``U_C P_k U_C^dagger`` is a Z-only (diagonal) string for every
``k``.  Then ``prod_k exp(i c_k P_k)`` compiles to
``C  (diagonal rotations)  C^dagger``.

The algorithm is symplectic Gram-Schmidt elimination (van den Berg & Temme,
Quantum 4, 322 (2020) style): process strings in order; each independent
string consumes a fresh pivot qubit and is reduced to exactly ``+Z_pivot``
using CNOT/S/H/SWAP/X conjugations that provably leave all previously fixed
strings untouched; dependent strings come out diagonal for free.

Signs are tracked exactly — a string conjugated to ``-Z...`` flips the sign
of its rotation angle downstream.

The tableau is bit-parallel over the tracked rows (Aaronson-Gottesman
column updates): each qubit holds two Python ints whose bit ``r`` is row
``r``'s X or Z bit there, and one more int holds the sign bits, so a gate
is a few word-wide int ops over all rows at once.  The same columns give
a string's anticommute row against every tracked row in one XOR per
qubit of its support; the TK partition and the commute check of
:func:`simultaneous_diagonalize` read commutation that way.  The
bit-packed numpy engine in ``tests/oracles/clifford.py`` is the reference
it is tested against.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..circuit import QuantumCircuit
from ..pauli import PauliString, SignedPauli

__all__ = ["ConjugationTracker", "simultaneous_diagonalize"]


class ConjugationTracker:
    """Applies Clifford gates to a batch of tracked Paulis in the Heisenberg
    picture while recording the gate sequence.

    After processing, ``circuit`` holds gates ``g_1 ... g_m`` (in emission
    order) whose composite unitary ``U = g_m ... g_1`` satisfies
    ``U P U^dagger = tracked value`` for every input Pauli.  ``xs[q]`` and
    ``zs[q]`` are qubit ``q``'s X and Z columns and ``phase`` the sign
    column (bit ``r`` set: row ``r`` is negated); every gate conjugates all
    rows at once.
    """

    def __init__(self, strings: Iterable[PauliString], num_qubits: int):
        strings = list(strings)
        if not strings:
            raise ValueError("a tracker needs at least one row")
        self.num_rows = len(strings)
        self.xs = xs = [0] * num_qubits
        self.zs = zs = [0] * num_qubits
        self.phase = 0
        for row, string in enumerate(strings):
            if string.num_qubits != num_qubits:
                raise ValueError(
                    f"strings act on {string.num_qubits} qubits, "
                    f"tracker built for {num_qubits}"
                )
            bit = 1 << row
            for qubit, code in enumerate(string.codes):
                if code & 1:
                    xs[qubit] |= bit
                if code & 2:
                    zs[qubit] |= bit
        self.circuit = QuantumCircuit(num_qubits)

    # -- gate applications: P -> g P g^dagger on every row -----------------
    def h(self, q: int) -> None:
        xs, zs = self.xs, self.zs
        self.phase ^= xs[q] & zs[q]
        xs[q], zs[q] = zs[q], xs[q]
        self.circuit.h(q)

    def s(self, q: int) -> None:
        x = self.xs[q]
        self.phase ^= x & self.zs[q]
        self.zs[q] ^= x
        self.circuit.s(q)

    def sdg(self, q: int) -> None:
        x = self.xs[q]
        self.phase ^= x & ~self.zs[q]
        self.zs[q] ^= x
        self.circuit.sdg(q)

    def x(self, q: int) -> None:
        self.phase ^= self.zs[q]
        self.circuit.x(q)

    def cx(self, control: int, target: int) -> None:
        xs, zs = self.xs, self.zs
        xc, zt = xs[control], zs[target]
        self.phase ^= xc & zt & ~(xs[target] ^ zs[control])
        xs[target] ^= xc
        zs[control] ^= zt
        self.circuit.cx(control, target)

    def swap(self, a: int, b: int) -> None:
        xs, zs = self.xs, self.zs
        xs[a], xs[b] = xs[b], xs[a]
        zs[a], zs[b] = zs[b], zs[a]
        self.circuit.swap(a, b)

    # -- row queries -------------------------------------------------------
    def __len__(self) -> int:
        return self.num_rows

    def x_bit(self, row: int, qubit: int) -> int:
        return (self.xs[qubit] >> row) & 1

    def z_bit(self, row: int, qubit: int) -> int:
        return (self.zs[qubit] >> row) & 1

    def anticommuting_rows(self, string: PauliString) -> int:
        """The rows that anticommute with ``string``, as an int whose bit
        ``r`` is row ``r``: the XOR of ``zs[q]`` over the string's X qubits
        and ``xs[q]`` over its Z qubits.

        Conjugation keeps commutation, so before any gate this is the
        anticommute row of ``string`` against the input strings.
        """
        xs, zs = self.xs, self.zs
        rows = 0
        for qubit, code in enumerate(string.codes):
            if code & 1:
                rows ^= zs[qubit]
            if code & 2:
                rows ^= xs[qubit]
        return rows

    def sign(self, row: int) -> int:
        return -1 if (self.phase >> row) & 1 else 1

    def is_diagonal(self, row: int) -> bool:
        """True when the row has no X component (Z/I only)."""
        bit = 1 << row
        return not any(x & bit for x in self.xs)

    def signed(self, row: int) -> SignedPauli:
        codes = bytes(((x >> row) & 1) | (((z >> row) & 1) << 1)
                      for x, z in zip(self.xs, self.zs))
        return SignedPauli(PauliString(codes), self.sign(row))

    def to_signed_paulis(self) -> List[SignedPauli]:
        return [self.signed(row) for row in range(self.num_rows)]


def simultaneous_diagonalize(
    strings: Sequence[PauliString],
) -> Tuple[QuantumCircuit, List[SignedPauli]]:
    """Find a Clifford ``C`` diagonalizing a mutually-commuting string set.

    Returns ``(clifford_circuit, tracked)`` where ``tracked[k]`` is the
    conjugated form of ``strings[k]``: a signed Z-only string.

    Raises ``ValueError`` if the input strings do not mutually commute.
    """
    if not strings:
        raise ValueError("need at least one string")
    n = strings[0].num_qubits
    tracker = ConjugationTracker(strings, n)
    # The commute check reads the columns before any gate: the first pair
    # (i, j), i < j, that anticommutes is the lowest bit above i of row
    # i's anticommute row.
    for i, string in enumerate(strings):
        later = tracker.anticommuting_rows(string) >> (i + 1)
        if later:
            j = i + (later & -later).bit_length()
            raise ValueError(
                f"strings {string.label} and {strings[j].label} do not commute"
            )

    next_pivot = 0
    for row in range(len(strings)):
        if tracker.is_diagonal(row):
            continue  # dependent (or already diagonal) string: free
        pivot = next_pivot
        next_pivot += 1
        if pivot >= n:
            raise ValueError("more independent strings than qubits")

        # 1. Choose a column with an X component.  Previously fixed strings
        #    are exactly Z_j for pivots j < pivot, and this string commutes
        #    with them, so its X support lives on non-pivot qubits.
        x_cols = [q for q in range(n) if tracker.x_bit(row, q)]
        col = x_cols[0]
        # 2. Collapse all other X bits onto `col` with CNOTs out of `col`.
        for q in x_cols[1:]:
            tracker.cx(col, q)
        # 3. Clear a possible Y at the column, then rotate X -> Z.
        if tracker.z_bit(row, col):
            tracker.s(col)
        tracker.h(col)
        # 4. Move the column onto the pivot qubit.
        if col != pivot:
            tracker.swap(col, pivot)
        # 5. Clear remaining Z bits (string is now Z-only) onto the pivot.
        for q in range(n):
            if q != pivot and tracker.z_bit(row, q):
                tracker.cx(q, pivot)
        # 6. Fix the sign so the string is exactly +Z_pivot.
        if tracker.sign(row) < 0:
            tracker.x(pivot)
        assert tracker.signed(row) == SignedPauli(
            PauliString.from_sparse(n, {pivot: "Z"}), 1
        )

    return tracker.circuit, tracker.to_signed_paulis()
