"""Pauli IR blocks: weighted Pauli strings sharing one parameter.

A :class:`PauliBlock` is the ``pauli_block`` production of the IR grammar in
Figure 5 of the paper:

.. code-block:: text

    <pauli_block> ::= { <pauli_str_list>, parameter }

All strings in a block share one real parameter (e.g. a Trotter step or a
variational angle) and the block is the unit the schedulers move around:
strings inside a block are *always kept together* (Section 3.2, "Encoding
constraints").
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from ..pauli import PauliString
from ..pauli.symplectic import PauliTable, popcount

__all__ = ["WeightedString", "PauliBlock", "BlockView"]


class WeightedString:
    """A ``(pauli_str, weight)`` pair — one entry of a ``pauli_str_list``."""

    __slots__ = ("string", "weight")

    def __init__(self, string: PauliString, weight: float = 1.0):
        if not isinstance(string, PauliString):
            raise TypeError(f"expected PauliString, got {type(string).__name__}")
        self.string = string
        self.weight = float(weight)

    @property
    def num_qubits(self) -> int:
        return self.string.num_qubits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedString):
            return NotImplemented
        # Structural identity, not numeric closeness.
        return (self.string == other.string
                and self.weight == other.weight)  # lint: allow-float-eq

    def __hash__(self) -> int:
        return hash((self.string, self.weight))

    def __repr__(self) -> str:
        return f"WeightedString({self.string.label!r}, {self.weight!r})"


class BlockView:
    """Memoized symplectic view of one block (built lazily, kept for life).

    The schedulers and synthesis passes interrogate the same block-level
    facts over and over — support masks, per-qubit operator profiles, depth
    estimates — and recomputing them from the scalar strings on every query
    is what made scheduling quadratic-to-cubic.  A ``BlockView`` computes
    them once from the block's :class:`~repro.pauli.symplectic.PauliTable`
    and caches the results as packed bit masks ready for batch arithmetic.

    Attributes
    ----------
    table:
        The block's strings as a :class:`PauliTable`.
    support_mask:
        Packed ``uint8`` vector; bit set where any string is non-identity.
    op_profile:
        ``(3, nbytes)`` packed presence masks, one row per operator
        (``X``, ``Z``, ``Y``): bit ``q`` of row ``k`` is set when some
        string carries that operator on qubit ``q``.  The operator overlap
        of two profiles is ``popcount(OR_k(a[k] & b[k]))``.
    active_qubits, active_length, core_qubits, depth_estimate:
        Cached values of the like-named :class:`PauliBlock` queries.
    """

    __slots__ = (
        "table",
        "support_mask",
        "op_profile",
        "active_qubits",
        "active_length",
        "core_qubits",
        "depth_estimate",
        "lex_order",
        "lex_key",
    )

    def __init__(self, block: "PauliBlock"):
        table = PauliTable.from_strings(block.pauli_strings)
        self.table = table
        self.lex_order = table.lex_argsort()
        self.lex_key = tuple(int(r) for r in table.lex_ranks()[self.lex_order[0]])
        supports = table.support_masks()
        self.support_mask = np.bitwise_or.reduce(supports, axis=0)
        self.op_profile = np.stack(
            [
                np.bitwise_or.reduce(table.x & ~table.z, axis=0),  # X
                np.bitwise_or.reduce(table.z & ~table.x, axis=0),  # Z
                np.bitwise_or.reduce(table.x & table.z, axis=0),   # Y
            ]
        )
        self.active_qubits = _mask_to_qubits(self.support_mask, table.num_qubits)
        self.active_length = len(self.active_qubits)
        self.core_qubits = _mask_to_qubits(
            np.bitwise_and.reduce(supports, axis=0), table.num_qubits
        )
        weights = table.weights()
        active = weights > 0
        self.depth_estimate = int((2 * (weights[active] - 1) + 1).sum())

    def operator_overlap(self, other_profile: np.ndarray) -> int:
        """Qubits where this block and ``other_profile`` share an identical
        non-identity operator (the Overlap() of Algorithm 1)."""
        return int(
            popcount(np.bitwise_or.reduce(self.op_profile & other_profile, axis=0))
        )


def _mask_to_qubits(mask: np.ndarray, num_qubits: int) -> Tuple[int, ...]:
    bits = np.unpackbits(mask, bitorder="little", count=num_qubits)
    return tuple(int(q) for q in np.nonzero(bits)[0])


def encode_symplectic_rows(codes: np.ndarray, coefficients) -> bytes:
    """Sorted canonical record block for ``(m, n)`` Pauli codes + coefficients.

    Each record is the bit-packed symplectic X part, Z part, and the
    little-endian IEEE-754 coefficient; records are sorted bytewise so the
    encoding is term-order-insensitive.  Shared by
    :meth:`PauliBlock.canonical_bytes` and the one-sweep
    :meth:`~repro.ir.program.PauliProgram.canonical_form` fast path, which
    must produce identical bytes.
    """
    x = np.packbits(codes & 1, axis=1, bitorder="little")
    z = np.packbits(codes >> 1, axis=1, bitorder="little")
    # "+ 0.0" collapses -0.0 onto +0.0 so the two encode identically.
    coeff_bytes = (np.asarray(coefficients, dtype="<f8") + 0.0).tobytes()
    rows = [
        x[i].tobytes() + z[i].tobytes() + coeff_bytes[8 * i: 8 * i + 8]
        for i in range(len(coefficients))
    ]
    rows.sort()
    return struct.pack("<I", len(rows)) + b"".join(rows)


class PauliBlock:
    """A list of weighted Pauli strings sharing a single real parameter.

    Parameters
    ----------
    strings:
        The weighted strings.  Entries may be :class:`WeightedString`,
        bare :class:`~repro.pauli.PauliString` (weight 1.0), or
        ``(PauliString | label, weight)`` tuples.
    parameter:
        The shared real parameter (``theta``/``gamma``/``dt`` in the paper).
    name:
        Optional human-readable tag used in reports.
    """

    __slots__ = ("_strings", "parameter", "name", "_view", "_sorted")

    def __init__(
        self,
        strings: Iterable,
        parameter: float = 1.0,
        name: str = "",
    ):
        normalized: List[WeightedString] = []
        for entry in strings:
            normalized.append(self._normalize(entry))
        if not normalized:
            raise ValueError("a Pauli block must contain at least one string")
        n = normalized[0].num_qubits
        for ws in normalized:
            if ws.num_qubits != n:
                raise ValueError(
                    "all strings in a block must act on the same qubit count: "
                    f"{ws.num_qubits} vs {n}"
                )
        self._strings = normalized
        self.parameter = float(parameter)
        self.name = name
        self._view: "BlockView" = None
        self._sorted: "PauliBlock" = None

    @staticmethod
    def _normalize(entry) -> WeightedString:
        if isinstance(entry, WeightedString):
            return entry
        if isinstance(entry, PauliString):
            return WeightedString(entry, 1.0)
        if isinstance(entry, str):
            return WeightedString(PauliString.from_label(entry), 1.0)
        string, weight = entry
        if isinstance(string, str):
            string = PauliString.from_label(string)
        return WeightedString(string, weight)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def strings(self) -> Tuple[WeightedString, ...]:
        return tuple(self._strings)

    @property
    def pauli_strings(self) -> Tuple[PauliString, ...]:
        """The bare strings, without weights."""
        return tuple(ws.string for ws in self._strings)

    @property
    def num_qubits(self) -> int:
        return self._strings[0].num_qubits

    @property
    def num_strings(self) -> int:
        return len(self._strings)

    @property
    def view(self) -> "BlockView":
        """The block's memoized symplectic view (built on first access)."""
        if self._view is None:
            self._view = BlockView(self)
        return self._view

    def release_view(self) -> None:
        """Drop the memoized view (and the sorted twin's) to reclaim memory.

        The view is rebuilt on the next access, so releasing is always
        safe; it is the streaming scheduler's release-after-schedule hook
        (``core/streaming.py``) that keeps million-term compilations from
        accumulating one realized view per block.  The ``_sorted`` link
        itself is kept — re-sorting is pure bookkeeping — but its view is
        released too, since the sorted twin is what a schedule emits.
        """
        self._view = None
        twin = self._sorted
        if twin is not None and twin is not self:
            twin._view = None

    @property
    def active_qubits(self) -> Tuple[int, ...]:
        """Qubits with a non-identity operator in at least one string."""
        return self.view.active_qubits

    @property
    def active_length(self) -> int:
        """Paper's over-approximation of block footprint (Section 4.2)."""
        return self.view.active_length

    @property
    def core_qubits(self) -> Tuple[int, ...]:
        """Qubits with a non-identity operator in *all* strings (Section 5.2)."""
        return self.view.core_qubits

    def depth_estimate(self) -> int:
        """Cheap per-block depth estimate used by the DO scheduler padding
        loop: the dominant cost of a string of weight ``w`` is its two CNOT
        trees, ``2 * (w - 1)`` CNOT levels, plus the central rotation."""
        return self.view.depth_estimate

    def is_mutually_commuting(self) -> bool:
        """True if every pair of strings in the block commutes."""
        strings = self.pauli_strings
        return all(
            strings[i].commutes_with(strings[j])
            for i in range(len(strings))
            for j in range(i + 1, len(strings))
        )

    def overlaps_qubits(self, other: "PauliBlock") -> bool:
        """True when the two blocks' active-qubit sets intersect."""
        return bool(set(self.active_qubits) & set(other.active_qubits))

    # ------------------------------------------------------------------
    # Transformations (all return new blocks; blocks are conceptually
    # immutable once inside a program)
    # ------------------------------------------------------------------
    def sorted_lexicographically(self) -> "PauliBlock":
        """Sort strings inside the block by the paper's lexicographic key.

        The result is cached (blocks are immutable), so schedulers that
        re-sort the same program reuse one block object and its view."""
        if self._sorted is None:
            if len(self._strings) == 1:
                # Singleton blocks (the plain-Hamiltonian form, and the
                # whole of the million-term scale regime) are trivially
                # sorted; skip the symplectic view build entirely.
                self._sorted = self
                return self
            order = self.view.lex_order
            if all(int(order[i]) == i for i in range(len(order))):
                self._sorted = self
            else:
                block = PauliBlock(
                    [self._strings[int(i)] for i in order], self.parameter, self.name
                )
                block._sorted = block
                self._sorted = block
        return self._sorted

    def canonical_bytes(self) -> bytes:
        """Order-insensitive canonical encoding of this block's semantics.

        One record per string — the packed symplectic X and Z parts followed
        by the IEEE-754 encoding of the *effective* coefficient
        ``weight * parameter`` — with the records sorted bytewise.  Two
        blocks that differ only in string order, in how the coefficient is
        split between weight and parameter, or in how a coefficient literal
        was formatted, encode identically; blocks with different semantics
        encode differently (up to float representability).

        This is the per-block unit the serving layer's content fingerprint
        (:mod:`repro.service.fingerprint`) is built from.  The packing goes
        straight from the raw code bytes (one :func:`numpy.packbits` sweep)
        rather than through :class:`BlockView`, so fingerprinting a program
        never triggers view construction it doesn't otherwise need.
        """
        codes = np.frombuffer(
            b"".join(ws.string.codes for ws in self._strings), dtype=np.uint8
        ).reshape(len(self._strings), self.num_qubits)
        return encode_symplectic_rows(
            codes, [ws.weight * self.parameter for ws in self._strings]
        )

    def lex_key(self) -> Tuple[int, ...]:
        """Block-level lexicographic key: the *minimum* of its strings' keys.

        For a block that has been intra-block sorted this equals the first
        string's key (Section 4.1 uses the first string as the block
        representative), but taking ``min`` keeps the key independent of the
        strings' current order, so unsorted blocks rank identically."""
        return self.view.lex_key

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._strings)

    def __iter__(self) -> Iterator[WeightedString]:
        return iter(self._strings)

    def __getitem__(self, index: int) -> WeightedString:
        return self._strings[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliBlock):
            return NotImplemented
        return (
            self._strings == other._strings
            # Structural identity, not numeric closeness.
            and self.parameter == other.parameter  # lint: allow-float-eq
        )

    def __repr__(self) -> str:
        labels = ", ".join(
            f"({ws.string.label}, {ws.weight})" for ws in self._strings[:4]
        )
        if len(self._strings) > 4:
            labels += ", ..."
        tag = f" {self.name!r}" if self.name else ""
        return f"PauliBlock{tag}[{labels}; parameter={self.parameter}]"
