"""The Pauli IR program: an ordered list of Pauli blocks.

This is the ``<program>`` production of Figure 5.  The semantics (Figure 7)
is the Hermitian operator obtained by *summing* the blocks, so any reordering
of blocks — and of strings within a block — is semantics-preserving.  That
commutativity is the licence the scheduling passes (Section 4) rely on.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .blocks import PauliBlock, WeightedString, encode_symplectic_rows

__all__ = ["PauliProgram"]


class PauliProgram:
    """An ordered list of :class:`PauliBlock` on a fixed qubit count."""

    def __init__(self, blocks: Iterable[PauliBlock], name: str = ""):
        block_list: List[PauliBlock] = list(blocks)
        if not block_list:
            raise ValueError("a Pauli IR program must contain at least one block")
        n = block_list[0].num_qubits
        for block in block_list:
            if not isinstance(block, PauliBlock):
                raise TypeError(f"expected PauliBlock, got {type(block).__name__}")
            if block.num_qubits != n:
                raise ValueError(
                    "all blocks must act on the same qubit count: "
                    f"{block.num_qubits} vs {n}"
                )
        self._blocks = block_list
        self.name = name
        self._canonical: bytes = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_hamiltonian(
        cls,
        terms: Iterable,
        parameter: float = 1.0,
        name: str = "",
    ) -> "PauliProgram":
        """Build a one-string-per-block program from ``(label|PauliString,
        weight)`` pairs — the plain Trotter-simulation form (Figure 6a).

        ``terms`` may be any iterable, including a generator from the
        scale workload emitters (:mod:`repro.workloads`): terms are
        consumed in one pass and never re-read."""
        blocks = [
            PauliBlock([entry], parameter=parameter) for entry in terms
        ]
        return cls(blocks, name=name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def blocks(self) -> Tuple[PauliBlock, ...]:
        return tuple(self._blocks)

    @property
    def num_qubits(self) -> int:
        return self._blocks[0].num_qubits

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    @property
    def num_strings(self) -> int:
        return sum(block.num_strings for block in self._blocks)

    def all_weighted_strings(self) -> Iterator[Tuple[WeightedString, float]]:
        """Yield every ``(weighted_string, block_parameter)`` pair in program
        order."""
        for block in self._blocks:
            for ws in block:
                yield ws, block.parameter

    def release_views(self) -> None:
        """Drop every block's memoized symplectic view (rebuilt lazily).

        The streaming compile path (:mod:`repro.core.streaming`) releases
        views block by block as layers are consumed; this is the coarse
        whole-program variant for callers that keep a large program alive
        after compiling it."""
        for block in self._blocks:
            block.release_view()

    # ------------------------------------------------------------------
    # Semantics (Figure 7)
    # ------------------------------------------------------------------
    def to_hamiltonian(self) -> np.ndarray:
        """Dense matrix semantics: sum over blocks of
        ``parameter * sum_j weight_j * P_j``.  Small ``n`` only."""
        if self.num_qubits > 12:
            raise ValueError("refusing to build a dense Hamiltonian for > 12 qubits")
        dim = 2 ** self.num_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for ws, parameter in self.all_weighted_strings():
            out += parameter * ws.weight * ws.string.to_matrix()
        return out

    def multiset_of_terms(self) -> dict:
        """Multiset ``{(string, weight * parameter): multiplicity}``.

        Two programs with equal multisets have identical IR semantics; the
        scheduling passes must preserve this exactly (tested as an invariant).
        """
        counts: dict = {}
        for ws, parameter in self.all_weighted_strings():
            key = (ws.string, ws.weight * parameter)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def canonical_form(self) -> bytes:
        """Order-insensitive canonical encoding of the program's semantics.

        Concatenates the qubit count with every block's
        :meth:`~repro.ir.blocks.PauliBlock.canonical_bytes`, the block
        encodings themselves sorted bytewise.  Since block order and string
        order are semantically irrelevant (the operator is a sum), two
        programs that are term-reorderings or coefficient-reformattings of
        each other share one canonical form, while semantically distinct
        programs differ.  The serving layer hashes this to content-address
        compilation artifacts; the program ``name`` is deliberately
        excluded (it is metadata, not semantics).

        Programs are immutable, so the encoding is computed once and cached
        (the serving layer re-fingerprints the same program on every
        cache-hit lookup).  All blocks are packed in **one** symplectic
        sweep — per-block packing calls dominate fingerprint latency on
        one-string-per-block Hamiltonians with thousands of terms.
        """
        if self._canonical is None:
            n = self.num_qubits
            codes = np.frombuffer(
                b"".join(
                    ws.string.codes for block in self._blocks for ws in block
                ),
                dtype=np.uint8,
            ).reshape(-1, n)
            coefficients = [
                ws.weight * block.parameter
                for block in self._blocks
                for ws in block
            ]
            encoded = []
            offset = 0
            for block in self._blocks:
                count = block.num_strings
                encoded.append(encode_symplectic_rows(
                    codes[offset:offset + count],
                    coefficients[offset:offset + count],
                ))
                offset += count
            encoded.sort()
            self._canonical = (
                b"pauli-program-v1"
                + struct.pack("<II", n, len(encoded))
                + b"".join(encoded)
            )
        return self._canonical

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_blocks(self, blocks: Sequence[PauliBlock]) -> "PauliProgram":
        return PauliProgram(blocks, name=self.name)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[PauliBlock]:
        return iter(self._blocks)

    def __getitem__(self, index: int) -> PauliBlock:
        return self._blocks[index]

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"PauliProgram{tag}(qubits={self.num_qubits}, "
            f"blocks={self.num_blocks}, strings={self.num_strings})"
        )
