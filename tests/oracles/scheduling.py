"""Scalar reference implementations of the scheduler hot paths.

These are the seed's per-byte Python implementations, kept verbatim as
*behavioral oracles*: the vectorized kernels in :mod:`repro.core.scheduling`
and :mod:`repro.core.ft_backend` must produce byte-identical schedules and
orderings.  Tests (hypothesis equivalence) and the kernel micro-benchmark
(``benchmarks/bench_kernels.py``) both import from here so the oracle cannot
drift between the two.

Everything here deliberately avoids the cached :class:`~repro.ir.BlockView`
masks — supports, depths, and profiles are recomputed from the raw strings
on every call, exactly as the seed did.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.ir import PauliBlock, PauliProgram
from repro.pauli import PauliString

__all__ = [
    "scalar_most_overlap_sort",
    "scalar_layer_operator_overlap",
    "scalar_do_schedule",
]


def scalar_most_overlap_sort(
    strings: List[Tuple[PauliString, float]],
) -> List[Tuple[PauliString, float]]:
    """Seed ``most_overlap_sort``: greedy chaining via scalar ``overlap``."""
    if len(strings) <= 2:
        return list(strings)
    remaining = list(strings)
    ordered = [remaining.pop(0)]
    while remaining:
        tail = ordered[-1][0]
        best = max(remaining, key=lambda term: tail.overlap(term[0]))
        remaining.remove(best)
        ordered.append(best)
    return ordered


def _operator_profile(blocks: Sequence[PauliBlock]) -> Dict[int, set]:
    """Per-qubit set of non-identity operator labels appearing in ``blocks``."""
    profile: Dict[int, set] = {}
    for block in blocks:
        for ws in block:
            for qubit in ws.string.support:
                profile.setdefault(qubit, set()).add(ws.string[qubit])
    return profile


def scalar_layer_operator_overlap(
    block: PauliBlock, layer: Sequence[PauliBlock]
) -> int:
    """Seed Overlap() of Algorithm 1: per-qubit label-set intersection."""
    block_profile = _operator_profile([block])
    layer_profile = _operator_profile(layer)
    return sum(
        1
        for qubit, labels in block_profile.items()
        if labels & layer_profile.get(qubit, set())
    )


def _active_qubits(block: PauliBlock) -> Tuple[int, ...]:
    active = set()
    for ws in block:
        active.update(ws.string.support)
    return tuple(sorted(active))


def _depth_estimate(block: PauliBlock) -> int:
    total = 0
    for ws in block:
        w = ws.string.weight
        if w > 0:
            total += 2 * (w - 1) + 1
    return total


def _sorted_block(block: PauliBlock) -> PauliBlock:
    ordered = sorted(block.strings, key=lambda ws: ws.string.lex_key())
    return PauliBlock(ordered, block.parameter, block.name)


def scalar_do_schedule(program: PauliProgram) -> List[List[PauliBlock]]:
    """Seed depth-oriented scheduler (Algorithm 1), fully scalar."""
    remaining = [_sorted_block(block) for block in program]
    remaining.sort(
        key=lambda b: (
            -len(_active_qubits(b)),
            min(ws.string.lex_key() for ws in b),
        )
    )
    layers: List[List[PauliBlock]] = []
    while remaining:
        if layers:
            primary = max(
                remaining,
                key=lambda b: (
                    scalar_layer_operator_overlap(b, layers[-1]),
                    len(_active_qubits(b)),
                ),
            )
        else:
            primary = remaining[0]
        remaining.remove(primary)
        layer = [primary]
        primary_depth = _depth_estimate(primary)
        primary_qubits = set(_active_qubits(primary))
        column_height: Dict[int, int] = {}
        padded = True
        while padded:
            padded = False
            for candidate in list(remaining):
                qubits = set(_active_qubits(candidate))
                if qubits & primary_qubits:
                    continue
                depth = _depth_estimate(candidate)
                start = max((column_height.get(q, 0) for q in qubits), default=0)
                if start + depth > primary_depth:
                    continue
                layer.append(candidate)
                remaining.remove(candidate)
                for q in qubits:
                    column_height[q] = start + depth
                padded = True
        layers.append(layer)
    return layers
