"""Block-wise instruction scheduling passes (paper Section 4).

Both passes consume a :class:`~repro.ir.PauliProgram` and produce a
*schedule*: an ordered list of layers, each layer an ordered list of
:class:`~repro.ir.PauliBlock` whose first element is the layer's *primary*
(largest) block and whose remaining elements are qubit-disjoint padding
blocks that execute in parallel with it.

* :func:`gco_schedule` — gate-count-oriented scheduling (Section 4.1):
  lexicographic ordering of blocks (X < Y < Z < I, highest qubit first),
  strings within each block sorted the same way; every block becomes its own
  singleton layer.
* :func:`do_schedule` — depth-oriented scheduling (Section 4.2, Algorithm
  1): blocks sorted by decreasing active length, layers built by picking the
  block with the most operator overlap with the previous layer and padding
  with disjoint small blocks whose accumulated depth fits under the primary.

The hot loop runs on the blocks' cached :class:`~repro.ir.BlockView` masks:
every candidate's overlap against the previous layer is one vectorized
popcount over pre-stacked operator-profile matrices, and the padding loop
compares packed support masks instead of rebuilding qubit sets, so a layer
costs O(remaining) mask operations rather than O(remaining x strings x
weight) Python rescans.

Both passes are semantics-preserving by the Pauli IR's commutative-sum
semantics; :func:`schedule_to_program` flattens a schedule back to a program
so the invariant can be checked (``multiset_of_terms`` is preserved).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..ir import PauliBlock, PauliProgram
from ..pauli.symplectic import popcount

__all__ = [
    "Schedule",
    "gco_schedule",
    "do_schedule",
    "schedule_to_program",
    "schedule_depth_estimate",
]

Schedule = List[List[PauliBlock]]


def gco_schedule(program: PauliProgram) -> Schedule:
    """Gate-count-oriented scheduling: global lexicographic block order."""
    blocks = [block.sorted_lexicographically() for block in program]
    blocks.sort(key=lambda b: b.lex_key())
    return [[block] for block in blocks]


def schedule_to_program(schedule: Schedule, name: str = "") -> PauliProgram:
    """Flatten a schedule into a program (layer order, primary first)."""
    blocks: List[PauliBlock] = []
    for layer in schedule:
        blocks.extend(layer)
    return PauliProgram(blocks, name=name)


# ----------------------------------------------------------------------
# Depth-oriented scheduling (Algorithm 1)
# ----------------------------------------------------------------------

def do_schedule(program: PauliProgram) -> Schedule:
    """Depth-oriented scheduling (Algorithm 1).

    Returns layers of a primary block plus padding blocks that share no
    qubit with it.  Padding uses per-qubit column heights so several small
    blocks may stack sequentially inside one layer as long as no column
    exceeds the primary block's depth estimate.
    """
    remaining = [block.sorted_lexicographically() for block in program]
    remaining.sort(key=lambda b: (-b.active_length, b.lex_key()))

    views = [block.view for block in remaining]
    profiles = np.stack([view.op_profile for view in views])     # (m, 3, nb)
    supports = np.stack([view.support_mask for view in views])   # (m, nb)
    depths = np.array([view.depth_estimate for view in views])
    lengths = np.array([view.active_length for view in views])
    radix = program.num_qubits + 1
    alive = np.ones(len(remaining), dtype=bool)

    layers: Schedule = []
    layer_profile: np.ndarray = None
    while alive.any():
        idxs = np.nonzero(alive)[0]
        if layer_profile is not None:
            # Overlap of every remaining block with the previous layer in
            # one shot: per-operator AND against the accumulated profile,
            # OR across operators, popcount per row.
            overlaps = popcount(
                np.bitwise_or.reduce(profiles[idxs] & layer_profile, axis=1)
            )
            # First maximum of (overlap, active length) in remaining order,
            # the selection max() makes over the scalar list, as one
            # argmax: both are at most the qubit count, below the radix.
            primary = int(idxs[np.argmax(overlaps * radix + lengths[idxs])])
        else:
            primary = int(idxs[0])
        alive[primary] = False
        layer = [remaining[primary]]
        layer_profile = profiles[primary].copy()
        primary_depth = int(depths[primary])
        primary_support = supports[primary]
        column_height: Dict[int, int] = {}

        # Candidates that share no qubit with the primary, in remaining
        # order.  A single in-order pass suffices: column heights only ever
        # grow, so a block that does not fit now can never fit later.
        idxs = np.nonzero(alive)[0]
        disjoint = ~np.bitwise_and(supports[idxs], primary_support).any(axis=1)
        for candidate in idxs[disjoint]:
            candidate = int(candidate)
            qubits = views[candidate].active_qubits
            depth = int(depths[candidate])
            start = max((column_height.get(q, 0) for q in qubits), default=0)
            if start + depth > primary_depth:
                continue
            layer.append(remaining[candidate])
            alive[candidate] = False
            layer_profile |= profiles[candidate]
            for q in qubits:
                column_height[q] = start + depth
        layers.append(layer)
    return layers


def schedule_depth_estimate(schedule: Schedule) -> int:
    """Estimated depth of a schedule: layers execute sequentially, blocks in
    a layer in parallel (up to padding stacking)."""
    total = 0
    for layer in schedule:
        total += max(block.depth_estimate() for block in layer)
    return total
