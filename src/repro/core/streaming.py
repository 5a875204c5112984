"""Streaming block scheduling for million-term programs.

`gco_schedule` and `do_schedule` (core/scheduling.py) materialize the
whole program before emitting a single layer: every block gets a
realized :class:`~repro.ir.BlockView` (packed table, profile, support,
lex key) and ``do_schedule`` additionally ``np.stack``s all profiles
into one ``(m, 3, nbytes)`` matrix.  At paper scale that is fine; at
200 qubits and 10^5 terms the views alone are ~600 MB and the per-block
view construction dominates wall time.

This module reimplements both schedulers as *streams*:

* **Scan** (:func:`scan_blocks`): one pass over the input blocks —
  accepted as a :class:`~repro.ir.PauliProgram` or any block iterable,
  including a generator — computing, in chunked batched numpy sweeps,
  each block's compact byte lex key, active length, and depth estimate.
  No ``BlockView`` is built; per-block state is one small ``bytes`` key
  plus two integers.
* **Order**: a global sort on the compact keys.  The keys compare
  exactly like ``PauliString.lex_key`` tuples (see
  :func:`repro.pauli.symplectic.lex_rank_matrix`), so the order matches
  the materialized schedulers bit for bit.
* **Emit**: layers are yielded incrementally.  The depth-oriented
  variant keeps a *frontier window* of at most ``window`` realized
  profile rows (refilled from the sorted order as layers drain it) and
  runs Algorithm 1's primary selection and disjoint padding as
  vectorized operations over the window.  Emitted blocks may be
  released (:meth:`~repro.ir.PauliBlock.release_view`) by the consumer;
  the scheduler itself never realizes a view for singleton blocks.

Equivalence: with ``window >= len(blocks)`` the frontier holds every
remaining block, so :func:`streaming_do_schedule` reproduces
``do_schedule`` layer for layer and :func:`streaming_gco_schedule`
reproduces ``gco_schedule`` exactly (property-pinned in
tests/test_streaming.py).  With a smaller window the term multiset,
layer disjointness, and depth-fit invariants still hold — the window
only limits how far ahead the scheduler may look for the best primary.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..ir import PauliBlock, PauliProgram
from ..pauli.symplectic import lex_rank_matrix, popcount
from ..static.contracts import register_callable

__all__ = [
    "DEFAULT_WINDOW",
    "SCAN_CHUNK_STRINGS",
    "scan_blocks",
    "streaming_gco_schedule",
    "streaming_do_schedule",
    "stream_schedule",
    "is_streaming_scheduler",
]

#: Frontier size for :func:`streaming_do_schedule`.  4096 profile rows at
#: 500 qubits is ~2.3 MB — invisible next to the input itself — while
#: being far wider than any layer the paper workloads produce.
DEFAULT_WINDOW = 4096

#: Strings per batched scan sweep.  Bounds the transient ``(chunk, n)``
#: code matrix in :func:`scan_blocks` to a few MB.
SCAN_CHUNK_STRINGS = 16384

BlockSource = Union[PauliProgram, Iterable[PauliBlock]]


def _iter_blocks(source: BlockSource) -> Iterator[PauliBlock]:
    if isinstance(source, PauliProgram):
        return iter(source)
    return iter(source)


def _chunk_codes(blocks: List[PauliBlock], num_qubits: int) -> np.ndarray:
    """Raw ``(total_strings, n)`` code matrix of a chunk in one copy."""
    return np.frombuffer(
        b"".join(ws.string.codes for b in blocks for ws in b), dtype=np.uint8
    ).reshape(-1, num_qubits)


def _chunk_starts(counts: np.ndarray) -> np.ndarray:
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


def scan_blocks(
    source: BlockSource,
    chunk_strings: int = SCAN_CHUNK_STRINGS,
) -> Tuple[List[PauliBlock], List[bytes], np.ndarray, int]:
    """Single streaming pass over ``source``.

    Returns ``(blocks, keys, lengths, num_qubits)`` where ``keys[i]`` is
    block ``i``'s lex key as bytes (ordered identically to
    ``PauliBlock.lex_key()``) and ``lengths[i]`` its active length.  Works
    in chunked batched sweeps of at most ``chunk_strings`` strings, so the
    transient numpy state is O(chunk), independent of program size.
    """
    blocks: List[PauliBlock] = []
    keys: List[bytes] = []
    lengths: List[int] = []
    num_qubits = 0

    pending: List[PauliBlock] = []
    pending_strings = 0

    def flush() -> None:
        nonlocal pending, pending_strings
        if not pending:
            return
        n = pending[0].num_qubits
        codes = _chunk_codes(pending, n)
        ranks = lex_rank_matrix(codes)          # (S, n) uint8
        rank_bytes = ranks.tobytes()
        counts = np.fromiter(
            (b.num_strings for b in pending), dtype=np.int64, count=len(pending)
        )
        starts = _chunk_starts(counts)
        # Per-block active length: popcount of the OR of string supports.
        packed = np.packbits(codes != 0, axis=1, bitorder="little")
        block_lengths = popcount(np.bitwise_or.reduceat(packed, starts, axis=0))
        row = 0
        for i, block in enumerate(pending):
            k = int(counts[i])
            if k == 1:
                key = rank_bytes[row * n:(row + 1) * n]
            else:
                key = min(
                    rank_bytes[(row + j) * n:(row + j + 1) * n]
                    for j in range(k)
                )
            keys.append(key)
            lengths.append(int(block_lengths[i]))
            row += k
        blocks.extend(pending)
        pending = []
        pending_strings = 0

    for block in _iter_blocks(source):
        if num_qubits == 0:
            num_qubits = block.num_qubits
        pending.append(block)
        pending_strings += block.num_strings
        if pending_strings >= chunk_strings:
            flush()
    flush()
    return blocks, keys, np.asarray(lengths, dtype=np.int64), num_qubits


def _batch_stats(
    blocks: List[PauliBlock], num_qubits: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Realize ``(profiles, supports, depths)`` for a refill batch.

    One batched sweep — a single code-matrix copy, two ``packbits``, four
    ``reduceat`` reductions — instead of one ``BlockView`` per block.
    ``profiles`` is ``(k, 3, nbytes)`` in the X/Z/Y channel order of
    :class:`~repro.ir.BlockView.op_profile`, ``supports`` ``(k, nbytes)``,
    ``depths`` ``(k,)``.
    """
    counts = np.fromiter(
        (b.num_strings for b in blocks), dtype=np.int64, count=len(blocks)
    )
    starts = _chunk_starts(counts)
    codes = _chunk_codes(blocks, num_qubits)
    x = np.packbits(codes & 1, axis=1, bitorder="little")
    z = np.packbits(codes >> 1, axis=1, bitorder="little")
    supports = np.bitwise_or.reduceat(x | z, starts, axis=0)
    profiles = np.stack(
        [
            np.bitwise_or.reduceat(x & ~z, starts, axis=0),
            np.bitwise_or.reduceat(z & ~x, starts, axis=0),
            np.bitwise_or.reduceat(x & z, starts, axis=0),
        ],
        axis=1,
    )
    weights = popcount(x | z)
    contribution = np.where(weights > 0, 2 * (weights - 1) + 1, 0)
    depths = np.add.reduceat(contribution, starts)
    return profiles, supports, depths


def _emit(block: PauliBlock) -> PauliBlock:
    """Intra-block sort on emission; singleton blocks never build a view."""
    return block.sorted_lexicographically()


def streaming_gco_schedule(
    source: BlockSource,
    window: int = DEFAULT_WINDOW,
) -> Iterator[List[PauliBlock]]:
    """Streaming gate-count-oriented scheduling.

    Scans once for compact keys, sorts the keys, then yields singleton
    layers in key order.  Equivalent to ``gco_schedule`` on any input
    (the compact byte keys order exactly like ``PauliBlock.lex_key``),
    but never builds a ``BlockView`` for singleton blocks and holds no
    profile matrices at all.  ``window`` is accepted for interface
    symmetry with :func:`streaming_do_schedule`; gco needs no frontier.
    """
    del window
    blocks, keys, _lengths, _n = scan_blocks(source)
    order = sorted(range(len(blocks)), key=keys.__getitem__)
    for index in order:
        yield [_emit(blocks[index])]


def streaming_do_schedule(
    source: BlockSource,
    window: int = DEFAULT_WINDOW,
) -> Iterator[List[PauliBlock]]:
    """Streaming depth-oriented scheduling (Algorithm 1, windowed).

    Blocks are globally ordered by ``(-active_length, lex_key)`` on
    compact scan keys, then consumed through a frontier of at most
    ``window`` realized profile rows.  Each layer picks the frontier
    block with maximum operator overlap against the previous layer (ties
    by active length, then order — the exact ``do_schedule`` selection)
    and pads with qubit-disjoint frontier blocks under the primary's
    depth, using vectorized support/depth pruning.  Profile memory is
    O(window); with ``window >= len(blocks)`` the output equals
    ``do_schedule`` layer for layer.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    blocks, keys, lengths, num_qubits = scan_blocks(source)
    total = len(blocks)
    if total == 0:
        return
    order = sorted(range(total), key=lambda i: (-int(lengths[i]), keys[i]))
    del keys

    position = 0                       # next index into `order` to admit
    f_blocks: List[PauliBlock] = []    # frontier, in global order
    f_profiles: Optional[np.ndarray] = None
    f_supports: Optional[np.ndarray] = None
    f_depths: Optional[np.ndarray] = None
    f_lengths: Optional[np.ndarray] = None
    # Encoding for "first max of (overlap, length)" via a single argmax:
    # both quantities are <= num_qubits, so this radix never collides.
    radix = num_qubits + 1

    layer_profile: Optional[np.ndarray] = None
    while True:
        if len(f_blocks) < window and position < total:
            admit = order[position:position + (window - len(f_blocks))]
            position += len(admit)
            batch = [blocks[i] for i in admit]
            for i in admit:
                blocks[i] = None       # frontier owns it now; free the slot
            profiles, supports, depths = _batch_stats(batch, num_qubits)
            batch_lengths = lengths[admit]
            if f_blocks:
                f_profiles = np.concatenate([f_profiles, profiles])
                f_supports = np.concatenate([f_supports, supports])
                f_depths = np.concatenate([f_depths, depths])
                f_lengths = np.concatenate([f_lengths, batch_lengths])
            else:
                f_profiles, f_supports = profiles, supports
                f_depths, f_lengths = depths, batch_lengths
            f_blocks.extend(batch)
        if not f_blocks:
            return

        if layer_profile is None:
            best = 0
        else:
            overlaps = popcount(
                np.bitwise_or.reduce(f_profiles & layer_profile, axis=1)
            )
            best = int(np.argmax(overlaps * radix + f_lengths))
        primary_depth = int(f_depths[best])
        primary_support = f_supports[best]
        layer_profile = f_profiles[best].copy()
        layer = [_emit(f_blocks[best])]

        removed = np.zeros(len(f_blocks), dtype=bool)
        removed[best] = True
        # Vectorized candidate pruning: a padding block must be disjoint
        # from the primary and its own depth must fit under the primary's
        # (start offsets only grow, so depth > primary_depth can never fit).
        fits = ~np.bitwise_and(f_supports, primary_support).any(axis=1)
        fits &= f_depths <= primary_depth
        fits[best] = False
        candidates = np.nonzero(fits)[0]
        if candidates.size:
            # Column heights are monotone, so a candidate that fails once
            # fails forever.  Between acceptances the heights are static,
            # which lets the whole scan-to-next-acceptance happen as one
            # reduceat sweep instead of a per-candidate Python loop: the
            # first candidate whose (start + depth) fits is the next
            # accepted block, and everything before it is dead.
            bits = np.unpackbits(
                f_supports[candidates], axis=1, bitorder="little",
                count=num_qubits,
            )
            cand_depths = f_depths[candidates]
            # starts[i] == max column height over candidate i's qubits.
            # An accepted block raises all its columns to one value, so
            # each acceptance updates affected candidates with a single
            # max — no per-candidate height gathers at all.
            starts = np.zeros(candidates.size, dtype=np.int64)
            budgets = primary_depth - cand_depths
            lo = 0
            while lo < candidates.size:
                fit = starts[lo:] <= budgets[lo:]
                rel = int(np.argmax(fit))
                if not fit[rel]:
                    break
                first = lo + rel
                candidate = int(candidates[first])
                layer.append(_emit(f_blocks[candidate]))
                removed[candidate] = True
                layer_profile |= f_profiles[candidate]
                new_height = int(starts[first]) + int(cand_depths[first])
                tail = bits[first + 1:]
                if tail.size:
                    qubits = np.nonzero(bits[first])[0]
                    touched = tail[:, qubits].any(axis=1)
                    affected = np.nonzero(touched)[0] + first + 1
                    starts[affected] = np.maximum(
                        starts[affected], new_height
                    )
                lo = first + 1

        keep = ~removed
        f_blocks = [b for b, k in zip(f_blocks, keep) if k]
        f_profiles = f_profiles[keep]
        f_supports = f_supports[keep]
        f_depths = f_depths[keep]
        f_lengths = f_lengths[keep]
        yield layer


_STREAM_SCHEDULERS = {
    "gco-stream": streaming_gco_schedule,
    "do-stream": streaming_do_schedule,
}


def is_streaming_scheduler(name: Optional[str]) -> bool:
    """True for the scheduler names this module serves (``*-stream``)."""
    return isinstance(name, str) and name.endswith("-stream")


def stream_schedule(
    source: BlockSource,
    scheduler: str,
    window: int = DEFAULT_WINDOW,
) -> Iterator[List[PauliBlock]]:
    """Dispatch to a streaming scheduler by name (``gco-stream`` /
    ``do-stream``), returning the incremental layer iterator."""
    try:
        fn = _STREAM_SCHEDULERS[scheduler]
    except KeyError:
        raise ValueError(
            f"unknown streaming scheduler {scheduler!r}; "
            f"expected one of {sorted(_STREAM_SCHEDULERS)}"
        ) from None
    return fn(source, window=window)


register_callable(streaming_gco_schedule, "schedule_gco_stream")
register_callable(streaming_do_schedule, "schedule_do_stream")
