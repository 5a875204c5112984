"""Block-wise optimization for the fault-tolerant backend (Section 5.1).

On the FT backend, mapping overhead is negligible (error correction gives an
effectively all-to-all topology), so the whole game is *gate cancellation*
through adaptive synthesis-plan selection (Algorithm 2).

The pass works in three stages:

1. **String ordering.**  Within each block the strings are re-ordered by
   greedy most-overlap chaining (``most_overlap_sort`` of Algorithm 2), then
   layers are flattened in schedule order.  The greedy chain runs on the
   block's packed :class:`~repro.pauli.symplectic.PauliTable`: each step is
   one vectorized overlap row against all remaining strings instead of a
   Python max() over scalar ``overlap`` calls.
2. **Junction planning.**  Each *junction* (adjacent term pair) is planned
   once, pairwise-consistently: a junction is realized only when *both*
   sides devote their chain's leaf end to the shared operators, so the
   closing gates of one term are the exact inverses of the opening gates of
   the next.  A string has a single leaf end, so realizable junctions form
   an independent set on the junction path graph; :func:`plan_junctions`
   picks the maximum-overlap such set by dynamic programming.  (The old
   one-sided rule — each string aligning with whichever neighbour shares
   more operators — only cancelled a junction when both sides happened to
   pick each other, and its greedy choices were dominated by the DP set.)
   Planning and emission are array-native (see :func:`ft_synthesize`).
3. **Peephole cleanup** of what is left.  The raw emission
   (:func:`ft_synthesize`, and the flow at peephole level 0) still holds
   every junction's inverse pairs.  When a peephole level follows, the
   flow synthesizes the *residue* instead: each junction leaves out the
   basis-change pairs on qubits where both terms carry the same X or Y
   operator and the CNOT pairs of the common chain prefix, which the
   cancel rule would remove anyway.  So do *long-range* pairs: two terms
   that follow each other on a wire, with terms between them that leave
   it alone, and carry the same X or Y there drop the first's closing
   and the second's opening basis change.  Equal strings keep their
   pairs, at a junction and at long range: their rotations meet and
   merge there.  One stable sort of the residue's gates by wire yields
   the tape's per-wire links and from them the *seeds*, the slots where
   a peephole rule can fire on the residue as given; the peephole step
   starts its worklist there, on a linked tape.  The output is
   gate-identical to running the level's rules on the raw emission.
   Where that could fail, because a commute fires or two rotations merge
   to nothing and the cascade reaches other junctions in another order,
   the step runs on the raw emission instead.

The emitted ``(string, coefficient)`` order is recorded so tests can verify
unitary equivalence against the exact product of exponentials.
"""

from __future__ import annotations

import logging
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..circuit import QuantumCircuit
from ..circuit.gates import OP, OPCODES
from ..circuit.tape import NO_SLOT, GateTape, _wire_links
from ..ir import PauliProgram
from ..pauli import PauliString
from ..pauli import operators as ops
from ..pauli.symplectic import PauliTable
from ..transpile import peephole
from . import passes
from .scheduling import Schedule
# Unread here: the FT flow's scheduling passes look these up on this
# module at call time (repro.core.passes._scheduler), so a profiler can
# rebind one backend's scheduling; perfbench's traced compile-ft
# patches them here.
from .scheduling import do_schedule, gco_schedule  # lint: allow-unused-import
from .streaming import stream_schedule  # lint: allow-unused-import

__all__ = [
    "most_overlap_sort",
    "plan_junctions",
    "ft_synthesize",
    "ft_compile",
]

_OP_H, _OP_YH, _OP_RZ, _OP_CX = OP["h"], OP["yh"], OP["rz"], OP["cx"]

#: At DEBUG, each residue emission logs what it left out and its seeds.
_log = logging.getLogger(__name__)

#: Above this many terms, the greedy chain computes overlap rows on demand
#: instead of materializing the full (m, m) overlap matrix.
_MATRIX_LIMIT = 4096


def most_overlap_sort(strings: List[Tuple[PauliString, float]]) -> List[Tuple[PauliString, float]]:
    """Greedy chain ordering: start from the first string, repeatedly append
    the remaining string sharing the most operators with the current tail.
    (Algorithm 2's ``most_overlap_sort``, on the vectorized overlap kernel.)"""
    if len(strings) <= 2:
        return list(strings)
    table = PauliTable.from_strings([string for string, _ in strings])
    m = table.num_strings
    order = [0]
    if m <= _MATRIX_LIMIT:
        # Dense path: one pairwise matrix, then each greedy step is a row
        # argmax; consumed strings have their whole column knocked to -1.
        matrix = table.overlap_matrix()
        matrix[:, 0] = -1
        for _ in range(m - 1):
            # argmax returns the first maximum, matching max() over the
            # remaining list in its original order.
            best = int(np.argmax(matrix[order[-1]]))
            order.append(best)
            matrix[:, best] = -1
    else:
        # Huge blocks: compute one overlap row per step instead of holding
        # an (m, m) matrix.
        alive = np.ones(m, dtype=bool)
        alive[0] = False
        for _ in range(m - 1):
            row = np.where(alive, table.overlaps(order[-1]), -1)
            best = int(np.argmax(row))
            order.append(best)
            alive[best] = False
    return [strings[i] for i in order]


def _flatten_schedule(
    schedule: Schedule, release: bool = False
) -> List[Tuple[PauliString, float]]:
    """Flatten a schedule into an ordered term list with per-block
    most-overlap string ordering.

    Accepts any layer iterable, including the incremental iterators from
    :mod:`repro.core.streaming`; with ``release=True`` each block's
    memoized view is dropped as soon as its terms are extracted, so a
    streamed million-term schedule never accumulates realized views.
    """
    terms: List[Tuple[PauliString, float]] = []
    for layer in schedule:
        for block in layer:
            block_terms = [
                (ws.string, ws.weight * block.parameter)
                for ws in block
                if not ws.string.is_identity
            ]
            terms.extend(most_overlap_sort(block_terms))
            if release:
                block.release_view()
    return terms


def plan_junctions(strings: List[PauliString]) -> List[Optional[int]]:
    """Assign each string the neighbour index its chain plan aligns with.

    Junction ``j`` sits between ``strings[j]`` and ``strings[j + 1]`` and
    cancels only when both sides put their shared operators at the leaf end
    of their chains — each string can do that for at most one junction, so
    the chosen junctions must be pairwise non-adjacent.  This picks the
    best such independent set by dynamic programming on the junction path,
    weighting each junction by the gates it actually cancels: ``2 (s - 1)``
    CNOTs for ``s`` shared operators (the leaf chain's edges), then
    ``2 b`` basis-change gates for ``b`` shared X/Y operators as a
    tie-break, so the CNOT count can never lose to any one-junction-per-
    string scheme (the legacy one-sided rule realizes an independent set
    too, so its cancellation total is dominated).  Returns per string the
    aligned neighbour's index (``i - 1``, ``i + 1``, or ``None``).
    """
    aligned: List[Optional[int]] = [None] * len(strings)
    if strings:
        for j in _TermSweep(strings).junctions():
            aligned[j] = j + 1
            aligned[j + 1] = j
    return aligned


def ft_synthesize(
    terms: List[Tuple[PauliString, float]],
    num_qubits: int,
    junction_policy: str = "paired",
) -> QuantumCircuit:
    """Adaptive synthesis of an ordered term list (Algorithm 2 cores).

    Each term becomes the Figure 2 sandwich over a CNOT *chain* whose order
    is: the support qubits shared with the term's primary neighbour, then
    those shared with its other neighbour, then the rest, each ascending.

    ``junction_policy`` picks the primary neighbours: ``"paired"`` (the
    default) aligns both terms of every :func:`plan_junctions` junction
    and lets the other terms fall back to the one-sided rule;
    ``"onesided"`` is the legacy rule where each string independently
    aligns with its higher-overlap neighbour and has no secondary part
    (kept for ablation — it only cancels a junction when both sides happen
    to pick each other).  The DP undercounts when adjacent junctions'
    shared sets nest, so the paired policy keeps the one-sided chains when
    their predicted ``(CNOTs, basis gates)`` is strictly greater.

    Planning runs on one :class:`PauliTable` sweep and the gates go
    straight into :class:`GateTape` columns.  The output is the raw
    emission: every junction's inverse pairs are still in it.
    """
    return _synthesize(terms, num_qubits, junction_policy, residue=False)[0]


def _synthesize_residue(
    terms: List[Tuple[PauliString, float]],
    num_qubits: int,
    junction_policy: str = "paired",
) -> Tuple[QuantumCircuit, List[int]]:
    """:func:`ft_synthesize` without the gate pairs the cancel rule
    would remove anyway, plus the seeds: the ascending slots where a
    peephole rule can fire on the residue as given.

    Left out are the junction pairs (:meth:`_TermSweep.emit`) and the
    long-range basis pairs (:meth:`_TermSweep.long_range_pairs`).  Every
    left-out pair is adjacent and inverse once the pairs nested inside it
    are gone.  A peephole level run from the seeds reaches the raw
    emission's fixpoint unless it commutes a CNOT pair or merges two
    rotations to nothing: those rewrites can unwind into other junctions
    in another order than on the raw emission, so callers rerun the raw
    emission when one fires.
    """
    return _synthesize(terms, num_qubits, junction_policy, residue=True)


def _synthesize(
    terms: List[Tuple[PauliString, float]],
    num_qubits: int,
    junction_policy: str,
    residue: bool,
) -> Tuple[QuantumCircuit, Optional[List[int]]]:
    if junction_policy not in ("paired", "onesided"):
        raise ValueError(f"unknown junction policy {junction_policy!r}")
    if not terms:
        return QuantumCircuit(num_qubits), []
    sweep = _TermSweep([string for string, _ in terms])
    if sweep.cols.size and sweep.cols.max() >= num_qubits:
        raise ValueError(f"qubit {sweep.cols.max()} out of range for a "
                         f"{num_qubits}-qubit circuit")
    onesided = sweep.onesided_sides()
    chains = sweep.chain_order(onesided, secondary=False)
    if junction_policy == "paired":
        sides = onesided.copy()
        taken = np.array(sweep.junctions(), dtype=np.int64)
        sides[taken], sides[taken + 1] = _NEXT, _PREV
        paired = sweep.chain_order(sides, secondary=True)
        if sweep.predicted_cancellation(chains) <= sweep.predicted_cancellation(paired):
            chains = paired
    angles = -2.0 * np.array([c for _, c in terms], dtype=np.float64)
    tape, seeds = sweep.emit(chains, angles, num_qubits, residue)
    return QuantumCircuit.from_tape(tape), seeds


#: Which neighbour a term's chain puts first: none, previous, next.
_NONE, _PREV, _NEXT = 0, 1, 2


class _TermSweep:
    """A term list's Pauli table as sparse entries, one per non-identity
    operator, ordered by term and then qubit.

    Supports, shared sets with either neighbour, overlaps and junction
    gains are whole-array reductions over the entries.  A chain set is an
    entry permutation that keeps each term's entries together.
    """

    def __init__(self, strings: List[PauliString]):
        codes = PauliTable.from_strings(strings).codes
        m = self.num_terms = codes.shape[0]
        rows, cols = self.rows, self.cols = np.nonzero(codes)
        self.codes = codes[rows, cols]
        self.x = (self.codes & 1).astype(bool)  # X or Y: needs a basis change
        self.weights = np.bincount(rows, minlength=m)
        self.starts = np.cumsum(self.weights) - self.weights
        self.pos = np.arange(rows.size) - self.starts[rows]
        # Same non-identity operator as the previous / next term.
        self.shared_prev = (rows > 0) & (
            codes[np.maximum(rows - 1, 0), cols] == self.codes)
        self.shared_next = (rows < m - 1) & (
            codes[np.minimum(rows + 1, m - 1), cols] == self.codes)
        self.overlap_prev = np.bincount(rows[self.shared_prev], minlength=m)
        self.overlap_next = np.bincount(rows[self.shared_next], minlength=m)

    def equal_strings(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per pair ``k``, whether terms ``a[k]`` and ``b[k]`` carry the
        same string: the same entries at the same positions."""
        w = self.weights
        equal = w[a] == w[b]
        pairs = np.flatnonzero(equal)
        size = w[a[pairs]]
        offset = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        ea = np.repeat(self.starts[a[pairs]], size) + offset
        eb = np.repeat(self.starts[b[pairs]], size) + offset
        differ = (self.cols[ea] != self.cols[eb]) | (self.codes[ea] != self.codes[eb])
        equal[pairs[np.repeat(np.arange(pairs.size), size)[differ]]] = False
        return equal

    def long_range_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Entry pairs ``(first, second)`` of two different strings that
        follow each other on a wire with other terms between them and carry
        the same X or Y there: the first's closing and the second's opening
        basis change are inverse and adjacent on that wire."""
        by_wire = np.argsort(self.cols, kind="stable")  # by qubit, then term
        first, second = by_wire[:-1], by_wire[1:]
        rows = self.rows
        meet = ((self.cols[first] == self.cols[second])
                & (rows[second] > rows[first] + 1)
                & (self.codes[first] == self.codes[second]) & self.x[first])
        first, second = first[meet], second[meet]
        # Equal strings keep the pair, as at a junction: across terms that
        # do not touch them, their rotations could meet and merge.
        apart = ~self.equal_strings(rows[first], rows[second])
        return first[apart], second[apart]

    def onesided_sides(self) -> np.ndarray:
        """:func:`~repro.core.synthesis.better_neighbor` for every term."""
        prev, nxt = self.overlap_prev, self.overlap_next
        return np.where((prev <= 0) & (nxt <= 0), _NONE,
                        np.where(prev >= nxt, _PREV, _NEXT))

    def junctions(self) -> List[int]:
        """The junctions :func:`plan_junctions` aligns: the non-adjacent set
        with the lexicographic-max ``(cancelled CNOTs, cancelled basis
        gates)``, taking a junction on ties (one more realized)."""
        cnot = 2 * np.maximum(self.overlap_next[:-1] - 1, 0)
        basis = 2 * np.bincount(self.rows[self.shared_next & self.x],
                                minlength=self.num_terms)[:-1]
        gains = [(c, b) if c + b else None
                 for c, b in zip(cnot.tolist(), basis.tolist())]
        best = [(0, 0)] * (len(gains) + 2)  # best[j + 2]: junctions 0..j
        for j, gain in enumerate(gains):
            best[j + 2] = best[j + 1] if gain is None else max(
                best[j + 1], (best[j][0] + gain[0], best[j][1] + gain[1]))
        taken: List[int] = []
        j = len(gains) - 1
        while j >= 0:
            gain = gains[j]
            if gain and best[j + 2] == (best[j][0] + gain[0], best[j][1] + gain[1]):
                taken.append(j)
                j -= 2
            else:
                j -= 1
        return taken

    def chain_order(self, sides: np.ndarray, secondary: bool) -> np.ndarray:
        """Entry permutation listing every term's chain, leaf to root."""
        side = sides[self.rows]
        first = np.where(side == _PREV, self.shared_prev,
                         (side == _NEXT) & self.shared_next)
        rank = 2 - 2 * first
        if secondary:
            rank -= ~first & np.where(side == _PREV, self.shared_next,
                                      (side == _NEXT) & self.shared_prev)
        return np.argsort(3 * self.rows + rank, kind="stable")

    def junction_prefix(self, chains: np.ndarray) -> np.ndarray:
        """Per chain entry: whether it lies in the longest common prefix of
        its term's chain and the next term's chain whose qubits carry the
        same operator on both sides.  A prefix of ``p`` qubits is a nest of
        inverse pairs around the junction: two basis changes per X/Y qubit
        and the ``p - 1`` leaf-end chain CNOTs on either side."""
        rows, pos = self.rows, self.pos
        chain = self.cols[chains]
        after = np.minimum(rows + 1, self.num_terms - 1)
        paired = self.shared_next[chains] & (pos < self.weights[after])
        partner = np.where(paired, self.starts[after] + pos, 0)
        misses = np.cumsum(~(paired & (chain == chain[partner])))
        return misses == np.concatenate(([0], misses))[self.starts[rows]]

    def predicted_cancellation(self, chains: np.ndarray) -> Tuple[int, int]:
        """The ``(CNOTs, basis gates)`` of a chain set's junction prefixes
        (:meth:`junction_prefix`): ``2 (p - 1)`` CNOTs plus two basis
        changes per X/Y prefix qubit.  The CNOT count is exactly what the
        cancel rule removes at the junctions.  The basis count is not: the
        rule also removes the basis pairs on shared X/Y qubits outside the
        prefix, which this does not count (the policy choice reads it)."""
        in_prefix = self.junction_prefix(chains)
        prefix = np.bincount(self.rows[in_prefix], minlength=self.num_terms)
        cnot = 2 * int((prefix[prefix > 0] - 1).sum())
        return cnot, 2 * int(np.count_nonzero(in_prefix & self.x[chains]))

    def emit(self, chains: np.ndarray, angles: np.ndarray, num_qubits: int,
             residue: bool = False) -> Tuple[GateTape, Optional[List[int]]]:
        """Every term's sandwich as tape columns: basis changes on the
        support ascending, chain CNOTs leaf to root, the rotation on the
        root, then the mirror image.

        With ``residue``, every junction between two different strings
        leaves out its basis-change pairs on qubits where both terms carry
        the same X or Y operator and its :meth:`junction_prefix` CNOT
        pairs, the :meth:`long_range_pairs` go too, and the seeds come
        back with the tape (``None`` without ``residue``): the slots where
        a rule can fire, read off the wire links the residue tape comes
        with (:func:`~repro.transpile.peephole._fire_sites`)."""
        rows, w, pos = self.rows, self.weights, self.pos
        m = self.num_terms
        chain = self.cols[chains]
        basis = np.bincount(rows[self.x], minlength=m)
        length = np.where(w > 0, 2 * basis + 2 * w - 1, 0)
        start = np.cumsum(length) - length
        total = int(length.sum())
        op = np.full(total, _OP_CX, dtype=np.uint8)
        q0 = np.empty(total, dtype=np.int64)
        q1 = np.full(total, NO_SLOT, dtype=np.int64)
        changed = np.flatnonzero(self.x)
        term_x = rows[changed]
        rank = np.arange(changed.size) - (np.cumsum(basis) - basis)[term_x]
        opening = start[term_x] + rank
        closing = start[term_x] + length[term_x] - 1 - rank
        for slot in (opening, closing):
            op[slot] = np.where(self.codes[changed] == ops.X, _OP_H, _OP_YH)
            q0[slot] = self.cols[changed]
        edge = np.flatnonzero(pos < w[rows] - 1)
        term = rows[edge]
        tree = start[term] + basis[term]
        forward = tree + pos[edge]
        mirror = tree + 2 * w[term] - 2 - pos[edge]
        for slot in (forward, mirror):
            q0[slot] = chain[edge]
            q1[slot] = chain[edge + 1]
        rotated = np.flatnonzero(w)
        slot = start[rotated] + basis[rotated] + w[rotated] - 1
        op[slot] = _OP_RZ
        q0[slot] = chain[self.starts[rotated] + w[rotated] - 1]
        seeds = links = None
        if residue:
            prefix = np.bincount(rows[self.junction_prefix(chains)],
                                 minlength=m)
            # Across a junction of equal strings the rotations meet and may
            # merge, even to nothing, which lets the cancellation run on
            # into the next junctions.  The peephole reaches the raw
            # emission's fixpoint only if it does that in the raw order,
            # so these junctions keep their pairs.
            # cut[t]: the junction of terms t and t + 1 leaves its pairs out.
            cut = ~((prefix == w) & (prefix == np.append(w[1:], 0)))
            keep = np.ones(total, dtype=bool)
            # A term's closing gates meet the next term, its opening gates
            # the previous one.
            before = np.append(False, cut)
            keep[opening[self.shared_prev[changed] & before[term_x]]] = False
            keep[closing[self.shared_next[changed] & cut[term_x]]] = False
            first, second = self.long_range_pairs()
            x_rank = np.cumsum(self.x) - 1  # entry -> its index in changed
            keep[closing[x_rank[first]]] = False
            keep[opening[x_rank[second]]] = False
            # A prefix of p qubits holds the first p - 1 chain edges.
            edges = np.where(cut, prefix - 1, 0)
            keep[mirror[pos[edge] < edges[term]]] = False
            keep[forward[pos[edge] < np.append(0, edges)[term]]] = False
            op, q0, q1 = op[keep], q0[keep], q1[keep]
            slot = np.cumsum(keep)[slot] - 1
            links = _wire_links(q0, q1, num_qubits)
            nxt = np.column_stack([np.frombuffer(links[k], np.int64)
                                   for k in (0, 2)])
            param = np.zeros(op.size)
            param[slot] = angles[rotated]
            seeds = peephole._fire_sites(op, q0, q1, param, nxt[:, 0],
                                         nxt[:, 1]).tolist()
            if _log.isEnabledFor(logging.DEBUG):
                owner = np.repeat(np.arange(m), length)[keep]
                seams = ((nxt != NO_SLOT) & (owner[nxt] != owner[:, None])).any(1)
                _log.debug("residue: %d gates, %d long-range basis pairs "
                           "left out, %d seams, %d seeds", op.size,
                           first.size, np.count_nonzero(seams), len(seeds))
        # Non-rotations share one 0.0 object, as gate-by-gate appends did.
        param = [0.0] * op.size
        for at, angle in zip(slot.tolist(), angles[rotated].tolist()):
            param[at] = angle
        counts = np.bincount(op, minlength=len(OPCODES)).tolist()
        tape = GateTape._adopt(num_qubits, op.tolist(), q0.tolist(),
                               q1.tolist(), param, counts, links)
        return tape, seeds


def ft_compile(
    program: PauliProgram,
    scheduler: str = "gco",
    run_peephole: bool = True,
    junction_policy: str = "paired",
    cancel: Optional[Callable[[], bool]] = None,
    peephole_level: Optional[int] = None,
) -> passes.PipelineResult:
    """Full FT flow: schedule, adaptively synthesize, peephole-optimize.

    ``scheduler`` is ``"gco"`` (gate-count-oriented, the FT default),
    ``"do"`` (depth-oriented), ``"none"`` (program order, for ablations),
    or a streaming variant ``"gco-stream"`` / ``"do-stream"`` that
    schedules through :mod:`repro.core.streaming` in O(window) profile
    memory and releases each block's view after its terms are flattened
    — the path for 10^5-10^6-term programs.  ``junction_policy`` is
    forwarded to :func:`ft_synthesize`; ``cancel`` is polled after every
    pass (see :mod:`repro.core.cancellation`).  ``peephole_level``
    (``None`` = full fixpoint) restricts the cleanup to the level's rule
    subset — the speculative fast tier compiles at level 1
    (cancel+merge, no commute/fuse search).  The pass sequence is
    :func:`repro.core.passes.pass_sequence`'s ``ft`` flow: with a cleanup
    level it synthesizes the residue (stage 3 of the module doc), so the
    peephole starts from the slots where a rule can fire; the output
    equals the level's rules run on :func:`ft_synthesize`'s raw
    emission.  Returns the driver's
    :class:`~repro.core.passes.PipelineResult` (``circuit``,
    ``emitted_terms``).
    """
    return passes.Pipeline.for_backend(
        "ft", scheduler, run_peephole, peephole_level,
    ).run(program, cancel=cancel, junction_policy=junction_policy)
