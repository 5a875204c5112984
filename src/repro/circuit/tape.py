"""Columnar gate tape: the storage substrate under :class:`QuantumCircuit`.

A :class:`GateTape` stores a gate list as structure-of-arrays columns —
opcode, the (up to two) qubit operands, the rotation angle, and an alive
mask — plus a persistent per-wire doubly-linked list threaded through the
rows.  Every structural query the compiler passes need (the next/previous
gate on a wire, per-opcode counts, wire order) is O(1) per step instead of
a rebuild-the-world scan, which is what makes the worklist peephole engine
and the SABRE router linear-time.

Rows are append-only; removal marks a row dead and splices its wire links.
``compact()`` rebuilds a dense tape when the dead fraction matters (the
peephole engine does this once, at the end of a fixpoint run).

Slots (row indices) are stable across removals, so engines can hold slot
handles in worklists without invalidation.  The columns are indexed one
element at a time by engines that chase pointers, where list and
``array`` indexing beat numpy element access by a wide margin.  The
gate columns are Python lists.  The link columns are lists too, except
on a tape whose links come ready-made from a vectorized producer (the FT
residue emission and the SC synthesis, both through :func:`_wire_links`):
those hold ``array('q')``, 8 bytes a slot, because slot numbers are large
ints and a list of them holds one int object per entry.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import compress
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .gates import OP_ROTATION as _OP_ROTATION
from .gates import OPCODES, Gate

__all__ = ["GateTape"]

NO_SLOT = -1


class GateTape:
    """Structure-of-arrays gate storage with per-wire doubly-linked order.

    Columns (parallel sequences indexed by *slot*; see the module doc for
    which can be arrays):

    * ``op`` — small-int opcode (index into :data:`~repro.circuit.gates.OPCODES`);
    * ``q0``, ``q1`` — qubit operands (``q1 == -1`` for one-qubit gates);
    * ``param`` — rotation angle (0.0 for non-rotations);
    * ``alive`` — liveness flag;
    * ``nxt0``/``prv0`` — successor/predecessor slot on the ``q0`` wire;
    * ``nxt1``/``prv1`` — successor/predecessor slot on the ``q1`` wire.

    ``head[q]``/``tail[q]`` give each wire's first/last live slot.
    """

    __slots__ = (
        "num_qubits", "op", "q0", "q1", "param", "alive",
        "nxt0", "prv0", "nxt1", "prv1", "head", "tail",
        "alive_count", "counts", "_links_ready",
    )

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self.op: List[int] = []
        self.q0: List[int] = []
        self.q1: List[int] = []
        self.param: List[float] = []
        self.alive: List[bool] = []
        self.nxt0: List[int] = []
        self.prv0: List[int] = []
        self.nxt1: List[int] = []
        self.prv1: List[int] = []
        self.head: List[int] = []
        self.tail: List[int] = []
        self.alive_count = 0
        self.counts: List[int] = [0] * len(OPCODES)
        self._links_ready = False

    @classmethod
    def from_columns(
        cls,
        num_qubits: int,
        op: List[int],
        q0: List[int],
        q1: List[int],
        param: List[float],
    ) -> "GateTape":
        """Adopt pre-built columns (all rows live); links realize lazily."""
        by_code = Counter(op)
        counts = [by_code.get(code, 0) for code in range(len(OPCODES))]
        return cls._adopt(num_qubits, op, q0, q1, param, counts)

    @classmethod
    def _adopt(
        cls,
        num_qubits: int,
        op: List[int],
        q0: List[int],
        q1: List[int],
        param: List[float],
        counts: List[int],
        links: Optional[Tuple[Sequence[int], ...]] = None,
    ) -> "GateTape":
        """Adopt columns whose per-opcode ``counts`` the producer already
        has (all rows live), and, when given, its ready-made
        ``links = (nxt0, prv0, nxt1, prv1, head, tail)``: exactly what
        :meth:`ensure_links` would build."""
        tape = cls.__new__(cls)
        tape.num_qubits = num_qubits
        tape.op = op
        tape.q0 = q0
        tape.q1 = q1
        tape.param = param
        n = len(op)
        tape.alive = [True] * n
        tape.alive_count = n
        tape.counts = counts
        tape._links_ready = links is not None
        if links is None:
            links = [], [], [], [], [], []
        (tape.nxt0, tape.prv0, tape.nxt1, tape.prv1,
         tape.head, tape.tail) = links
        return tape

    # ------------------------------------------------------------------
    # Wire links (lazily realized, persistently maintained thereafter)
    # ------------------------------------------------------------------
    def ensure_links(self) -> None:
        """Realize the per-wire doubly-linked lists if not built yet.

        Appends before the first structural query skip link bookkeeping
        entirely (circuit *construction* is append-only and order-driven);
        the first consumer pays one O(rows) pass, and every append or
        removal afterwards maintains the links incrementally.
        """
        if self._links_ready:
            return
        n = len(self.op)
        nxt0 = [NO_SLOT] * n
        prv0 = [NO_SLOT] * n
        nxt1 = [NO_SLOT] * n
        prv1 = [NO_SLOT] * n
        head = [NO_SLOT] * self.num_qubits
        tail = [NO_SLOT] * self.num_qubits
        alive, q0s, q1s = self.alive, self.q0, self.q1
        for slot in range(n):
            if not alive[slot]:
                continue
            wire = q0s[slot]
            prev = tail[wire]
            prv0[slot] = prev
            if prev == NO_SLOT:
                head[wire] = slot
            elif q0s[prev] == wire:
                nxt0[prev] = slot
            else:
                nxt1[prev] = slot
            tail[wire] = slot
            wire = q1s[slot]
            if wire != NO_SLOT:
                prev = tail[wire]
                prv1[slot] = prev
                if prev == NO_SLOT:
                    head[wire] = slot
                elif q0s[prev] == wire:
                    nxt0[prev] = slot
                else:
                    nxt1[prev] = slot
                tail[wire] = slot
        self.nxt0, self.prv0 = nxt0, prv0
        self.nxt1, self.prv1 = nxt1, prv1
        self.head, self.tail = head, tail
        self._links_ready = True

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, op: int, q0: int, q1: int = NO_SLOT, param: float = 0.0) -> int:
        """Append a validated row; returns its slot."""
        slot = len(self.op)
        self.op.append(op)
        self.q0.append(q0)
        self.q1.append(q1)
        self.param.append(param)
        self.alive.append(True)
        self.alive_count += 1
        self.counts[op] += 1
        if not self._links_ready:
            return slot
        tail = self.tail
        prev0 = tail[q0]
        self.prv0.append(prev0)
        self.nxt0.append(NO_SLOT)
        if prev0 == NO_SLOT:
            self.head[q0] = slot
        else:
            self._set_next(prev0, q0, slot)
        tail[q0] = slot
        if q1 != NO_SLOT:
            prev1 = tail[q1]
            self.prv1.append(prev1)
            self.nxt1.append(NO_SLOT)
            if prev1 == NO_SLOT:
                self.head[q1] = slot
            else:
                self._set_next(prev1, q1, slot)
            tail[q1] = slot
        else:
            self.prv1.append(NO_SLOT)
            self.nxt1.append(NO_SLOT)
        return slot

    def extend(self, other: "GateTape") -> None:
        """Append ``other``'s live rows in program order as columns, in
        one step (a non-rotation's angle is zeroed).  ``other`` may be this
        tape.  A linked tape drops its links; :meth:`ensure_links`
        rebuilds them on the next structural query."""
        alive = other.alive
        op = list(compress(other.op, alive))
        q0 = list(compress(other.q0, alive))
        q1 = list(compress(other.q1, alive))
        param = [angle if code in _OP_ROTATION else 0.0
                 for code, angle in zip(op, compress(other.param, alive))]
        self.counts = [mine + theirs
                       for mine, theirs in zip(self.counts, other.counts)]
        self.op.extend(op)
        self.q0.extend(q0)
        self.q1.extend(q1)
        self.param.extend(param)
        self.alive.extend([True] * len(op))
        self.alive_count += len(op)
        if self._links_ready:
            self._links_ready = False
            (self.nxt0, self.prv0, self.nxt1, self.prv1,
             self.head, self.tail) = [], [], [], [], [], []

    def remove(self, slot: int) -> None:
        """Kill a live row and splice it out of its wire lists."""
        self.ensure_links()
        self._splice(slot)

    def _splice(self, slot: int) -> Tuple[int, int, int, int]:
        """:meth:`remove` on a linked tape; returns the row's wire
        neighbours ``(prev0, next0, prev1, next1)`` as they were, so a
        caller re-seeding around the removal reads no link twice."""
        self.alive[slot] = False
        self.alive_count -= 1
        self.counts[self.op[slot]] -= 1
        prev0, next0 = self.prv0[slot], self.nxt0[slot]
        self._unlink(self.q0[slot], prev0, next0)
        q1 = self.q1[slot]
        if q1 == NO_SLOT:
            return prev0, next0, NO_SLOT, NO_SLOT
        prev1, next1 = self.prv1[slot], self.nxt1[slot]
        self._unlink(q1, prev1, next1)
        return prev0, next0, prev1, next1

    def set_rotation(self, slot: int, op: int, param: float) -> None:
        """Rewrite a live row in place (same qubits, new opcode/angle)."""
        old = self.op[slot]
        if old != op:
            self.counts[old] -= 1
            self.counts[op] += 1
            self.op[slot] = op
        self.param[slot] = param

    def set_two_qubit_op(self, slot: int, op: int, q0: int, q1: int) -> None:
        """Rewrite a live two-qubit row's opcode/operand order in place.

        ``{q0, q1}`` must equal the row's current qubit set; only the
        control/target roles may differ, so wire membership (and hence the
        link structure) is preserved up to a role swap.
        """
        old = self.op[slot]
        if old != op:
            self.counts[old] -= 1
            self.counts[op] += 1
            self.op[slot] = op
        if self.q0[slot] != q0:
            self.q0[slot], self.q1[slot] = q0, q1
            if self._links_ready:
                self.nxt0[slot], self.nxt1[slot] = self.nxt1[slot], self.nxt0[slot]
                self.prv0[slot], self.prv1[slot] = self.prv1[slot], self.prv0[slot]

    def _unlink(self, wire: int, prev: int, nxt: int) -> None:
        """Link ``prev`` and ``nxt`` to each other on ``wire``."""
        q0s = self.q0
        if prev == NO_SLOT:
            self.head[wire] = nxt
        elif q0s[prev] == wire:
            self.nxt0[prev] = nxt
        else:
            self.nxt1[prev] = nxt
        if nxt == NO_SLOT:
            self.tail[wire] = prev
        elif q0s[nxt] == wire:
            self.prv0[nxt] = prev
        else:
            self.prv1[nxt] = prev

    def _set_next(self, slot: int, wire: int, value: int) -> None:
        if self.q0[slot] == wire:
            self.nxt0[slot] = value
        else:
            self.nxt1[slot] = value

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def wire_next(self, slot: int, wire: int) -> int:
        self.ensure_links()
        return self.nxt0[slot] if self.q0[slot] == wire else self.nxt1[slot]

    def wire_prev(self, slot: int, wire: int) -> int:
        self.ensure_links()
        return self.prv0[slot] if self.q0[slot] == wire else self.prv1[slot]

    def wire_sequence(self, wire: int) -> List[int]:
        """Live slots on a wire, in program order."""
        self.ensure_links()
        out: List[int] = []
        slot = self.head[wire]
        while slot != NO_SLOT:
            out.append(slot)
            slot = self.wire_next(slot, wire)
        return out

    def iter_slots(self) -> Iterator[int]:
        """Live slots in program order."""
        alive = self.alive
        for slot in range(len(alive)):
            if alive[slot]:
                yield slot

    def gate_at(self, slot: int) -> Gate:
        """Materialize a :class:`Gate` record for a live row."""
        op = self.op[slot]
        q1 = self.q1[slot]
        qubits = (self.q0[slot],) if q1 == NO_SLOT else (self.q0[slot], q1)
        params = (self.param[slot],) if op in _OP_ROTATION else ()
        return Gate._from_row(OPCODES[op], qubits, params)

    def row(self, slot: int) -> Tuple[int, int, int, float]:
        return self.op[slot], self.q0[slot], self.q1[slot], self.param[slot]

    # ------------------------------------------------------------------
    # Whole-tape operations
    # ------------------------------------------------------------------
    def copy(self) -> "GateTape":
        out = GateTape.__new__(GateTape)
        out.num_qubits = self.num_qubits
        out.op = list(self.op)
        out.q0 = list(self.q0)
        out.q1 = list(self.q1)
        out.param = list(self.param)
        out.alive = list(self.alive)
        out.nxt0 = list(self.nxt0)
        out.prv0 = list(self.prv0)
        out.nxt1 = list(self.nxt1)
        out.prv1 = list(self.prv1)
        out.head = list(self.head)
        out.tail = list(self.tail)
        out.alive_count = self.alive_count
        out.counts = list(self.counts)
        out._links_ready = self._links_ready
        return out

    def compact(self) -> "GateTape":
        """Dense copy with dead rows dropped (slot numbering changes)."""
        alive = self.alive
        return GateTape._adopt(
            self.num_qubits,
            list(compress(self.op, alive)),
            list(compress(self.q0, alive)),
            list(compress(self.q1, alive)),
            list(compress(self.param, alive)),
            list(self.counts),
        )


def _wire_links(
    q0: np.ndarray, q1: np.ndarray, num_qubits: int,
) -> Tuple[array, ...]:
    """One stable sort of the gates by wire gives the wire links
    ``(nxt0, prv0, nxt1, prv1, head, tail)`` of an all-live tape with
    operand columns ``q0``/``q1`` (integer arrays), as ``array('q')``
    columns: what :meth:`GateTape.ensure_links` builds, for
    :meth:`GateTape._adopt`."""
    wires = np.column_stack((q0, q1)).ravel()  # operand k of slot s at 2 s + k
    used = np.flatnonzero(wires != NO_SLOT)
    key = wires[used]
    if num_qubits <= np.iinfo(np.uint16).max:
        key = key.astype(np.uint16)  # small keys sort by radix
    # Stable, so each wire's gates stay in program order.
    order = used[np.argsort(key, kind="stable")]
    wires, slots = wires[order], order >> 1
    same = wires[:-1] == wires[1:]
    # Per operand, its wire neighbours: the nxt0/nxt1 (prv0/prv1) columns
    # interleaved the way ``wires`` is.
    nxt = np.full(2 * q0.size, NO_SLOT, dtype=np.int64)
    prv = np.full(2 * q0.size, NO_SLOT, dtype=np.int64)
    nxt[order[:-1][same]] = slots[1:][same]
    prv[order[1:][same]] = slots[:-1][same]
    first = np.ones(order.size, dtype=bool)
    first[1:] = ~same
    last = np.ones(order.size, dtype=bool)
    last[:-1] = ~same
    head = np.full(num_qubits, NO_SLOT, dtype=np.int64)
    tail = np.full(num_qubits, NO_SLOT, dtype=np.int64)
    head[wires[first]] = slots[first]
    tail[wires[last]] = slots[last]
    return tuple(array("q", column.tobytes()) for column in
                 (nxt[0::2], prv[0::2], nxt[1::2], prv[1::2], head, tail))
