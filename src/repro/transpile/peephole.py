"""Worklist-driven peephole rewrite engine on the columnar gate tape.

These are the generic "level 3"-style cleanups that the paper applies after
every frontend (Qiskit's ``Optimize1qGates`` + ``CommutativeCancellation``
equivalents), rebuilt as *local rules* over the
:class:`~repro.circuit.tape.GateTape`:

* **cancel** — remove a gate and its immediate inverse when they are
  adjacent on *all* their wires;
* **merge** — fuse runs of equal-axis single-qubit rotations on one wire
  and drop angle-zero rotations, merged or alone (mod 2*pi, global phase
  ignored);
* **commute** — cancel CNOT pairs separated only by gates that commute
  through the control (diagonal) or target (X-axis) wire;
* **fuse** — absorb a CNOT into an adjacent SWAP on the same pair.

Instead of re-deriving wire sequences and position dicts on every sweep,
the engine keeps one dirty-site worklist: it is seeded with every gate
once (or with the slots where a rule can fire, which :func:`_fire_sites`
finds in one vectorized pass over a linked tape's columns; the FT
residue synthesis reports them), and a rewrite re-seeds only the edited
neighborhood (the spliced-in wire neighbours, plus the transparent run
behind the edit so a newly unblocked CNOT walk is revisited).  Every
firing strictly shrinks ``(gate count, swap count)`` lexicographically,
so the fixpoint is O(gates + rewrites) rather than
O(sweeps * gates * wires).

:func:`run_rules` runs any subset of the rules to a joint fixpoint and
returns ``(new_circuit, rewrite_count)``; :func:`optimize` runs all of
them.  The original rebuild-the-world implementations, one pass per rule,
live on unchanged in ``tests/oracles/transpile.py`` as the equivalence
oracle.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Optional, Sequence, Tuple

import numpy as np

from ..circuit import QuantumCircuit
from ..circuit.gates import OP, OPCODES, OP_INVERSE, OP_ROTATION
from ..circuit.tape import NO_SLOT, GateTape

__all__ = ["optimize", "run_rules"]

_TWO_PI = 2.0 * math.pi

_OP_CX = OP["cx"]
_OP_CZ = OP["cz"]
_OP_SWAP = OP["swap"]
_N_OPS = len(OPCODES)

#: Single-qubit gates diagonal in Z: they commute through a CNOT *control*.
_DIAGONAL_1Q = ("z", "s", "sdg", "rz")
#: Single-qubit gates diagonal in X: they commute through a CNOT *target*.
_X_AXIS_1Q = ("x", "rx")

_IS_DIAG = bytearray(_N_OPS)
for _name in _DIAGONAL_1Q:
    _IS_DIAG[OP[_name]] = 1
_IS_XAXIS = bytearray(_N_OPS)
for _name in _X_AXIS_1Q:
    _IS_XAXIS[OP[_name]] = 1
#: Transparent for *some* CNOT walk — the backward re-seeding over-approximation.
_IS_TRANSPARENT = bytes(d | x for d, x in zip(_IS_DIAG, _IS_XAXIS))

# Rotation-merge tables: per opcode, the merge axis (-1: not mergeable) and
# the fixed angle contributed by non-parametric gates.
_AXIS_NONE, _AXIS_Z, _AXIS_X, _AXIS_Y, _AXIS_H, _AXIS_YH = -1, 0, 1, 2, 3, 4
_MERGE_AXIS = [_AXIS_NONE] * _N_OPS
_FIXED_ANGLE = [0.0] * _N_OPS
for _name, _axis, _angle in (
    ("z", _AXIS_Z, math.pi), ("s", _AXIS_Z, math.pi / 2.0),
    ("sdg", _AXIS_Z, -math.pi / 2.0), ("rz", _AXIS_Z, None),
    ("x", _AXIS_X, math.pi), ("rx", _AXIS_X, None),
    ("y", _AXIS_Y, math.pi), ("ry", _AXIS_Y, None),
    ("h", _AXIS_H, None), ("yh", _AXIS_YH, None),
):
    _MERGE_AXIS[OP[_name]] = _axis
    if _angle is not None:
        _FIXED_ANGLE[OP[_name]] = _angle
_AXIS_ROTATION_OP = {_AXIS_Z: OP["rz"], _AXIS_X: OP["rx"], _AXIS_Y: OP["ry"]}
_IS_ROTATION = bytearray(_N_OPS)
for _op in OP_ROTATION:
    _IS_ROTATION[_op] = 1

# The same tables as arrays, for the vectorized fire-site test.
_MERGE_AXIS_OF = np.array(_MERGE_AXIS, dtype=np.int8)
_INVERSE_OF = np.array(OP_INVERSE, dtype=np.uint8)
_IS_XAXIS_OF = np.array(_IS_XAXIS, dtype=bool)
_IS_ROTATION_OF = np.array(_IS_ROTATION, dtype=bool)


def _is_zero_angle(angle: float) -> bool:
    """A rotation by ``angle`` is the identity up to global phase."""
    return abs(math.remainder(angle, _TWO_PI)) < 1e-12


def _fire_sites(
    op: np.ndarray, q0: np.ndarray, q1: np.ndarray, param: np.ndarray,
    nxt0: np.ndarray, nxt1: np.ndarray,
) -> np.ndarray:
    """The ascending slots where a rule can fire on a linked, all-live tape
    as given, from its columns as arrays: seeds that meet
    :func:`_engine`'s contract.  Each rule reads a gate's wire successors
    first, so one test per rule over them is a superset:

    * merge: a rotation whose angle is zero mod ``2*pi`` (the
      :func:`_is_zero_angle` test: ``fmod`` is exact, and where it exceeds
      ``pi`` the IEEE remainder is ``2*pi`` minus it, also exact);
    * cancel and merge: a 1q gate followed on its wire by a 1q gate of the
      same merge axis, or by its inverse;
    * cancel and fuse: a 2q gate followed on both wires by one gate, its
      inverse on the same operands or a SWAP/CNOT partner;
    * cancel and commute: a CNOT whose target successor is the same CNOT
      or an X-axis gate (the target walk stops at anything else).
    """
    has_next = nxt0 != NO_SLOT
    succ = np.where(has_next, nxt0, 0)
    axis, op_s = _MERGE_AXIS_OF[op], op[succ]
    inverse = (op_s == _INVERSE_OF[op]) & (q0[succ] == q0)
    merge = (axis != _AXIS_NONE) & (_MERGE_AXIS_OF[op_s] == axis)
    swap_cx = (((op == _OP_SWAP) & (op_s == _OP_CX))
               | ((op == _OP_CX) & (op_s == _OP_SWAP)))
    fires = has_next & np.where(
        q1 == NO_SLOT, (q1[succ] == NO_SLOT) & (inverse | merge),
        (nxt0 == nxt1) & (inverse | swap_cx))
    target = np.where(nxt1 == NO_SLOT, 0, nxt1)
    op_t = op[target]
    same_cx = (op_t == _OP_CX) & (q0[target] == q0) & (q1[target] == q1)
    x_axis = (q1[target] == NO_SLOT) & _IS_XAXIS_OF[op_t]
    fires |= (op == _OP_CX) & (nxt1 != NO_SLOT) & (same_cx | x_axis)
    rotation = np.flatnonzero(_IS_ROTATION_OF[op])
    folded = np.abs(np.fmod(param[rotation], _TWO_PI))
    fires[rotation[(folded < 1e-12) | (_TWO_PI - folded < 1e-12)]] = True
    return np.flatnonzero(fires)


def _engine(
    tape: GateTape,
    do_cancel: bool,
    do_merge: bool,
    do_commute: bool,
    do_fuse: bool,
    seeds: Optional[Sequence[int]] = None,
    strict: bool = False,
) -> Optional[Tuple[int, int, int, int]]:
    """Run the enabled rules to a joint fixpoint on ``tape`` (in place).

    ``seeds`` are the live slots the worklist starts from; ``None`` starts
    from every live slot.  They must include every slot where a rule can
    fire on the tape as given.  Both queues (the shrinking rules', and
    fuse's behind it) visit their slots in the order the every-slot run
    does: one ascending pass (over the seeds and every slot pushed while
    the pass has not reached it), then the slots pushed behind it, first
    in first out.  So where two rewrites compete for one gate, the seeded
    run picks the same one.

    Returns ``(cancelled, merged, commuted, fused)`` rewrite counts with the
    seed passes' units: removed gates for cancel/merge/commute, fusion
    firings for fuse.  With ``strict``, returns ``None`` (leaving the tape
    half rewritten) instead of making a rewrite whose result can depend on
    the worklist order: a commute, or a merge that drops a rotation.
    """
    tape.ensure_links()
    ops = tape.op
    q0s, q1s = tape.q0, tape.q1
    params = tape.param
    alive = tape.alive
    nxt0, nxt1 = tape.nxt0, tape.nxt1
    prv0, prv1 = tape.prv0, tape.prv1
    n = len(ops)
    start = list(tape.iter_slots()) if seeds is None else sorted(seeds)
    # Each queue visits its slots in the every-slot run's order: one
    # ascending pass, then the slots pushed behind it, first in first out.
    # The pass is the queue's first ``pass_left`` slots merged with the
    # slots pushed ahead of its last visit (``passed``), which wait in a
    # heap; an every-slot run starts with every slot in the pass, so
    # nothing is ever pushed ahead of it.
    pending = bytearray(n)
    queue = deque(start)
    pass_left = len(start)
    ahead: list = []
    passed = NO_SLOT
    for slot in start:
        pending[slot] = 1
    # No rule creates a SWAP, so without one on entry fuse never fires.
    do_fuse = do_fuse and tape.counts[_OP_SWAP] > 0
    # Fuse never shrinks the gate count, so it must not steal a rewrite
    # from the shrinking rules (e.g. fusing the swap of [swap, cx, cx]
    # would destroy the pending cx/cx cancellation).  It therefore runs
    # from a second, lower-priority queue that is only drained when the
    # primary queue is empty — the global analogue of the seed's
    # cancel/merge/commute-before-fuse pass order.
    fuse_pending = bytearray(n)
    fuse_queue: deque = deque()
    fuse_pass_left = 0
    fuse_ahead: list = []
    fuse_passed = NO_SLOT
    if do_fuse:
        fuse_queue.extend(start)
        fuse_pass_left = len(start)
        for slot in start:
            fuse_pending[slot] = 1

    cancelled = merged = commuted = fused = 0

    def wire_next(slot: int, wire: int) -> int:
        return nxt0[slot] if q0s[slot] == wire else nxt1[slot]

    def wire_prev(slot: int, wire: int) -> int:
        return prv0[slot] if q0s[slot] == wire else prv1[slot]

    def push(slot: int) -> None:
        if slot != NO_SLOT and alive[slot]:
            if not pending[slot]:
                pending[slot] = 1
                if slot > passed:
                    heappush(ahead, slot)
                else:
                    queue.append(slot)
            if do_fuse and not fuse_pending[slot]:
                fuse_pending[slot] = 1
                if slot > fuse_passed:
                    heappush(fuse_ahead, slot)
                else:
                    fuse_queue.append(slot)

    def reseed_before(slot: int, wire: int) -> None:
        """Re-seed the wire neighborhood left of a removed/edited site.

        The immediate predecessor may now cancel/merge/fuse with its new
        successor, and any CNOT separated from the site only by transparent
        single-qubit gates has a freshly unblocked commuting walk.
        """
        walk = slot
        while walk != NO_SLOT:
            push(walk)
            if q1s[walk] != NO_SLOT or not _IS_TRANSPARENT[ops[walk]]:
                break
            walk = wire_prev(walk, wire)

    splice = tape._splice

    def remove(slot: int) -> None:
        """Remove a gate and re-seed the spliced-together neighbourhood."""
        w0, w1 = q0s[slot], q1s[slot]
        before0, after0, before1, after1 = splice(slot)
        reseed_before(before0, w0)
        push(after0)
        if w1 != NO_SLOT:
            reseed_before(before1, w1)
            push(after1)

    while True:
        if pass_left or ahead:
            from_fuse_queue = False
            if ahead and (not pass_left or ahead[0] < queue[0]):
                g = heappop(ahead)
            else:
                g = queue.popleft()
                pass_left -= 1
            passed = g
            pending[g] = 0
        elif queue:
            from_fuse_queue = False
            passed = n
            g = queue.popleft()
            pending[g] = 0
        elif fuse_pass_left or fuse_ahead:
            from_fuse_queue = True
            passed = n
            if fuse_ahead and (not fuse_pass_left
                               or fuse_ahead[0] < fuse_queue[0]):
                g = heappop(fuse_ahead)
            else:
                g = fuse_queue.popleft()
                fuse_pass_left -= 1
            fuse_passed = g
            fuse_pending[g] = 0
        elif fuse_queue:
            from_fuse_queue = True
            passed = fuse_passed = n
            g = fuse_queue.popleft()
            fuse_pending[g] = 0
        else:
            break
        if not alive[g]:
            continue
        op_g = ops[g]
        a = q0s[g]
        b = q1s[g]

        # ---- rule: SWAP/CNOT fusion (lower priority: primary queue empty)
        if from_fuse_queue:
            if b != NO_SLOT and (op_g == _OP_SWAP or op_g == _OP_CX):
                succ = nxt0[g] if nxt0[g] == nxt1[g] else NO_SLOT
                if succ != NO_SLOT:
                    op_s = ops[succ]
                    if op_g == _OP_SWAP and op_s == _OP_CX:
                        # [swap(a,b), cx(c,t)] -> [cx(c,t), cx(t,c)]
                        c, t = q0s[succ], q1s[succ]
                        tape.set_two_qubit_op(g, _OP_CX, c, t)
                        tape.set_two_qubit_op(succ, _OP_CX, t, c)
                    elif op_g == _OP_CX and op_s == _OP_SWAP:
                        # [cx(c,t), swap(a,b)] -> [cx(t,c), cx(c,t)]
                        tape.set_two_qubit_op(succ, _OP_CX, a, b)
                        tape.set_two_qubit_op(g, _OP_CX, b, a)
                    else:
                        succ = NO_SLOT
                    if succ != NO_SLOT:
                        fused += 1
                        reseed_before(wire_prev(g, a), a)
                        reseed_before(wire_prev(g, b), b)
                        push(g)
                        push(succ)
                        push(wire_next(succ, a))
                        push(wire_next(succ, b))
            continue

        # ---- rule: adjacent inverse-pair cancellation ------------------
        if do_cancel and not _IS_ROTATION[op_g]:
            if b == NO_SLOT:
                succ = nxt0[g]
            else:
                succ = nxt0[g] if nxt0[g] == nxt1[g] else NO_SLOT
            if succ != NO_SLOT and ops[succ] == OP_INVERSE[op_g]:
                # Same wires by construction; two-qubit partners must also
                # match operand order exactly (the seed oracle does not
                # cancel reversed cz/swap pairs, and the equivalence tests
                # pin exact gate counts against it).
                if b == NO_SLOT or q0s[succ] == a:
                    remove(g)
                    remove(succ)
                    cancelled += 2
                    continue

        # ---- rule: same-axis rotation merge ----------------------------
        if do_merge and b == NO_SLOT:
            axis = _MERGE_AXIS[op_g]
            if axis != _AXIS_NONE:
                # A zero-angle rotation goes on its own visit and never
                # merges, so it leaves its neighbours as they are whichever
                # of them the worklist reaches first.
                if _IS_ROTATION[op_g] and _is_zero_angle(params[g]):
                    if strict:
                        return None
                    remove(g)
                    merged += 1
                    continue
                succ = nxt0[g]
                if (
                    succ != NO_SLOT
                    and q1s[succ] == NO_SLOT
                    and _MERGE_AXIS[ops[succ]] == axis
                    and not (_IS_ROTATION[ops[succ]]
                             and _is_zero_angle(params[succ]))
                ):
                    op_s = ops[succ]
                    if axis >= _AXIS_H:
                        # Self-inverse fixed gates: an equal pair drops.
                        if op_s == op_g:
                            remove(g)
                            remove(succ)
                            merged += 2
                            continue
                    else:
                        angle_g = params[g] if _IS_ROTATION[op_g] else _FIXED_ANGLE[op_g]
                        angle_s = params[succ] if _IS_ROTATION[op_s] else _FIXED_ANGLE[op_s]
                        total = math.remainder(angle_g + angle_s, _TWO_PI)
                        if abs(total) < 1e-12:
                            if strict:
                                return None
                            remove(g)
                            remove(succ)
                            merged += 2
                        else:
                            remove(g)
                            tape.set_rotation(succ, _AXIS_ROTATION_OP[axis], total)
                            push(succ)
                            merged += 1
                        continue

        # ---- rule: CNOT pair cancellation through commuting gates ------
        if do_commute and op_g == _OP_CX:
            walk = wire_next(g, a)
            while walk != NO_SLOT and q1s[walk] == NO_SLOT and _IS_DIAG[ops[walk]]:
                walk = wire_next(walk, a)
            j_c = walk
            if j_c != NO_SLOT:
                walk = nxt1[g]
                while walk != NO_SLOT and q1s[walk] == NO_SLOT and _IS_XAXIS[ops[walk]]:
                    walk = wire_next(walk, b)
                if (
                    walk == j_c
                    and ops[j_c] == _OP_CX
                    and q0s[j_c] == a
                    and q1s[j_c] == b
                ):
                    if strict:
                        return None
                    remove(g)
                    remove(j_c)
                    commuted += 2
                    continue

    return cancelled, merged, commuted, fused


def _run(
    circuit: QuantumCircuit,
    do_cancel: bool = False,
    do_merge: bool = False,
    do_commute: bool = False,
    do_fuse: bool = False,
    seeds: Optional[Sequence[int]] = None,
    strict: bool = False,
) -> Optional[Tuple[QuantumCircuit, Tuple[int, int, int, int]]]:
    tape = circuit.tape.copy()
    counts = _engine(tape, do_cancel, do_merge, do_commute, do_fuse, seeds,
                     strict)
    if counts is None:
        return None
    out = QuantumCircuit.from_tape(tape.compact(), name=circuit.name)
    return out, counts


def run_rules(
    circuit: QuantumCircuit,
    cancel: bool = False,
    merge: bool = False,
    commute: bool = False,
    fuse: bool = False,
) -> Tuple[QuantumCircuit, int]:
    """Run a subset of rewrite rules to a joint fixpoint in one engine pass.

    Returns ``(new_circuit, total_rewrite_count)``; the pipeline levels
    use it to avoid one tape copy per rule.  The rules and what each
    counts:

    * ``cancel`` — a gate and its inverse adjacent on every shared wire
      (two-qubit partners in the same operand order) both go; counts
      removed gates.
    * ``merge`` — adjacent same-axis single-qubit rotations on one wire
      fuse, and ``h h``/``yh yh`` pairs collapse (``pi``-rotations about
      fixed axes up to phase).  Angles are reduced mod ``2*pi``; a rotation
      whose angle is within 1e-12 of 0 mod ``2*pi``, merged or alone, goes
      (``rz(2*pi) = -I`` is a global phase).  Counts removed gates.
    * ``commute`` — equal CNOT pairs separated only by diagonal gates on
      the control wire and X-axis gates on the target wire both go; counts
      removed gates.
    * ``fuse`` — a SWAP absorbs an adjacent CNOT on the same pair
      (``SWAP = CX(a,b) CX(b,a) CX(a,b)``): ``[swap(a,b), cx(a,b)]`` ->
      ``[cx(a,b), cx(b,a)]`` and ``[cx(a,b), swap(a,b)]`` ->
      ``[cx(b,a), cx(a,b)]``, 3+1 hardware CNOTs into 2 on the same
      coupled pair, so routed circuits stay valid; counts fusions.
    """
    out, (cancelled, merged, commuted, fused) = _run(
        circuit, do_cancel=cancel, do_merge=merge, do_commute=commute,
        do_fuse=fuse,
    )
    return out, cancelled + merged + commuted + fused


def optimize(circuit: QuantumCircuit) -> QuantumCircuit:
    """Run all rewrite rules to a joint fixed point in one invocation of
    the worklist engine."""
    out, _ = _run(
        circuit, do_cancel=True, do_merge=True, do_commute=True, do_fuse=True
    )
    return out
