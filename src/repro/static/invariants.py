"""IR and gate-tape invariant analysis: the machine-checked half of the
static layer.

Where :mod:`repro.static.contracts` proves a pass *ordering* sound, this
module checks the structural invariants each pass silently relies on —
the facts that, when broken, produce miscompilations the dynamic
verifier can only diagnose after a full compile:

* **Gate tape** (:func:`check_tape`): parallel-column shape, opcode and
  qubit-operand bounds, operand arity, parameter finiteness, the alive
  column vs ``alive_count`` / per-opcode ``counts``, the per-wire
  doubly-linked lists against program order, and (given a coupling map)
  post-routing edge conformance.
* **Pauli IR** (:func:`check_program`): coefficient and parameter
  finiteness, symplectic row widths of every block's packed table,
  per-string qubit-count consistency, plus the legacy well-formedness
  diagnostics folded in from the retired ``ir/validation.py`` —
  identity-only blocks, zero weights, duplicate strings, non-commuting
  blocks, zero parameters.

Every finding carries a stable dotted **invariant name** (for example
``tape.wire-links`` or ``program.coefficient-finite``) so callers — the
``repro check`` CLI, the debug hook, tests — can branch on *which*
invariant failed instead of parsing prose.

Checks collect findings into an :class:`InvariantReport` rather than
asserting, so one corrupted artifact yields a full damage report.  The
:func:`debug_check` hook gives the compile paths an opt-in between-pass
sweep: export ``REPRO_CHECK_INVARIANTS=1`` and every backend validates
its tape after each pass, raising :class:`InvariantViolation` at the
first broken stage.  Of a program the sweep checks only what a pass
can break, its widths: identity-only blocks and zero weights, which the
compile drops, are for ``repro check`` to judge, not for the flag.

:func:`check_program` is the single program-validation entry point.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import List

from ..circuit.gates import OP_ROTATION, OP_SINGLE, OP_TWO, OPCODES
from ..circuit.tape import NO_SLOT, GateTape

__all__ = [
    "InvariantIssue",
    "InvariantReport",
    "InvariantViolation",
    "check_program",
    "check_result",
    "check_tape",
    "debug_check",
    "debug_invariants_enabled",
]

#: Environment flag: when truthy, the compile paths run :func:`debug_check`
#: between passes.
DEBUG_ENV = "REPRO_CHECK_INVARIANTS"


@dataclass(frozen=True)
class InvariantIssue:
    """One finding: which named invariant broke, where, and how."""

    severity: str          # "error" | "warning"
    invariant: str         # dotted name, e.g. "tape.wire-links"
    location: str          # e.g. "slot 12", "block 3", "wire 5", "program"
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.invariant} @ {self.location}: {self.message}"


@dataclass
class InvariantReport:
    """All findings from one check run over one subject."""

    subject: str = "program"
    issues: List[InvariantIssue] = field(default_factory=list)

    def add(self, severity: str, invariant: str, location: str, message: str) -> None:
        self.issues.append(InvariantIssue(severity, invariant, location, message))

    @property
    def errors(self) -> List[InvariantIssue]:
        return [issue for issue in self.issues if issue.severity == "error"]

    @property
    def warnings(self) -> List[InvariantIssue]:
        return [issue for issue in self.issues if issue.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def merge(self, other: "InvariantReport") -> "InvariantReport":
        self.issues.extend(other.issues)
        return self

    def raise_on_error(self) -> None:
        if not self.ok:
            raise InvariantViolation(self)

    def __str__(self) -> str:
        if not self.issues:
            return f"{self.subject} OK"
        return "\n".join(str(issue) for issue in self.issues)


class InvariantViolation(ValueError):
    """An invariant check found errors; carries the full report."""

    def __init__(self, report: InvariantReport):
        first = report.errors[0]
        more = len(report.errors) - 1
        tail = f" (+{more} more)" if more else ""
        super().__init__(
            f"invalid {report.subject}: invariant {first.invariant!r} broken "
            f"at {first.location}: {first.message}{tail}"
        )
        self.report = report

    @property
    def invariant(self) -> str:
        return self.report.errors[0].invariant


# ---------------------------------------------------------------------------
# Gate tape
# ---------------------------------------------------------------------------

def check_tape(tape, coupling=None, subject: str = "tape") -> InvariantReport:
    """Structural sweep over a :class:`GateTape` (or a circuit carrying one).

    Cheap — one pass over the rows plus one pass over the wires — so it is
    safe to run between passes under the debug flag.  With ``coupling``,
    also checks post-routing edge conformance of every live two-qubit gate.
    """
    if not isinstance(tape, GateTape):  # accept QuantumCircuit too
        tape = tape.tape
    report = InvariantReport(subject=subject)

    rows = len(tape.op)
    for name in ("q0", "q1", "param", "alive"):
        column = getattr(tape, name)
        if len(column) != rows:
            report.add(
                "error", "tape.column-shape", f"column {name}",
                f"length {len(column)} != op column length {rows}",
            )
    if report.errors:
        return report  # ragged columns make row iteration meaningless

    n_ops = len(OPCODES)
    n_qubits = tape.num_qubits
    alive_seen = 0
    counts = [0] * n_ops
    for slot in range(rows):
        if not tape.alive[slot]:
            continue
        alive_seen += 1
        code = tape.op[slot]
        where = f"slot {slot}"
        if not 0 <= code < n_ops:
            report.add(
                "error", "tape.opcode-range", where,
                f"opcode {code} outside [0, {n_ops})",
            )
            continue
        counts[code] += 1
        q0, q1 = tape.q0[slot], tape.q1[slot]
        if not 0 <= q0 < n_qubits:
            report.add(
                "error", "tape.qubit-bounds", where,
                f"q0={q0} outside [0, {n_qubits}) for {OPCODES[code]!r}",
            )
        if code in OP_TWO:
            if not 0 <= q1 < n_qubits:
                report.add(
                    "error", "tape.qubit-bounds", where,
                    f"q1={q1} outside [0, {n_qubits}) for {OPCODES[code]!r}",
                )
            elif q0 == q1:
                report.add(
                    "error", "tape.operand-arity", where,
                    f"two-qubit {OPCODES[code]!r} with identical operands q{q0}",
                )
            elif coupling is not None and not coupling.is_connected(q0, q1):
                report.add(
                    "error", "tape.coupling", where,
                    f"{OPCODES[code]!r} on uncoupled pair ({q0}, {q1})",
                )
        elif code in OP_SINGLE and q1 != NO_SLOT:
            report.add(
                "error", "tape.operand-arity", where,
                f"single-qubit {OPCODES[code]!r} carries q1={q1}",
            )
        param = tape.param[slot]
        if not math.isfinite(param):
            report.add(
                "error", "tape.param-finite", where,
                f"{OPCODES[code]!r} parameter is {param!r}",
            )
        elif code not in OP_ROTATION and param != 0.0:  # lint: allow-float-eq
            report.add(
                "warning", "tape.param-finite", where,
                f"non-rotation {OPCODES[code]!r} carries parameter {param!r}",
            )

    if alive_seen != tape.alive_count:
        report.add(
            "error", "tape.alive-count", "tape",
            f"alive column sums to {alive_seen}, alive_count says {tape.alive_count}",
        )
    if counts != tape.counts and not any(
        issue.invariant == "tape.opcode-range" for issue in report.issues
    ):
        for code in range(n_ops):
            if counts[code] != tape.counts[code]:
                report.add(
                    "error", "tape.opcode-counts", f"opcode {OPCODES[code]!r}",
                    f"live rows count {counts[code]}, counts column says "
                    f"{tape.counts[code]}",
                )

    if not report.errors:
        _check_wire_links(tape, report)
    return report


def _check_wire_links(tape: GateTape, report: InvariantReport) -> None:
    """Per-wire linked lists vs the alive column and program order."""
    tape.ensure_links()
    if len(tape.head) != tape.num_qubits or len(tape.tail) != tape.num_qubits:
        report.add(
            "error", "tape.column-shape", "head/tail",
            f"head/tail lengths ({len(tape.head)}, {len(tape.tail)}) != "
            f"num_qubits {tape.num_qubits}",
        )
        return
    order = {slot: pos for pos, slot in enumerate(tape.iter_slots())}
    for wire in range(tape.num_qubits):
        where = f"wire {wire}"
        sequence = []
        slot = tape.head[wire]
        hops = 0
        limit = len(tape.op) + 1
        while slot != NO_SLOT:
            hops += 1
            if hops > limit:
                report.add(
                    "error", "tape.wire-links", where,
                    "next-link cycle detected",
                )
                return
            sequence.append(slot)
            if not tape.alive[slot]:
                report.add(
                    "error", "tape.wire-links", where,
                    f"dead slot {slot} still linked",
                )
            slot = tape.wire_next(slot, wire)
        positions = [order.get(s) for s in sequence if s in order]
        if positions != sorted(positions):
            report.add(
                "error", "tape.wire-links", where,
                "wire order diverged from program order",
            )
        previous = NO_SLOT
        for s in sequence:
            back = tape.wire_prev(s, wire)
            if back != previous:
                report.add(
                    "error", "tape.wire-links", where,
                    f"slot {s} prev-link points at {back}, expected {previous}",
                )
                break
            previous = s
        expected_tail = sequence[-1] if sequence else NO_SLOT
        if tape.tail[wire] != expected_tail:
            report.add(
                "error", "tape.wire-links", where,
                f"tail says {tape.tail[wire]}, last linked slot is {expected_tail}",
            )


# ---------------------------------------------------------------------------
# Pauli IR
# ---------------------------------------------------------------------------

def check_program(program, subject: str = "Pauli IR program") -> InvariantReport:
    """Structural sweep over a ``PauliProgram`` (duck-typed: any iterable
    of blocks with ``parameter`` and weighted strings works).

    Subsumes the retired ``ir/validation.py``: its well-formedness
    diagnostics keep their severities and wording, with
    coefficient-finiteness and symplectic-width checks on top.
    """
    report = InvariantReport(subject=subject)
    program_qubits = getattr(program, "num_qubits", None)
    for index, block in enumerate(program):
        where = f"block {index}"
        strings = [ws.string for ws in block]

        if all(string.is_identity for string in strings):
            report.add(
                "error", "program.structure", where,
                "block contains only identity strings and compiles to nothing",
            )

        zero_weights = 0
        for ws in block:
            if not math.isfinite(ws.weight):
                report.add(
                    "error", "program.coefficient-finite", where,
                    f"string {ws.string.label} has non-finite weight {ws.weight!r}",
                )
            elif ws.weight == 0.0:  # lint: allow-float-eq
                zero_weights += 1
        if zero_weights:
            report.add(
                "error", "program.structure", where,
                f"{zero_weights} string(s) have zero weight and silently vanish",
            )

        _check_widths(block, where, program_qubits, report)

        seen = {}
        for ws in block:
            seen[ws.string] = seen.get(ws.string, 0) + 1
        duplicates = {s: c for s, c in seen.items() if c > 1}
        if duplicates:
            labels = ", ".join(s.label for s in duplicates)
            report.add(
                "warning", "program.structure", where,
                f"duplicate strings within the block could be merged: {labels}",
            )

        if len(strings) > 1 and not block.is_mutually_commuting():
            report.add(
                "warning", "program.structure", where,
                "strings in this block do not mutually commute; the GCO "
                "representative-string heuristic may mis-order it",
            )

        parameter = block.parameter
        if not math.isfinite(parameter):
            report.add(
                "error", "program.coefficient-finite", where,
                f"block parameter is {parameter!r}",
            )
        elif parameter == 0.0:  # lint: allow-float-eq
            report.add(
                "warning", "program.structure", where,
                "block parameter is zero; the block is a no-op",
            )
    return report


def _check_program_widths(program, subject: str) -> InvariantReport:
    """The part of :func:`check_program` a pass can break: every string's
    qubit count and every block's packed table widths.  The rest judges
    the input itself, which the compile accepts or drops by design (it
    skips identity strings, for one), so the debug sweep leaves it to
    ``repro check``."""
    report = InvariantReport(subject=subject)
    program_qubits = getattr(program, "num_qubits", None)
    for index, block in enumerate(program):
        _check_widths(block, f"block {index}", program_qubits, report)
    return report


def _check_widths(block, where: str, program_qubits, report: InvariantReport) -> None:
    if program_qubits is not None:
        for ws in block:
            if ws.string.num_qubits != program_qubits:
                report.add(
                    "error", "program.qubit-width", where,
                    f"string {ws.string.label} spans {ws.string.num_qubits} "
                    f"qubits, program declares {program_qubits}",
                )
    _check_symplectic_widths(block, where, report)


def _check_symplectic_widths(block, where: str, report: InvariantReport) -> None:
    """The block's packed symplectic table must span exactly
    ``ceil(num_qubits / 8)`` bytes per row, one row per string."""
    try:
        table = block.view.table
    except Exception as exc:  # view construction itself blew up
        report.add(
            "error", "program.symplectic-width", where,
            f"cannot build symplectic view: {exc}",
        )
        return
    expected_bytes = (block.num_qubits + 7) // 8
    for name in ("x", "z"):
        rows = getattr(table, name)
        if rows.shape != (len(block), expected_bytes):
            report.add(
                "error", "program.symplectic-width", where,
                f"packed {name} rows have shape {tuple(rows.shape)}, expected "
                f"({len(block)}, {expected_bytes})",
            )


# ---------------------------------------------------------------------------
# Compilation results and the debug hook
# ---------------------------------------------------------------------------

def check_result(result, coupling=None) -> InvariantReport:
    """Sweep a ``CompilationResult`` (or anything with ``circuit`` and
    ``emitted_terms``): tape invariants plus emitted-coefficient
    finiteness.  ``coupling`` enables the post-routing edge check."""
    report = check_tape(result.circuit, coupling=coupling, subject="compiled circuit")
    for position, (string, coefficient) in enumerate(getattr(result, "emitted_terms", ())):
        if not math.isfinite(coefficient):
            report.add(
                "error", "result.coefficient-finite", f"term {position}",
                f"emitted {string.label} with non-finite coefficient "
                f"{coefficient!r}",
            )
    return report


def debug_invariants_enabled() -> bool:
    """True when ``REPRO_CHECK_INVARIANTS`` is set to a truthy value."""
    return os.environ.get(DEBUG_ENV, "").strip().lower() in {"1", "true", "yes", "on"}


def debug_check(stage: str, tape=None, program=None, coupling=None) -> None:
    """Between-pass invariant sweep, active only under the debug flag.

    Backends call this after each pass with whatever artifacts exist at
    that point; on a broken invariant it raises :class:`InvariantViolation`
    whose message names the stage, so a corrupting pass is caught at its
    own boundary instead of three passes later.
    """
    if not debug_invariants_enabled():
        return
    if program is not None:
        report = _check_program_widths(program, f"Pauli IR program ({stage})")
        report.raise_on_error()
    if tape is not None:
        report = check_tape(tape, coupling=coupling, subject=f"tape ({stage})")
        report.raise_on_error()
