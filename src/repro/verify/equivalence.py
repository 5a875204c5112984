"""Equivalence checking of compiled circuits against their source program.

The oracle: a compilation is correct iff

1. the **multiset** of emitted ``(string, coefficient)`` terms equals the
   program's IR multiset (the scheduling licence — block and term order are
   semantically free, Figure 7), and
2. the compiled circuit's gadget factorization (see
   :mod:`repro.verify.gadgets`) equals ``exp(i c_k Q_k)`` over the emitted
   order, up to the rewrites the generic peephole pipeline is licensed to
   make — merging equal-Pauli gadgets across gadgets they commute with,
   dropping angle-``0 (mod 2pi)`` gadgets — and, for routed circuits, a
   residual qubit permutation matching the recorded layout transition.

Both sides are *canonicalized* (same-Pauli gadgets merged through
commuting neighbours, angles wrapped to ``(-pi, pi]``, zeros dropped) and
then matched greedily with commuting slack: an actual gadget may match an
expected gadget further ahead only if it commutes with every unmatched
expected gadget it jumps over.  Every accepted step is a sound rewrite of
the expected sequence, so a full match certifies unitary equivalence up to
global phase; the first failing step yields a localized
:class:`GadgetMismatch` (gadget index, circuit gate position, first
differing qubit).

Angles compare mod ``2pi``: a ``2pi`` discrepancy flips only the global
phase, which the oracle (like the statevector one) deliberately ignores.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..circuit import QuantumCircuit
from ..ir import PauliProgram
from ..pauli import PauliString
from ..transpile import Layout
from .gadgets import RotationGadget, extract_gadgets

__all__ = [
    "GadgetMismatch",
    "VerificationError",
    "VerificationReport",
    "canonicalize_gadgets",
    "expected_gadgets",
    "verify_circuit",
    "verify_result",
]

_TWO_PI = 2.0 * math.pi

#: Cap on the commuting walk length during canonicalization/matching; a
#: pathological all-commuting sequence stays O(len * cap) instead of
#: quadratic.  Hitting the cap is reported as a (conservative) mismatch.
_COMMUTE_CAP = 4096


def _wrap(angle: float) -> float:
    """Wrap an angle into ``(-pi, pi]`` (gadget angles are mod ``2pi``)."""
    return math.remainder(angle, _TWO_PI)


@dataclass(frozen=True)
class GadgetMismatch:
    """First point of divergence between expected and extracted gadgets.

    ``kind`` is one of ``"pauli"`` (different operator), ``"angle"``
    (same operator, different rotation), ``"extra"`` (circuit gadget with
    no source term), ``"missing"`` (source term never realized),
    ``"frame"`` (residual Clifford is not the recorded permutation), or
    ``"multiset"`` (emitted terms are not a reordering of the program).
    """

    kind: str
    index: int
    expected: Optional[Tuple[str, float]] = None
    actual: Optional[Tuple[str, float]] = None
    #: Dense gate index of the offending rotation in the checked circuit.
    position: Optional[int] = None
    #: First qubit whose operator differs (``"pauli"`` mismatches).
    qubit: Optional[int] = None
    detail: str = ""

    def describe(self) -> str:
        parts = [f"{self.kind} mismatch at gadget {self.index}"]
        if self.expected is not None:
            parts.append(f"expected {self.expected[0]} angle {self.expected[1]:+.9g}")
        if self.actual is not None:
            parts.append(f"got {self.actual[0]} angle {self.actual[1]:+.9g}")
        if self.qubit is not None:
            parts.append(f"first diverging qubit q{self.qubit}")
        if self.position is not None:
            parts.append(f"circuit gate index {self.position}")
        if self.detail:
            parts.append(self.detail)
        return "; ".join(parts)


@dataclass
class VerificationReport:
    """Outcome of one Pauli-propagation equivalence check."""

    ok: bool
    num_qubits: int
    #: Canonical gadget count of the checked circuit / the source terms.
    gadget_count: int = 0
    term_count: int = 0
    max_angle_error: float = 0.0
    mismatch: Optional[GadgetMismatch] = None
    seconds: float = 0.0
    permutation: Optional[List[int]] = field(default=None, repr=False)

    def describe(self) -> str:
        if self.ok:
            return (
                f"verified: {self.term_count} source terms == "
                f"{self.gadget_count} circuit gadgets on {self.num_qubits} "
                f"qubits (max angle error {self.max_angle_error:.2e}, "
                f"{self.seconds * 1e3:.1f} ms)"
            )
        assert self.mismatch is not None
        return f"verification FAILED: {self.mismatch.describe()}"

    def raise_if_failed(self) -> "VerificationReport":
        if not self.ok:
            raise VerificationError(self)
        return self


class VerificationError(Exception):
    """A compiled circuit failed Pauli-propagation verification."""

    def __init__(self, report: VerificationReport):
        super().__init__(report.describe())
        self.report = report


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------

def canonicalize_gadgets(
    gadgets: Sequence[RotationGadget], atol: float = 1e-8
) -> List[RotationGadget]:
    """Normalize a gadget sequence for comparison.

    Wraps every angle into ``(-pi, pi]``, drops (near-)zero rotations, and
    merges each gadget into the most recent earlier gadget with the same
    Pauli when every gadget in between commutes with it — exactly the
    rewrites the peephole's wire-adjacent rotation merge realizes on the
    circuit side (wire adjacency implies the skipped gadgets' conjugated
    Paulis act as identity on the merge wire, hence commute).
    """
    out: List[RotationGadget] = []
    for gadget in gadgets:
        angle = _wrap(gadget.angle)
        if abs(angle) <= atol:
            continue
        merged = False
        steps = 0
        for k in range(len(out) - 1, -1, -1):
            entry = out[k]
            if entry.string == gadget.string:
                total = _wrap(entry.angle + angle)
                if abs(total) <= atol:
                    del out[k]
                else:
                    out[k] = RotationGadget(entry.string, total, entry.position)
                merged = True
                break
            steps += 1
            if steps >= _COMMUTE_CAP or not entry.string.commutes_with(gadget.string):
                break
        if not merged:
            out.append(RotationGadget(gadget.string, angle, gadget.position))
    return out


def expected_gadgets(
    terms: Sequence[Tuple[PauliString, float]],
    num_qubits: int,
    initial_layout: Optional[Layout] = None,
) -> List[RotationGadget]:
    """The gadget sequence an emitted term list prescribes.

    Term ``(Q, c)`` means ``exp(i c Q)``, i.e. a gadget with angle
    ``-2 c``.  Under an initial layout the operator is re-indexed onto its
    physical qubits (``num_qubits`` is then the device width); SWAPs in the
    circuit need no handling here because extraction already conjugates
    every rotation back to the initial frame.
    """
    out: List[RotationGadget] = []
    for index, (string, coefficient) in enumerate(terms):
        if string.is_identity:
            continue
        if initial_layout is not None:
            codes = bytearray(num_qubits)
            for qubit in string.support:
                codes[initial_layout.physical(qubit)] = string.code_at(qubit)
            string = PauliString(bytes(codes))
        elif string.num_qubits != num_qubits:
            raise ValueError(
                f"term on {string.num_qubits} qubits vs circuit on {num_qubits}; "
                "pass the initial layout for routed circuits"
            )
        out.append(RotationGadget(string, -2.0 * coefficient, index))
    return out


# ----------------------------------------------------------------------
# Matching
# ----------------------------------------------------------------------

def _first_differing_qubit(a: PauliString, b: PauliString) -> Optional[int]:
    for qubit, (ca, cb) in enumerate(zip(a.codes, b.codes)):
        if ca != cb:
            return qubit
    return None


def _match_sequences(
    expected: List[RotationGadget],
    actual: List[RotationGadget],
    atol: float,
) -> Tuple[Optional[GadgetMismatch], float]:
    """Greedy order match with commuting slack; returns (mismatch, max_err)."""
    used = [False] * len(expected)
    ptr = 0
    max_err = 0.0
    for gadget in actual:
        i = ptr
        steps = 0
        while i < len(expected):
            if used[i]:
                i += 1
                continue
            entry = expected[i]
            if entry.string == gadget.string:
                err = abs(_wrap(entry.angle - gadget.angle))
                if err > atol:
                    return (
                        GadgetMismatch(
                            kind="angle",
                            index=i,
                            expected=(entry.label, entry.angle),
                            actual=(gadget.label, gadget.angle),
                            position=gadget.position,
                            detail=f"angles differ by {err:.3e} (mod 2pi)",
                        ),
                        max_err,
                    )
                used[i] = True
                max_err = max(max_err, err)
                while ptr < len(expected) and used[ptr]:
                    ptr += 1
                break
            steps += 1
            if steps >= _COMMUTE_CAP or not entry.string.commutes_with(gadget.string):
                qubit = _first_differing_qubit(entry.string, gadget.string)
                return (
                    GadgetMismatch(
                        kind="pauli",
                        index=i,
                        expected=(entry.label, entry.angle),
                        actual=(gadget.label, gadget.angle),
                        position=gadget.position,
                        qubit=qubit,
                        detail=(
                            "commuting window exhausted"
                            if steps >= _COMMUTE_CAP
                            else "circuit gadget blocked by a non-commuting source term"
                        ),
                    ),
                    max_err,
                )
            i += 1
        else:
            return (
                GadgetMismatch(
                    kind="extra",
                    index=len(expected),
                    actual=(gadget.label, gadget.angle),
                    position=gadget.position,
                    detail="circuit gadget has no remaining source term",
                ),
                max_err,
            )
    for i in range(len(expected)):
        if not used[i]:
            entry = expected[i]
            return (
                GadgetMismatch(
                    kind="missing",
                    index=i,
                    expected=(entry.label, entry.angle),
                    detail="source term never realized by the circuit",
                ),
                max_err,
            )
    return None, max_err


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def verify_circuit(
    circuit: QuantumCircuit,
    terms: Sequence[Tuple[PauliString, float]],
    initial_layout: Optional[Layout] = None,
    final_layout: Optional[Layout] = None,
    atol: float = 1e-8,
) -> VerificationReport:
    """Check one circuit against an ordered ``(string, coefficient)`` list.

    For routed circuits pass both recorded layouts; the residual Clifford
    must then be exactly the permutation carrying each logical qubit from
    its initial to its final physical position.  Without layouts the
    residual Clifford must be the identity.
    """
    start = time.perf_counter()
    if final_layout is not None and initial_layout is None:
        raise ValueError("a final layout needs the matching initial layout")
    extraction = extract_gadgets(circuit)
    actual = canonicalize_gadgets(extraction.gadgets, atol=atol)
    expected = canonicalize_gadgets(
        expected_gadgets(terms, circuit.num_qubits, initial_layout), atol=atol
    )

    report = VerificationReport(
        ok=True,
        num_qubits=circuit.num_qubits,
        gadget_count=len(actual),
        term_count=len(expected),
    )

    # Residual Clifford first: a frame error poisons every gadget after
    # the first unmirrored gate, so it is the more fundamental report.
    sigma = extraction.frame.permutation()
    report.permutation = sigma
    if initial_layout is None:
        if not extraction.frame.is_identity():
            report.ok = False
            report.mismatch = GadgetMismatch(
                kind="frame",
                index=0,
                detail=(
                    "residual Clifford is not the identity"
                    if sigma is None
                    else f"residual qubit permutation {sigma} on an unrouted circuit"
                ),
            )
    else:
        final = final_layout if final_layout is not None else initial_layout
        if sigma is None:
            report.ok = False
            report.mismatch = GadgetMismatch(
                kind="frame",
                index=0,
                detail="residual Clifford is not a pure qubit permutation",
            )
        else:
            for logical in range(initial_layout.num_logical):
                source = initial_layout.physical(logical)
                target = final.physical(logical)
                if sigma[source] != target:
                    report.ok = False
                    report.mismatch = GadgetMismatch(
                        kind="frame",
                        index=0,
                        qubit=source,
                        detail=(
                            f"logical q{logical} ends at physical "
                            f"{sigma[source]} but the final layout records {target}"
                        ),
                    )
                    break

    if report.ok:
        mismatch, max_err = _match_sequences(expected, actual, atol)
        report.max_angle_error = max_err
        if mismatch is not None:
            report.ok = False
            report.mismatch = mismatch

    report.seconds = time.perf_counter() - start
    return report


def _program_multiset(program: PauliProgram) -> Counter:
    counts: Counter = Counter()
    for (string, coefficient), multiplicity in program.multiset_of_terms().items():
        if not string.is_identity:
            counts[(string, coefficient)] += multiplicity
    return counts


def verify_result(
    program: PauliProgram,
    result,
    atol: float = 1e-8,
    check_multiset: bool = True,
) -> VerificationReport:
    """Verify a :class:`~repro.core.compiler.CompilationResult` end to end.

    Certifies (1) the emitted term order is a reordering of the source
    program's term multiset (identity strings excluded — they are global
    phase) and (2) the circuit realizes exactly the emitted gadget
    sequence under the recorded layouts.
    """
    if check_multiset:
        emitted: Counter = Counter(
            (string, coefficient)
            for string, coefficient in result.emitted_terms
            if not string.is_identity
        )
        source = _program_multiset(program)
        if emitted != source:
            missing = next(iter(source - emitted), None)
            extra = next(iter(emitted - source), None)
            detail = []
            if missing is not None:
                detail.append(
                    f"program term ({missing[0].label}, {missing[1]!r}) not emitted"
                )
            if extra is not None:
                detail.append(
                    f"emitted term ({extra[0].label}, {extra[1]!r}) not in program"
                )
            return VerificationReport(
                ok=False,
                num_qubits=result.circuit.num_qubits,
                term_count=sum(source.values()),
                mismatch=GadgetMismatch(
                    kind="multiset", index=0, detail="; ".join(detail)
                ),
            )
    return verify_circuit(
        result.circuit,
        result.emitted_terms,
        initial_layout=result.initial_layout,
        final_layout=result.final_layout,
        atol=atol,
    )
