"""Paper-scale equivalence verification by Pauli propagation.

The dense statevector oracle (:mod:`repro.circuit.statevector`) certifies
compilations up to ~16 qubits; beyond that, the only structure we can
exploit is the one Paulihedral itself compiles: every circuit this
repository emits is a product of Pauli-rotation gadgets conjugated by
Clifford segments.  Conjugating each rotation's axis back through the
enclosing Cliffords (PCOAST-style Pauli propagation) recovers the
effective ``(PauliString, angle)`` gadget sequence in time polynomial in
gates and qubits, which turns "verify a 30-qubit Trotter step" into
milliseconds.

Two layers do the verification:

* :mod:`repro.verify.gadgets` — gadget extraction: peel every rotation
  in a :class:`~repro.circuit.circuit.QuantumCircuit` back through the
  Cliffords preceding it (one int-bitmask sweep), plus the residual
  Clifford frame;
* :mod:`repro.verify.equivalence` — canonicalization and comparison of
  gadget sequences against the scheduled source program, with a precise
  first-divergence mismatch report.

The residual frame reports its images as
:class:`~repro.pauli.strings.SignedPauli` records, the row type the TK
baseline's tableau (:mod:`repro.baselines.tableau`) returns too.
"""

from .gadgets import ExtractionResult, ResidualClifford, RotationGadget, extract_gadgets
from .equivalence import (
    GadgetMismatch,
    VerificationError,
    VerificationReport,
    canonicalize_gadgets,
    expected_gadgets,
    verify_circuit,
    verify_result,
)

__all__ = [
    "ExtractionResult",
    "GadgetMismatch",
    "ResidualClifford",
    "RotationGadget",
    "VerificationError",
    "VerificationReport",
    "canonicalize_gadgets",
    "expected_gadgets",
    "extract_gadgets",
    "verify_circuit",
    "verify_result",
]
