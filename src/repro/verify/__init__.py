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

:mod:`repro.verify.clifford` is the TK baseline's bit-packed tableau
engine (whole-table word ops per gate, used by
:mod:`repro.baselines.tableau`), not the verifier's; the extractor takes
only its :class:`~repro.verify.clifford.SignedPauli` record type.
"""

from .clifford import SignedPauli, SignedPauliTable, conjugate_rows
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
    "SignedPauli",
    "SignedPauliTable",
    "VerificationError",
    "VerificationReport",
    "canonicalize_gadgets",
    "conjugate_rows",
    "expected_gadgets",
    "extract_gadgets",
    "verify_circuit",
    "verify_result",
]
