"""Pauli operator algebra: single-qubit codes, multi-qubit strings, and
packed symplectic batches."""

from .operators import CODE_TO_LABEL, I, LABEL_TO_CODE, LEX_RANK, X, Y, Z
from .strings import PauliString, SignedPauli
from .symplectic import PauliTable, popcount

__all__ = [
    "CODE_TO_LABEL",
    "LABEL_TO_CODE",
    "LEX_RANK",
    "I",
    "X",
    "Y",
    "Z",
    "PauliString",
    "PauliTable",
    "SignedPauli",
    "popcount",
]
