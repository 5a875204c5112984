"""Single-qubit Pauli operators and their algebra.

The four single-qubit Paulis are represented by integer codes chosen so that
the code doubles as a symplectic (x, z) bit pair:

======  ====  =======  =======
Pauli   code  x bit    z bit
======  ====  =======  =======
``I``   0     0        0
``X``   1     1        0
``Y``   3     1        1
``Z``   2     0        1
======  ====  =======  =======

i.e. ``code = x | (z << 1)``.  Products, commutation and matrix forms are
precomputed in small tables so :class:`~repro.pauli.strings.PauliString` can
operate on raw integer arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "I",
    "X",
    "Y",
    "Z",
    "CODE_TO_LABEL",
    "LABEL_TO_CODE",
    "LEX_RANK",
    "PRODUCT_CODE",
    "PRODUCT_PHASE",
    "SINGLE_QUBIT_MATRICES",
    "code_of",
    "matrix_of",
]

I = 0  # noqa: E741 - established physics name
X = 1
Z = 2
Y = 3

CODE_TO_LABEL = "IXZY"
LABEL_TO_CODE = {"I": I, "X": X, "Y": Y, "Z": Z}

#: Paper ordering for lexicographic scheduling (Section 4.1): X < Y < Z < I.
LEX_RANK = {I: 3, X: 0, Y: 1, Z: 2}

#: ``PRODUCT_CODE[a][b]`` is the Pauli code of ``a @ b`` (ignoring phase).
#: For symplectic codes the product is simply XOR.
PRODUCT_CODE = [[a ^ b for b in range(4)] for a in range(4)]

# Phase exponent table: sigma_a sigma_b = i**PRODUCT_PHASE[a][b] sigma_(a^b).
# Derived from XY = iZ, YZ = iX, ZX = iY and cyclic anti-symmetry.
_PHASE = {
    (X, Y): 1, (Y, X): 3,
    (Y, Z): 1, (Z, Y): 3,
    (Z, X): 1, (X, Z): 3,
}
PRODUCT_PHASE = [[_PHASE.get((a, b), 0) for b in range(4)] for a in range(4)]

SINGLE_QUBIT_MATRICES = {
    I: np.eye(2, dtype=complex),
    X: np.array([[0, 1], [1, 0]], dtype=complex),
    Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def code_of(label: str) -> int:
    """Return the integer code for a single-character Pauli label."""
    try:
        return LABEL_TO_CODE[label]
    except KeyError:
        raise ValueError(f"invalid Pauli label {label!r}; expected I, X, Y or Z") from None


def matrix_of(code: int) -> np.ndarray:
    """Return the 2x2 complex matrix of a single-qubit Pauli."""
    if code not in SINGLE_QUBIT_MATRICES:
        raise ValueError(f"invalid Pauli code {code!r}; expected 0..3")
    return SINGLE_QUBIT_MATRICES[code]
