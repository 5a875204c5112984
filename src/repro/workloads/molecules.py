"""Synthetic molecular Hamiltonians (substitute for the paper's PySCF set).

The paper generates N2, H2S, MgO, CO2 and NaCl Hamiltonians with PySCF,
which is unavailable offline.  What drives *compilation* behaviour is not
chemistry but the Pauli-string structure of a Jordan-Wigner molecular
Hamiltonian:

* diagonal terms — ``Z_p`` and ``Z_p Z_q`` number/Coulomb strings;
* one-body excitations — ``X/Y`` on two modes joined by a ``Z`` chain;
* two-body excitations — ``X/Y`` on four modes with ``Z`` chains inside the
  pairs (the ``hpqrs`` terms), in the 8-fold XXXX/XXYY/... patterns.

This generator reproduces that ensemble with the paper's qubit and string
counts (Table 1), seeded for determinism.  Coefficients follow the familiar
heavy-tailed molecular spread (few large diagonal terms, many small
excitations).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..ir import PauliProgram
from ..pauli import PauliString

__all__ = ["molecule_program", "MOLECULE_SPECS"]

#: Paper Table 1 molecule sizes: name -> (qubits, pauli_count).
MOLECULE_SPECS: Dict[str, Tuple[int, int]] = {
    "N2": (20, 2951),
    "H2S": (22, 4582),
    "MgO": (28, 24239),
    "CO2": (30, 16154),
    "NaCl": (36, 67667),
}

#: Per-molecule RNG salt.  These are the values ``hash(name) % 1000``
#: took under ``PYTHONHASHSEED=0``; a fixed table keeps every molecule
#: program identical across processes whatever the interpreter's hash seed.
_SALT: Dict[str, int] = {"N2": 858, "H2S": 515, "MgO": 447, "CO2": 330,
                         "NaCl": 168}

_XY = "XY"


def _diagonal_term(n: int, rng: random.Random) -> PauliString:
    if rng.random() < 0.4:
        return PauliString.from_sparse(n, {rng.randrange(n): "Z"})
    p, q = rng.sample(range(n), 2)
    return PauliString.from_sparse(n, {p: "Z", q: "Z"})


def _one_body_term(n: int, rng: random.Random) -> PauliString:
    p, q = sorted(rng.sample(range(n), 2))
    sigma = rng.choice(_XY)
    tau = rng.choice(_XY)
    ops = {p: sigma, q: tau}
    for z in range(p + 1, q):
        ops[z] = "Z"
    return PauliString.from_sparse(n, ops)


def _two_body_term(n: int, rng: random.Random) -> PauliString:
    modes = sorted(rng.sample(range(n), 4))
    p, q, r, s = modes
    ops = {m: rng.choice(_XY) for m in modes}
    # JW Z-chains run inside the (p, q) and (r, s) pairs.
    for z in range(p + 1, q):
        ops.setdefault(z, "Z")
    for z in range(r + 1, s):
        ops.setdefault(z, "Z")
    return PauliString.from_sparse(n, ops)


def molecule_program(
    name: str,
    num_strings: Optional[int] = None,
    seed: int = 2022,
    dt: float = 0.1,
) -> PauliProgram:
    """Synthetic Hamiltonian for one of the paper's molecules.

    ``num_strings`` overrides the Table 1 count for scaled-down runs.
    """
    if name not in MOLECULE_SPECS:
        raise ValueError(
            f"unknown molecule {name!r}; expected one of {sorted(MOLECULE_SPECS)}"
        )
    num_qubits, paper_count = MOLECULE_SPECS[name]
    count = num_strings if num_strings is not None else paper_count
    rng = random.Random(seed * 31 + _SALT[name])

    seen = set()
    terms: List[Tuple[PauliString, float]] = []
    while len(terms) < count:
        roll = rng.random()
        if roll < 0.15:
            string = _diagonal_term(num_qubits, rng)
            scale = 1.0
        elif roll < 0.45:
            string = _one_body_term(num_qubits, rng)
            scale = 0.2
        else:
            string = _two_body_term(num_qubits, rng)
            scale = 0.05
        if string in seen:
            continue
        seen.add(string)
        weight = rng.gauss(0.0, scale)
        terms.append((string, weight or scale))
    return PauliProgram.from_hamiltonian(terms, parameter=dt, name=name)
