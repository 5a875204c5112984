"""Measurement of Pauli-sum observables by commuting-group diagonalization.

VQE-style algorithms estimate ``<H> = sum_k w_k <P_k>`` from samples.  The
standard trick (the measurement-side twin of the TK baseline's
simultaneous diagonalization) partitions the strings into mutually
commuting families and measures each family in one shot batch: a Clifford
``C`` maps every family member to a Z-string, so computational-basis
samples after ``C`` determine all of the family's expectations at once.

This module turns a Hamiltonian into measurement *plans* and estimates
energies from (simulated or real) samples:

>>> plans = measurement_plans(hamiltonian_terms, num_qubits)
>>> energy = estimate_expectation(plans, state, shots=4096, seed=7)
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .baselines.tableau import simultaneous_diagonalize
from .baselines.tket_like import partition_commuting
from .circuit import QuantumCircuit, simulate
from .pauli import PauliString

__all__ = ["MeasurementPlan", "measurement_plans", "estimate_expectation", "sample_counts"]


class MeasurementPlan:
    """One shot batch: a basis-change circuit plus readout masks.

    Attributes
    ----------
    circuit:
        Clifford basis change to apply before computational-basis readout.
    masks:
        ``(weight, sign, bitmask)`` per string: the string's estimate from a
        sample ``s`` is ``sign * (-1)^popcount(s & bitmask)``.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        masks: List[Tuple[float, int, int]],
    ):
        self.circuit = circuit
        self.masks = masks

    def estimate_from_counts(self, counts: Dict[int, int]) -> float:
        """Weighted expectation contribution from a sample histogram."""
        total_shots = sum(counts.values())
        if total_shots == 0:
            raise ValueError("no samples")
        value = 0.0
        for weight, sign, bitmask in self.masks:
            acc = 0
            for outcome, count in counts.items():
                parity = bin(outcome & bitmask).count("1") & 1
                acc += -count if parity else count
            value += weight * sign * acc / total_shots
        return value


def measurement_plans(
    terms: Sequence[Tuple[PauliString, float]],
    num_qubits: int,
) -> List[MeasurementPlan]:
    """Partition terms into commuting families and build one plan each.

    Identity strings contribute a constant and are folded into a plan with
    an empty bitmask.
    """
    constant = 0.0
    measurable = []
    for string, weight in terms:
        if string.is_identity:
            constant += weight
        else:
            measurable.append((string, weight))

    plans: List[MeasurementPlan] = []
    for group in partition_commuting(measurable):
        strings = [s for s, _ in group]
        clifford, tracked = simultaneous_diagonalize(strings)
        masks = []
        for entry, (_, weight) in zip(tracked, group):
            bitmask = 0
            for qubit in range(entry.num_qubits):
                if entry.z_bit(qubit):
                    bitmask |= 1 << qubit
            masks.append((weight, entry.sign, bitmask))
        plans.append(MeasurementPlan(clifford, masks))

    if constant:
        empty = QuantumCircuit(num_qubits)
        plans.append(MeasurementPlan(empty, [(constant, 1, 0)]))
    return plans


def sample_counts(
    probabilities: np.ndarray,
    shots: int,
    rng: random.Random,
) -> Dict[int, int]:
    """Multinomial sampling of a basis-state distribution."""
    normalized = np.asarray(probabilities, dtype=float)
    normalized = normalized / normalized.sum()
    generator = np.random.default_rng(rng.getrandbits(32))
    drawn = generator.multinomial(shots, normalized)
    return {int(i): int(c) for i, c in enumerate(drawn) if c > 0}


def estimate_expectation(
    plans: Sequence[MeasurementPlan],
    state: np.ndarray,
    shots: int = 4096,
    seed: int = 7,
) -> float:
    """Sampled estimate of ``<state| H |state>`` using the plans.

    ``shots`` are spent per plan (matching the per-family shot batches a
    real device would use).
    """
    rng = random.Random(seed)
    total = 0.0
    for plan in plans:
        if not plan.masks:
            continue
        if all(mask == 0 for _, _, mask in plan.masks):
            total += sum(w * s for w, s, _ in plan.masks)
            continue
        rotated = simulate(plan.circuit, state)
        probabilities = np.abs(rotated) ** 2
        counts = sample_counts(probabilities, shots, rng)
        total += plan.estimate_from_counts(counts)
    return total
