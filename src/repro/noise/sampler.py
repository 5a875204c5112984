"""Stochastic-Pauli noisy execution (the offline stand-in for real hardware).

Each trajectory runs the circuit on a dense statevector; after every gate,
with probability equal to the gate's error rate, a uniformly random
non-identity Pauli error is injected on the gate's qubits (the standard
depolarizing-channel unravelling).  Readout error is applied analytically as
independent per-qubit bit-flip channels on the averaged distribution.

Averaging a few hundred trajectories approximates the depolarized output
distribution well enough to reproduce the paper's RSP comparisons (which are
themselves single-device snapshots).
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

import numpy as np

from ..circuit import Gate, QuantumCircuit, apply_gate
from .model import NoiseModel

__all__ = ["noisy_probabilities", "ideal_probabilities", "success_probability"]

_PAULI_1Q = ("x", "y", "z")


def _inject_1q(state: np.ndarray, qubit: int, num_qubits: int, rng: random.Random) -> np.ndarray:
    name = rng.choice(_PAULI_1Q)
    return apply_gate(state, Gate(name, (qubit,)), num_qubits)


def _inject_2q(state: np.ndarray, qubits, num_qubits: int, rng: random.Random) -> np.ndarray:
    # Uniform over the 15 non-identity two-qubit Paulis.
    while True:
        a = rng.randrange(4)
        b = rng.randrange(4)
        if a or b:
            break
    for code, qubit in ((a, qubits[0]), (b, qubits[1])):
        if code:
            name = _PAULI_1Q[code - 1]
            state = apply_gate(state, Gate(name, (qubit,)), num_qubits)
    return state


def ideal_probabilities(circuit: QuantumCircuit, initial_state: Optional[np.ndarray] = None) -> np.ndarray:
    """Noise-free output distribution."""
    from ..circuit import simulate

    state = simulate(circuit, initial_state)
    return np.abs(state) ** 2


def noisy_probabilities(
    circuit: QuantumCircuit,
    model: NoiseModel,
    trajectories: int = 200,
    seed: int = 17,
    measured_qubits: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Monte-Carlo average output distribution under stochastic Pauli noise."""
    n = circuit.num_qubits
    dim = 2 ** n
    rng = random.Random(seed)
    total = np.zeros(dim)
    for _ in range(trajectories):
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
        for gate in circuit:
            state = apply_gate(state, gate, n)
            rate = model.gate_error(gate.name, gate.qubits)
            if rate > 0.0 and rng.random() < rate:
                if len(gate.qubits) == 1:
                    state = _inject_1q(state, gate.qubits[0], n, rng)
                else:
                    state = _inject_2q(state, gate.qubits, n, rng)
        total += np.abs(state) ** 2
    probabilities = total / trajectories
    if measured_qubits is not None:
        for q in measured_qubits:
            rate = model.readout_error.get(q, 0.0)
            if rate > 0.0:
                probabilities = _bitflip_channel(probabilities, q, rate, n)
    return probabilities


def _bitflip_channel(probabilities: np.ndarray, qubit: int, rate: float, num_qubits: int) -> np.ndarray:
    """Mix each basis state with its qubit-flipped partner."""
    tensor = probabilities.reshape((2,) * num_qubits)
    axis = num_qubits - 1 - qubit
    flipped = np.flip(tensor, axis=axis)
    return ((1.0 - rate) * tensor + rate * flipped).reshape(-1)


def success_probability(
    probabilities: np.ndarray,
    winning_outcomes: Iterable[int],
) -> float:
    """Total probability mass on the winning basis states."""
    return float(sum(probabilities[w] for w in winning_outcomes))
