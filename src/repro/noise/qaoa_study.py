"""End-to-end QAOA success-probability study (paper Section 6.4, Figure 11).

Pipeline, mirroring the paper:

1. build the 1-level QAOA MaxCut ansatz for a graph;
2. optimize ``(gamma, beta)`` on the ideal simulator (grid search over the
   logical ansatz — parameters belong to the algorithm, not the mapping);
3. compile the cost layer for the device twice — baseline (naive synthesis
   in adjacency order + SABRE routing + peephole, the 'Qiskit_L3 default')
   and Paulihedral (Algorithm 3 with noise-aware paths);
4. report ESP from the noise model and RSP from noisy simulation, counting
   a shot as a success when it measures an optimal cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import networkx as nx
import numpy as np

from ..circuit import QuantumCircuit
from ..core import sc_compile
from ..transpile import CouplingMap, Layout, dense_initial_layout, route, optimize as peephole
from ..core.synthesis import naive_program_circuit
from ..workloads import best_maxcut_bitstrings, maxcut_program
from .model import NoiseModel, esp
from .sampler import ideal_probabilities, noisy_probabilities, success_probability

__all__ = [
    "QAOARun",
    "qaoa_logical_circuit",
    "optimize_parameters",
    "compile_qaoa_cost",
    "evaluate_qaoa",
    "qaoa_study",
]


@dataclass
class QAOARun:
    """One compiled QAOA executable plus its measurement mapping."""

    circuit: QuantumCircuit
    measured: Dict[int, int]   # logical qubit -> physical qubit at readout
    method: str


def qaoa_logical_circuit(graph: nx.Graph, gamma: float, beta: float) -> QuantumCircuit:
    """The ideal (unmapped) 1-level QAOA circuit: H, cost, mixer."""
    n = graph.number_of_nodes()
    program = maxcut_program(graph, gamma=-gamma)  # exp(-i gamma C)
    circuit = QuantumCircuit(n)
    for q in range(n):
        circuit.h(q)
    circuit.compose(naive_program_circuit(program))
    for q in range(n):
        circuit.rx(2.0 * beta, q)
    return circuit


def optimize_parameters(
    graph: nx.Graph,
    resolution: int = 8,
) -> Tuple[float, float, float]:
    """Grid-search ``(gamma, beta)`` maximizing ideal success probability.

    Returns ``(gamma, beta, ideal_success)``.
    """
    _, winners = best_maxcut_bitstrings(graph)
    best = (-1.0, 0.0, 0.0)
    for gamma in np.linspace(0.1, math.pi / 2, resolution):
        for beta in np.linspace(0.1, math.pi / 2, resolution):
            probs = ideal_probabilities(qaoa_logical_circuit(graph, gamma, beta))
            score = success_probability(probs, winners)
            if score > best[0]:
                best = (score, float(gamma), float(beta))
    score, gamma, beta = best
    return gamma, beta, score


def compile_qaoa_cost(
    graph: nx.Graph,
    gamma: float,
    coupling: CouplingMap,
    noise_model: Optional[NoiseModel],
    method: str,
) -> Tuple[QuantumCircuit, Layout, Layout]:
    """Compile the cost layer; returns (circuit, initial_layout, final_layout)."""
    program = maxcut_program(graph, gamma=-gamma)
    if method == "ph":
        edge_error = noise_model.edge_error_map() if noise_model else None
        result = sc_compile(program, coupling, scheduler="do", edge_error=edge_error)
        return result.circuit, result.initial_layout, result.final_layout
    if method == "baseline":
        logical = naive_program_circuit(program)
        initial = dense_initial_layout(coupling, program.num_qubits)
        routed = route(logical, coupling, initial_layout=initial)
        return peephole(routed.circuit), routed.initial_layout, routed.final_layout
    raise ValueError(f"unknown method {method!r}")


def build_full_circuit(
    graph: nx.Graph,
    gamma: float,
    beta: float,
    coupling: CouplingMap,
    noise_model: Optional[NoiseModel],
    method: str,
) -> QAOARun:
    """Full physical executable: H layer + compiled cost + mixer layer."""
    n = graph.number_of_nodes()
    cost, initial, final = compile_qaoa_cost(graph, gamma, coupling, noise_model, method)
    full = QuantumCircuit(coupling.num_qubits)
    for logical in range(n):
        full.h(initial.physical(logical))
    full.compose(cost)
    for logical in range(n):
        full.rx(2.0 * beta, final.physical(logical))
    measured = {logical: final.physical(logical) for logical in range(n)}
    return QAOARun(full, measured, method)


def _logical_distribution(
    probabilities: np.ndarray,
    measured: Dict[int, int],
    num_physical: int,
    num_logical: int,
) -> np.ndarray:
    """Marginalize a physical-basis distribution onto the logical register."""
    out = np.zeros(2 ** num_logical)
    physical_positions = [measured[l] for l in range(num_logical)]
    for index, p in enumerate(probabilities):
        if p == 0.0:
            continue
        logical_index = 0
        for l, pos in enumerate(physical_positions):
            logical_index |= ((index >> pos) & 1) << l
        out[logical_index] += p
    return out


def evaluate_qaoa(
    run: QAOARun,
    graph: nx.Graph,
    noise_model: NoiseModel,
    trajectories: int = 150,
    seed: int = 23,
) -> Dict[str, float]:
    """ESP and RSP (noisy-simulated) success metrics for one executable."""
    _, winners = best_maxcut_bitstrings(graph)
    measured_physical = list(run.measured.values())
    esp_value = esp(run.circuit, noise_model, measured_qubits=measured_physical)

    probs = noisy_probabilities(
        run.circuit, noise_model, trajectories=trajectories, seed=seed,
        measured_qubits=measured_physical,
    )
    logical = _logical_distribution(
        probs, run.measured, run.circuit.num_qubits, graph.number_of_nodes()
    )
    rsp = success_probability(logical, winners)

    ideal = ideal_probabilities(run.circuit)
    ideal_logical = _logical_distribution(
        ideal, run.measured, run.circuit.num_qubits, graph.number_of_nodes()
    )
    return {
        "esp": esp_value,
        "rsp": rsp,
        "ideal_success": success_probability(ideal_logical, winners),
        "cnot": run.circuit.cnot_count,
        "depth": run.circuit.depth(),
    }


def qaoa_study(
    graph: nx.Graph,
    coupling: CouplingMap,
    noise_model: NoiseModel,
    resolution: int = 6,
    trajectories: int = 150,
    seed: int = 23,
) -> Dict[str, Dict[str, float]]:
    """Full Figure 11 comparison for one graph: baseline vs Paulihedral."""
    gamma, beta, _ = optimize_parameters(graph, resolution=resolution)
    results = {}
    for method in ("baseline", "ph"):
        run = build_full_circuit(graph, gamma, beta, coupling, noise_model, method)
        results[method] = evaluate_qaoa(
            run, graph, noise_model, trajectories=trajectories, seed=seed
        )
    results["improvement"] = {
        "esp": results["ph"]["esp"] / max(results["baseline"]["esp"], 1e-12),
        "rsp": results["ph"]["rsp"] / max(results["baseline"]["rsp"], 1e-12),
    }
    return results
