"""Algorithm-specific QAOA compiler baseline (Alam et al., MICRO/DAC 2020).

The paper's Table 3 comparator: a compiler specialized to unconstrained
QAOA on graphs.  Every term is a ZZ phase gadget and all gadgets commute,
so the compiler is free to reorder them arbitrarily; the published flow
greedily interleaves *instruction parallelization* (execute every gadget
whose endpoints are currently adjacent) with *greedy SWAP insertion* (pick
the swap that most reduces the summed distance of the remaining gadgets),
restarting from several random initial layouts and keeping the best result
(the paper uses 20 random seeds).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..circuit import QuantumCircuit
from ..ir import PauliProgram
from ..transpile import CouplingMap, Layout, optimize, validate_routed

__all__ = ["qaoa_compile", "QAOACompilerResult", "zz_terms_of_program"]


class QAOACompilerResult:
    """Output of the QAOA-compiler baseline."""

    def __init__(self, circuit: QuantumCircuit, initial_layout: Layout, final_layout: Layout, seed: int):
        self.circuit = circuit
        self.initial_layout = initial_layout
        self.final_layout = final_layout
        self.seed = seed


def zz_terms_of_program(program: PauliProgram) -> List[Tuple[int, int, float]]:
    """Extract ``(i, j, coefficient)`` ZZ terms from a QAOA program.

    Raises ``ValueError`` if any string is not a weight-2 all-Z string —
    this baseline is algorithm-specific by design.
    """
    terms: List[Tuple[int, int, float]] = []
    for ws, parameter in program.all_weighted_strings():
        support = ws.string.support
        if len(support) != 2 or any(ws.string[q] != "Z" for q in support):
            raise ValueError(
                f"QAOA compiler only handles ZZ terms, got {ws.string.label}"
            )
        terms.append((support[0], support[1], ws.weight * parameter))
    return terms


def _emit_zz(circuit: QuantumCircuit, p: int, q: int, coefficient: float) -> None:
    """``exp(i c Z_p Z_q)`` on adjacent physical qubits."""
    circuit.cx(p, q)
    circuit.rz(-2.0 * coefficient, q)
    circuit.cx(p, q)


def _compile_once(
    terms: Sequence[Tuple[int, int, float]],
    num_logical: int,
    coupling: CouplingMap,
    rng: random.Random,
) -> QAOACompilerResult:
    physical = list(range(coupling.num_qubits))
    rng.shuffle(physical)
    initial = Layout({i: physical[i] for i in range(num_logical)})
    layout = initial.copy()
    circuit = QuantumCircuit(coupling.num_qubits)
    remaining = list(terms)

    def swap_delta(p: int, q: int) -> int:
        """Change in remaining distance if physical qubits p, q swap."""
        delta = 0
        moved = {p: q, q: p}
        for i, j, _ in remaining:
            pi, pj = layout.physical(i), layout.physical(j)
            if pi not in moved and pj not in moved:
                continue
            new_pi = moved.get(pi, pi)
            new_pj = moved.get(pj, pj)
            delta += coupling.distance(new_pi, new_pj) - coupling.distance(pi, pj)
        return delta

    last_swap = None
    while remaining:
        # Instruction parallelization: run everything currently adjacent.
        progressed = True
        while progressed:
            progressed = False
            for term in list(remaining):
                i, j, coefficient = term
                p, q = layout.physical(i), layout.physical(j)
                if coupling.is_connected(p, q):
                    _emit_zz(circuit, p, q, coefficient)
                    remaining.remove(term)
                    progressed = True
        if not remaining:
            break
        # Greedy SWAP: the edge move that most reduces remaining distance,
        # scored incrementally (only terms touching the pair change).
        # Never undo the previous swap (ping-pong guard); when no swap
        # strictly improves, take a random non-reversing candidate so the
        # walk keeps exploring (the published heuristic relies on the same
        # randomized restarts to escape plateaus).
        active_physical = {
            layout.physical(x) for i, j, _ in remaining for x in (i, j)
        }
        candidates = []
        for p in sorted(active_physical):
            for nbr in coupling.neighbors(p):
                pair = tuple(sorted((p, nbr)))
                if pair == last_swap:
                    continue
                candidates.append((swap_delta(p, nbr), pair))
        assert candidates, "connected devices always admit a swap"
        best_delta = min(delta for delta, _ in candidates)
        best_pairs = [pair for delta, pair in candidates if delta == best_delta]
        best_swap = rng.choice(best_pairs)
        circuit.swap(*best_swap)
        layout.swap_physical(*best_swap)
        last_swap = best_swap

    return QAOACompilerResult(circuit, initial, layout, seed=0)


def qaoa_compile(
    program: PauliProgram,
    coupling: CouplingMap,
    seeds: int = 20,
    base_seed: int = 2022,
    run_peephole: bool = True,
) -> QAOACompilerResult:
    """Compile a QAOA program with the best of ``seeds`` random restarts.

    The selection metric is CNOT count (SWAP = 3), the dominant error source
    the published compiler optimizes for.
    """
    terms = zz_terms_of_program(program)
    best: Optional[QAOACompilerResult] = None
    for k in range(seeds):
        rng = random.Random(base_seed + k)
        result = _compile_once(terms, program.num_qubits, coupling, rng)
        result.seed = base_seed + k
        if best is None or result.circuit.cnot_count < best.circuit.cnot_count:
            best = result
    assert best is not None
    if run_peephole:
        best = QAOACompilerResult(
            optimize(best.circuit), best.initial_layout, best.final_layout, best.seed
        )
    validate_routed(best.circuit, coupling)
    return best
