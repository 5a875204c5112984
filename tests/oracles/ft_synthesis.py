"""Scalar oracle for :func:`repro.core.ft_synthesize`.

This is the FT synthesizer as it was before the array-native rewrite: one
:func:`~repro.core.synthesis.aligned_chain_plan` per term, planned against
its neighbours with scalar ``PauliString`` queries, and expanded gate by
gate through :func:`~repro.core.synthesis.pauli_rotation_gates`.  The
rewrite must match it gate for gate.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.circuit import QuantumCircuit
from repro.core.synthesis import (
    SynthesisPlan,
    aligned_chain_plan,
    better_neighbor,
    pauli_rotation_gates,
)
from repro.pauli import PauliString

__all__ = ["reference_ft_synthesize"]


def reference_ft_synthesize(
    terms: List[Tuple[PauliString, float]],
    num_qubits: int,
    junction_policy: str = "paired",
) -> QuantumCircuit:
    strings = [string for string, _ in terms]
    if junction_policy == "paired":
        plans = _paired_plans(strings)
    elif junction_policy == "onesided":
        plans = _onesided_plans(strings)
    else:
        raise ValueError(f"unknown junction policy {junction_policy!r}")
    circuit = QuantumCircuit(num_qubits)
    for (string, coefficient), plan in zip(terms, plans):
        circuit.extend(pauli_rotation_gates(string, -2.0 * coefficient, plan))
    return circuit


def _paired_plans(strings: List[PauliString]) -> List[Optional[SynthesisPlan]]:
    """DP plans, unless the one-sided plans are predicted to cancel
    strictly more."""
    dp_plans = _dp_plans(strings)
    os_plans = _onesided_plans(strings)
    if _predicted_cancellation(os_plans, strings) > _predicted_cancellation(
        dp_plans, strings
    ):
        return os_plans
    return dp_plans


def _plan_junctions(strings: List[PauliString]) -> List[Optional[int]]:
    """Non-adjacent junction set with the lexicographic-max ``(cancelled
    CNOTs, cancelled basis gates)``, taking a junction on DP ties."""
    m = len(strings)
    aligned: List[Optional[int]] = [None] * m
    gains: List[Optional[Tuple[int, int]]] = []
    for j in range(m - 1):
        shared = strings[j].shared_support(strings[j + 1])
        cnot = 2 * max(len(shared) - 1, 0)
        basis = 2 * sum(1 for q in shared if strings[j].code_at(q) & 1)
        gains.append((cnot, basis) if cnot + basis > 0 else None)
    zero = (0, 0)
    dp: List[Tuple[int, int]] = [zero] * max(m - 1, 0)
    for j in range(m - 1):
        skip = dp[j - 1] if j >= 1 else zero
        if gains[j] is None:
            dp[j] = skip
            continue
        prev2 = dp[j - 2] if j >= 2 else zero
        dp[j] = max(skip, (prev2[0] + gains[j][0], prev2[1] + gains[j][1]))
    j = m - 2
    while j >= 0:
        if gains[j] is not None:
            prev2 = dp[j - 2] if j >= 2 else zero
            if dp[j] == (prev2[0] + gains[j][0], prev2[1] + gains[j][1]):
                aligned[j] = j + 1
                aligned[j + 1] = j
                j -= 2
                continue
        j -= 1
    return aligned


def _dp_plans(strings: List[PauliString]) -> List[Optional[SynthesisPlan]]:
    aligned = _plan_junctions(strings)
    plans: List[Optional[SynthesisPlan]] = []
    for idx, k in enumerate(aligned):
        prev_string = strings[idx - 1] if idx > 0 else None
        next_string = strings[idx + 1] if idx + 1 < len(strings) else None
        if k is not None:
            primary = strings[k]
            secondary = prev_string if k == idx + 1 else next_string
        else:
            primary = better_neighbor(strings[idx], prev_string, next_string)
            secondary = None
            if primary is not None:
                secondary = prev_string if primary is next_string else next_string
        plans.append(_plan_for(strings[idx], primary, secondary))
    return plans


def _onesided_plans(strings: List[PauliString]) -> List[Optional[SynthesisPlan]]:
    plans: List[Optional[SynthesisPlan]] = []
    for idx, string in enumerate(strings):
        prev_string = strings[idx - 1] if idx > 0 else None
        next_string = strings[idx + 1] if idx + 1 < len(strings) else None
        plans.append(
            _plan_for(string, better_neighbor(string, prev_string, next_string))
        )
    return plans


def _plan_order(plan: Optional[SynthesisPlan]) -> List[int]:
    """Chain order (leaf to root) realized by a plan."""
    if plan is None:
        return []
    if not plan.edges:
        return [plan.root]
    return [plan.edges[0][0]] + [target for _, target in plan.edges]


def _predicted_cancellation(
    plans: List[Optional[SynthesisPlan]], strings: List[PauliString]
) -> Tuple[int, int]:
    """``(CNOTs, basis gates)`` cancelled along each junction's longest
    common chain prefix of shared qubits."""
    total_cnot = 0
    total_basis = 0
    for j in range(len(plans) - 1):
        left = _plan_order(plans[j])
        right = _plan_order(plans[j + 1])
        shared = set(strings[j].shared_support(strings[j + 1]))
        prefix = 0
        for a, b in zip(left, right):
            if a != b or a not in shared:
                break
            prefix += 1
        if prefix:
            total_cnot += 2 * (prefix - 1)
            total_basis += 2 * sum(
                1 for q in left[:prefix] if strings[j].code_at(q) & 1
            )
    return total_cnot, total_basis


def _plan_for(
    string: PauliString,
    neighbor: Optional[PauliString],
    secondary: Optional[PauliString] = None,
) -> Optional[SynthesisPlan]:
    if string.is_identity:
        return None
    return aligned_chain_plan(string, neighbor, secondary)
