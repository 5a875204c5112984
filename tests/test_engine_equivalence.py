"""Equivalence of the tape-based transpile stages against the seed oracle.

The worklist peephole engine and the incremental SABRE router replaced the
seed rebuild-the-world implementations, which are kept verbatim in
``tests/oracles/transpile.py``.  These tests pin the contract:

* every peephole pass produces a circuit unitarily equivalent to the seed
  pass's output (and with the same gate counts at the fixpoint);
* the router produces *gate-for-gate identical* output;

on random circuits and on the tier-1 workload emissions (FT and QAOA
families, both schedulers).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Gate, QuantumCircuit, circuit_unitary, equivalent_up_to_global_phase
from repro.circuit.statevector import simulate
from repro.core import ft_compile
from repro.transpile import (
    linear,
    manhattan_65,
    optimize,
    route,
    run_rules,
    trivial_layout,
)
from oracles.transpile import (
    seed_cancel_adjacent_pairs,
    seed_commutative_cancel,
    seed_fuse_swap_cx,
    seed_merge_rotations,
    seed_optimize,
    seed_route,
)
from repro.workloads import build_benchmark

WORKLOADS = ["Ising-1D", "Heisen-1D", "N2", "UCCSD-8", "REG-20-4"]

#: One engine rule at a time, next to the seed pass it replaced.
PASS_PAIRS = [
    (dict(cancel=True), seed_cancel_adjacent_pairs),
    (dict(merge=True), seed_merge_rotations),
    (dict(commute=True), seed_commutative_cancel),
    (dict(fuse=True), seed_fuse_swap_cx),
]


def _random_state(num_qubits, seed=11):
    rng = np.random.default_rng(seed)
    dim = 2 ** num_qubits
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def _draw_circuit(data, n, num_gates):
    qc = QuantumCircuit(n)
    for _ in range(num_gates):
        kind = data.draw(st.sampled_from(
            ["h", "s", "sdg", "x", "y", "z", "yh", "rz", "rx", "ry",
             "cx", "cz", "swap"]
        ))
        a = data.draw(st.integers(0, n - 1))
        if kind in ("cx", "cz", "swap"):
            b = data.draw(st.integers(0, n - 1).filter(lambda x: x != a))
            qc.append(Gate(kind, (a, b)))
        elif kind in ("rz", "rx", "ry"):
            qc.append(Gate(kind, (a,), (data.draw(st.floats(-3, 3, allow_nan=False)),)))
        else:
            qc.append(Gate(kind, (a,)))
    return qc


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_each_pass_equivalent_to_seed_on_random_circuits(data):
    qc = _draw_circuit(data, 3, data.draw(st.integers(1, 14)))
    reference_unitary = circuit_unitary(qc)
    for rule, seed_pass in PASS_PAIRS:
        tape_out, _ = run_rules(qc, **rule)
        seed_out, _ = seed_pass(qc)
        u_tape = circuit_unitary(tape_out)
        assert equivalent_up_to_global_phase(u_tape, reference_unitary)
        assert equivalent_up_to_global_phase(u_tape, circuit_unitary(seed_out))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_optimize_fixpoint_matches_seed_on_random_circuits(data):
    qc = _draw_circuit(data, 3, data.draw(st.integers(1, 16)))
    tape_out = optimize(qc)
    seed_out = seed_optimize(qc)
    # Both run their rules to a fixpoint: the circuits must be equivalent
    # and equally small.
    assert len(tape_out) <= len(seed_out)
    assert equivalent_up_to_global_phase(
        circuit_unitary(tape_out), circuit_unitary(qc)
    )


def test_fuse_does_not_steal_pending_cancellation():
    """Regression: fuse must not fire on [swap, cx, cx] before the cx/cx
    pair cancels — the shrinking rules have global priority, matching the
    seed's cancel-before-fuse pass order."""
    qc = QuantumCircuit(2)
    qc.swap(1, 0).cx(0, 1).cx(0, 1)
    tape_out = optimize(qc)
    seed_out = seed_optimize(qc)
    assert len(seed_out) == 1
    assert len(tape_out) == 1
    assert equivalent_up_to_global_phase(
        circuit_unitary(tape_out), circuit_unitary(qc)
    )


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_router_identical_to_seed_on_random_circuits(data):
    n = 4
    qc = QuantumCircuit(n)
    for _ in range(data.draw(st.integers(1, 12))):
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1).filter(lambda x: x != a))
        qc.cx(a, b)
    cmap = linear(n)
    seed_circuit, seed_init, seed_final, seed_swaps = seed_route(
        qc, cmap, initial_layout=trivial_layout(n)
    )
    result = route(qc, cmap, initial_layout=trivial_layout(n))
    assert list(result.circuit.gates) == list(seed_circuit.gates)
    assert result.swap_count == seed_swaps
    assert result.final_layout == seed_final
    assert result.initial_layout == seed_init


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("scheduler", ["do", "gco"])
def test_optimize_equivalent_to_seed_on_workloads(name, scheduler):
    program = build_benchmark(name, "small")
    emission = ft_compile(program, scheduler=scheduler, run_peephole=False).circuit
    tape_out = optimize(emission)
    seed_out = seed_optimize(emission)
    assert len(tape_out) == len(seed_out)
    assert tape_out.count_ops() == seed_out.count_ops()
    if emission.num_qubits <= 12:
        state = _random_state(emission.num_qubits)
        assert equivalent_up_to_global_phase(
            simulate(tape_out, state), simulate(seed_out, state)
        )


@pytest.mark.parametrize("name", WORKLOADS)
def test_router_identical_to_seed_on_workloads(name):
    program = build_benchmark(name, "small")
    emission = ft_compile(program, scheduler="do", run_peephole=False).circuit
    optimized = optimize(emission)
    cmap = manhattan_65()
    seed_circuit, _, _, seed_swaps = seed_route(optimized, cmap)
    result = route(optimized, cmap)
    assert list(result.circuit.gates) == list(seed_circuit.gates)
    assert result.swap_count == seed_swaps
