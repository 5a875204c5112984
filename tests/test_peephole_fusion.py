"""Unit tests for the SWAP/CNOT fusion peephole pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Gate, QuantumCircuit, circuit_unitary, equivalent_up_to_global_phase
from repro.transpile import linear, optimize, run_rules, validate_routed


class TestFusionRules:
    @pytest.mark.parametrize("first,second", [
        ("swap", (0, 1)), ("swap", (1, 0)),
    ])
    def test_swap_then_cx_both_orientations(self, first, second):
        for cx_pair in [(0, 1), (1, 0)]:
            qc = QuantumCircuit(2)
            qc.swap(*second)
            qc.cx(*cx_pair)
            out, fused = run_rules(qc, fuse=True)
            assert fused == 1
            assert out.count_ops() == {"cx": 2}
            assert equivalent_up_to_global_phase(
                circuit_unitary(out), circuit_unitary(qc)
            )

    def test_cx_then_swap(self):
        for cx_pair in [(0, 1), (1, 0)]:
            qc = QuantumCircuit(2)
            qc.cx(*cx_pair)
            qc.swap(0, 1)
            out, fused = run_rules(qc, fuse=True)
            assert fused == 1
            assert out.cnot_count == 2
            assert equivalent_up_to_global_phase(
                circuit_unitary(out), circuit_unitary(qc)
            )

    def test_no_fusion_across_interleaved_gate(self):
        qc = QuantumCircuit(2)
        qc.swap(0, 1).h(0).cx(0, 1)
        out, fused = run_rules(qc, fuse=True)
        assert fused == 0

    def test_no_fusion_on_different_pairs(self):
        qc = QuantumCircuit(3)
        qc.swap(0, 1).cx(1, 2)
        out, fused = run_rules(qc, fuse=True)
        assert fused == 0

    def test_fusion_reduces_hardware_cnots(self):
        qc = QuantumCircuit(2)
        qc.swap(0, 1).cx(0, 1)
        out, _ = run_rules(qc, fuse=True)
        assert out.cnot_count == 2
        assert qc.cnot_count == 4

    def test_fused_output_stays_routable(self):
        qc = QuantumCircuit(3)
        qc.swap(0, 1).cx(0, 1).swap(1, 2).cx(2, 1)
        out = optimize(qc)
        validate_routed(out, linear(3))

    def test_chain_of_fusions(self):
        # swap cx swap cx -> repeated fusion shrinks everything.
        qc = QuantumCircuit(2)
        qc.swap(0, 1).cx(0, 1).swap(0, 1).cx(0, 1)
        out = optimize(qc)
        assert out.cnot_count < qc.cnot_count
        assert equivalent_up_to_global_phase(
            circuit_unitary(out), circuit_unitary(qc)
        )


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_fusion_preserves_unitary_on_random_swap_cx_circuits(data):
    qc = QuantumCircuit(3)
    num_gates = data.draw(st.integers(2, 10))
    for _ in range(num_gates):
        kind = data.draw(st.sampled_from(["swap", "cx", "rz"]))
        a = data.draw(st.integers(0, 2))
        b = data.draw(st.integers(0, 2).filter(lambda x: x != a))
        if kind == "rz":
            qc.rz(data.draw(st.floats(-2, 2, allow_nan=False)), a)
        else:
            qc.append(Gate(kind, (a, b)))
    out, _ = run_rules(qc, fuse=True)
    assert equivalent_up_to_global_phase(circuit_unitary(out), circuit_unitary(qc))
    assert out.cnot_count <= qc.cnot_count
