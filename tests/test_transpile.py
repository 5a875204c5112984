"""Tests for the generic transpilation substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Gate, QuantumCircuit, circuit_unitary, equivalent_up_to_global_phase
from repro.transpile import (
    CouplingMap,
    Layout,
    dense_initial_layout,
    full,
    grid,
    heavy_hex,
    linear,
    manhattan_65,
    melbourne,
    optimize,
    peephole,
    ring,
    route,
    run_rules,
    transpile,
    trivial_layout,
    validate_routed,
)

from helpers import layout_permutation, terms_unitary


class TestCouplingMaps:
    def test_linear_edges(self):
        cmap = linear(4)
        assert cmap.edges == ((0, 1), (1, 2), (2, 3))
        assert cmap.distance(0, 3) == 3

    def test_ring_wraps(self):
        cmap = ring(5)
        assert cmap.distance(0, 4) == 1
        assert cmap.distance(0, 2) == 2

    def test_grid_dimensions(self):
        cmap = grid(3, 4)
        assert cmap.num_qubits == 12
        assert cmap.is_connected(0, 4)
        assert not cmap.is_connected(3, 4)

    def test_full(self):
        cmap = full(4)
        assert all(cmap.distance(i, j) <= 1 for i in range(4) for j in range(4))

    def test_manhattan_is_65_sparse(self):
        cmap = manhattan_65()
        assert cmap.num_qubits == 65
        assert cmap.is_fully_connected
        assert max(cmap.degree(q) for q in range(65)) <= 3  # heavy-hex property

    def test_melbourne_ladder(self):
        cmap = melbourne()
        assert cmap.num_qubits == 15
        assert cmap.is_connected(1, 13)
        assert cmap.is_connected(8, 7)

    def test_heavy_hex_parametric(self):
        cmap = heavy_hex(3, 7)
        assert cmap.is_fully_connected

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            CouplingMap([(0, 9)], num_qubits=2)


class TestLayout:
    def test_bijection(self):
        layout = Layout({0: 5, 1: 3})
        assert layout.physical(0) == 5
        assert layout.logical(3) == 1
        assert layout.logical(7) is None

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError):
            Layout({0: 1, 1: 1})

    def test_swap_physical(self):
        layout = Layout({0: 0, 1: 1})
        layout.swap_physical(0, 1)
        assert layout.physical(0) == 1
        assert layout.physical(1) == 0

    def test_swap_with_unmapped(self):
        layout = Layout({0: 0})
        layout.swap_physical(0, 5)
        assert layout.physical(0) == 5
        assert layout.logical(0) is None

    def test_dense_layout_connected(self):
        cmap = manhattan_65()
        layout = dense_initial_layout(cmap, 10)
        assert cmap.subgraph_is_connected(layout.physical_qubits())

    def test_dense_layout_too_big(self):
        with pytest.raises(ValueError):
            dense_initial_layout(linear(3), 4)

    def test_trivial(self):
        assert trivial_layout(3).as_dict() == {0: 0, 1: 1, 2: 2}


class TestPeephole:
    def test_cancel_hh(self):
        qc = QuantumCircuit(1)
        qc.h(0).h(0)
        out, removed = run_rules(qc, cancel=True)
        assert removed == 2 and len(out) == 0

    def test_cancel_cx_pair(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).cx(0, 1)
        out, removed = run_rules(qc, cancel=True)
        assert len(out) == 0

    def test_no_cancel_when_interleaved(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).h(1).cx(0, 1)
        out, removed = run_rules(qc, cancel=True)
        assert len(out) == 3

    def test_cascading_cancellation(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).h(1).h(1).cx(0, 1)
        out = optimize(qc)
        assert len(out) == 0

    def test_merge_rz(self):
        qc = QuantumCircuit(1)
        qc.rz(0.3, 0).rz(0.4, 0)
        out, _ = run_rules(qc, merge=True)
        assert len(out) == 1
        assert np.isclose(out[0].params[0], 0.7)

    def test_merge_to_zero_drops(self):
        qc = QuantumCircuit(1)
        qc.rz(0.3, 0).rz(-0.3, 0)
        out, _ = run_rules(qc, merge=True)
        assert len(out) == 0

    def test_s_pair_becomes_z_rotation(self):
        qc = QuantumCircuit(1)
        qc.s(0).s(0)
        out, _ = run_rules(qc, merge=True)
        assert len(out) == 1
        u = circuit_unitary(out)
        assert equivalent_up_to_global_phase(u, np.diag([1, -1]).astype(complex))

    def test_commutative_cancel_through_rz(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).rz(0.5, 0).cx(0, 1)
        out, removed = run_rules(qc, commute=True)
        assert removed == 2
        assert [g.name for g in out] == ["rz"]

    def test_commutative_cancel_through_rx_on_target(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).rx(0.5, 1).cx(0, 1)
        out, removed = run_rules(qc, commute=True)
        assert removed == 2

    def test_commutative_no_cancel_h_blocks(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).h(0).cx(0, 1)
        out, removed = run_rules(qc, commute=True)
        assert removed == 0

    @pytest.mark.parametrize("angle", [0.0, -0.0, 2 * np.pi, -4 * np.pi, 1e-13])
    @pytest.mark.parametrize("axis", ["rx", "ry", "rz"])
    def test_lone_zero_angle_rotation_drops(self, axis, angle):
        qc = QuantumCircuit(2)
        qc.h(0)
        getattr(qc, axis)(angle, 1)
        qc.cx(0, 1)
        out, removed = run_rules(qc, merge=True)
        assert removed == 1
        assert [g.name for g in out] == ["h", "cx"]
        assert [g.name for g in optimize(qc)] == ["h", "cx"]

    def test_small_nonzero_rotation_stays(self):
        qc = QuantumCircuit(1)
        qc.rz(1e-11, 0)
        assert len(optimize(qc)) == 1

    def test_zero_rotation_drops_whatever_order_merges_run_in(self):
        # The engine merges rx(0) into the first x, the pair sums to 2*pi
        # and drops, and the second rx(0) is left alone; the seed passes
        # cancel x x first and drop the rx(0) pair.  Both must end at h(1).
        qc = QuantumCircuit(3)
        for _ in range(6):
            qc.h(0)
        qc.rx(0.0, 0).h(1).x(0).x(0).rx(0.0, 0)
        assert [(g.name, g.qubits) for g in optimize(qc)] == [("h", (1,))]

    def test_strict_engine_declines_a_lone_zero_rotation(self):
        qc = QuantumCircuit(1)
        qc.h(0).rz(0.0, 0)
        tape = qc.tape.copy()
        assert peephole._engine(tape, True, True, True, True,
                                seeds=[1], strict=True) is None

    def test_optimize_preserves_unitary(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).rz(0.3, 1).cx(0, 1).h(0).cx(1, 2).cx(1, 2).s(2).sdg(2)
        out = optimize(qc)
        assert equivalent_up_to_global_phase(circuit_unitary(out), circuit_unitary(qc))
        assert len(out) < len(qc)


class TestRouting:
    def test_already_routable_unchanged_counts(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 1).cx(1, 2)
        result = route(qc, linear(3), initial_layout=trivial_layout(3))
        assert result.swap_count == 0
        validate_routed(result.circuit, linear(3))

    def test_inserts_swaps_for_distant_pair(self):
        qc = QuantumCircuit(4)
        qc.cx(0, 3)
        result = route(qc, linear(4), initial_layout=trivial_layout(4))
        assert result.swap_count >= 1
        validate_routed(result.circuit, linear(4))

    def test_routing_preserves_semantics(self):
        qc = QuantumCircuit(4)
        qc.h(0).cx(0, 3).rz(0.7, 3).cx(1, 2).cx(0, 2)
        cmap = linear(4)
        result = route(qc, cmap, initial_layout=trivial_layout(4))
        u_routed = circuit_unitary(result.circuit)
        s_init = layout_permutation(result.initial_layout, 4)
        s_final = layout_permutation(result.final_layout, 4)
        expected = s_final @ circuit_unitary(qc) @ s_init.conj().T
        assert equivalent_up_to_global_phase(u_routed, expected)

    def test_validate_catches_bad_gate(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 2)
        with pytest.raises(ValueError):
            validate_routed(qc, linear(3))


class TestPipeline:
    def test_level0_no_optimization(self):
        qc = QuantumCircuit(2)
        qc.h(0).h(0)
        assert len(transpile(qc, optimization_level=0)) == 2

    def test_level3_cleans_up(self):
        qc = QuantumCircuit(2)
        qc.h(0).h(0).cx(0, 1).cx(0, 1)
        assert len(transpile(qc, optimization_level=3)) == 0

    def test_level_1_2_monotone(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).rz(0.1, 0).cx(0, 1).h(1).h(1)
        l1 = transpile(qc, optimization_level=1)
        l2 = transpile(qc, optimization_level=2)
        assert len(l2) <= len(l1)

    def test_routed_output_valid(self):
        qc = QuantumCircuit(5)
        for i in range(5):
            for j in range(i + 1, 5):
                qc.cx(i, j)
        cmap = linear(5)
        out = transpile(qc, coupling=cmap)
        validate_routed(out, cmap)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_optimize_random_circuits_preserve_unitary(data):
    n = 3
    qc = QuantumCircuit(n)
    num_gates = data.draw(st.integers(1, 15))
    for _ in range(num_gates):
        kind = data.draw(st.sampled_from(["h", "s", "rz", "cx", "yh", "x"]))
        q = data.draw(st.integers(0, n - 1))
        if kind == "cx":
            t = data.draw(st.integers(0, n - 1).filter(lambda x: x != q))
            qc.cx(q, t)
        elif kind == "rz":
            qc.rz(data.draw(st.floats(-3, 3, allow_nan=False)), q)
        else:
            qc.append(Gate(kind, (q,)))
    out = optimize(qc)
    assert len(out) <= len(qc)
    assert equivalent_up_to_global_phase(circuit_unitary(out), circuit_unitary(qc))


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_routing_random_circuits_valid_and_equivalent(data):
    n = 4
    qc = QuantumCircuit(n)
    num_gates = data.draw(st.integers(1, 10))
    for _ in range(num_gates):
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1).filter(lambda x: x != a))
        qc.cx(a, b)
    cmap = linear(n)
    result = route(qc, cmap, initial_layout=trivial_layout(n))
    validate_routed(result.circuit, cmap)
    s_init = layout_permutation(result.initial_layout, n)
    s_final = layout_permutation(result.final_layout, n)
    expected = s_final @ circuit_unitary(qc) @ s_init.conj().T
    assert equivalent_up_to_global_phase(circuit_unitary(result.circuit), expected)
