"""Tests for the columnar gate tape substrate under QuantumCircuit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Gate, QuantumCircuit
from repro.circuit.gates import OP
from repro.circuit.tape import NO_SLOT, GateTape
from repro.static import check_tape


def _random_circuit(data, n=4, max_gates=20):
    qc = QuantumCircuit(n)
    num_gates = data.draw(st.integers(0, max_gates))
    for _ in range(num_gates):
        kind = data.draw(st.sampled_from(["h", "s", "rz", "x", "cx", "cz", "swap"]))
        a = data.draw(st.integers(0, n - 1))
        if kind in ("cx", "cz", "swap"):
            b = data.draw(st.integers(0, n - 1).filter(lambda x: x != a))
            qc.append(Gate(kind, (a, b)))
        elif kind == "rz":
            qc.rz(data.draw(st.floats(-3, 3, allow_nan=False)), a)
        else:
            qc.append(Gate(kind, (a,)))
    return qc


class TestTapeStructure:
    def test_append_links_and_counts(self):
        tape = GateTape(3)
        s0 = tape.append(OP["h"], 0)
        s1 = tape.append(OP["cx"], 0, 1)
        s2 = tape.append(OP["rz"], 1, NO_SLOT, 0.5)
        assert tape.alive_count == 3
        assert tape.wire_sequence(0) == [s0, s1]
        assert tape.wire_sequence(1) == [s1, s2]
        assert tape.wire_sequence(2) == []
        assert tape.wire_next(s0, 0) == s1
        assert tape.wire_prev(s2, 1) == s1
        check_tape(tape).raise_on_error()

    def test_remove_splices_both_wires(self):
        tape = GateTape(2)
        s0 = tape.append(OP["h"], 0)
        s1 = tape.append(OP["cx"], 0, 1)
        s2 = tape.append(OP["h"], 1)
        tape.remove(s1)
        assert tape.wire_sequence(0) == [s0]
        assert tape.wire_sequence(1) == [s2]
        assert tape.alive_count == 2
        assert tape.counts[OP["cx"]] == 0
        check_tape(tape).raise_on_error()

    def test_set_two_qubit_op_swaps_roles(self):
        tape = GateTape(2)
        s0 = tape.append(OP["h"], 0)
        s1 = tape.append(OP["swap"], 0, 1)
        s2 = tape.append(OP["h"], 1)
        tape.ensure_links()
        tape.set_two_qubit_op(s1, OP["cx"], 1, 0)
        assert tape.q0[s1] == 1 and tape.q1[s1] == 0
        assert tape.wire_sequence(0) == [s0, s1]
        assert tape.wire_sequence(1) == [s1, s2]
        assert tape.counts[OP["swap"]] == 0 and tape.counts[OP["cx"]] == 1
        check_tape(tape).raise_on_error()

    def test_lazy_links_realize_after_appends(self):
        tape = GateTape(2)
        tape.append(OP["h"], 0)
        tape.append(OP["cx"], 0, 1)
        assert not tape._links_ready
        assert tape.wire_sequence(0) == [0, 1]
        assert tape._links_ready
        # appends after realization maintain links incrementally
        tape.append(OP["h"], 1)
        assert tape.wire_sequence(1) == [1, 2]
        check_tape(tape).raise_on_error()

    def test_compact_renumbers(self):
        tape = GateTape(2)
        tape.append(OP["h"], 0)
        s1 = tape.append(OP["x"], 0)
        tape.append(OP["cx"], 0, 1)
        tape.remove(s1)
        dense = tape.compact()
        assert dense.alive_count == 2
        assert [dense.op[s] for s in dense.iter_slots()] == [OP["h"], OP["cx"]]
        check_tape(dense).raise_on_error()


class TestCircuitContainerSemantics:
    def test_getitem_slice_and_negative(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).s(1)
        assert qc[-1].name == "s"
        assert [g.name for g in qc[0:2]] == ["h", "cx"]

    def test_copy_is_independent(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        other = qc.copy()
        other.x(1)
        assert len(qc) == 2 and len(other) == 3
        assert qc.count_ops() == {"h": 1, "cx": 1}

    def test_depth_swap_weighting_matches_decomposition(self):
        qc = QuantumCircuit(3)
        qc.h(0).swap(0, 1).cx(1, 2).swap(2, 0)
        assert qc.depth(swap_depth=3) == qc.decompose_swaps().depth()
        assert qc.depth() == 4

    def test_builders_reject_duplicate_qubits(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2).cx(1, 1)
        with pytest.raises(ValueError):
            QuantumCircuit(3).swap(2, 2)

    def test_remap_rejects_collapsing_map(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        with pytest.raises(ValueError):
            qc.remap_qubits({0: 0, 1: 0})


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_tape_invariants_hold_under_mutation(data):
    qc = _random_circuit(data)
    check_tape(qc.tape).raise_on_error()
    # wire sequences agree with a straight scan of the gate list
    for q in range(qc.num_qubits):
        scanned = [i for i, g in enumerate(qc) if q in g.qubits]
        slots = qc.tape.wire_sequence(q)
        order = {slot: idx for idx, slot in enumerate(qc.tape.iter_slots())}
        assert [order[s] for s in slots] == scanned
    # counts agree with a scan
    ops = {}
    for g in qc:
        ops[g.name] = ops.get(g.name, 0) + 1
    assert qc.count_ops() == ops


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_compact_after_removals_matches_per_slot_copy(data):
    qc = _random_circuit(data, max_gates=30)
    tape = qc.tape.copy()
    live = list(tape.iter_slots())
    for slot in data.draw(st.lists(st.sampled_from(live), unique=True)
                          if live else st.just([])):
        tape.remove(slot)
    dense = tape.compact()
    live = list(tape.iter_slots())
    assert dense.op == [tape.op[s] for s in live]
    assert dense.q0 == [tape.q0[s] for s in live]
    assert dense.q1 == [tape.q1[s] for s in live]
    assert dense.param == [tape.param[s] for s in live]
    assert dense.alive == [True] * len(live)
    assert dense.alive_count == len(live)
    recount = [0] * len(dense.counts)
    for code in dense.op:
        recount[code] += 1
    assert dense.counts == recount
    assert dense.counts is not tape.counts
    check_tape(dense).raise_on_error()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_compose_matches_per_gate_append(data):
    """``compose`` adopts the live rows as columns in one step; it must
    leave what appending each live gate leaves: with dead rows in the
    other circuit, composing a circuit with itself, and onto a target
    whose wire links are realized."""
    target = _random_circuit(data, max_gates=15)
    other = target if data.draw(st.booleans()) else _random_circuit(data)
    live = list(other.tape.iter_slots())
    for slot in data.draw(st.lists(st.sampled_from(live), unique=True)
                          if live else st.just([])):
        other.tape.remove(slot)
    if data.draw(st.booleans()):
        target.tape.ensure_links()
    before, appended = list(target), list(other)
    expected = QuantumCircuit(target.num_qubits)
    for gate in before + appended:
        expected.append(gate)

    assert target.compose(other) is target
    assert list(target) == before + appended
    dense, reference = target.tape.compact(), expected.tape.compact()
    assert (dense.op, dense.q0, dense.q1, dense.param) == (
        reference.op, reference.q0, reference.q1, reference.param)
    assert target.tape.counts == expected.tape.counts
    assert target.tape.alive_count == len(before) + len(appended)
    check_tape(target).raise_on_error()
    for q in range(target.num_qubits):
        assert [target.tape.op[s] for s in target.tape.wire_sequence(q)] == \
            [expected.tape.op[s] for s in expected.tape.wire_sequence(q)]
