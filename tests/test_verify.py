"""Tests for the Pauli-propagation verifier subsystem (repro.verify).

Three layers of cross-validation, each against an independent reference:

* the packed conjugation engine in ``tests/oracles/clifford.py`` (the
  reference the TK tableau is checked against) against the *scalar*
  per-qubit update tables it replaced and against explicit matrix
  conjugation;
* gadget extraction against ``circuit_unitary`` on random Clifford+rotation
  tapes (catches sign/phase bugs that no self-consistency check would);
* the end-to-end verifier against both backends, with injected mutations
  that must be detected and localized.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import layout_permutation
from oracles.clifford import SignedPauliTable
from repro.circuit import QuantumCircuit, circuit_unitary, equivalent_up_to_global_phase
from repro.circuit.gates import OP, Gate
from repro.core import compile_program
from repro.ir import PauliBlock, PauliProgram
from repro.pauli import PauliString
from repro.transpile import linear, route, transpile
from repro.verify import (
    RotationGadget,
    VerificationError,
    canonicalize_gadgets,
    extract_gadgets,
    verify_circuit,
    verify_result,
)

# ----------------------------------------------------------------------
# Scalar reference: the per-qubit update tables the packed engine replaced
# (kept verbatim from the old baselines.tableau.TrackedPauli machinery).
# ----------------------------------------------------------------------

_H_TABLE = {0: (1, 0), 1: (1, 2), 2: (1, 1), 3: (-1, 3)}
_S_TABLE = {0: (1, 0), 1: (1, 3), 2: (1, 2), 3: (-1, 1)}
_SDG_TABLE = {0: (1, 0), 1: (-1, 3), 2: (1, 2), 3: (1, 1)}
_X_TABLE = {0: (1, 0), 1: (1, 1), 2: (-1, 2), 3: (-1, 3)}


class ScalarPauli:
    """Minimal scalar tracked Pauli: codes bytearray plus a +/-1 sign."""

    def __init__(self, string):
        self.codes = bytearray(string.codes)
        self.sign = 1

    def apply(self, move, qubits):
        table = {"h": _H_TABLE, "s": _S_TABLE, "sdg": _SDG_TABLE, "x": _X_TABLE}.get(move)
        if table is not None:
            q = qubits[0]
            sign, new = table[self.codes[q]]
            self.codes[q] = new
            self.sign *= sign
        elif move == "cx":
            control, target = qubits
            xc, zc = self.codes[control] & 1, (self.codes[control] >> 1) & 1
            xt, zt = self.codes[target] & 1, (self.codes[target] >> 1) & 1
            if xc & zt & (xt ^ zc ^ 1):
                self.sign *= -1
            self.codes[target] = (xt ^ xc) | (zt << 1)
            self.codes[control] = xc | ((zc ^ zt) << 1)
        elif move == "swap":
            a, b = qubits
            self.codes[a], self.codes[b] = self.codes[b], self.codes[a]
        else:
            raise ValueError(move)


_MOVES = ["h", "s", "sdg", "x", "cx", "swap"]


@given(
    st.lists(
        st.text(alphabet="IXYZ", min_size=3, max_size=3).filter(lambda s: set(s) != {"I"}),
        min_size=1, max_size=5,
    ),
    st.lists(
        st.tuples(st.sampled_from(_MOVES), st.integers(0, 2), st.integers(0, 2)),
        min_size=1, max_size=12,
    ),
)
@settings(max_examples=60, deadline=None)
def test_packed_engine_matches_scalar_reference(labels, moves):
    """Migration gate: packed whole-table conjugation == scalar per-row."""
    strings = [PauliString.from_label(label) for label in labels]
    table = SignedPauliTable.from_strings(strings)
    scalars = [ScalarPauli(s) for s in strings]
    for move, a, b in moves:
        if move in ("cx", "swap"):
            if a == b:
                continue
            qubits = (a, b)
        else:
            qubits = (a,)
        table.apply(OP[move], *qubits)
        for scalar in scalars:
            scalar.apply(move, qubits)
    for row, scalar in enumerate(scalars):
        assert table.string(row).codes == bytes(scalar.codes)
        assert table.sign(row) == scalar.sign


_ALL_CLIFFORD_1Q = ["h", "s", "sdg", "x", "y", "z", "yh"]
_ALL_CLIFFORD_2Q = ["cx", "cz", "swap"]


@pytest.mark.parametrize("gate_name", _ALL_CLIFFORD_1Q + _ALL_CLIFFORD_2Q)
def test_conjugate_rows_matches_matrix_conjugation(gate_name):
    """Engine rule for every Clifford == U P U^dagger on all 2-qubit Paulis."""
    labels = [a + b for a in "IXYZ" for b in "IXYZ"][1:]  # skip II
    strings = [PauliString.from_label(label) for label in labels]
    table = SignedPauliTable.from_strings(strings)
    qubits = (0, 1) if gate_name in _ALL_CLIFFORD_2Q else (0,)
    gate = Gate(gate_name, qubits)
    table.apply(OP[gate_name], *qubits)
    qc = QuantumCircuit(2)
    qc.append(gate)
    u = circuit_unitary(qc)
    for row, string in enumerate(strings):
        expected = u @ string.to_matrix() @ u.conj().T
        tracked = table.signed(row)
        assert np.allclose(expected, tracked.sign * tracked.string.to_matrix()), (
            f"{gate_name} conjugation wrong for {string.label}"
        )


def test_apply_inverse_round_trips():
    strings = [PauliString.from_label(l) for l in ["XYZ", "ZZI", "IYX"]]
    table = SignedPauliTable.from_strings(strings)
    gates = [("h", 0, -1), ("s", 1, -1), ("cx", 0, 2), ("yh", 2, -1), ("cz", 1, 2)]
    for name, a, b in gates:
        table.apply(OP[name], a, b)
    for name, a, b in reversed(gates):
        table.apply_inverse(OP[name], a, b)
    for row, string in enumerate(strings):
        assert table.signed(row).string == string
        assert table.sign(row) == 1


# ----------------------------------------------------------------------
# Gadget extraction vs the dense unitary (the sign/phase acid test)
# ----------------------------------------------------------------------

_TAPE_GATES = _ALL_CLIFFORD_1Q + _ALL_CLIFFORD_2Q + ["rz", "rx", "ry"]


@st.composite
def clifford_rotation_tapes(draw, max_qubits=5, max_gates=24):
    n = draw(st.integers(1, max_qubits))
    qc = QuantumCircuit(n)
    for _ in range(draw(st.integers(1, max_gates))):
        name = draw(st.sampled_from(_TAPE_GATES))
        q = draw(st.integers(0, n - 1))
        if name in _ALL_CLIFFORD_2Q:
            if n == 1:
                continue
            q2 = draw(st.integers(0, n - 2))
            q2 = q2 if q2 < q else q2 + 1
            getattr(qc, name)(q, q2)
        elif name in ("rz", "rx", "ry"):
            angle = draw(st.floats(-3.5, 3.5, allow_nan=False))
            getattr(qc, name)(angle, q)
        else:
            getattr(qc, name)(q)
    return qc


def _rebuilt_unitary(extraction):
    """``prod_k exp(-i angle_k/2 P_k)`` (first gadget applied first)."""
    n = extraction.num_qubits
    unitary = np.eye(2 ** n, dtype=complex)
    for gadget in extraction.gadgets:
        unitary = (
            scipy.linalg.expm(-0.5j * gadget.angle * gadget.string.to_matrix())
            @ unitary
        )
    return unitary


@given(clifford_rotation_tapes())
@settings(max_examples=60, deadline=None)
def test_extraction_matches_circuit_unitary(qc):
    """Satellite check: gadget factorization reproduces the exact unitary
    up to global phase (n <= 5 keeps the dense algebra cheap)."""
    extraction = extract_gadgets(qc)
    clifford_only = QuantumCircuit(qc.num_qubits)
    for gate in qc.gates:
        if gate.name not in ("rz", "rx", "ry"):
            clifford_only.append(gate)
    rebuilt = circuit_unitary(clifford_only) @ _rebuilt_unitary(extraction)
    assert equivalent_up_to_global_phase(circuit_unitary(qc), rebuilt, atol=1e-7)


@given(clifford_rotation_tapes(max_qubits=4, max_gates=16))
@settings(max_examples=30, deadline=None)
def test_residual_frame_matches_matrix_conjugation(qc):
    """The residual tableau rows are exactly ``C^dagger P C`` for the
    rotation-stripped circuit ``C``."""
    extraction = extract_gadgets(qc)
    clifford_only = QuantumCircuit(qc.num_qubits)
    for gate in qc.gates:
        if gate.name not in ("rz", "rx", "ry"):
            clifford_only.append(gate)
    u = circuit_unitary(clifford_only)
    n = qc.num_qubits
    for q in range(min(n, 3)):
        for axis, image in (
            ("X", extraction.frame.inverse_image_of_x(q)),
            ("Z", extraction.frame.inverse_image_of_z(q)),
        ):
            generator = PauliString.from_sparse(n, {q: axis}).to_matrix()
            expected = u.conj().T @ generator @ u
            assert np.allclose(
                expected, image.sign * image.string.to_matrix()
            ), f"frame row {axis}_{q} wrong"


def test_frame_permutation_detection():
    qc = QuantumCircuit(4)
    qc.swap(0, 2)
    qc.swap(1, 0)
    frame = extract_gadgets(qc).frame
    sigma = frame.permutation()
    # swap(0,2) then swap(1,0): 0 -> 2, 2 -> 0 -> 1, 1 -> 0.
    assert sigma == [2, 0, 1, 3]
    assert not frame.is_identity()

    qc = QuantumCircuit(2)
    qc.h(0)
    assert extract_gadgets(qc).frame.permutation() is None

    qc = QuantumCircuit(2)
    qc.x(0)  # sign-flipping residual: not a pure permutation
    assert extract_gadgets(qc).frame.permutation() is None

    qc = QuantumCircuit(3)
    qc.cx(0, 1)
    qc.cx(0, 1)
    assert extract_gadgets(qc).frame.is_identity()


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------

def _gadget(label, angle, position=0):
    return RotationGadget(PauliString.from_label(label), angle, position)


class TestCanonicalization:
    def test_adjacent_same_pauli_merges(self):
        out = canonicalize_gadgets([_gadget("XX", 0.3), _gadget("XX", 0.4)])
        assert len(out) == 1 and math.isclose(out[0].angle, 0.7)

    def test_merge_across_commuting_gadget(self):
        # ZZ commutes with XX: the two XX rotations merge through it.
        out = canonicalize_gadgets(
            [_gadget("XX", 0.3), _gadget("ZZ", 0.2), _gadget("XX", 0.4)]
        )
        assert [g.label for g in out] == ["XX", "ZZ"]
        assert math.isclose(out[0].angle, 0.7)

    def test_no_merge_across_anticommuting_gadget(self):
        out = canonicalize_gadgets(
            [_gadget("XX", 0.3), _gadget("ZI", 0.2), _gadget("XX", 0.4)]
        )
        assert [g.label for g in out] == ["XX", "ZI", "XX"]

    def test_cancellation_drops_pair(self):
        out = canonicalize_gadgets([_gadget("XY", 0.3), _gadget("XY", -0.3)])
        assert out == []

    def test_zero_and_two_pi_dropped(self):
        out = canonicalize_gadgets(
            [_gadget("XX", 0.0), _gadget("ZZ", 2.0 * math.pi), _gadget("YY", 1.0)]
        )
        assert [g.label for g in out] == ["YY"]

    def test_angles_wrap_mod_two_pi(self):
        out = canonicalize_gadgets([_gadget("XX", 2.0 * math.pi + 0.5)])
        assert len(out) == 1 and math.isclose(out[0].angle, 0.5)


# ----------------------------------------------------------------------
# End-to-end verification and mutation detection
# ----------------------------------------------------------------------

def _program(*entries, parameter=0.7):
    return PauliProgram.from_hamiltonian(list(entries), parameter=parameter)


PROGRAM = _program(
    ("XXIZ", 0.3), ("ZZYI", -0.7), ("IXYZ", 1.1), ("XXIZ", 0.4), ("ZIIZ", 0.9)
)


class TestVerifyCompilations:
    @pytest.mark.parametrize("backend", ["ft", "sc"])
    def test_certifies_both_backends(self, backend):
        kwargs = {"coupling": linear(4)} if backend == "sc" else {}
        result = compile_program(PROGRAM, backend=backend, **kwargs)
        report = verify_result(PROGRAM, result)
        assert report.ok, report.describe()
        assert report.max_angle_error < 1e-9

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_certifies_all_opt_levels(self, level):
        result = compile_program(PROGRAM, backend="ft", run_peephole=False)
        compiled = transpile(result.circuit, optimization_level=level)
        report = verify_circuit(compiled, result.emitted_terms)
        assert report.ok, report.describe()

    def test_certifies_routed_circuit_with_permutation(self):
        result = compile_program(PROGRAM, backend="ft")
        routed = route(result.circuit, linear(4))
        report = verify_circuit(
            routed.circuit,
            result.emitted_terms,
            initial_layout=routed.initial_layout,
            final_layout=routed.final_layout,
        )
        assert report.ok, report.describe()

    def test_verifier_agrees_with_statevector_oracle(self):
        # The two oracles must reach the same verdict on a healthy compile.
        result = compile_program(PROGRAM, backend="sc", coupling=linear(4))
        assert verify_result(PROGRAM, result).ok
        from repro.circuit.statevector import simulate
        from repro.core.synthesis import pauli_rotation_gates

        naive = QuantumCircuit(4)
        for string, coefficient in result.emitted_terms:
            naive.extend(pauli_rotation_gates(string, -2.0 * coefficient))
        rng = np.random.default_rng(5)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        s_init = layout_permutation(result.initial_layout, 4)
        s_final = layout_permutation(result.final_layout, 4)
        reference = s_final @ simulate(naive, s_init.conj().T @ state)
        assert np.isclose(abs(np.vdot(simulate(result.circuit, state), reference)), 1.0)

    def test_compile_program_verify_flag(self):
        result = compile_program(PROGRAM, backend="ft", verify=True)
        assert result.verification is not None and result.verification.ok


def _first_rz_slot(circuit):
    tape = circuit.tape
    for slot in tape.iter_slots():
        if tape.op[slot] == OP["rz"]:
            return slot
    raise AssertionError("no rz in circuit")


class TestMutationDetection:
    def setup_method(self):
        self.result = compile_program(PROGRAM, backend="ft")

    def test_wrong_angle_detected_and_localized(self):
        mutated = self.result.circuit.copy()
        slot = _first_rz_slot(mutated)
        mutated.tape.param[slot] += 0.125
        report = verify_circuit(mutated, self.result.emitted_terms)
        assert not report.ok
        assert report.mismatch.kind == "angle"
        assert report.mismatch.position is not None
        assert "1.250e-01" in report.mismatch.detail

    def test_wrong_pauli_detected_with_qubit(self):
        # Flip one basis change h -> yh: the gadget's X becomes a Y.
        mutated = self.result.circuit.copy()
        tape = mutated.tape
        for slot in tape.iter_slots():
            if tape.op[slot] == OP["h"]:
                tape.counts[OP["h"]] -= 1
                tape.counts[OP["yh"]] += 1
                tape.op[slot] = OP["yh"]
                break
        report = verify_circuit(mutated, self.result.emitted_terms)
        assert not report.ok
        assert report.mismatch.kind in ("pauli", "frame")
        if report.mismatch.kind == "pauli":
            assert report.mismatch.qubit is not None

    def test_dropped_rotation_detected(self):
        mutated = self.result.circuit.copy()
        slot = _first_rz_slot(mutated)
        mutated.tape.remove(slot)
        report = verify_circuit(mutated, self.result.emitted_terms)
        assert not report.ok
        assert report.mismatch.kind in ("missing", "pauli", "angle")

    def test_extra_rotation_detected(self):
        mutated = self.result.circuit.copy()
        mutated.rz(0.4, 2)
        report = verify_circuit(mutated, self.result.emitted_terms)
        assert not report.ok

    def test_stray_clifford_breaks_the_frame(self):
        mutated = self.result.circuit.copy()
        mutated.swap(0, 3)
        report = verify_circuit(mutated, self.result.emitted_terms)
        assert not report.ok
        assert report.mismatch.kind == "frame"

    def test_sign_error_detected(self):
        mutated = self.result.circuit.copy()
        mutated.x(1)  # uncompensated Pauli correction
        report = verify_circuit(mutated, self.result.emitted_terms)
        assert not report.ok
        assert report.mismatch.kind == "frame"

    def test_tampered_emission_fails_multiset(self):
        tampered = [(s, c) for s, c in self.result.emitted_terms]
        tampered[0] = (tampered[0][0], tampered[0][1] + 1.0)
        self.result.emitted_terms = tampered
        report = verify_result(PROGRAM, self.result)
        assert not report.ok
        assert report.mismatch.kind == "multiset"

    def test_raise_if_failed(self):
        mutated = self.result.circuit.copy()
        mutated.tape.param[_first_rz_slot(mutated)] += 0.5
        report = verify_circuit(mutated, self.result.emitted_terms)
        with pytest.raises(VerificationError):
            report.raise_if_failed()

    def test_verify_flag_raises_on_bad_compile(self, monkeypatch):
        import repro.core.ft_backend as ft_backend

        original = ft_backend.ft_compile

        def broken(program, **kwargs):
            out = original(program, **kwargs)
            out.circuit.tape.param[_first_rz_slot(out.circuit)] *= 2.0
            return out

        monkeypatch.setattr("repro.core.compiler.ft_compile", broken)
        with pytest.raises(VerificationError):
            compile_program(PROGRAM, backend="ft", verify=True)


class TestPaperScale:
    def test_thirty_qubit_program_verifies_without_statevector(self):
        blocks = []
        rng = np.random.default_rng(11)
        for _ in range(12):
            codes = rng.integers(0, 4, size=30)
            if not codes.any():
                codes[0] = 2
            blocks.append(
                PauliBlock(
                    [(PauliString(bytes(codes.astype(np.uint8))), 0.5)],
                    parameter=float(rng.normal() or 0.3),
                )
            )
        program = PauliProgram(blocks)
        result = compile_program(program, backend="ft", verify=True)
        assert result.verification.ok
        assert result.verification.num_qubits == 30

    def test_thirty_qubit_mutation_detected(self):
        program = PauliProgram.from_hamiltonian(
            [("X" * 15 + "Z" * 15, 0.25), ("Z" * 30, -0.5), ("Y" + "I" * 28 + "X", 1.0)]
        )
        result = compile_program(program, backend="ft")
        mutated = result.circuit.copy()
        mutated.tape.param[_first_rz_slot(mutated)] -= 0.2
        report = verify_circuit(mutated, result.emitted_terms)
        assert not report.ok and report.mismatch.kind == "angle"
