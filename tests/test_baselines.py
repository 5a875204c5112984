"""Tests for the baseline compilers: tableau, TK, QAOA compiler, naive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    naive_compile,
    partition_commuting,
    qaoa_compile,
    simultaneous_diagonalize,
    tk_compile,
    zz_terms_of_program,
)
from repro.baselines.tableau import ConjugationTracker
from repro.circuit import QuantumCircuit, circuit_unitary, equivalent_up_to_global_phase
from repro.circuit.gates import OP
from repro.ir import PauliBlock, PauliProgram
from repro.pauli import PauliString
from repro.transpile import linear, ring, validate_routed

from helpers import layout_permutation, terms_unitary
from oracles.clifford import SignedPauliTable


def prog(*labels, parameter=0.5):
    return PauliProgram.from_hamiltonian([(l, 1.0) for l in labels], parameter=parameter)


# ----------------------------------------------------------------------
# Conjugation tracker
# ----------------------------------------------------------------------

class TestConjugationTracker:
    @pytest.mark.parametrize("gate", ["h", "s", "sdg", "x"])
    @pytest.mark.parametrize("label", ["X", "Y", "Z"])
    def test_single_qubit_conjugation_matches_matrices(self, gate, label):
        tracker = ConjugationTracker([PauliString.from_label(label)], 1)
        getattr(tracker, gate)(0)
        u = circuit_unitary(tracker.circuit)
        original = PauliString.from_label(label).to_matrix()
        tracked = tracker.signed(0)
        conjugated = tracked.sign * tracked.to_string().to_matrix()
        assert np.allclose(u @ original @ u.conj().T, conjugated)

    @pytest.mark.parametrize("label", ["XX", "XZ", "ZX", "YY", "XI", "IZ", "YZ", "ZY"])
    def test_cx_conjugation_matches_matrices(self, label):
        tracker = ConjugationTracker([PauliString.from_label(label)], 2)
        tracker.cx(0, 1)
        u = circuit_unitary(tracker.circuit)
        original = PauliString.from_label(label).to_matrix()
        tracked = tracker.signed(0)
        conjugated = tracked.sign * tracked.to_string().to_matrix()
        assert np.allclose(u @ original @ u.conj().T, conjugated)

    def test_swap_conjugation(self):
        tracker = ConjugationTracker([PauliString.from_label("XZ")], 2)
        tracker.swap(0, 1)
        assert tracker.signed(0).to_string().label == "ZX"

    def test_whole_batch_is_conjugated_at_once(self):
        labels = ["XI", "IZ", "YY", "ZX"]
        tracker = ConjugationTracker([PauliString.from_label(l) for l in labels], 2)
        tracker.h(0)
        tracker.cx(0, 1)
        u = circuit_unitary(tracker.circuit)
        for row, label in enumerate(labels):
            tracked = tracker.signed(row)
            assert np.allclose(
                u @ PauliString.from_label(label).to_matrix() @ u.conj().T,
                tracked.sign * tracked.to_string().to_matrix(),
            )

    @given(st.text(alphabet="IXYZ", min_size=2, max_size=3).filter(lambda s: set(s) != {"I"}),
           st.lists(st.sampled_from(["h0", "s0", "x1", "cx01", "cx10", "swap"]), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_random_conjugation_sequences(self, label, moves):
        n = len(label)
        tracker = ConjugationTracker([PauliString.from_label(label)], n)
        for move in moves:
            if move == "h0":
                tracker.h(0)
            elif move == "s0":
                tracker.s(0)
            elif move == "x1" and n > 1:
                tracker.x(1)
            elif move == "cx01" and n > 1:
                tracker.cx(0, 1)
            elif move == "cx10" and n > 1:
                tracker.cx(1, 0)
            elif move == "swap" and n > 1:
                tracker.swap(0, 1)
        u = circuit_unitary(tracker.circuit)
        original = PauliString.from_label(label).to_matrix()
        tracked = tracker.signed(0)
        conjugated = tracked.sign * tracked.to_string().to_matrix()
        assert np.allclose(u @ original @ u.conj().T, conjugated)


_TRACKER_GATES_1Q = ["h", "s", "sdg", "x"]
_TRACKER_GATES_2Q = ["cx", "swap"]
_TWO_QUBIT_PAULIS = [a + b for a in "IXYZ" for b in "IXYZ"]


@pytest.mark.parametrize("gate", _TRACKER_GATES_1Q + _TRACKER_GATES_2Q)
@pytest.mark.parametrize("qubits", [(0, 1), (1, 0)])
def test_tracker_rule_matches_matrix_conjugation(gate, qubits):
    """Each tracker rule == ``U P U^dagger`` on all sixteen 2-qubit Paulis."""
    strings = [PauliString.from_label(label) for label in _TWO_QUBIT_PAULIS]
    tracker = ConjugationTracker(strings, 2)
    operands = qubits if gate in _TRACKER_GATES_2Q else qubits[:1]
    getattr(tracker, gate)(*operands)
    u = circuit_unitary(tracker.circuit)
    for row, string in enumerate(strings):
        tracked = tracker.signed(row)
        assert np.allclose(u @ string.to_matrix() @ u.conj().T,
                           tracked.sign * tracked.string.to_matrix()), (
            f"{gate}{operands} conjugation wrong for {string.label}"
        )


@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.text(alphabet="IXYZ", min_size=n, max_size=n),
                 min_size=1, max_size=12),
        st.lists(st.tuples(st.sampled_from(_TRACKER_GATES_1Q + _TRACKER_GATES_2Q),
                           st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=40),
    ))
)
@settings(max_examples=80, deadline=None)
def test_tracker_matches_packed_reference(case):
    """After any sequence of the six gates, every row and sign equals the
    bit-packed reference table's."""
    n, labels, moves = case
    strings = [PauliString.from_label(label) for label in labels]
    tracker = ConjugationTracker(strings, n)
    table = SignedPauliTable.from_strings(strings)
    for gate, a, b in moves:
        if gate in _TRACKER_GATES_2Q:
            if a == b:
                continue
            getattr(tracker, gate)(a, b)
            table.apply(OP[gate], a, b)
        else:
            getattr(tracker, gate)(a)
            table.apply(OP[gate], a)
    assert len(tracker) == table.num_rows
    assert tracker.to_signed_paulis() == table.to_signed_paulis()
    for row in range(table.num_rows):
        assert tracker.is_diagonal(row) == table.is_diagonal(row)
        assert [tracker.x_bit(row, q) for q in range(n)] == [
            table.x_bit(row, q) for q in range(n)]
        assert [tracker.z_bit(row, q) for q in range(n)] == [
            table.z_bit(row, q) for q in range(n)]


# ----------------------------------------------------------------------
# Simultaneous diagonalization
# ----------------------------------------------------------------------

class TestSimultaneousDiagonalization:
    @pytest.mark.parametrize("labels", [
        ["ZZ", "XX", "YY"],          # the Bell-basis commuting triple
        ["ZZI", "IZZ", "ZIZ"],       # dependent all-Z set
        ["XXX", "ZZI", "IZZ"],
        ["XX", "YY"],
        ["XXI", "IXX", "XIX"],
        ["YYZ", "ZZI"],
    ])
    def test_diagonalizes_commuting_sets(self, labels):
        strings = [PauliString.from_label(l) for l in labels]
        clifford, tracked = simultaneous_diagonalize(strings)
        u = circuit_unitary(clifford)
        for original, t in zip(strings, tracked):
            assert t.is_diagonal()
            lhs = u @ original.to_matrix() @ u.conj().T
            rhs = t.sign * t.to_string().to_matrix()
            assert np.allclose(lhs, rhs)

    def test_rejects_noncommuting(self):
        with pytest.raises(ValueError):
            simultaneous_diagonalize(
                [PauliString.from_label("X"), PauliString.from_label("Z")]
            )

    @pytest.mark.parametrize("labels, message", [
        # Only rows 0 and 2 anticommute; row 1 commutes with both.
        (["XI", "IZ", "ZI"], "strings XI and ZI do not commute"),
        # (0, 2) and (1, 3) both fail; the first pair in row order wins.
        (["XII", "IXI", "ZII", "IZI"], "strings XII and ZII do not commute"),
        # (0, 3) and (1, 2) both fail; (0, 3) comes first in row order.
        (["XII", "IXI", "IZI", "ZII"], "strings XII and ZII do not commute"),
    ])
    def test_rejects_first_noncommuting_pair(self, labels, message):
        strings = [PauliString.from_label(l) for l in labels]
        with pytest.raises(ValueError, match=f"^{message}$"):
            simultaneous_diagonalize(strings)

    def test_already_diagonal_is_cheap(self):
        strings = [PauliString.from_label(l) for l in ["ZZ", "ZI"]]
        clifford, tracked = simultaneous_diagonalize(strings)
        assert len(clifford) == 0
        assert all(t.is_diagonal() for t in tracked)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_commuting_sets(self, data):
        n = 3
        pool = data.draw(
            st.lists(
                st.text(alphabet="IXYZ", min_size=n, max_size=n).filter(lambda s: set(s) != {"I"}),
                min_size=1, max_size=6, unique=True,
            )
        )
        chosen = []
        for label in pool:
            p = PauliString.from_label(label)
            if all(p.commutes_with(q) for q in chosen):
                chosen.append(p)
        if not chosen:
            return
        clifford, tracked = simultaneous_diagonalize(chosen)
        u = circuit_unitary(clifford)
        for original, t in zip(chosen, tracked):
            assert t.is_diagonal()
            assert np.allclose(
                u @ original.to_matrix() @ u.conj().T,
                t.sign * t.to_string().to_matrix(),
            )


# ----------------------------------------------------------------------
# TK compile
# ----------------------------------------------------------------------

class TestTKCompile:
    def test_partition_preserves_terms(self):
        terms = [(PauliString.from_label(l), 0.5) for l in ["XX", "ZZ", "XI", "ZI"]]
        sets = partition_commuting(terms)
        flattened = [t for group in sets for t in group]
        assert sorted(s.label for s, _ in flattened) == ["XI", "XX", "ZI", "ZZ"]
        for group in sets:
            strings = [s for s, _ in group]
            assert all(
                a.commutes_with(b) for i, a in enumerate(strings) for b in strings[i + 1:]
            )

    @pytest.mark.parametrize("qubits, length", [
        ((1, 6), (65, 100)),    # term lists longer than 64
        ((65, 80), (1, 12)),    # strings on more than 64 qubits
        ((60, 70), (60, 90)),
    ])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_partition_matches_scalar_greedy(self, qubits, length, data):
        """Each term joins the first set all of whose members commute with it."""
        n = data.draw(st.integers(*qubits))
        k = data.draw(st.integers(*length))
        sparse = st.dictionaries(
            st.integers(0, n - 1), st.sampled_from("IXYZ"), max_size=4
        )
        terms = [
            (PauliString.from_sparse(n, d), float(i))
            for i, d in enumerate(data.draw(st.lists(sparse, min_size=k, max_size=k)))
        ]
        expected = []
        for term in terms:
            for group in expected:
                if all(term[0].commutes_with(member) for member, _ in group):
                    group.append(term)
                    break
            else:
                expected.append([term])
        assert partition_commuting(terms) == expected

    @pytest.mark.parametrize("labels", [
        ["ZZ", "XX"],              # commuting pair in one set
        ["ZZ", "XI", "IX"],
        ["XYZ", "ZXY", "YZX"],
        ["ZII", "IZI", "IIZ", "XXX"],
    ])
    def test_tk_unitary_for_commuting_sets(self, labels):
        # When all terms commute, the compiled unitary must equal the exact
        # product regardless of set-internal ordering.
        p = prog(*labels, parameter=0.37)
        result = tk_compile(p)
        expected = terms_unitary(
            [(ws.string, ws.weight * 0.37) for ws, _ in p.all_weighted_strings()],
            p.num_qubits,
        )
        strings = [PauliString.from_label(l) for l in labels]
        all_commute = all(
            a.commutes_with(b) for i, a in enumerate(strings) for b in strings[i + 1:]
        )
        if all_commute:
            assert equivalent_up_to_global_phase(circuit_unitary(result.circuit), expected)

    def test_tk_noncommuting_respects_set_order(self):
        # X then Z do not commute; TK puts them in different sets applied in
        # order, so the unitary equals the ordered product.
        p = prog("XI", "ZI", parameter=0.4)
        result = tk_compile(p)
        expected = terms_unitary(
            [(PauliString.from_label("XI"), 0.4), (PauliString.from_label("ZI"), 0.4)], 2
        )
        assert equivalent_up_to_global_phase(circuit_unitary(result.circuit), expected)

    def test_tk_ising_overhead(self):
        # All-commuting Ising chain: diagonalization would add Clifford
        # overhead; the already-diagonal set should stay cheap, but the key
        # paper observation is TK >= PH here.
        from repro.core import ft_compile
        labels = ["ZZII", "IZZI", "IIZZ"]
        p = prog(*labels, parameter=0.3)
        tk = tk_compile(p)
        ph = ft_compile(p)
        assert ph.circuit.cnot_count <= tk.circuit.cnot_count

    def test_identity_skipped(self):
        p = prog("II", "ZZ")
        result = tk_compile(p)
        assert result.circuit.count_ops()["rz"] == 1

    @given(
        st.lists(
            st.text(alphabet="IXYZ", min_size=3, max_size=3).filter(lambda s: set(s) != {"I"}),
            min_size=1, max_size=5,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_tk_commuting_subsets_property(self, labels):
        """TK's circuit always equals the product over its own set order."""
        p = prog(*labels, parameter=0.21)
        result = tk_compile(p)
        ordered_terms = [t for group in result.sets for t in group]
        # Within a commuting set order is free; across sets order is fixed.
        # Since within-set terms commute, the product in recorded order is
        # exact.
        expected = terms_unitary(ordered_terms, 3)
        assert equivalent_up_to_global_phase(circuit_unitary(result.circuit), expected)


# ----------------------------------------------------------------------
# QAOA compiler
# ----------------------------------------------------------------------

class TestQAOACompiler:
    def qaoa_program(self, edges, n, gamma=0.4):
        strings = [
            (PauliString.from_sparse(n, {i: "Z", j: "Z"}), 1.0) for i, j in edges
        ]
        return PauliProgram([PauliBlock(strings, parameter=gamma)])

    def test_rejects_non_zz(self):
        p = prog("XX")
        with pytest.raises(ValueError):
            zz_terms_of_program(p)

    def test_extract_terms(self):
        p = self.qaoa_program([(0, 1), (1, 2)], 3)
        terms = zz_terms_of_program(p)
        assert [(i, j) for i, j, _ in terms] == [(0, 1), (1, 2)]

    def test_compiles_triangle_on_line(self):
        p = self.qaoa_program([(0, 1), (1, 2), (0, 2)], 3)
        cmap = linear(3)
        result = qaoa_compile(p, cmap, seeds=5)
        validate_routed(result.circuit, cmap)
        assert result.circuit.count_ops()["rz"] == 3

    def test_unitary_equivalence(self):
        p = self.qaoa_program([(0, 1), (1, 2), (0, 2)], 3, gamma=0.3)
        cmap = ring(3)
        result = qaoa_compile(p, cmap, seeds=3, run_peephole=True)
        u = circuit_unitary(result.circuit)
        terms = [
            (PauliString.from_sparse(3, {i: "Z", j: "Z"}), 0.3)
            for i, j in [(0, 1), (1, 2), (0, 2)]
        ]
        expected = terms_unitary(terms, 3)  # ZZ terms all commute
        s_init = layout_permutation(result.initial_layout, 3)
        s_final = layout_permutation(result.final_layout, 3)
        assert equivalent_up_to_global_phase(u, s_final @ expected @ s_init.conj().T)

    def test_more_seeds_no_worse(self):
        p = self.qaoa_program([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], 4)
        cmap = linear(4)
        few = qaoa_compile(p, cmap, seeds=1)
        many = qaoa_compile(p, cmap, seeds=10)
        assert many.circuit.cnot_count <= few.circuit.cnot_count


# ----------------------------------------------------------------------
# Naive
# ----------------------------------------------------------------------

class TestNaive:
    def test_unrouted(self):
        p = prog("ZZ", "XX")
        circuit = naive_compile(p)
        assert circuit.num_qubits == 2

    def test_routed_valid(self):
        p = prog("ZIZ", "XXI")
        cmap = linear(3)
        circuit = naive_compile(p, coupling=cmap)
        validate_routed(circuit, cmap)
