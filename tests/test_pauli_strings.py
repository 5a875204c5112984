"""Unit and property tests for the Pauli algebra substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pauli import PauliString
from repro.pauli import operators as ops


def labels(min_size=1, max_size=6):
    return st.text(alphabet="IXYZ", min_size=min_size, max_size=max_size)


class TestConstruction:
    def test_from_label_indexing(self):
        p = PauliString.from_label("YZIXZ")
        assert p[4] == "Y"
        assert p[3] == "Z"
        assert p[2] == "I"
        assert p[1] == "X"
        assert p[0] == "Z"

    def test_label_round_trip(self):
        assert PauliString.from_label("XYZI").label == "XYZI"

    def test_from_sparse(self):
        p = PauliString.from_sparse(4, {0: "Z", 2: "X"})
        assert p.label == "IXIZ"

    def test_from_sparse_out_of_range(self):
        with pytest.raises(ValueError):
            PauliString.from_sparse(2, {5: "X"})

    def test_identity(self):
        p = PauliString.identity(3)
        assert p.is_identity
        assert p.support == ()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PauliString([])

    @pytest.mark.parametrize("label, expected", [
        ("I", True), ("IIII", True), ("IXII", False), ("ZIII", False),
        ("IIIY", False), ("I" * 100, True), ("I" * 99 + "X", False),
        ("X" + "I" * 99, False), ("I" * 50 + "Z" + "I" * 49, False),
    ])
    def test_is_identity(self, label, expected):
        assert PauliString.from_label(label).is_identity is expected
        assert PauliString(ops.LABEL_TO_CODE[c] for c in label).is_identity \
            is expected

    def test_bad_code_rejected(self):
        with pytest.raises(ValueError):
            PauliString([7])

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XQ")


class TestQueries:
    def test_support_and_weight(self):
        p = PauliString.from_label("YZIXZ")
        assert p.support == (0, 1, 3, 4)
        assert p.weight == 4

    def test_len_and_iter(self):
        p = PauliString.from_label("XIZ")
        assert len(p) == 3
        assert list(p) == ["Z", "I", "X"]  # ascending qubit order

    def test_hash_and_eq(self):
        a = PauliString.from_label("XZ")
        b = PauliString.from_label("XZ")
        c = PauliString.from_label("ZX")
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XX").commutes_with(PauliString.from_label("X"))


class TestAlgebra:
    def test_commutes_simple(self):
        assert PauliString.from_label("XX").commutes_with(PauliString.from_label("ZZ"))
        assert not PauliString.from_label("XI").commutes_with(PauliString.from_label("ZI"))

    def test_compose_xy(self):
        phase, p = PauliString.from_label("X").compose(PauliString.from_label("Y"))
        assert p.label == "Z"
        assert phase == 1j

    def test_compose_matches_matrices(self):
        for a_lab, b_lab in [("XZ", "ZY"), ("YY", "XZ"), ("IZ", "XI")]:
            a = PauliString.from_label(a_lab)
            b = PauliString.from_label(b_lab)
            phase, p = a.compose(b)
            assert np.allclose(a.to_matrix() @ b.to_matrix(), phase * p.to_matrix())

    def test_overlap_counts_equal_ops_only(self):
        a = PauliString.from_label("ZZY")
        b = PauliString.from_label("ZZI")
        assert a.overlap(b) == 2
        assert a.shared_support(b) == (1, 2)

    def test_disjoint(self):
        a = PauliString.from_label("XIIX")
        b = PauliString.from_label("IZZI")
        assert a.disjoint_from(b)
        assert not a.disjoint_from(a)


class TestSymplectic:
    def test_bits_round_trip(self):
        p = PauliString.from_label("IXYZ")
        q = PauliString.from_bits(p.x_bits, p.z_bits)
        assert p == q

    def test_bit_values(self):
        p = PauliString.from_label("Y")
        assert p.x_bits[0] and p.z_bits[0]


class TestLexKey:
    def test_paper_order(self):
        # X < Y < Z < I per qubit, compared from the highest qubit down.
        x = PauliString.from_label("XI")
        y = PauliString.from_label("YI")
        z = PauliString.from_label("ZI")
        i = PauliString.from_label("II")
        keys = [p.lex_key() for p in (x, y, z, i)]
        assert keys == sorted(keys)

    def test_high_qubit_dominates(self):
        a = PauliString.from_label("XZ")  # q1=X
        b = PauliString.from_label("ZX")  # q1=Z
        assert a.lex_key() < b.lex_key()


class TestMatrix:
    def test_single_qubit_matrices(self):
        assert np.allclose(PauliString.from_label("X").to_matrix(), ops.matrix_of(ops.X))

    def test_tensor_order(self):
        # "XZ": X on q1, Z on q0 -> X (x) Z.
        expected = np.kron(ops.matrix_of(ops.X), ops.matrix_of(ops.Z))
        assert np.allclose(PauliString.from_label("XZ").to_matrix(), expected)

    def test_too_large_refused(self):
        with pytest.raises(ValueError):
            PauliString.identity(13).to_matrix()


@given(labels(), labels())
@settings(max_examples=60, deadline=None)
def test_commutation_matches_matrices(lab_a, lab_b):
    n = max(len(lab_a), len(lab_b))
    a = PauliString.from_label(lab_a.rjust(n, "I"))
    b = PauliString.from_label(lab_b.rjust(n, "I"))
    ma, mb = a.to_matrix(), b.to_matrix()
    commutes = np.allclose(ma @ mb, mb @ ma)
    assert a.commutes_with(b) == commutes


@given(labels())
@settings(max_examples=60, deadline=None)
def test_self_product_is_identity(lab):
    p = PauliString.from_label(lab)
    phase, prod = p.compose(p)
    assert prod.is_identity
    assert phase == 1


@given(labels(), labels(), labels())
@settings(max_examples=40, deadline=None)
def test_compose_associative(lab_a, lab_b, lab_c):
    n = max(len(lab_a), len(lab_b), len(lab_c))
    a = PauliString.from_label(lab_a.rjust(n, "I"))
    b = PauliString.from_label(lab_b.rjust(n, "I"))
    c = PauliString.from_label(lab_c.rjust(n, "I"))
    ph1, ab = a.compose(b)
    ph2, ab_c = ab.compose(c)
    ph3, bc = b.compose(c)
    ph4, a_bc = a.compose(bc)
    assert ab_c == a_bc
    assert np.isclose(ph1 * ph2, ph3 * ph4)


@given(labels())
@settings(max_examples=40, deadline=None)
def test_lex_key_total_order_consistent(lab):
    p = PauliString.from_label(lab)
    assert len(p.lex_key()) == len(lab)
