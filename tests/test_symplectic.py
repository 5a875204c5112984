"""Vectorized symplectic kernels vs the scalar PauliString reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pauli import PauliString, PauliTable, popcount

labels_strategy = st.lists(
    st.text(alphabet="IXYZ", min_size=5, max_size=5),
    min_size=1,
    max_size=12,
)


def table_of(labels):
    return PauliTable.from_strings([PauliString.from_label(s) for s in labels])


class TestConstruction:
    def test_round_trip(self):
        labels = ["XYZI", "IIII", "ZZXX"]
        table = table_of(labels)
        assert [s.label for s in table.to_strings()] == labels

    def test_getitem_and_len(self):
        table = table_of(["XY", "ZI"])
        assert len(table) == 2
        assert table[1] == PauliString.from_label("ZI")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PauliTable.from_strings([])

    def test_rejects_mixed_widths(self):
        with pytest.raises(ValueError):
            PauliTable.from_strings(
                [PauliString.from_label("XX"), PauliString.from_label("XXX")]
            )

    def test_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            PauliTable(np.array([[4]], dtype=np.uint8))

    def test_wide_rows_pack_into_multiple_bytes(self):
        # 20 qubits -> 3 packed bytes per row.
        p = PauliString.from_sparse(20, {0: "X", 9: "Y", 19: "Z"})
        table = PauliTable.from_strings([p])
        assert table.x.shape == (1, 3)
        assert table[0] == p


class TestRowReductions:
    def test_weights_match_scalar(self):
        labels = ["XYZI", "IIII", "ZZXX", "IXII"]
        table = table_of(labels)
        expected = [PauliString.from_label(s).weight for s in labels]
        assert table.weights().tolist() == expected

    def test_basis_change_counts(self):
        # X and Y need basis changes; Z and I do not.
        table = table_of(["XYZI"])
        assert table.basis_change_counts().tolist() == [2]

    def test_popcount(self):
        arr = np.array([[0xFF, 0x01], [0x00, 0x00]], dtype=np.uint8)
        assert popcount(arr).tolist() == [9, 0]


class TestOverlap:
    def test_matrix_matches_scalar(self):
        labels = ["XYZIZ", "XYIIZ", "ZZZZZ", "IIIII"]
        strings = [PauliString.from_label(s) for s in labels]
        matrix = PauliTable.from_strings(strings).overlap_matrix()
        for i, a in enumerate(strings):
            for j, b in enumerate(strings):
                assert matrix[i, j] == a.overlap(b)

    def test_row_matches_matrix(self):
        table = table_of(["XYZ", "XXZ", "IYZ"])
        matrix = table.overlap_matrix()
        for i in range(3):
            assert table.overlaps(i).tolist() == matrix[i].tolist()

    def test_consecutive_overlaps(self):
        strings = [PauliString.from_label(s) for s in ["XYZ", "XXZ", "IYZ"]]
        table = PauliTable.from_strings(strings)
        expected = [a.overlap(b) for a, b in zip(strings, strings[1:])]
        assert table.consecutive_overlaps().tolist() == expected


class TestSharedSupportAndLex:
    def test_shared_support_matches_scalar(self):
        strings = [PauliString.from_label(s) for s in ["XYZIZ", "XYIZZ"]]
        table = PauliTable.from_strings(strings)
        assert table.shared_support(0, 1) == strings[0].shared_support(strings[1])

    def test_lex_keys_match_scalar(self):
        labels = ["ZZI", "XIY", "IYX"]
        strings = [PauliString.from_label(s) for s in labels]
        ranks = PauliTable.from_strings(strings).lex_ranks()
        for row, string in zip(ranks, strings):
            assert tuple(row) == string.lex_key()

    def test_lex_argsort_matches_sorted(self):
        labels = ["ZZI", "XIY", "IYX", "XIY"]
        strings = [PauliString.from_label(s) for s in labels]
        table = PauliTable.from_strings(strings)
        order = table.lex_argsort()
        expected = sorted(range(len(strings)), key=lambda i: strings[i].lex_key())
        assert order.tolist() == expected


@given(labels_strategy)
@settings(max_examples=60, deadline=None)
def test_batch_kernels_match_scalar_reference(labels):
    strings = [PauliString.from_label(s) for s in labels]
    table = PauliTable.from_strings(strings)
    m = len(strings)
    overlap = table.overlap_matrix()
    ranks = table.lex_ranks()
    for i in range(m):
        assert tuple(ranks[i]) == strings[i].lex_key()
        for j in range(m):
            assert overlap[i, j] == strings[i].overlap(strings[j])
            assert table.shared_support(i, j) == strings[i].shared_support(strings[j])
