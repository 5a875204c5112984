"""Tests for GCO and DO scheduling (paper Section 4, Algorithm 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    do_schedule,
    gco_schedule,
    schedule_depth_estimate,
    schedule_to_program,
)
from oracles.scheduling import (
    scalar_do_schedule,
    scalar_layer_operator_overlap,
)
from repro.ir import PauliBlock, PauliProgram


def prog(*block_specs, parameter=1.0):
    blocks = [
        PauliBlock(labels if isinstance(labels, list) else [labels], parameter=parameter)
        for labels in block_specs
    ]
    return PauliProgram(blocks)


class TestGCO:
    def test_blocks_sorted_lexicographically(self):
        p = prog("ZZ", "XX", "YY", "XI")
        schedule = gco_schedule(p)
        firsts = [layer[0][0].string.label for layer in schedule]
        # X < Y < Z < I from the high qubit down: XI < XX? q1 equal (X); q0: I(3) > X(0)
        assert firsts == ["XX", "XI", "YY", "ZZ"]

    def test_strings_sorted_within_block(self):
        p = prog(["ZZ", "XX"])
        schedule = gco_schedule(p)
        labels = [ws.string.label for ws in schedule[0][0]]
        assert labels == ["XX", "ZZ"]

    def test_singleton_layers(self):
        p = prog("XX", "ZZ", "YY")
        schedule = gco_schedule(p)
        assert all(len(layer) == 1 for layer in schedule)

    def test_semantics_preserved(self):
        p = prog("ZZ", "XI", ["YY", "XX"], parameter=0.4)
        flattened = schedule_to_program(gco_schedule(p))
        assert flattened.multiset_of_terms() == p.multiset_of_terms()


class TestDO:
    def test_disjoint_blocks_share_a_layer(self):
        # One big block on qubits 0-2, one small on qubit 3.
        p = prog("IZZZ", "ZIII")
        schedule = do_schedule(p)
        assert len(schedule) == 1
        assert len(schedule[0]) == 2
        assert schedule[0][0].active_length == 3  # primary is the large block

    def test_overlapping_blocks_get_own_layers(self):
        p = prog("ZZZ", "ZII")
        schedule = do_schedule(p)
        assert len(schedule) == 2

    def test_padding_respects_depth_budget(self):
        # Primary has depth ~ 2*(3-1)+1 = 5; the three 2-qubit blocks on the
        # same spare qubits have depth 3 each, so only one fits per column.
        p = prog("IIZZZ", "ZZIII", "ZZIII", "ZZIII")
        schedule = do_schedule(p)
        first_layer = schedule[0]
        assert first_layer[0].pauli_strings[0].label == "IIZZZ"
        assert len(first_layer) == 2  # one padding block fits (3 <= 5), not two (6 > 5)

    def test_all_blocks_scheduled_exactly_once(self):
        p = prog("XX", "YY", "ZZ", "XY", "YX")
        schedule = do_schedule(p)
        flattened = schedule_to_program(schedule)
        assert flattened.multiset_of_terms() == p.multiset_of_terms()

    def test_overlap_drives_layer_order(self):
        # After the first layer (ZZI...), the block sharing Z operators
        # should come before the X block.
        p = prog("ZZZZ", "ZZII", "XXII")
        schedule = do_schedule(p)
        order = [layer[0].pauli_strings[0].label for layer in schedule]
        assert order.index("ZZII") < order.index("XXII")

    def test_depth_estimate_monotone(self):
        p = prog("IZZZ", "ZIII")
        do_depth = schedule_depth_estimate(do_schedule(p))
        gco_depth = schedule_depth_estimate(gco_schedule(p))
        assert do_depth <= gco_depth


class TestLayerOverlap:
    def test_counts_matching_ops(self):
        block_a = PauliBlock(["ZZI"])
        block_b = PauliBlock(["ZII"])
        assert block_b.view.operator_overlap(block_a.view.op_profile) == 1

    def test_mismatched_ops_do_not_count(self):
        block_a = PauliBlock(["ZZI"])
        block_b = PauliBlock(["XXI"])
        assert block_b.view.operator_overlap(block_a.view.op_profile) == 0


@given(
    st.lists(
        st.text(alphabet="IXYZ", min_size=4, max_size=4).filter(lambda s: set(s) != {"I"}),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=50, deadline=None)
def test_schedulers_preserve_term_multiset(labels):
    p = prog(*labels, parameter=0.3)
    for schedule in (gco_schedule(p), do_schedule(p)):
        assert schedule_to_program(schedule).multiset_of_terms() == p.multiset_of_terms()


@given(
    st.lists(
        st.text(alphabet="IXYZ", min_size=4, max_size=4).filter(lambda s: set(s) != {"I"}),
        min_size=2,
        max_size=8,
    )
)
@settings(max_examples=30, deadline=None)
def test_do_layers_are_qubit_disjoint_from_primary(labels):
    p = prog(*labels)
    for layer in do_schedule(p):
        primary_qubits = set(layer[0].active_qubits)
        for padding in layer[1:]:
            assert not (set(padding.active_qubits) & primary_qubits)


# ----------------------------------------------------------------------
# Vectorized scheduler vs the scalar oracle (tests/oracles/scheduling.py
# keeps the seed implementation, shared with benchmarks/bench_kernels.py)
# ----------------------------------------------------------------------

def _signature(schedule):
    return [
        [tuple(ws.string.label for ws in block) for block in layer]
        for layer in schedule
    ]


@given(
    st.lists(
        st.lists(
            st.text(alphabet="IXYZ", min_size=5, max_size=5).filter(
                lambda s: set(s) != {"I"}
            ),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=40, deadline=None)
def test_do_schedule_matches_scalar_reference(block_labels):
    p = prog(*block_labels)
    assert _signature(do_schedule(p)) == _signature(scalar_do_schedule(p))


@given(
    st.lists(
        st.text(alphabet="IXYZ", min_size=4, max_size=4).filter(lambda s: set(s) != {"I"}),
        min_size=1,
        max_size=5,
    ),
    st.lists(
        st.text(alphabet="IXYZ", min_size=4, max_size=4).filter(lambda s: set(s) != {"I"}),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=40, deadline=None)
def test_layer_overlap_matches_scalar_reference(block_labels, layer_labels):
    block = PauliBlock(block_labels)
    layer = [PauliBlock(layer_labels)]
    assert block.view.operator_overlap(
        layer[0].view.op_profile
    ) == scalar_layer_operator_overlap(block, layer)
