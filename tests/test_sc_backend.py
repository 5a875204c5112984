"""Tests for the SC backend pass (Algorithm 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import circuit_unitary, equivalent_up_to_global_phase
from repro.core import EmbeddedTree, compile_program, sc_compile
from repro.core.synthesis import naive_program_circuit
from repro.ir import PauliBlock, PauliProgram
from repro.transpile import CouplingMap, linear, ring, grid, full, route, validate_routed

from helpers import layout_permutation, terms_unitary


def prog(*block_specs, parameter=0.5):
    blocks = [
        PauliBlock(labels if isinstance(labels, list) else [labels], parameter=parameter)
        for labels in block_specs
    ]
    return PauliProgram(blocks)


def check_sc_equivalence(program, coupling, scheduler="do"):
    """Compile for SC and verify full unitary equivalence:

    circuit == S_final . U(emitted terms) . S_initial^dagger  (up to phase)
    """
    result = sc_compile(program, coupling, scheduler=scheduler)
    validate_routed(result.circuit, coupling)
    u_circ = circuit_unitary(result.circuit)
    u_terms = terms_unitary(result.emitted_terms, program.num_qubits)
    s_init = layout_permutation(result.initial_layout, coupling.num_qubits)
    s_final = layout_permutation(result.final_layout, coupling.num_qubits)
    expected = s_final @ u_terms @ s_init.conj().T
    assert equivalent_up_to_global_phase(u_circ, expected), "SC compilation broke semantics"
    return result


class TestEmbeddedTree:
    def test_bfs_tree_structure(self):
        cmap = linear(4)
        tree = EmbeddedTree.bfs(cmap, [0, 1, 2, 3], root=1)
        assert tree.depth == {1: 0, 0: 1, 2: 1, 3: 2}
        assert tree.parent[3] == 2

    def test_disconnected_nodes_rejected(self):
        cmap = linear(4)
        with pytest.raises(ValueError):
            EmbeddedTree.bfs(cmap, [0, 3], root=0)

    def test_root_must_be_member(self):
        with pytest.raises(ValueError):
            EmbeddedTree.bfs(linear(3), [0, 1], root=2)

    def test_depth_desc_order(self):
        cmap = linear(5)
        tree = EmbeddedTree.bfs(cmap, [0, 1, 2, 3, 4], root=0)
        order = tree.nodes_by_depth_desc()
        depths = [tree.depth[n] for n in order]
        assert depths == sorted(depths, reverse=True)


class TestSCCorrectness:
    def test_single_block_on_line(self):
        check_sc_equivalence(prog("ZZZ"), linear(3))

    def test_multi_block_on_line(self):
        check_sc_equivalence(prog("ZZI", "IXX", "YIY"), linear(3))

    def test_blocks_with_multiple_strings(self):
        check_sc_equivalence(prog(["ZZI", "IZZ"], ["XXI", "IXX"]), linear(3))

    def test_on_ring(self):
        check_sc_equivalence(prog("ZZZZ", "XXII", "IIYY"), ring(4))

    def test_on_grid(self):
        check_sc_equivalence(prog("ZIIZ", "IZZI", "XXXX"), grid(2, 2))

    def test_single_qubit_strings(self):
        check_sc_equivalence(prog("IIX", "IZI", "YII"), linear(3))

    def test_gco_scheduler(self):
        check_sc_equivalence(prog("ZZI", "ZIZ", "XXI"), linear(3), scheduler="gco")

    def test_distant_logicals_placed_adjacent(self):
        # Z..Z on logicals 0 and 3: the interaction-aware initial layout
        # places them on adjacent physical qubits, so no swaps are needed.
        result = check_sc_equivalence(prog("ZIIZ"), linear(4))
        assert result.circuit.count_ops().get("swap", 0) == 0
        p0 = result.initial_layout.physical(0)
        p3 = result.initial_layout.physical(3)
        assert abs(p0 - p3) == 1

    @pytest.mark.parametrize("scheduler", ["do", "gco", "none"])
    def test_identity_only_block_compiles_to_nothing(self, scheduler):
        # A block with no active qubit has no root: the SC flow skips it,
        # as the FT flow drops it.
        with_identity = PauliProgram([PauliBlock(["ZZI", "XXI"], 0.5),
                                      PauliBlock(["III"], 0.3)])
        without = PauliProgram([PauliBlock(["ZZI", "XXI"], 0.5)])
        plain = compile_program(without, backend="sc", coupling=linear(3),
                                scheduler=scheduler)
        result = compile_program(with_identity, backend="sc",
                                 coupling=linear(3), scheduler=scheduler)
        assert result.circuit.gates == plain.circuit.gates
        assert result.emitted_terms == plain.emitted_terms
        assert result.final_layout == plain.final_layout

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            sc_compile(prog("ZZ"), linear(2), scheduler="bogus")


class TestSCQuality:
    def test_all_gates_respect_coupling(self):
        p = prog("ZZIII", "IZZII", "IIZZI", "IIIZZ", "XIIIX")
        result = sc_compile(p, linear(5))
        validate_routed(result.circuit, linear(5))

    def test_competitive_with_naive_routing_on_qaoa_like(self):
        # Ring-of-ZZ QAOA-like workload on a line: the ring's wrap edge
        # forces movement for everyone; PH must stay within a small margin
        # of synth-then-SABRE here (it wins decisively on 2-D topologies —
        # see benchmarks/bench_ablations.py D3).
        labels = ["ZZIIII", "IZZIII", "IIZZII", "IIIZZI", "IIIIZZ", "ZIIIIZ"]
        p = prog(*labels)
        cmap = linear(6)
        ph = sc_compile(p, cmap)
        naive = naive_program_circuit(p)
        routed = route(naive, cmap)
        assert ph.circuit.cnot_count <= routed.circuit.cnot_count * 1.25

    def test_paper_fig4b_no_swap_needed(self):
        # ZZZ on a line with mapping q1,q0,q2: flexible root avoids SWAPs.
        p = prog("ZZZ")
        result = sc_compile(p, linear(3))
        assert result.circuit.count_ops().get("swap", 0) == 0


@given(
    st.lists(
        st.text(alphabet="IXYZ", min_size=3, max_size=3).filter(lambda s: set(s) != {"I"}),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from(["do", "gco"]),
)
@settings(max_examples=25, deadline=None)
def test_sc_line_always_equivalent(labels, scheduler):
    check_sc_equivalence(prog(*labels, parameter=0.23), linear(3), scheduler=scheduler)


@given(
    st.lists(
        st.text(alphabet="IXYZ", min_size=4, max_size=4).filter(lambda s: set(s) != {"I"}),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=15, deadline=None)
def test_sc_ring_always_equivalent(labels):
    check_sc_equivalence(prog(*labels, parameter=0.41), ring(4))
