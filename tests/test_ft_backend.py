"""Tests for the FT backend pass (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import circuit_unitary, equivalent_up_to_global_phase
from repro.core import (
    ft_compile,
    ft_synthesize,
    most_overlap_sort,
    naive_program_circuit,
    plan_junctions,
)
from repro.core.synthesis import better_neighbor
from repro.ir import PauliBlock, PauliProgram
from repro.pauli import PauliString
from repro.transpile import optimize
from repro.workloads import build_benchmark

from helpers import terms_unitary
from oracles.ft_synthesis import reference_ft_synthesize


def prog(*block_specs, parameter=0.5):
    blocks = [
        PauliBlock(labels if isinstance(labels, list) else [labels], parameter=parameter)
        for labels in block_specs
    ]
    return PauliProgram(blocks)


class TestMostOverlapSort:
    def test_chains_by_overlap(self):
        terms = [
            (PauliString.from_label("ZZZ"), 1.0),
            (PauliString.from_label("XXX"), 1.0),
            (PauliString.from_label("ZZX"), 1.0),
        ]
        ordered = most_overlap_sort(terms)
        labels = [t[0].label for t in ordered]
        assert labels == ["ZZZ", "ZZX", "XXX"]

    def test_short_lists_unchanged(self):
        terms = [(PauliString.from_label("X"), 1.0)]
        assert most_overlap_sort(terms) == terms


class TestFTCorrectness:
    @pytest.mark.parametrize("scheduler", ["gco", "do", "none"])
    def test_unitary_matches_emitted_terms(self, scheduler):
        p = prog("ZZI", "IXX", ["YYI", "IZZ"], "XIX", parameter=0.31)
        result = ft_compile(p, scheduler=scheduler)
        expected = terms_unitary(result.emitted_terms, p.num_qubits)
        assert equivalent_up_to_global_phase(circuit_unitary(result.circuit), expected)

    def test_emitted_terms_cover_program(self):
        p = prog("ZZ", ["XX", "YY"], parameter=0.2)
        result = ft_compile(p)
        emitted = sorted((s.label, c) for s, c in result.emitted_terms)
        assert emitted == [("XX", 0.2), ("YY", 0.2), ("ZZ", 0.2)]

    def test_commuting_program_matches_program_semantics(self):
        # All-Z strings commute, so any emission order equals the program
        # order product exactly.
        p = prog("ZZI", "IZZ", "ZIZ", parameter=0.4)
        result = ft_compile(p)
        expected = terms_unitary(
            [(ws.string, ws.weight * 0.4) for ws, _ in
             ((ws, None) for block in p for ws in block)],
            p.num_qubits,
        )
        assert equivalent_up_to_global_phase(circuit_unitary(result.circuit), expected)

    def test_identity_strings_ignored(self):
        p = prog("III", "ZZZ")
        result = ft_compile(p)
        assert len(result.emitted_terms) == 1


class TestFTEffectiveness:
    def test_beats_naive_on_uccsd_like_block(self):
        # Mutually-commuting excitation-style strings share many operators.
        p = prog(
            ["XXXY", "XXYX", "XYXX", "YXXX"],
            ["XXYY", "YYXX"],
            parameter=0.7,
        )
        ph = ft_compile(p)
        naive = naive_program_circuit(p)
        assert ph.circuit.cnot_count < naive.cnot_count

    def test_gco_groups_similar_strings(self):
        p = prog("ZZII", "XXII", "ZZII", "XXII", parameter=0.3)
        result = ft_compile(p, scheduler="gco")
        labels = [s.label for s, _ in result.emitted_terms]
        assert labels == ["XXII", "XXII", "ZZII", "ZZII"]
        # Identical adjacent strings collapse into single rotations.
        assert result.circuit.count_ops()["rz"] == 2
        assert result.circuit.count_ops().get("cx", 0) == 4

    def test_peephole_toggle(self):
        p = prog("ZZII", "ZZII")
        with_opt = ft_compile(p, run_peephole=True)
        without = ft_compile(p, run_peephole=False)
        assert with_opt.circuit.size <= without.circuit.size


class TestJunctionPlanning:
    def test_zero_overlap_neighbors_align_nothing(self):
        strings = [PauliString.from_label(s) for s in ("ZZI", "IXX")]
        # overlap(ZZI, IXX) == 0: neither string should devote its leaf end.
        assert plan_junctions(strings) == [None, None]

    def test_better_neighbor_rejects_zero_overlap(self):
        string = PauliString.from_label("ZZI")
        other = PauliString.from_label("IXX")
        # A zero-overlap neighbour must not win just because the other side
        # is missing (the old -1 sentinel made overlap 0 look attractive).
        assert better_neighbor(string, None, other) is None
        assert better_neighbor(string, other, None) is None
        assert better_neighbor(string, None, None) is None

    def test_pairwise_consistent_selection(self):
        # Shared-Z counts between neighbours are [3, 4, 3], i.e. CNOT
        # cancellations [4, 6, 4].  The one-sided rule realizes only the
        # middle junction (both sides pick it), saving 6 CNOTs; the
        # pairwise planner takes the outer two for 8, mutually aligned.
        labels = ["ZZZIIIII", "ZZZZZZZI", "IIIZZZZZ", "IIIIIZZZ"]
        strings = [PauliString.from_label(s) for s in labels]
        aligned = plan_junctions(strings)
        assert aligned == [1, 0, 3, 2]

    def test_adjacent_junctions_never_both_selected(self):
        strings = [PauliString.from_label(s) for s in ("ZZZ", "ZZX", "ZXX", "XXX")]
        aligned = plan_junctions(strings)
        for i, k in enumerate(aligned):
            if k is not None:
                assert aligned[k] == i, "junction alignment must be mutual"

    def test_paired_beats_onesided_on_staggered_overlaps(self):
        # Non-nested shared sets [3, 4, 3]: one-sided realizes only the
        # middle junction (6 CNOTs); paired takes the outer two (8).
        labels = ["ZZZIIIII", "ZZZZZZZI", "IIIZZZZZ", "IIIIIZZZ"]
        terms = [(PauliString.from_label(s), 0.3) for s in labels]
        paired = optimize(ft_synthesize(terms, 8, junction_policy="paired"))
        onesided = optimize(ft_synthesize(terms, 8, junction_policy="onesided"))
        assert paired.cnot_count < onesided.cnot_count

    def test_policies_unitary_equivalent(self):
        labels = ["ZZZIIIII", "ZZZZZZZI", "IIIZZZZZ", "IIIIIZZZ", "YIYIIIII"]
        terms = [(PauliString.from_label(s), 0.21) for s in labels]
        expected = terms_unitary(terms, 8)
        for policy in ("paired", "onesided"):
            circuit = ft_synthesize(terms, 8, junction_policy=policy)
            assert equivalent_up_to_global_phase(circuit_unitary(circuit), expected)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ft_synthesize([(PauliString.from_label("Z"), 0.1)], 1, junction_policy="x")
        with pytest.raises(ValueError, match="junction policy"):
            ft_synthesize([], 1, junction_policy="x")

    @pytest.mark.parametrize("name", ["Ising-1D", "Ising-2D", "Heisen-1D", "Heisen-2D"])
    @pytest.mark.parametrize("scheduler", ["do", "gco"])
    def test_cnot_never_worse_than_onesided(self, name, scheduler):
        program = build_benchmark(name, "small")
        paired = ft_compile(program, scheduler=scheduler, junction_policy="paired")
        onesided = ft_compile(program, scheduler=scheduler, junction_policy="onesided")
        assert paired.circuit.cnot_count <= onesided.circuit.cnot_count


class TestSynthesisChecks:
    def test_support_beyond_circuit_rejected(self):
        terms = [(PauliString.from_label("IIZZ"), 0.1),
                 (PauliString.from_label("ZIIX"), 0.2)]
        for policy in ("paired", "onesided"):
            with pytest.raises(ValueError, match="qubit 3 out of range"):
                ft_synthesize(terms, 3, junction_policy=policy)

    def test_wide_string_with_support_inside_circuit_accepted(self):
        # Only the support has to fit, as when gates were appended one by one.
        terms = [(PauliString.from_label("IIZZ"), 0.1),
                 (PauliString.from_label("IIIX"), 0.2)]
        circuit = ft_synthesize(terms, 2)
        assert circuit.gates == reference_ft_synthesize(terms, 2).gates

    def test_mixed_widths_rejected(self):
        terms = [(PauliString.from_label("ZZ"), 0.1),
                 (PauliString.from_label("ZZZ"), 0.2)]
        with pytest.raises(ValueError, match="same qubit count"):
            ft_synthesize(terms, 3)

    def test_empty_term_list(self):
        assert ft_synthesize([], 2).size == 0


@given(
    st.lists(
        st.text(alphabet="IXYZ", min_size=3, max_size=3).filter(lambda s: set(s) != {"I"}),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from(["gco", "do", "none"]),
)
@settings(max_examples=40, deadline=None)
def test_ft_always_unitary_equivalent(labels, scheduler):
    p = prog(*labels, parameter=0.17)
    result = ft_compile(p, scheduler=scheduler)
    expected = terms_unitary(result.emitted_terms, 3)
    assert equivalent_up_to_global_phase(circuit_unitary(result.circuit), expected)


@st.composite
def _term_lists(draw):
    """2-8-qubit term lists, identity strings and repeats included."""
    n = draw(st.integers(2, 8))
    label = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    labels = draw(st.lists(st.one_of(label, st.just("I" * n)), max_size=10))
    if labels and draw(st.booleans()):
        labels.insert(draw(st.integers(0, len(labels))), labels[0])
    coefficient = st.floats(-3.0, 3.0, allow_nan=False)
    return n, [(PauliString.from_label(s), draw(coefficient)) for s in labels]


@given(_term_lists(), st.sampled_from(["paired", "onesided"]))
@settings(max_examples=300, deadline=None)
def test_ft_synthesize_matches_scalar_oracle(case, policy):
    n, terms = case
    circuit = ft_synthesize(terms, n, junction_policy=policy)
    expected = reference_ft_synthesize(terms, n, junction_policy=policy)
    assert circuit.gates == expected.gates


@given(
    st.lists(
        st.text(alphabet="IXYZ", min_size=4, max_size=4).filter(lambda s: set(s) != {"I"}),
        min_size=2,
        max_size=6,
    )
)
@settings(max_examples=30, deadline=None)
def test_paired_synthesis_always_unitary_equivalent(labels):
    terms = [(PauliString.from_label(s), 0.13) for s in labels]
    circuit = ft_synthesize(terms, 4, junction_policy="paired")
    assert equivalent_up_to_global_phase(
        circuit_unitary(circuit), terms_unitary(terms, 4)
    )
