"""Tests for the workload generators against Table 1 ground truth."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import PauliProgram
from repro.pauli import PauliString
from repro.workloads import (
    BENCHMARKS,
    annihilation,
    benchmark_names,
    best_maxcut_bitstrings,
    build_benchmark,
    creation,
    excitation_terms,
    heisenberg_program,
    ising_program,
    lattice_edges,
    maxcut_program,
    maxcut_value,
    molecule_program,
    naive_gate_counts,
    random_graph,
    random_hamiltonian_program,
    regular_graph,
    tsp_program,
    uccsd_program,
)
from repro.workloads.fermion import PauliSum


class TestFermionSubstrate:
    def test_annihilation_matrix(self):
        # a_0 on 1 qubit = |0><1| = (X + iY)/2.
        op = annihilation(1, 0)
        dense = sum(c * s.to_matrix() for s, c in op.terms.items())
        assert np.allclose(dense, [[0, 1], [0, 0]])

    def test_creation_is_adjoint(self):
        op = creation(2, 1)
        dense = sum(c * s.to_matrix() for s, c in op.terms.items())
        a = annihilation(2, 1)
        dense_a = sum(c * s.to_matrix() for s, c in a.terms.items())
        assert np.allclose(dense, dense_a.conj().T)

    def test_anticommutation(self):
        # {a_0, a†_0} = 1, {a_0, a_1} = 0 (with JW strings).
        n = 3
        a0 = annihilation(n, 0)
        a0d = creation(n, 0)
        anti = (a0 @ a0d) + (a0d @ a0)
        dense = sum(c * s.to_matrix() for s, c in anti.simplified().terms.items())
        assert np.allclose(dense, np.eye(2 ** n))
        a1 = annihilation(n, 1)
        anti01 = ((a0 @ a1) + (a1 @ a0)).simplified()
        assert not anti01.terms

    def test_excitation_terms_hermitian_generator(self):
        terms = excitation_terms(4, [0], [2])
        assert len(terms) == 2  # single excitation -> 2 strings
        dense = sum(w * s.to_matrix() for s, w in terms)
        assert np.allclose(dense, dense.conj().T)

    def test_double_excitation_has_8_strings(self):
        terms = excitation_terms(4, [0, 1], [2, 3])
        assert len(terms) == 8
        for string, _ in terms:
            xy = sum(1 for q in string.support if string[q] in "XY")
            assert xy == 4

    def test_excitation_exponential_is_unitary(self):
        terms = excitation_terms(4, [0, 1], [2, 3])
        generator = sum(w * s.to_matrix() for s, w in terms)
        u = scipy.linalg.expm(1j * 0.3 * generator)
        assert np.allclose(u @ u.conj().T, np.eye(16))

    def test_pauli_sum_algebra(self):
        x = PauliSum.of(PauliString.from_label("X"), 2.0)
        y = PauliSum.of(PauliString.from_label("Y"), 1.0)
        z = x @ y  # 2 XY = 2iZ
        assert z.terms[PauliString.from_label("Z")] == 2j

    def test_real_weight_rejection(self):
        s = PauliSum.of(PauliString.from_label("X"), 1j)
        with pytest.raises(ValueError):
            s.real_weighted_strings()


class TestUCCSD:
    def test_paper_string_count_uccsd8(self):
        # Table 1: UCCSD-8 has 144 Pauli strings (18 doubles x 8).
        prog = uccsd_program(8)
        assert prog.num_strings == 144

    def test_blocks_share_parameters_and_commute(self):
        prog = uccsd_program(8)
        for block in prog:
            assert block.is_mutually_commuting()

    def test_singles_add_two_string_blocks(self):
        prog = uccsd_program(8, include_singles=True)
        sizes = sorted({block.num_strings for block in prog})
        assert sizes == [2, 8]

    def test_custom_parameters(self):
        prog = uccsd_program(8, parameters=[0.1] * 18)
        assert all(block.parameter == 0.1 for block in prog)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            uccsd_program(6)


class TestQAOAWorkloads:
    def test_regular_graph_edge_count(self):
        prog = maxcut_program(regular_graph(20, 4))
        assert prog.num_strings == 40  # Table 1: REG-20-4 -> 40 strings

    def test_rand_graph_seeded(self):
        g1 = random_graph(20, 0.3, seed=7)
        g2 = random_graph(20, 0.3, seed=7)
        assert sorted(g1.edges()) == sorted(g2.edges())

    def test_single_block_shares_gamma(self):
        prog = maxcut_program(regular_graph(10, 4), gamma=0.8)
        assert prog.num_blocks == 1
        assert prog[0].parameter == 0.8

    def test_tsp_counts_match_table1(self):
        assert tsp_program(4).num_strings == 112
        assert tsp_program(5).num_strings == 225

    def test_tsp_terms_are_z_only(self):
        prog = tsp_program(3)
        for ws, _ in prog.all_weighted_strings():
            assert all(ws.string[q] == "Z" for q in ws.string.support)

    def test_maxcut_value(self):
        import networkx as nx
        g = nx.Graph([(0, 1), (1, 2)])
        assert maxcut_value(g, 0b010) == 2
        assert maxcut_value(g, 0b000) == 0

    def test_best_maxcut(self):
        import networkx as nx
        g = nx.Graph([(0, 1), (1, 2), (0, 2)])  # triangle: best cut = 2
        best, winners = best_maxcut_bitstrings(g)
        assert best == 2
        assert len(winners) == 6


class TestLattices:
    def test_chain_edges(self):
        assert lattice_edges([4]) == [(0, 1), (1, 2), (2, 3)]

    def test_grid_edge_count(self):
        # 5x6 grid: 5*5 + 4*6 = 49 edges (Table 1 Ising-2D -> 49 strings).
        assert len(lattice_edges([5, 6])) == 49

    def test_3d_edge_count(self):
        # 2x3x5 block: Table 1 Ising-3D row lists 59 strings.
        edges = lattice_edges([2, 3, 5])
        assert len(edges) == 2 * 3 * 4 + 2 * 2 * 5 + 1 * 3 * 5

    def test_ising_1d_counts_match_table1(self):
        prog = ising_program([30])
        assert prog.num_qubits == 30
        assert prog.num_strings == 29
        cnots, singles = naive_gate_counts(prog)
        assert (cnots, singles) == (58, 29)  # Table 1 row Ising-1D

    def test_heisenberg_1d_counts_match_table1(self):
        prog = heisenberg_program([30])
        assert prog.num_strings == 87
        cnots, singles = naive_gate_counts(prog)
        assert (cnots, singles) == (174, 319)  # Table 1 row Heisen-1D

    def test_heisenberg_2d_counts_match_table1(self):
        prog = heisenberg_program([5, 6])
        assert prog.num_strings == 147
        cnots, singles = naive_gate_counts(prog)
        assert (cnots, singles) == (294, 539)  # Table 1 row Heisen-2D


class TestRandomHamiltonian:
    def test_paper_recipe_count(self):
        prog = random_hamiltonian_program(10)
        assert prog.num_strings == 5 * 10 * 10

    def test_scaled_count(self):
        prog = random_hamiltonian_program(30, num_strings=50)
        assert prog.num_strings == 50

    def test_deterministic(self):
        a = random_hamiltonian_program(8, num_strings=20, seed=5)
        b = random_hamiltonian_program(8, num_strings=20, seed=5)
        assert a.multiset_of_terms() == b.multiset_of_terms()

    def test_weights_in_range(self):
        prog = random_hamiltonian_program(6, num_strings=30)
        for ws, _ in prog.all_weighted_strings():
            assert -1.0 <= ws.weight <= 1.0
            assert 1 <= ws.string.weight <= 6


class TestMolecules:
    def test_specs_sizes(self):
        prog = molecule_program("N2", num_strings=100)
        assert prog.num_qubits == 20
        assert prog.num_strings == 100

    def test_unknown_molecule(self):
        with pytest.raises(ValueError):
            molecule_program("H2O2")

    def test_strings_unique(self):
        prog = molecule_program("H2S", num_strings=200)
        strings = [ws.string for ws, _ in prog.all_weighted_strings()]
        assert len(set(strings)) == len(strings)

    def test_deterministic(self):
        a = molecule_program("CO2", num_strings=50)
        b = molecule_program("CO2", num_strings=50)
        assert a.multiset_of_terms() == b.multiset_of_terms()

    def test_independent_of_hash_seed(self):
        # Fresh interpreters with different hash seeds must build the same
        # N2 program: the compile fingerprint covers its exact content.
        fingerprints = []
        for seed in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", _N2_FINGERPRINT_SCRIPT.format(src=SRC)],
                env={"PYTHONHASHSEED": seed, "PATH": ""},
                capture_output=True, text=True, timeout=120,
            )
            assert out.returncode == 0, out.stderr
            fingerprints.append(out.stdout.strip())
        assert fingerprints[0] == fingerprints[1]


SRC = str(Path(__file__).resolve().parents[1] / "src")

_N2_FINGERPRINT_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.service.fingerprint import canonical_options, compile_fingerprint
from repro.workloads import molecule_program

program = molecule_program("N2")
print(compile_fingerprint(program, canonical_options("ft", "gco")))
"""


class TestRegistry:
    def test_all_benchmarks_present(self):
        # The paper's 31 Table 1 rows plus the 5 large-scale streaming
        # workloads (ScaleRand-100/200/500, ScaleHubbard-100/500).
        assert len(BENCHMARKS) == 36
        assert len(benchmark_names(family="Scale")) == 5

    def test_backend_split(self):
        assert len(benchmark_names(backend="sc")) == 14
        assert len(benchmark_names(backend="ft")) == 22

    def test_small_scale_builds(self):
        for name in ["UCCSD-8", "REG-20-4", "Ising-1D", "Heisen-2D", "N2", "Rand-30", "TSP-4"]:
            prog = build_benchmark(name, scale="small")
            assert prog.num_strings > 0

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError):
            build_benchmark("nope")

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            build_benchmark("Ising-1D", scale="huge")

    def test_paper_scale_qaoa(self):
        prog = build_benchmark("REG-20-8", scale="paper")
        assert prog.num_qubits == 20
        assert prog.num_strings == 80  # Table 1
