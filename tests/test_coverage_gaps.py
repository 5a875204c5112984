"""Targeted tests for less-travelled paths across the library."""

import numpy as np

from repro.circuit import Gate, QuantumCircuit, circuit_unitary, simulate
from repro.circuit.gates import OP
from repro.cli import main
from repro.core import SCSynthesizer, sc_compile
from repro.core.scheduling import do_schedule
from repro.ir import PauliBlock, PauliProgram
from repro.pauli import PauliString
from repro.transpile import Layout, grid, linear, ring


class TestLayoutExtras:
    def test_from_physical_list(self):
        layout = Layout.from_physical_list([4, 2, 0])
        assert layout.physical(0) == 4
        assert layout.logical(2) == 1

    def test_copy_is_independent(self):
        layout = Layout({0: 0, 1: 1})
        other = layout.copy()
        other.swap_physical(0, 1)
        assert layout.physical(0) == 0

    def test_eq(self):
        assert Layout({0: 1}) == Layout({0: 1})
        assert Layout({0: 1}) != Layout({0: 2})


class TestCouplingExtras:
    def test_subgraph_connectivity(self):
        cmap = linear(5)
        assert cmap.subgraph_is_connected([1, 2, 3])
        assert not cmap.subgraph_is_connected([0, 2])

    def test_distance_symmetry(self):
        cmap = grid(3, 3)
        for a in range(9):
            for b in range(9):
                assert cmap.distance(a, b) == cmap.distance(b, a)


class TestGateExtras:
    def test_repr_with_params(self):
        text = repr(Gate("rz", (1,), (0.5,)))
        assert "rz" in text and "0.5" in text

    def test_cz_simulation_symmetry(self):
        qc1 = QuantumCircuit(2)
        qc1.h(0).h(1).cz(0, 1)
        qc2 = QuantumCircuit(2)
        qc2.h(0).h(1).cz(1, 0)
        assert np.allclose(simulate(qc1), simulate(qc2))

    def test_to_text(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        lines = qc.to_text().splitlines()
        assert len(lines) == 2


class TestSCBackendEdgeCases:
    def test_edge_error_steers_gather(self):
        # Square ring 0-1-2-3 with actives at opposite corners 0 and 2:
        # gather must route around the poisoned side (via 3, not via 1).
        cmap = ring(4)
        expensive_via_1 = {(0, 1): 9.0, (1, 2): 9.0}
        synthesizer = SCSynthesizer(cmap, edge_error=expensive_via_1)
        synthesizer._reset(Layout({q: q for q in range(4)}))
        active = {0, 2}
        synthesizer._gather(active, frozenset())
        op, q0, q1, _ = synthesizer._columns
        swaps = [(a, b) for code, a, b in zip(op, q0, q1)
                 if code == OP["swap"]]
        assert swaps, "corners must require movement"
        for qubits in swaps:
            assert set(qubits) not in ({0, 1}, {1, 2}), (
                "gather ignored the error-weighted path"
            )

    def test_parallel_block_rollback_defers(self):
        # Two blocks on overlapping qubit regions of a tight line: the
        # second cannot run in parallel and must still compile (deferred).
        program = PauliProgram([
            PauliBlock(["ZZZZ"], 1.0),   # primary spans everything
            PauliBlock(["XIIX"], 1.0),   # needs the same wires
        ])
        result = sc_compile(program, linear(4))
        labels = sorted(s.label for s, _ in result.emitted_terms)
        assert labels == ["XIIX", "ZZZZ"]

    def test_transition_swaps_counted(self):
        program = PauliProgram([PauliBlock(["ZIIZ"], 1.0), PauliBlock(["IZZI"], 1.0)])
        cmap = linear(4)
        synthesizer = SCSynthesizer(cmap)
        result = synthesizer.run(do_schedule(program), 4)
        assert result.transition_swaps == result.circuit.count_ops().get("swap", 0)

    def test_single_string_single_qubit_program(self):
        program = PauliProgram([PauliBlock(["IXI"], 0.5)])
        result = sc_compile(program, linear(3))
        ops = result.circuit.count_ops()
        assert ops.get("swap", 0) == 0
        assert ops["rz"] == 1


class TestCLIExtra:
    def test_table3_cli(self, capsys):
        assert main(["table3", "REG-20-4", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "qaoa_compiler" in out

    def test_compile_with_scheduler_flag(self, capsys):
        assert main(["compile", "Heisen-1D", "--scheduler", "do"]) == 0
        assert "Depth" in capsys.readouterr().out

    def test_table1_cli(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Ising-1D" in out and "NaCl" in out
