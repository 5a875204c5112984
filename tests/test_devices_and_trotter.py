"""Tests for the extra devices and second-order Trotterization."""

import numpy as np
import pytest
import scipy.linalg

from repro.circuit import circuit_unitary, equivalent_up_to_global_phase
from repro.core import ft_compile, sc_compile, symmetric_trotterize, trotterize
from repro.ir import PauliProgram
from repro.transpile import falcon_27, ion_trap, melbourne, sycamore_like


class TestDevices:
    def test_falcon_is_heavy_hex(self):
        cmap = falcon_27()
        assert cmap.num_qubits == 27
        assert cmap.is_fully_connected
        assert max(cmap.degree(q) for q in range(27)) <= 3

    def test_sycamore_degree(self):
        cmap = sycamore_like(4, 4)
        assert cmap.is_fully_connected
        assert max(cmap.degree(q) for q in range(16)) <= 4

    def test_ion_trap_all_to_all(self):
        cmap = ion_trap(5)
        assert all(cmap.distance(i, j) <= 1 for i in range(5) for j in range(5))

    @pytest.mark.parametrize("factory", [falcon_27, lambda: sycamore_like(3, 4), lambda: ion_trap(8)])
    def test_compilation_targets(self, factory):
        cmap = factory()
        program = PauliProgram.from_hamiltonian(
            [("IIZZ", 1.0), ("ZZII", 1.0), ("XXII", 0.5)], parameter=0.3
        )
        result = sc_compile(program, cmap)
        assert result.circuit.cnot_count > 0

    def test_ion_trap_needs_no_swaps(self):
        program = PauliProgram.from_hamiltonian([("ZIIZ", 1.0), ("IZZI", 0.7)])
        result = sc_compile(program, ion_trap(4))
        assert result.circuit.count_ops().get("swap", 0) == 0


class TestSymmetricTrotter:
    @pytest.fixture
    def step(self):
        return PauliProgram.from_hamiltonian([("XI", 0.4), ("ZZ", 0.6)], parameter=0.3)

    def test_palindromic_structure(self, step):
        program = symmetric_trotterize(step, 1)
        params = [block.parameter for block in program]
        assert params == [0.15, 0.15, 0.15, 0.15]
        labels = [block.pauli_strings[0].label for block in program]
        assert labels == ["XI", "ZZ", "ZZ", "XI"]

    def test_rejects_bad_count(self, step):
        with pytest.raises(ValueError):
            symmetric_trotterize(step, 0)

    def test_second_order_more_accurate(self, step):
        # Compare both splittings against the exact exponential of the sum.
        h = step.to_hamiltonian()
        exact = scipy.linalg.expm(1j * h)
        steps = 4

        def error(program, scale):
            scaled = PauliProgram(
                [b.__class__(b.strings, parameter=b.parameter * scale) for b in program]
            )
            circuit = ft_compile(scaled, scheduler="none").circuit
            u = circuit_unitary(circuit)
            # strip global phase by aligning the largest element
            idx = np.unravel_index(np.argmax(np.abs(exact)), exact.shape)
            phase = exact[idx] / u[idx]
            return np.linalg.norm(u * phase - exact)

        # One unit of time split into `steps` steps: scale parameters so the
        # total integrated time matches (step parameter is 0.3).
        scale = (1.0 / 0.3) / steps
        first = error(trotterize(step, steps), scale)
        second = error(symmetric_trotterize(step, steps), scale)
        assert second < first

    def test_symmetric_compiles_cheaper_per_step(self, step):
        # The palindromic midpoints collapse under junction cancellation.
        program = symmetric_trotterize(step, 2)
        compiled = ft_compile(program, scheduler="none").circuit
        naive_count = 2 * 2 * 2 * 2  # 2 steps x 2 sweeps x 2 strings x 2 CNOTs
        assert compiled.cnot_count < naive_count
