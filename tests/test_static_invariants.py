"""Tests for the IR/tape invariant analyzer (repro.static.invariants).

Replaces the retired ``tests/test_validation.py``: the legacy program
diagnostics (identity-only blocks, zero weights, duplicates, commuting
warnings) keep their coverage through :func:`check_program`, and the
new named-invariant checks get corruption fixtures of their own — a
compiled tape is broken one field at a time and the report must
name exactly the invariant that broke.
"""

import math

import pytest

from repro.core import compile_program
from repro.ir import PauliBlock, PauliProgram
from repro.static import (
    InvariantIssue,
    InvariantViolation,
    check_program,
    check_result,
    check_tape,
    debug_check,
    debug_invariants_enabled,
)
from repro.static.invariants import DEBUG_ENV
from repro.transpile import CouplingMap


def program_of(*blocks):
    return PauliProgram(list(blocks))


def compiled_tape():
    result = compile_program(program_of(
        PauliBlock(["ZZI", "XXI"], 0.5), PauliBlock(["IYY"], 0.25)))
    return result, result.circuit.tape


def first_live_slot(tape, two_qubit=False):
    for slot in range(len(tape.op)):
        if tape.alive[slot] and (not two_qubit or tape.q1[slot] >= 0):
            return slot
    raise AssertionError("no live slot found")


def invariants(report):
    return {issue.invariant for issue in report.errors}


# ---------------------------------------------------------------------------
# Legacy program validation (the old ir/validation.py coverage)
# ---------------------------------------------------------------------------

class TestValidateProgram:
    def test_clean_program_ok(self):
        report = check_program(program_of(PauliBlock(["ZZ", "XX"], 0.5)))
        assert report.ok
        assert not report.issues
        assert str(report).endswith("OK")

    def test_identity_only_block_is_error(self):
        report = check_program(program_of(PauliBlock(["II"], 0.5)))
        assert not report.ok
        assert "identity" in report.errors[0].message
        assert report.errors[0].invariant == "program.structure"

    def test_zero_weight_is_error(self):
        report = check_program(program_of(PauliBlock([("ZZ", 0.0)], 0.5)))
        assert not report.ok
        assert "zero weight" in report.errors[0].message

    def test_duplicate_strings_warn(self):
        report = check_program(program_of(PauliBlock(["ZZ", "ZZ"], 0.5)))
        assert report.ok
        assert any("duplicate" in d.message for d in report.warnings)

    def test_noncommuting_block_warns(self):
        report = check_program(program_of(PauliBlock(["XI", "ZI"], 0.5)))
        assert report.ok
        assert any("commute" in d.message for d in report.warnings)

    def test_zero_parameter_warns(self):
        report = check_program(program_of(PauliBlock(["ZZ"], 0.0)))
        assert any("parameter is zero" in d.message for d in report.warnings)

    def test_raise_on_error(self):
        report = check_program(program_of(PauliBlock(["II"], 1.0)))
        with pytest.raises(ValueError):
            report.raise_on_error()

    def test_diagnostic_str(self):
        d = InvariantIssue("warning", "program.structure", "block 3", "something")
        assert "block 3" in str(d)
        assert "warning" in str(d)

    def test_workload_generators_emit_clean_programs(self):
        from repro.workloads import (
            build_benchmark,
            heisenberg_program,
            ising_program,
            uccsd_program,
        )
        for program in (
            uccsd_program(8),
            ising_program([8]),
            heisenberg_program([3, 3]),
            build_benchmark("REG-20-4", "small"),
            build_benchmark("TSP-4", "small"),
            build_benchmark("N2", "small"),
        ):
            report = check_program(program)
            assert report.ok, f"{program.name}: {report}"


# ---------------------------------------------------------------------------
# New named-invariant program checks
# ---------------------------------------------------------------------------

class TestCheckProgram:
    def test_nan_weight_names_coefficient_invariant(self):
        report = check_program(program_of(
            PauliBlock([("ZZ", float("nan"))], 0.5)))
        assert "program.coefficient-finite" in invariants(report)

    def test_infinite_parameter_names_coefficient_invariant(self):
        report = check_program(program_of(PauliBlock(["ZZ"], math.inf)))
        assert "program.coefficient-finite" in invariants(report)

    def test_qubit_width_mismatch_detected(self):
        # check_program duck-types its subject, so a wrapper declaring a
        # wider width than its strings span stands in for a corrupted
        # deserialized program.
        class Declared:
            num_qubits = 3

            def __iter__(self):
                return iter([PauliBlock(["ZZ"], 0.5)])

        report = check_program(Declared())
        assert "program.qubit-width" in invariants(report)


# ---------------------------------------------------------------------------
# Gate-tape invariants via one-field corruption
# ---------------------------------------------------------------------------

class TestCheckTape:
    def test_compiled_circuit_is_clean(self):
        result, tape = compiled_tape()
        report = check_tape(tape)
        assert report.ok, str(report)
        # Accepts the circuit wrapper too.
        assert check_tape(result.circuit).ok

    def test_alive_count_drift(self):
        _, tape = compiled_tape()
        tape.alive_count += 1
        report = check_tape(tape)
        assert invariants(report) == {"tape.alive-count"}

    def test_opcode_out_of_range(self):
        _, tape = compiled_tape()
        tape.op[first_live_slot(tape)] = 99
        report = check_tape(tape)
        assert "tape.opcode-range" in invariants(report)

    def test_qubit_out_of_bounds(self):
        _, tape = compiled_tape()
        tape.q0[first_live_slot(tape)] = 999
        report = check_tape(tape)
        assert "tape.qubit-bounds" in invariants(report)

    def test_nan_parameter(self):
        _, tape = compiled_tape()
        tape.param[first_live_slot(tape)] = float("nan")
        report = check_tape(tape)
        assert "tape.param-finite" in invariants(report)

    def test_opcode_count_drift(self):
        _, tape = compiled_tape()
        code = tape.op[first_live_slot(tape)]
        tape.counts[code] += 1
        report = check_tape(tape)
        assert "tape.opcode-counts" in invariants(report)

    def test_dead_slot_left_linked(self):
        # Kill a row while keeping the count columns consistent: only the
        # wire links are now stale, so only tape.wire-links may fire.
        _, tape = compiled_tape()
        tape.ensure_links()
        slot = first_live_slot(tape)
        tape.alive[slot] = False
        tape.alive_count -= 1
        tape.counts[tape.op[slot]] -= 1
        report = check_tape(tape)
        assert "tape.wire-links" in invariants(report)
        assert any("dead slot" in issue.message for issue in report.errors)

    def test_ragged_columns_short_circuit(self):
        _, tape = compiled_tape()
        tape.q0.append(0)
        report = check_tape(tape)
        assert invariants(report) == {"tape.column-shape"}

    def test_coupling_conformance(self):
        # An FT-compiled (all-to-all) circuit checked against a sparse
        # line coupling must flag its uncoupled CNOTs by name.
        result, tape = compiled_tape()
        line = CouplingMap([(0, 1), (1, 2)])
        assert check_tape(tape).ok
        report = check_tape(tape, coupling=line)
        # The compile is free to emit only coupled pairs in principle, so
        # corrupt one 2q gate onto a definitely-uncoupled pair instead of
        # assuming the layout.
        slot = first_live_slot(tape, two_qubit=True)
        tape.q0[slot], tape.q1[slot] = 0, 2
        report = check_tape(tape, coupling=line)
        assert "tape.coupling" in invariants(report)

    def test_sc_compile_respects_coupling(self):
        program = program_of(PauliBlock(["ZZI", "XXI"], 0.5))
        coupling = CouplingMap([(0, 1), (1, 2)])
        result = compile_program(program, backend="sc", coupling=coupling)
        assert check_tape(result.circuit, coupling=coupling).ok


# ---------------------------------------------------------------------------
# Result sweep + the between-pass debug hook
# ---------------------------------------------------------------------------

class TestCheckResultAndDebugHook:
    def test_result_sweep_covers_emitted_terms(self):
        result, _ = compiled_tape()
        assert check_result(result).ok
        string, _coeff = result.emitted_terms[0]
        result.emitted_terms[0] = (string, float("inf"))
        report = check_result(result)
        assert "result.coefficient-finite" in invariants(report)

    def test_violation_carries_report_and_invariant(self):
        _, tape = compiled_tape()
        tape.alive_count += 1
        with pytest.raises(InvariantViolation) as info:
            check_tape(tape).raise_on_error()
        assert info.value.invariant == "tape.alive-count"
        assert not info.value.report.ok
        assert "tape.alive-count" in str(info.value)

    def test_debug_hook_is_noop_when_disabled(self, monkeypatch):
        monkeypatch.delenv(DEBUG_ENV, raising=False)
        assert not debug_invariants_enabled()
        _, tape = compiled_tape()
        tape.alive_count += 1
        debug_check("stage", tape=tape)  # must not raise

    def test_debug_hook_raises_and_names_the_stage(self, monkeypatch):
        monkeypatch.setenv(DEBUG_ENV, "1")
        assert debug_invariants_enabled()
        _, tape = compiled_tape()
        tape.alive_count += 1
        with pytest.raises(InvariantViolation, match="after-peephole"):
            debug_check("after-peephole", tape=tape)

    def test_debug_flag_accepts_what_the_compile_drops(self, monkeypatch):
        # An identity-only block and a zero weight are check_program
        # errors, but the compile drops them; the flag must not reject them.
        zero = PauliBlock([("ZZ", 0.0), ("XY", 1.0)], 0.5)
        program = program_of(PauliBlock(["II"], 0.5), zero)
        assert not check_program(program).ok
        coupling = CouplingMap([(0, 1)])

        def compile_both():
            return [compile_program(program, backend="ft").circuit.gates,
                    compile_program(program, backend="sc",
                                    coupling=coupling).circuit.gates]

        monkeypatch.delenv(DEBUG_ENV, raising=False)
        plain = compile_both()
        monkeypatch.setenv(DEBUG_ENV, "1")
        assert compile_both() == plain

    @pytest.mark.parametrize("backend", ["ft", "sc"])
    @pytest.mark.parametrize("flag", [False, True])
    @pytest.mark.parametrize("block", [
        PauliBlock([("ZZ", float("nan")), ("XX", 1.0)], 0.5),
        PauliBlock([("ZZ", 1.0), ("II", -math.inf)], 0.5),
        PauliBlock(["ZZ", "XX"], math.inf),
        PauliBlock(["ZZ"], float("nan")),
        PauliBlock([("ZZ", 1e300)], 1e300),
    ])
    def test_compile_rejects_a_non_finite_angle(self, monkeypatch, backend,
                                                flag, block):
        # The compile would emit the rotation angle as NaN or infinity;
        # with or without the flag, it refuses the program instead.
        if flag:
            monkeypatch.setenv(DEBUG_ENV, "1")
        else:
            monkeypatch.delenv(DEBUG_ENV, raising=False)
        program = program_of(PauliBlock(["XY"], 0.25), block)
        with pytest.raises(ValueError, match="program.coefficient-finite"):
            compile_program(program, backend=backend,
                            coupling=CouplingMap([(0, 1)]))

    def test_debug_hook_rejects_a_program_of_the_wrong_width(self,
                                                             monkeypatch):
        class Wider(list):
            num_qubits = 3

        monkeypatch.setenv(DEBUG_ENV, "1")
        with pytest.raises(InvariantViolation, match="after-schedule") as info:
            debug_check("after-schedule",
                        program=Wider([PauliBlock(["ZZ"], 0.5)]))
        assert info.value.invariant == "program.qubit-width"

    def test_compiles_clean_under_debug_flag(self, monkeypatch):
        monkeypatch.setenv(DEBUG_ENV, "1")
        program = program_of(
            PauliBlock(["ZZI", "XXI"], 0.5), PauliBlock(["IYY"], 0.25))
        ft = compile_program(program, backend="ft")
        assert ft.circuit.cnot_count > 0
        coupling = CouplingMap([(0, 1), (1, 2)])
        sc = compile_program(program, backend="sc", coupling=coupling)
        assert sc.circuit.cnot_count > 0
