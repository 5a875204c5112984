"""Tests for the pass table and its driver (repro.core.passes)."""

import pytest

from repro.circuit import circuit_unitary, equivalent_up_to_global_phase
from repro.cli import main
from repro.core import compile_program, ft_compile, sc_compile
from repro.core import passes
from repro.core.passes import Pipeline, pass_sequence, run_pipeline
from repro.ir import PauliProgram
from repro.noise import NoiseModel
from repro.static import PipelineContractError
from repro.transpile import linear, optimize, validate_routed

from helpers import layout_permutation, terms_unitary


@pytest.fixture
def program():
    return PauliProgram.from_hamiltonian(
        [("ZZI", 0.5), ("IXX", -0.3), ("YIY", 0.2)], parameter=0.4
    )


class TestFTPipeline:
    def test_matches_ft_compile(self, program):
        # "peephole" (one callable, all rules) and the level-3 rule group
        # are the same engine call.
        result = run_pipeline(["schedule_gco", "ft_synthesize", "peephole"],
                              program)
        reference = ft_compile(program, scheduler="gco")
        assert result.circuit.gates == reference.circuit.gates

    def test_no_peephole_option(self, program):
        with_ = Pipeline("ft", "gco", 3).run(program)
        without = Pipeline("ft", "gco", 0).run(program)
        assert with_.circuit.size <= without.circuit.size

    def test_unknown_scheduler(self, program):
        with pytest.raises(ValueError, match="unknown scheduler"):
            Pipeline("ft", "bogus").run(program)

    def test_unitary_correct(self, program):
        result = Pipeline("ft", "do").run(program)
        expected = terms_unitary(result.emitted_terms, 3)
        assert equivalent_up_to_global_phase(circuit_unitary(result.circuit), expected)


class TestSCPipeline:
    def test_routed_output(self, program):
        cmap = linear(3)
        result = Pipeline("sc", "do").run(program, coupling=cmap)
        validate_routed(result.circuit, cmap)

    def test_unitary_with_layouts(self, program):
        result = Pipeline("sc", "do").run(program, coupling=linear(3))
        expected = terms_unitary(result.emitted_terms, 3)
        s_init = layout_permutation(result.initial_layout, 3)
        s_final = layout_permutation(result.final_layout, 3)
        assert equivalent_up_to_global_phase(
            circuit_unitary(result.circuit),
            s_final @ expected @ s_init.conj().T,
        )

    def test_restarts_keep_the_lowest_cnot_attempt(self):
        from repro.workloads import uccsd_program

        program = uccsd_program(4, include_singles=True)
        cmap = linear(4)
        single = sc_compile(program, cmap, restarts=1)
        best = sc_compile(program, cmap, restarts=3)
        assert best.circuit.cnot_count <= single.circuit.cnot_count
        validate_routed(best.circuit, cmap)


class TestDriver:
    def test_stock_sequence_checked_once(self, program, monkeypatch):
        calls = []
        check = passes._CHECKER.check
        monkeypatch.setattr(passes._CHECKER, "check",
                            lambda *a, **k: calls.append(1) or check(*a, **k))
        key = Pipeline("ft", "gco", 2)
        passes._stock_plan.cache_clear()
        key.run(program)
        key.run(program)
        assert calls == [1]

    def test_level_rules_run_as_one_step(self):
        steps, split = passes._stock_plan(
            pass_sequence("ft", "gco", 3), "ft-gco-opt3",
            frozenset({"ir_valid"}), Pipeline("ft").goal)
        assert split == 1
        assert [s.label for s in steps] == [
            "schedule_gco", "ft_synthesize_residue",
            "peephole_cancel+peephole_merge+peephole_commute+peephole_fuse"]

    def test_level3_is_optimize(self, program):
        raw = ft_compile(program, run_peephole=False).circuit
        out = Pipeline("generic-alltoall", level=3).run(raw).circuit
        assert out.gates == optimize(raw).gates

    def test_cancel_polled_after_every_pass(self, program):
        labels = []

        def cancel():
            labels.append(1)
            return False

        Pipeline("ft", "gco", 1).run(program, cancel=cancel)
        assert len(labels) == 3   # schedule, synthesize, level-1 rules


class TestCustomPasses:
    def test_user_pass_inserted(self, program):
        calls = []

        def spy_pass(circuit):
            calls.append(circuit.size)
            return circuit

        result = run_pipeline([*pass_sequence("ft", "gco"), spy_pass], program)
        assert calls == [result.circuit.size]

    def test_custom_synthesis_pass(self, program):
        # A trivial backend: naive synthesis of the flattened schedule.
        from repro.core.synthesis import naive_program_circuit
        from repro.core.scheduling import gco_schedule, schedule_to_program

        def synthesis(schedule, prog):
            return naive_program_circuit(schedule_to_program(schedule))

        result = run_pipeline([gco_schedule, synthesis], program,
                              goal={"synthesized"})
        assert result.circuit.size > 0

    def test_stock_name_without_implementation_rejected(self, program):
        with pytest.raises(ValueError, match="no stock pass implements"):
            run_pipeline(["schedule_gco", "ft_synthesize", "circuit_opaque"],
                         program)


def _proven_names(capsys):
    """Pipeline names ``repro check`` reports as well-composed."""
    assert main(["check"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    return {row[0] for row in rows if len(row) > 2 and row[2] == "ok"}


def test_every_stamped_pipeline_is_proven(capsys):
    # Sweep backend x scheduler x peephole level x run_peephole (and
    # calibrated SC): compile_program must only ever stamp a pipeline
    # that ``repro check`` proves.
    proven = _proven_names(capsys)
    program = PauliProgram.from_hamiltonian(
        [("ZZI", 0.5), ("IXX", -0.3)], parameter=0.4)
    cmap = linear(3)
    noise = NoiseModel.calibrated(cmap, seed=5)
    targets = [("ft", {}), ("sc", {"coupling": cmap}),
               ("sc", {"coupling": cmap, "noise_model": noise})]
    stamped = set()
    for backend, target in targets:
        for scheduler in ("gco", "do", "none", "gco-stream", "do-stream"):
            for level in (None, 0, 1, 2, 3):
                for run_peephole in (True, False):
                    result = compile_program(
                        program, backend=backend, scheduler=scheduler,
                        peephole_level=level, run_peephole=run_peephole,
                        **target)
                    stamped.add(result.pipeline)
    assert stamped <= proven, sorted(stamped - proven)
    assert {"sc-none-opt0", "sc-none-opt3", "sc-noise-do-opt1"} <= stamped
