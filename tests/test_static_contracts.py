"""Tests for the pass-contract static checker (repro.static.contracts).

Covers the contract algebra, the forward property-flow checker and its
diagnostics, the shipped-pipeline inventory (every FT/SC flow at every
optimization level must compose), and the integration points: the pass
driver rejects a miscomposed sequence *before any gate is emitted*, and
the generic transpile sequences validate for all levels.
"""

import pytest

from repro.core import compile_program
from repro.core.passes import (
    Pipeline, pass_sequence, run_pipeline, shipped_pipelines,
)
from repro.ir import PauliBlock, PauliProgram
from repro.static import (
    ALL,
    CONTRACTS,
    PassContract,
    PipelineChecker,
    PipelineContractError,
    VOCABULARY,
    contract_for,
    preserves_all_except,
    rules_for_level,
)
from repro.static.contracts import register_callable
from repro.transpile import CouplingMap


def small_program():
    return PauliProgram([PauliBlock(["ZZI", "XXI"], 0.5),
                         PauliBlock(["IYY"], 0.25)])


class TestContractAlgebra:
    def test_vocabulary_is_closed(self):
        with pytest.raises(ValueError, match="unknown"):
            PassContract("bad", requires=frozenset({"totally_new_prop"}))
        with pytest.raises(ValueError, match="unknown"):
            preserves_all_except("not_a_property")

    def test_transfer_function(self):
        contract = PassContract(
            "t",
            establishes=frozenset({"no_dead_gates"}),
            preserves=preserves_all_except("canonical_angles"),
        )
        flowing = frozenset({"synthesized", "routed", "canonical_angles"})
        out = contract.apply(flowing)
        assert "no_dead_gates" in out
        assert "canonical_angles" not in out
        assert {"synthesized", "routed"} <= out

    def test_all_preserves_everything(self):
        assert ALL == VOCABULARY

    def test_builtin_contracts_mention_only_vocabulary(self):
        for contract in CONTRACTS.values():
            assert contract.requires <= VOCABULARY
            assert contract.establishes <= VOCABULARY
            assert contract.preserves <= VOCABULARY


class TestPipelineChecker:
    def test_valid_sequence_returns_final_properties(self):
        final = PipelineChecker().check(
            ["schedule_gco", "ft_synthesize", "peephole"],
            initial={"ir_valid"},
        )
        assert {"synthesized", "no_dead_gates", "canonical_angles"} <= final

    def test_reorder2q_after_routing_rejected_statically(self):
        # The miscomposition this layer exists to catch: a rule that
        # re-synthesizes two-qubit gates across wire pairs, run after
        # routing, silently un-routes the circuit.  The checker names the
        # pass that needed the property AND the pass that dropped it.
        with pytest.raises(PipelineContractError) as info:
            PipelineChecker().check(
                ["schedule_do", "sc_synthesize", "peephole_reorder2q",
                 "validate_routed"],
                initial={"ir_valid"},
                name="bad",
            )
        exc = info.value
        assert exc.pipeline == "bad"
        assert exc.pass_name == "validate_routed"
        assert exc.position == 3
        assert exc.unmet in {"routed", "coupling_respected"}
        assert exc.dropped_by == "peephole_reorder2q"
        message = str(exc)
        assert "validate_routed" in message
        assert "peephole_reorder2q" in message
        assert exc.unmet in message

    def test_never_established_property_names_the_gap(self):
        with pytest.raises(PipelineContractError) as info:
            PipelineChecker().check(
                ["ft_synthesize"], initial={"ir_valid"}, name="no-sched")
        exc = info.value
        assert exc.unmet == "scheduled"
        assert exc.dropped_by is None
        assert "no earlier pass establishes" in str(exc)
        assert "insert a pass" in str(exc)

    def test_unmet_goal_rejected(self):
        with pytest.raises(PipelineContractError) as info:
            PipelineChecker().check(
                ["schedule_gco", "ft_synthesize"],
                initial={"ir_valid"},
                goal={"routed"},
                name="wants-routing",
            )
        assert info.value.pass_name is None
        assert info.value.unmet == "routed"

    def test_unknown_initial_property_rejected(self):
        with pytest.raises(ValueError, match="initial"):
            PipelineChecker().check(["peephole"], initial={"nonsense"})

    def test_resolves_names_objects_and_callables(self):
        def my_pass(circuit):
            return circuit

        register_callable(my_pass, "peephole_cancel")
        checker = PipelineChecker()
        resolved = checker.resolve(
            ["route_sabre", CONTRACTS["peephole"], my_pass, lambda c: c])
        assert [c.name for c in resolved] == [
            "route_sabre", "peephole", "peephole_cancel", "circuit_opaque"]

    def test_register_callable_rejects_unknown_contract(self):
        with pytest.raises(ValueError, match="unknown contract"):
            register_callable(lambda c: c, "no_such_contract")

    def test_contract_for_falls_back_to_slot_default(self):
        assert contract_for(lambda c: c).name == "circuit_opaque"
        assert contract_for(lambda c: c, default="schedule_opaque").name \
            == "schedule_opaque"
        assert contract_for("peephole_merge").name == "peephole_merge"


class TestShippedPipelines:
    def test_inventory_covers_both_backends_all_levels(self):
        names = {p.name for p in shipped_pipelines()}
        for level in range(4):
            assert f"ft-gco-opt{level}" in names
            assert f"ft-do-opt{level}" in names
            assert f"sc-gco-opt{level}" in names
            assert f"sc-do-opt{level}" in names
            assert f"generic-opt{level}" in names

    def test_every_shipped_pipeline_composes(self):
        checker = PipelineChecker()
        for pipeline in shipped_pipelines():
            final = checker.check(
                pipeline.passes, initial=pipeline.initial,
                goal=pipeline.goal, name=pipeline.name,
            )
            assert pipeline.goal <= final

    def test_rules_for_level_mirror_transpile(self):
        assert rules_for_level(0) == []
        assert rules_for_level(1) == ["peephole_cancel", "peephole_merge"]
        assert "peephole_commute" in rules_for_level(2)
        assert "peephole_fuse" in rules_for_level(3)
        for level in range(4):
            assert pass_sequence("generic-alltoall", level=level) == \
                tuple(rules_for_level(level))
            routed = pass_sequence("generic", level=level)
            assert "route_sabre" in routed
            assert routed[-1] == "validate_routed"

    def test_rules_are_monotone_across_levels(self):
        # A background opt-3 recompile of an opt-1 artifact can only add
        # simplifications; otherwise the speculative lane's "upgrade"
        # could silently regress circuit quality.
        for level in range(3):
            assert set(rules_for_level(level)) <= set(rules_for_level(level + 1))

    def test_every_tier_maps_to_a_shipped_pipeline(self):
        # The provenance an artifact carries is the pipeline stamp
        # compile_program writes; every tier it can compile at must stamp
        # a shipped (and so statically proven) pipeline of that level.
        names = {p.name for p in shipped_pipelines()}
        line = CouplingMap([(0, 1), (1, 2)])
        cases = [
            ("opt3", dict(backend="ft")),
            ("opt0", dict(backend="ft", run_peephole=False)),
            ("opt1", dict(backend="ft", peephole_level=1)),
            ("opt1", dict(backend="sc", coupling=line, peephole_level=1)),
            ("opt1", dict(backend="sc", device="falcon-27", peephole_level=1)),
        ]
        for level, options in cases:
            result = compile_program(small_program(), **options)
            assert result.pipeline in names, options
            assert result.pipeline.endswith(f"-{level}"), (result.pipeline, options)
            noisy = "device" in options
            assert ("-noise-" in result.pipeline) == noisy, result.pipeline


class TestPassPipelineIntegration:
    """The pass driver (repro.core.passes.run_pipeline) as the checker's
    integration point."""

    def test_ft_and_sc_factory_pipelines_validate(self):
        coupling = CouplingMap([(i, i + 1) for i in range(4)])
        Pipeline("ft", "gco").run(small_program())
        Pipeline("ft", "do", 0).run(small_program())
        Pipeline("sc", "do").run(small_program(), coupling=coupling)
        Pipeline("sc", "gco").run(small_program(), coupling=coupling)

    def test_miscomposed_pipeline_rejected_before_any_gate(self):
        # Plug the deliberately-unshipped cross-wire rule after SC
        # synthesis: the driver must raise from the static check without
        # ever invoking the schedule pass, i.e. before a single gate exists.
        calls = []
        coupling = CouplingMap([(i, i + 1) for i in range(4)])

        def spying_schedule(program):
            calls.append("schedule")
            return [[block] for block in program]

        reorder = register_callable(lambda c: c, "peephole_reorder2q")
        with pytest.raises(PipelineContractError) as info:
            run_pipeline(
                [spying_schedule, "sc_synthesize", reorder, "validate_routed"],
                small_program(), backend="sc", coupling=coupling)
        assert calls == []
        assert info.value.dropped_by == "peephole_reorder2q"
        assert info.value.unmet in {"routed", "coupling_respected"}

    def test_undeclared_circuit_pass_breaks_sc_goal(self):
        # An opaque (unregistered) circuit pass is assumed to destroy
        # routing, so appending one to the SC pipeline is a static error
        # even though the callable is in fact harmless.
        coupling = CouplingMap([(i, i + 1) for i in range(4)])
        with pytest.raises(PipelineContractError) as info:
            run_pipeline([*pass_sequence("sc", "do"), lambda c: c],
                         small_program(), backend="sc", coupling=coupling)
        assert info.value.dropped_by == "circuit_opaque"

    def test_custom_opaque_passes_still_compose_for_ft(self):
        # The slot defaults keep undeclared schedule/synthesis callables
        # usable: trusted to do their slot's job, nothing more.
        from repro.core.ft_backend import _flatten_schedule, ft_synthesize

        def synthesis(schedule, program):
            return ft_synthesize(_flatten_schedule(schedule), program.num_qubits)

        result = run_pipeline(
            [lambda program: [[b] for b in program], synthesis],
            small_program(), goal={"synthesized"})
        assert result.circuit.cnot_count > 0

    def test_broken_contract_table_fails(self):
        # A broken contract table must fail a shipped pipeline the same
        # way a bad sequence does -- simulate the regression with a
        # private checker whose peephole table entry drops routing.
        broken = dict(CONTRACTS)
        broken["peephole_cancel"] = PassContract(
            "peephole_cancel",
            requires=frozenset({"synthesized"}),
            preserves=preserves_all_except("routed", "coupling_respected"),
        )
        checker = PipelineChecker(broken)
        pipeline = Pipeline("sc", "do", 1)
        with pytest.raises(PipelineContractError):
            checker.check(pipeline.passes, initial=pipeline.initial,
                          goal=pipeline.goal, name=pipeline.name)
