"""The SC flow's seeded peephole against the raw emission's fixpoint.

At peephole levels 1-3 the SC synthesis hands the peephole step right
after it a linked tape and the seeds, the slots where a rule can fire
(:func:`~repro.transpile.peephole._fire_sites`).  The step rewrites the
tape in place from those seeds and falls back to the raw emission's full
fixpoint when a rewrite could end in another order.  These tests pin that
``compile_program`` is gate for gate :func:`~repro.transpile.optimize`
run on :meth:`SCSynthesizer.run`'s emission, that every slot where a rule
fires is a seed, that the seeded engine fuses in the every-slot order, and
that a parallel block rolled back from the gate columns leaves the output
as it was.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Gate, QuantumCircuit
from repro.core import SCSynthesizer, compile_program, sc_compile
from repro.core.passes import Pipeline
from repro.core.scheduling import do_schedule, gco_schedule
from repro.ir import PauliBlock, PauliProgram
from repro.noise import NoiseModel
from repro.transpile import (
    falcon_27, grid, heavy_hex, linear, manhattan_65, optimize, peephole,
    ring,
)
from repro.workloads import build_benchmark
from repro.workloads.random_hamiltonian import random_hamiltonian_program

from test_ft_residue import (
    LEVELS, _assert_fire_sites_are_seeds, _assert_links_as_built,
    _engine_flags, _fire_sites,
)
from test_sc_golden import sc_digest

COUPLINGS = {
    "linear": lambda n: linear(n + 1),
    "ring": lambda n: ring(n + 1),
    "grid": lambda n: grid(3, 3),
    "heavy-hex": lambda n: heavy_hex(2, 5),
}
SCHEDULES = {
    "do": do_schedule,
    "gco": gco_schedule,
    "none": lambda program: [[block] for block in program],
}


@st.composite
def _programs(draw):
    """2-6-qubit programs of 1-5 blocks whose strings often repeat the
    previous one, with the same or the negated weight, so the emission
    holds sandwiches that cancel, merge and merge to nothing."""
    n = draw(st.integers(2, 6))
    label = st.text(alphabet="IXYZ", min_size=n, max_size=n).filter(
        lambda s: set(s) != {"I"})
    weight = st.sampled_from((0.3, -0.7, 1.1, 0.5))
    blocks, previous = [], None
    for _ in range(draw(st.integers(1, 5))):
        strings = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(("new", "new", "repeat", "flip")))
            if kind == "new" or previous is None:
                previous = (draw(label), draw(weight))
            elif kind == "flip":
                previous = (previous[0], -previous[1])
            strings.append(previous)
        blocks.append(PauliBlock(strings, draw(st.sampled_from((0.5, 1.0)))))
    return PauliProgram(blocks)


def _edge_error(coupling, rates):
    return {edge: rates[k % len(rates)]
            for k, edge in enumerate(coupling.edges)}


@given(_programs(), st.sampled_from(sorted(COUPLINGS)),
       st.sampled_from(sorted(SCHEDULES)),
       st.one_of(st.none(), st.lists(st.floats(0.001, 0.2), min_size=1,
                                     max_size=4)))
@settings(max_examples=60, deadline=None)
def test_sc_flow_matches_optimize_on_the_raw_emission(program, coupling_name,
                                                      scheduler, rates):
    coupling = COUPLINGS[coupling_name](program.num_qubits)
    edge_error = None if rates is None else _edge_error(coupling, rates)
    result = compile_program(program, backend="sc", coupling=coupling,
                             edge_error=edge_error, scheduler=scheduler,
                             restarts=3)
    # run_pipeline's restarts: attempt k jitters with Random(7 + k), and the
    # first attempt with the fewest CNOTs wins.
    schedule = SCHEDULES[scheduler](program)
    best = None
    for attempt in range(3):
        rng = random.Random(7 + attempt) if attempt else None
        raw = SCSynthesizer(coupling, edge_error, rng=rng).run(
            schedule, program.num_qubits)
        expected = optimize(raw.circuit)
        if best is None or expected.cnot_count < best[0].cnot_count:
            best = expected, raw
    expected, raw = best
    assert result.circuit.gates == expected.gates
    assert result.emitted_terms == raw.emitted_terms
    assert result.final_layout == raw.final_layout


def _seeded(program, coupling, scheduler="do", edge_error=None):
    result, (seeds, raw) = SCSynthesizer(coupling, edge_error)._run(
        SCHEDULES[scheduler](program), program.num_qubits, seeded=True)
    return result, seeds, raw


@given(_programs(), st.sampled_from(sorted(COUPLINGS)),
       st.sampled_from(sorted(SCHEDULES)))
@settings(max_examples=60, deadline=None)
def test_every_slot_where_a_rule_fires_on_the_emission_is_a_seed(
        program, coupling_name, scheduler):
    coupling = COUPLINGS[coupling_name](program.num_qubits)
    result, seeds, raw = _seeded(program, coupling, scheduler)
    tape = result.circuit.tape
    _assert_links_as_built(tape)
    _assert_fire_sites_are_seeds(tape, seeds)
    assert seeds == _fire_sites(result.circuit)
    assert raw().gates == result.circuit.gates


@pytest.mark.parametrize("name, coupling", [
    ("UCCSD-8", falcon_27), ("REG-20-4", manhattan_65),
    ("Rand-12", lambda: grid(3, 4)),
])
def test_seeded_engine_agrees_with_every_slot_on_workloads(name, coupling):
    if name == "Rand-12":
        program = random_hamiltonian_program(12, num_strings=60, seed=2022)
    else:
        program = build_benchmark(name, "paper")
    result, seeds, _ = _seeded(program, coupling())
    _assert_fire_sites_are_seeds(result.circuit.tape, seeds)
    for level in LEVELS:
        flags = _engine_flags(level)
        seeded = peephole._run(result.circuit, seeds=seeds, strict=True,
                               **flags)
        every = peephole._run(result.circuit, **flags)
        assert seeded is not None
        assert seeded[0].gates == every[0].gates
        assert seeded[1] == every[1]


_GATES = ("h", "x", "z", "rz", "rx", "cx", "cx", "swap", "swap")


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_seeded_engine_fuses_in_the_every_slot_order(data):
    # CNOTs and SWAPs on two or three wires, so fusions compete for one
    # gate, and single-qubit pairs whose cancelling makes a new fuse site
    # that no seed names.
    n = data.draw(st.integers(2, 3))
    circuit = QuantumCircuit(n)
    for _ in range(data.draw(st.integers(2, 14))):
        name = data.draw(st.sampled_from(_GATES))
        qubits = data.draw(st.permutations(range(n)))
        if name in ("cx", "swap"):
            circuit.append(Gate(name, tuple(qubits[:2])))
        else:
            params = (0.5,) if name in ("rz", "rx") else ()
            circuit.append(Gate(name, (qubits[0],), params))
    flags = _engine_flags(3)
    seeded = peephole._run(circuit, seeds=_fire_sites(circuit), strict=True,
                           **flags)
    if seeded is not None:
        every = peephole._run(circuit, **flags)
        assert seeded[0].gates == every[0].gates
        assert seeded[1] == every[1]


def test_rotations_merging_to_nothing_fall_back_to_the_raw_emission(
        monkeypatch):
    # ZZ and its negation meet across their cancelled CNOTs and vanish:
    # the strict engine stops, and the step runs the raw emission's
    # fixpoint.
    program = PauliProgram([PauliBlock([("ZZ", 0.4), ("ZZ", -0.4)]),
                            PauliBlock(["XY"], 0.3)])
    raws = []
    run = SCSynthesizer._run

    def spy(self, schedule, num_logical, seeded=False):
        result, seeds = run(self, schedule, num_logical, seeded)
        raws.append(seeds)
        return result, seeds

    monkeypatch.setattr(SCSynthesizer, "_run", spy)
    for level in LEVELS:
        raws.clear()
        result = Pipeline("sc", "none", level).run(program, coupling=linear(2))
        ((seeds, raw),) = raws
        assert peephole._run(raw(), seeds=seeds, strict=True,
                             **_engine_flags(level)) is None
        expected, _ = peephole._run(raw(), **_engine_flags(level))
        assert result.circuit.gates == expected.gates
    raws.clear()
    Pipeline("sc", "none", 0).run(program, coupling=linear(2))
    assert raws == [None]


@pytest.mark.parametrize("backend", ["ft", "sc"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_zero_weight_term_compiles_to_nothing(backend, level):
    # A zero weight emits cx, rz(-0), cx; merge drops the rotation and the
    # CNOTs then cancel, as if the term were not there.
    program = PauliProgram([PauliBlock(["ZZI"], 0.3),
                            PauliBlock([("IZZ", 0.0)])])
    coupling = linear(3) if backend == "sc" else None
    result = compile_program(program, backend=backend, coupling=coupling,
                             scheduler="gco", peephole_level=level)
    assert [g.name for g in result.circuit.gates].count("rz") == 1
    assert result.circuit.cnot_count == 2


def _rollback_program():
    # On linear(9) under do, a small block gathers one qubit, then finds
    # the primary block in the way of the next: the swap is rolled back
    # from the gate columns and the block deferred.
    blocks = [["YIYIIIXYI"], ["IXIYIIIII", "IIIXIXIIZ"],
              ["YXYIXXIII", "XXIIIIZXI"],
              ["ZIZIIIXII", "XIYIIXIII", "IIIIYXIII"],
              ["IZIYIIIXI", "IIIIIIYIZ", "YZIYIXIZI"]]
    parameters = [0.32, 0.68, 0.1, 0.52, 0.14]
    return PauliProgram([PauliBlock(labels, parameter)
                         for labels, parameter in zip(blocks, parameters)])


def test_parallel_block_rollback_with_a_deferral(monkeypatch):
    rolled_back = []
    attempt = SCSynthesizer._try_parallel_block

    def spy(self, block, protected):
        size = len(self._columns[0])
        grows = []
        process = self._process_block

        def watch(block, forbidden):
            try:
                process(block, forbidden)
            finally:
                grows.append(len(self._columns[0]) - size)

        monkeypatch.setattr(self, "_process_block", watch)
        done = attempt(self, block, protected)
        monkeypatch.delattr(self, "_process_block")
        if not done:
            assert len(self._columns[0]) == size
            rolled_back.append(grows[-1])
        return done

    monkeypatch.setattr(SCSynthesizer, "_try_parallel_block", spy)
    program = _rollback_program()
    raw = sc_compile(program, linear(9), peephole_level=0)
    assert 1 in rolled_back
    # The digests of the output before the gate columns replaced the
    # circuit builders.
    assert sc_digest(raw) == (
        "21733b41efe87604123e2906816c36d383a533369b5207957e65f022afacb6ed")
    assert sc_digest(sc_compile(program, linear(9))) == (
        "729e43537392d625c188a370054a0edc8165a9659b43c7e6c0633b7d6811ba6f")


def test_calibrated_flow_is_seeded_too():
    coupling = grid(3, 3)
    program = random_hamiltonian_program(9, num_strings=30, seed=3)
    edge_error = NoiseModel.calibrated(coupling, seed=5).edge_error_map()
    result, seeds, raw = _seeded(program, coupling, edge_error=edge_error)
    _assert_fire_sites_are_seeds(result.circuit.tape, seeds)
    flow = compile_program(program, backend="sc", coupling=coupling,
                           edge_error=edge_error)
    assert flow.circuit.gates == optimize(raw()).gates
