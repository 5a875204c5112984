"""The FT flow's residue synthesis against the raw emission's fixpoint.

At peephole levels 1-3 the FT flow synthesizes through the
``ft_synthesize_residue`` contract: the emission leaves out the inverse
pairs its junctions cancel by construction and the basis pairs of terms
that meet on a wire across terms that leave it alone, and reports the
seeds, the slots where a peephole rule can fire on the residue.  The
peephole step right after it starts its worklist from those seeds.  These
tests pin that the flow's output is gate for gate the level's rules run
on the raw :func:`~repro.core.ft_synthesize` emission, that the seeded
engine and the every-slot engine agree on the residue, that every slot
where a rule fires is a seed, and that a custom pass between synthesis
and peephole drops the seeds.
"""

from math import pi, remainder

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.circuit import Gate, QuantumCircuit
from repro.circuit.gates import OP, OP_INVERSE
from repro.circuit.tape import NO_SLOT, GateTape
from repro.core import ft_backend, ft_synthesize
from repro.core.passes import Pipeline, pass_sequence, run_pipeline
from repro.ir import PauliBlock, PauliProgram
from repro.pauli import PauliString
from repro.static import check_tape
from repro.static.contracts import rules_for_level
from repro.transpile import peephole, run_rules
from repro.workloads import build_benchmark
from repro.workloads.random_hamiltonian import random_hamiltonian_program

POLICIES = ("paired", "onesided")
LEVELS = (1, 2, 3)

#: ``run_rules`` flags of each level's rule set.
LEVEL_RULES = {
    level: {name.split("_", 1)[1]: True for name in rules_for_level(level)}
    for level in LEVELS
}


def _with(label, qubit, operator):
    return label[:qubit] + operator + label[qubit + 1:]


@st.composite
def _term_lists(draw, programs=True):
    """2-8-qubit term lists where a term often repeats its neighbour's
    string, with the same or the negated coefficient, or where two terms
    with the same X or Y on a qubit sandwich a term that leaves the qubit
    alone.  The outer terms of a sandwich are often equal, the two around
    the inner term often with coefficients that add up to whole turns, and
    the inner term is often disjoint from them.  For ``programs``, no
    identity string and no zero coefficient: the flow gets one block per
    term, and such a block is an invalid program."""
    n = draw(st.integers(2, 8))
    label = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    # Quarter and half turns make rotations merge to full turns.
    coefficient = st.one_of(st.floats(-3.0, 3.0, allow_nan=False),
                            st.sampled_from((pi / 2, -pi / 2, pi, 1e-13)))
    if programs:
        label = label.filter(lambda s: set(s) != {"I"})
        coefficient = coefficient.filter(bool)
    terms = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("new", "new", "repeat", "flip",
                                     "sandwich")))
        if kind == "sandwich":
            qubit = draw(st.integers(0, n - 1))
            outer = _with(draw(label), qubit, draw(st.sampled_from("XY")))
            inner = _with(draw(label), qubit, "I")
            if draw(st.booleans()):
                inner = "".join(c if o == "I" else "I"
                                for o, c in zip(outer, inner))
            if programs and set(inner) == {"I"}:
                inner = _with(inner, (qubit + 1) % n, "Z")
            head = [(outer, draw(coefficient))
                    for _ in range(draw(st.integers(1, 2)))]
            last = draw(st.sampled_from(("turns", "equal", "other")))
            if last == "turns":
                value = head[-1][1]
                turns = draw(st.sampled_from((0, 1, -1))) * pi
                last = (outer, turns - value or -value)
            elif last == "equal":
                last = (outer, draw(coefficient))
            else:
                last = (_with(draw(label), qubit, outer[qubit]),
                        draw(coefficient))
            terms += [*head, (inner, draw(coefficient)), last]
        elif kind == "new" or not terms:
            terms.append((draw(label), draw(coefficient)))
        else:
            string, value = terms[-1]
            terms.append((string, value if kind == "repeat" else -value))
    return n, terms


def _program(terms):
    """One block per term, so scheduler ``none`` keeps the list order."""
    return PauliProgram([PauliBlock([term]) for term in terms])


@given(_term_lists())
@settings(max_examples=120, deadline=None)
def test_ft_flow_matches_rules_on_raw_emission(case):
    n, terms = case
    program = _program(terms)
    for policy in POLICIES:
        for level in LEVELS:
            result = Pipeline("ft", "none", level).run(
                program, junction_policy=policy)
            assert [(s.label, c) for s, c in result.emitted_terms] == terms
            raw = ft_synthesize(result.emitted_terms, n,
                                junction_policy=policy)
            expected, _ = run_rules(raw, **LEVEL_RULES[level])
            assert result.circuit.gates == expected.gates, (policy, level)


def _engine_flags(level):
    return {f"do_{rule}": True for rule in LEVEL_RULES[level]}


def _assert_seeded_engine_agrees(terms, n, policy):
    residue, seeds = ft_backend._synthesize_residue(terms, n, policy)
    assert seeds == sorted(set(seeds))
    _assert_links_as_built(residue.tape)
    _assert_fire_sites_are_seeds(residue.tape, seeds)
    for level in LEVELS:
        flags = _engine_flags(level)
        seeded = peephole._run(residue, seeds=seeds, **flags)
        every = peephole._run(residue, **flags)
        assert seeded[0].gates == every[0].gates
        assert seeded[1] == every[1]


@given(_term_lists(programs=False), st.sampled_from(POLICIES))
@settings(max_examples=60, deadline=None)
def test_seam_seeded_engine_agrees_with_every_slot(case, policy):
    n, terms = case
    terms = [(PauliString.from_label(s), c) for s, c in terms]
    _assert_seeded_engine_agrees(terms, n, policy)


def _assert_links_as_built(tape):
    """``tape``'s ready-made links equal what :meth:`GateTape.ensure_links`
    builds on a link-less tape with the same columns."""
    assert tape._links_ready
    bare = GateTape.from_columns(tape.num_qubits, list(tape.op),
                                 list(tape.q0), list(tape.q1),
                                 list(tape.param))
    bare.ensure_links()
    for column in ("nxt0", "prv0", "nxt1", "prv1", "head", "tail"):
        assert list(getattr(tape, column)) == getattr(bare, column), column
    assert tape.counts == bare.counts
    check_tape(tape).raise_on_error()


@given(_term_lists(programs=False), st.sampled_from(POLICIES))
@settings(max_examples=80, deadline=None)
def test_residue_tape_comes_with_the_links_ensure_links_builds(case,
                                                              policy):
    n, terms = case
    terms = [(PauliString.from_label(s), c) for s, c in terms]
    residue, _ = ft_backend._synthesize_residue(terms, n, policy)
    _assert_links_as_built(residue.tape)


def test_wide_residue_tape_links():
    # More qubits than a uint16 sort key holds: the wire sort takes the
    # wide-key path.
    n = 70000
    strings = [PauliString.from_sparse(n, {0: "X", 69999: "Z", 40000: "Y"}),
               PauliString.from_sparse(n, {0: "X", 69999: "Z"}),
               PauliString.from_sparse(n, {12: "Y", 69999: "Z"})]
    residue, _ = ft_backend._synthesize_residue(
        [(string, 0.1 * k + 0.2) for k, string in enumerate(strings)], n)
    _assert_links_as_built(residue.tape)


def _rule_fires(tape, slot):
    """Whether a rule of :func:`~repro.transpile.peephole._engine` fires at
    ``slot``, each rule's condition restated one gate at a time."""
    op, a, b = tape.op[slot], tape.q0[slot], tape.q1[slot]
    succ = tape.nxt0[slot]
    if b == NO_SLOT:
        if (op in peephole.OP_ROTATION
                and abs(remainder(tape.param[slot], 2 * pi)) < 1e-12):
            return True  # merge drops a zero-angle rotation
        if succ == NO_SLOT or tape.q1[succ] != NO_SLOT:
            return False
        axis = peephole._MERGE_AXIS[op]
        cancel = (op not in peephole.OP_ROTATION
                  and tape.op[succ] == OP_INVERSE[op])
        merge = (axis != peephole._AXIS_NONE
                 and peephole._MERGE_AXIS[tape.op[succ]] == axis)
        return cancel or merge
    if succ != NO_SLOT and succ == tape.nxt1[slot]:
        if tape.op[succ] == OP_INVERSE[op] and tape.q0[succ] == a:
            return True  # cancel
        if {op, tape.op[succ]} == {OP["swap"], OP["cx"]}:
            return True  # fuse
    if op != OP["cx"]:
        return False
    # commute: walk the control wire over diagonal gates, the target wire
    # over X-axis gates; both walks must end on the same CNOT.
    walks = []
    for wire, passes in ((a, peephole._IS_DIAG), (b, peephole._IS_XAXIS)):
        walk = tape.wire_next(slot, wire)
        while (walk != NO_SLOT and tape.q1[walk] == NO_SLOT
               and passes[tape.op[walk]]):
            walk = tape.wire_next(walk, wire)
        walks.append(walk)
    end = walks[0]
    return (end != NO_SLOT and end == walks[1] and tape.op[end] == OP["cx"]
            and tape.q0[end] == a and tape.q1[end] == b)


def _assert_fire_sites_are_seeds(tape, seeds):
    fires = [slot for slot in tape.iter_slots() if _rule_fires(tape, slot)]
    assert set(fires) <= set(seeds)


def _fire_sites(circuit):
    tape = circuit.tape
    tape.ensure_links()
    op, q0, q1, nxt0, nxt1 = (np.array(getattr(tape, name), dtype=np.int64)
                              for name in ("op", "q0", "q1", "nxt0", "nxt1"))
    return peephole._fire_sites(op, q0, q1, np.array(tape.param), nxt0,
                                nxt1).tolist()


@given(_term_lists(programs=False), st.sampled_from(POLICIES))
@settings(max_examples=80, deadline=None)
def test_every_slot_where_a_rule_fires_on_the_residue_is_a_seed(case,
                                                                 policy):
    n, terms = case
    terms = [(PauliString.from_label(s), c) for s, c in terms]
    residue, seeds = ft_backend._synthesize_residue(terms, n, policy)
    _assert_fire_sites_are_seeds(residue.tape, seeds)
    assert seeds == _fire_sites(residue)


_GATES = ("id", "h", "s", "sdg", "x", "y", "z", "yh", "rz", "rx", "ry",
          "cx", "cz", "swap")
#: Rotation angles: zero mod 2*pi (on both sides of the 1e-12 tolerance
#: and of the fold at pi) and not.
_ANGLES = (0.5, 0.0, -0.0, 2 * pi, -2 * pi, 4 * pi + 5e-13, 2 * pi - 2e-12,
           3e-13, 1e-11)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fire_sites_hold_every_slot_where_a_rule_fires(data):
    # Every gate the engine knows, so each clause of the test is needed;
    # CNOTs and X-axis gates often, so commuting walks are common.
    n = data.draw(st.integers(2, 3))
    circuit = QuantumCircuit(n)
    for _ in range(data.draw(st.integers(1, 16))):
        name = data.draw(st.sampled_from(_GATES + ("cx", "cx", "x", "rx")))
        qubits = data.draw(st.permutations(range(n)))
        if name in ("cx", "cz", "swap"):
            circuit.append(Gate(name, tuple(qubits[:2])))
        else:
            params = ((data.draw(st.sampled_from(_ANGLES)),)
                      if name in ("rz", "rx", "ry") else ())
            circuit.append(Gate(name, (qubits[0],), params))
    _assert_fire_sites_are_seeds(circuit.tape, _fire_sites(circuit))


@pytest.mark.parametrize("name", ["UCCSD-8", "Heisen-2D", "Rand-12"])
@pytest.mark.parametrize("policy", POLICIES)
def test_seam_seeded_engine_agrees_on_workloads(name, policy):
    if name == "Rand-12":
        program = random_hamiltonian_program(12, num_strings=300, seed=5)
    else:
        program = build_benchmark(name, "paper")
    flow = Pipeline("ft", "gco", 0).run(program, junction_policy=policy)
    _assert_seeded_engine_agrees(flow.emitted_terms, program.num_qubits,
                                 policy)


def test_residue_leaves_out_the_junction_pairs():
    # XXYI's chain is a prefix of XXYZ's: the three basis pairs and the two
    # leaf-end CNOT pairs go, and XXYZ's last CNOT meets XXYI's rotation.
    terms = [(PauliString.from_label("XXYZ"), 0.2),
             (PauliString.from_label("XXYI"), 0.5)]
    raw = ft_synthesize(terms, 4)
    residue, seeds = ft_backend._synthesize_residue(terms, 4)
    assert raw.size == (2 * 3 + 2 * 4 - 1) + (2 * 3 + 2 * 3 - 1)
    assert residue.size == raw.size - 2 * (3 + 2)
    assert [gate.name for gate in residue.gates][7:9] == ["cx", "rz"]
    # Slot 7 is a seam, but no rule fires where a CNOT meets a rotation:
    # nothing is left for the peephole.
    assert seeds == []


def test_residue_leaves_out_long_range_basis_pairs():
    # XZI and XIY meet on qubit 0 across IIZ, which leaves it alone: the
    # closing and opening H there are inverse neighbours on that wire.
    terms = [(PauliString.from_label("XZI"), 0.2),
             (PauliString.from_label("IIZ"), 0.3),
             (PauliString.from_label("XIY"), 0.5)]
    raw = ft_synthesize(terms, 3)
    residue, seeds = ft_backend._synthesize_residue(terms, 3)
    assert residue.size == raw.size - 2
    assert sum(g.name == "h" for g in raw.gates) == 4
    assert sum(g.name == "h" for g in residue.gates) == 2
    assert seeds == []
    expected, _ = run_rules(raw, **LEVEL_RULES[3])
    assert residue.gates == expected.gates


def test_equal_strings_keep_their_long_range_pairs():
    # Equal strings across a term that leaves them alone: their rotations
    # could meet and merge, so the peephole must see the raw junction.
    terms = [(PauliString.from_label("XZI"), 0.2),
             (PauliString.from_label("IIZ"), 0.3),
             (PauliString.from_label("XZI"), 0.5)]
    raw = ft_synthesize(terms, 3)
    residue, seeds = ft_backend._synthesize_residue(terms, 3)
    assert residue.gates == raw.gates
    assert seeds


def test_three_equal_rotations_merge_in_the_raw_order():
    # Left out, the long-range pair would let the last rotation merge
    # before the first two do, and the angles would round differently.
    program = _program([("XZI", pi), ("XZI", 1.1), ("IIY", 0.3),
                        ("XZI", 0.3)])
    result = Pipeline("ft", "none", 1).run(program)
    raw = ft_synthesize(result.emitted_terms, 3)
    assert result.circuit.gates == run_rules(raw, **LEVEL_RULES[1])[0].gates


def test_zero_weight_terms_vanish_in_the_every_slot_order():
    # The zero-weight terms' rotations drop and their CNOT ladders cancel
    # down to the neighbours' ladders; the seeded run must then visit the
    # CNOTs in the every-slot run's order, or commute cancels another pair
    # of equal CNOTs around the rotation on qubit 0.
    terms = [(PauliString.from_label(label), c) for label, c in (
        ("XIIXXX", 1.0), ("XIIXXX", 0.0), ("IIIIIX", 1.0),
        ("XIIXXX", -0.0))]
    _assert_seeded_engine_agrees(terms, 6, "paired")


def test_equal_neighbours_keep_their_pairs():
    # Their rotations would meet and cancel: the peephole must see the
    # raw junction to unwind it in the raw order.  The next junction has
    # no common prefix and loses only its two shared basis pairs.
    terms = [(PauliString.from_label("XXYZ"), 0.2),
             (PauliString.from_label("XXYZ"), -0.2),
             (PauliString.from_label("XZYI"), 0.3)]
    raw = ft_synthesize(terms, 4)
    residue, _ = ft_backend._synthesize_residue(terms, 4)
    assert residue.gates[:23] == raw.gates[:23]
    assert residue.size == raw.size - 2 * 2


def test_level0_flow_keeps_the_raw_emission():
    assert pass_sequence("ft", "gco", 0)[1] == "ft_synthesize"
    for level in LEVELS:
        assert pass_sequence("ft", "gco", level)[1] == "ft_synthesize_residue"


@pytest.fixture
def engine_seeds(monkeypatch):
    """Records the ``seeds`` of every engine run."""
    calls = []
    engine = peephole._engine

    def spy(tape, do_cancel, do_merge, do_commute, do_fuse, seeds=None,
            strict=False):
        calls.append(seeds)
        return engine(tape, do_cancel, do_merge, do_commute, do_fuse, seeds,
                      strict)

    monkeypatch.setattr(peephole, "_engine", spy)
    return calls


def _opposite_program():
    return _program([("XXYZ", 0.4), ("XXYZ", -0.4), ("ZXYZ", 0.3),
                     ("ZXYZ", 0.1), ("IYZX", 0.7)])


def test_peephole_after_residue_starts_from_the_seams(engine_seeds):
    program = _program([("XXYZ", 0.4), ("XXYI", 0.3), ("ZXYZ", 0.1),
                        ("ZXYZ", 0.2), ("IYZX", 0.7)])
    Pipeline("ft", "none", 3).run(program)
    (seeds,) = engine_seeds
    terms = Pipeline("ft", "none", 0).run(program).emitted_terms
    assert seeds == ft_backend._synthesize_residue(terms, 4)[1]


def test_rotations_merging_to_nothing_fall_back_to_the_raw_emission(
        engine_seeds):
    # XXYZ and its negation vanish, and ZXYZ meets ZXYZ: a cascade whose
    # order the residue does not keep, so the step runs on the raw emission.
    program = _opposite_program()
    for level in LEVELS:
        engine_seeds.clear()
        result = Pipeline("ft", "none", level).run(program)
        assert len(engine_seeds) == 2 and engine_seeds[1] is None
        raw = ft_synthesize(result.emitted_terms, 4)
        expected, _ = run_rules(raw, **LEVEL_RULES[level])
        assert result.circuit.gates == expected.gates


def test_custom_pass_between_synthesis_and_peephole_drops_the_seams(
        engine_seeds):
    # The custom pass appends an inverse pair that no seed covers: only a
    # full fixpoint removes it.
    def append_pair(circuit):
        return circuit.copy().x(0).x(0)

    program = _opposite_program()
    stock = Pipeline("ft", "none", 3)
    schedule, synthesize, *rules = stock.passes
    result = run_pipeline([schedule, synthesize, append_pair, *rules],
                          program)
    assert engine_seeds == [None]
    assert result.circuit.gates == stock.run(program).circuit.gates
