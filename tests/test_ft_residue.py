"""The FT flow's residue synthesis against the raw emission's fixpoint.

At peephole levels 1-3 the FT flow synthesizes through the
``ft_synthesize_residue`` contract: the emission leaves out the inverse
pairs its junctions cancel by construction and reports the seams between
terms, and the peephole step right after it starts its worklist from
those seams.  These tests pin that the flow's output is gate for gate the
level's rules run on the raw :func:`~repro.core.ft_synthesize` emission,
that the seam-seeded engine and the every-slot engine agree on the
residue, and that a custom pass between synthesis and peephole drops the
seams.
"""

from math import pi

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.tape import GateTape
from repro.core import ft_backend, ft_synthesize
from repro.core.passes import Pipeline, pass_sequence, run_pipeline
from repro.ir import PauliBlock, PauliProgram
from repro.pauli import PauliString
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


@st.composite
def _term_lists(draw, programs=True):
    """2-8-qubit term lists where a term often repeats its neighbour's
    string, with the same or the negated coefficient.  For ``programs``,
    no identity string and no zero coefficient: the flow gets one block
    per term, and such a block is an invalid program."""
    n = draw(st.integers(2, 8))
    label = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    # Quarter and half turns make rotations merge to full turns.
    coefficient = st.one_of(st.floats(-3.0, 3.0, allow_nan=False),
                            st.sampled_from((pi / 2, -pi / 2, pi, 1e-13)))
    if programs:
        label = label.filter(lambda s: set(s) != {"I"})
        coefficient = coefficient.filter(bool)
    terms = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("new", "new", "repeat", "flip")))
        if kind == "new" or not terms:
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
    residue, seams = ft_backend._synthesize_residue(terms, n, policy)
    assert seams == sorted(set(seams))
    _assert_links_as_built(residue.tape)
    for level in LEVELS:
        flags = _engine_flags(level)
        seeded = peephole._run(residue, seeds=seams, **flags)
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
    tape.check_invariants()


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
    residue, seams = ft_backend._synthesize_residue(terms, 4)
    assert raw.size == (2 * 3 + 2 * 4 - 1) + (2 * 3 + 2 * 3 - 1)
    assert residue.size == raw.size - 2 * (3 + 2)
    assert [gate.name for gate in residue.gates][7:9] == ["cx", "rz"]
    assert 7 in seams


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
    # The custom pass appends an inverse pair that no seam covers: only a
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
