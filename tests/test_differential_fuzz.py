"""Differential fuzzing of the whole compile pipeline.

Hypothesis generates random Pauli programs (mixed weights, angles, and
block shapes) and compiles them through both backends at every generic
``--opt-level``.  Three independent oracles check the cases:

* the **naive baseline** — the paper's one-string-at-a-time chain synthesis
  (:func:`repro.core.synthesis.pauli_rotation_gates`), applied to the
  compiler's emitted term order, must be statevector-equivalent to the
  compiled circuit at every opt level (programs up to 10 qubits, where the
  dense simulation stays cheap);
* the **reference engine** — the seed peephole/router implementations
  kept in ``tests/oracles/transpile.py`` must agree with the worklist
  engine on the same frontend emissions;
* the **Pauli-propagation verifier** (:mod:`repro.verify`) — cross-checked
  against the statevector oracle on every small case, and the *only*
  oracle for the paper-scale band: hypothesis-generated 17-30-qubit
  programs (backends x opt levels, > 100 cases per run) that no dense
  simulator could touch.

On top of the per-case unitary check, the emitted term multiset must equal
the program's IR multiset exactly (the scheduling licence), and the SC
backend's layout bookkeeping is folded into the oracle via permutation
matrices.

Falsifying examples found during development are committed to
``tests/corpora/differential_regressions.jsonl`` and replayed verbatim by
``test_regression_corpus`` — through the statevector oracles *and* the new
verifier — so they can never come back.
"""

import json
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import layout_permutation
from repro.circuit import QuantumCircuit
from repro.circuit.statevector import simulate
from repro.core import compile_program
from repro.core.synthesis import pauli_rotation_gates
from repro.ir import PauliBlock, PauliProgram
from repro.pauli import PauliString
from repro.service import program_from_dict, program_to_dict
from repro.transpile import linear, optimize, route, transpile
from oracles.transpile import seed_optimize, seed_route
from repro.verify import verify_circuit, verify_result

CORPUS = Path(__file__).parent / "corpora" / "differential_regressions.jsonl"
OPT_LEVELS = (0, 1, 2, 3)

#: Statevector-oracle ceiling: 2^10 = 1024-dim states stay cheap.
MAX_QUBITS = 10
#: Paper-scale band checked by Pauli propagation only.
MIN_BIG_QUBITS, MAX_BIG_QUBITS = 17, 30
#: Case-count multiplier for extended hunts: the nightly CI job sets
#: ``REPRO_FUZZ_SCALE=5`` (~600 generated cases across the entry points
#: below) on top of the per-commit defaults.
FUZZ_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))


# ----------------------------------------------------------------------
# Program generator
# ----------------------------------------------------------------------

def _strings(draw, n, count):
    out = []
    for _ in range(count):
        codes = [draw(st.integers(0, 3)) for _ in range(n)]
        if all(c == 0 for c in codes):
            # Identity strings are pure global phase; force one operator so
            # every generated term exercises synthesis.
            codes[draw(st.integers(0, n - 1))] = draw(st.integers(1, 3))
        out.append(PauliString(codes))
    return out


_angles = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False).filter(
    lambda x: abs(x) > 1e-9
)


@st.composite
def pauli_programs(draw, max_qubits=MAX_QUBITS, max_blocks=3, max_strings=3,
                   min_qubits=2):
    n = draw(st.integers(min_qubits, max_qubits))
    blocks = []
    for _ in range(draw(st.integers(1, max_blocks))):
        strings = _strings(draw, n, draw(st.integers(1, max_strings)))
        weights = [draw(_angles) for _ in strings]
        parameter = draw(_angles)
        blocks.append(PauliBlock(list(zip(strings, weights)), parameter=parameter))
    return PauliProgram(blocks, name="fuzz")


def _random_state(num_qubits, seed=23):
    rng = np.random.default_rng(seed)
    dim = 2 ** num_qubits
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def _states_close(a, b, atol=1e-8):
    """Statevector equality up to global phase."""
    inner = np.vdot(a, b)
    return np.isclose(abs(inner), 1.0, atol=atol)


def _naive_chain_circuit(terms, num_qubits):
    """The naive baseline: chain-synthesize ``exp(i c P)`` per term in order."""
    qc = QuantumCircuit(num_qubits)
    for string, coefficient in terms:
        qc.extend(pauli_rotation_gates(string, -2.0 * coefficient))
    return qc


def _term_multiset(terms):
    return Counter((string, coefficient) for string, coefficient in terms)


# ----------------------------------------------------------------------
# Differential properties
# ----------------------------------------------------------------------

def check_ft_case(program):
    """FT backend vs the naive baseline, at every opt level."""
    result = compile_program(program, backend="ft", run_peephole=False)
    assert _term_multiset(result.emitted_terms) == Counter(
        {k: v for k, v in program.multiset_of_terms().items()}
    ), "scheduling changed the emitted term multiset"

    # Third oracle: Pauli propagation must agree with the statevector
    # verdict on every small case (the two share no code path).
    verify_result(program, result).raise_if_failed()

    n = program.num_qubits
    state = _random_state(n)
    reference = simulate(_naive_chain_circuit(result.emitted_terms, n), state)
    for level in OPT_LEVELS:
        compiled = transpile(result.circuit, optimization_level=level)
        assert _states_close(simulate(compiled, state), reference), (
            f"ft/opt-level {level} diverged from the naive baseline"
        )
        verify_circuit(compiled, result.emitted_terms).raise_if_failed()


def check_sc_case(program):
    """SC backend (linear coupling) vs the naive baseline, every opt level.

    The oracle folds the initial/final layouts in:
    ``circuit == S_final . U(emitted) . S_init^dagger`` on a random state.
    """
    n = program.num_qubits
    coupling = linear(n)
    result = compile_program(
        program, backend="sc", coupling=coupling, run_peephole=False
    )
    assert _term_multiset(result.emitted_terms) == Counter(
        {k: v for k, v in program.multiset_of_terms().items()}
    ), "SC scheduling changed the emitted term multiset"

    verify_result(program, result).raise_if_failed()

    state = _random_state(n)
    s_init = layout_permutation(result.initial_layout, n)
    s_final = layout_permutation(result.final_layout, n)
    logical = s_init.conj().T @ state
    reference = s_final @ simulate(
        _naive_chain_circuit(result.emitted_terms, n), logical
    )
    for level in OPT_LEVELS:
        compiled = transpile(result.circuit, optimization_level=level)
        assert _states_close(simulate(compiled, state), reference), (
            f"sc/opt-level {level} diverged from the naive baseline"
        )
        verify_circuit(
            compiled,
            result.emitted_terms,
            initial_layout=result.initial_layout,
            final_layout=result.final_layout,
        ).raise_if_failed()


def check_reference_engine_case(program):
    """PR-2 oracle: worklist optimize vs seed optimize, router identity."""
    result = compile_program(program, backend="ft", run_peephole=False)
    emission = result.circuit
    n = program.num_qubits

    seed_out = seed_optimize(emission)
    tape_out = optimize(emission)
    assert len(seed_out) == len(tape_out)
    assert seed_out.count_ops() == tape_out.count_ops()
    state = _random_state(n)
    assert _states_close(simulate(seed_out, state), simulate(tape_out, state)), (
        "worklist optimize diverged from the seed engine"
    )

    coupling = linear(n)
    seed_routed, _, _, seed_swaps = seed_route(seed_out, coupling)
    tape_result = route(seed_out, coupling)
    assert list(seed_routed.gates) == list(tape_result.circuit.gates), (
        "incremental router diverged from the seed router"
    )
    assert seed_swaps == tape_result.swap_count


# ----------------------------------------------------------------------
# Paper-scale band: Pauli propagation is the only oracle
# ----------------------------------------------------------------------

def check_big_ft_case(program):
    """FT at 17-30 qubits: verifier-only, every opt level (5 cases)."""
    result = compile_program(program, backend="ft")
    verify_result(program, result).raise_if_failed()
    for level in OPT_LEVELS:
        compiled = transpile(result.circuit, optimization_level=level)
        verify_circuit(compiled, result.emitted_terms).raise_if_failed()


def check_big_sc_case(program):
    """SC (linear coupling, persistent swaps) at 17-30 qubits (5 cases)."""
    result = compile_program(
        program, backend="sc", coupling=linear(program.num_qubits)
    )
    verify_result(program, result).raise_if_failed()
    for level in OPT_LEVELS:
        compiled = transpile(result.circuit, optimization_level=level)
        verify_circuit(
            compiled,
            result.emitted_terms,
            initial_layout=result.initial_layout,
            final_layout=result.final_layout,
        ).raise_if_failed()


# ----------------------------------------------------------------------
# Fuzz entry points (>= 200 statevector program/backend/opt-level cases:
# 40 x 4 ft + 25 x 4 sc = 260, plus 30 reference-engine cases, plus
# >= 125 paper-scale cases above 16 qubits: (15 ft + 10 sc) x 5 checks)
# ----------------------------------------------------------------------

@given(pauli_programs())
@settings(max_examples=40 * FUZZ_SCALE, deadline=None)
def test_ft_differential_fuzz(program):
    check_ft_case(program)


@given(pauli_programs(max_qubits=6))
@settings(max_examples=25 * FUZZ_SCALE, deadline=None)
def test_sc_differential_fuzz(program):
    check_sc_case(program)


@given(pauli_programs(max_qubits=6))
@settings(max_examples=30 * FUZZ_SCALE, deadline=None)
def test_reference_engine_differential_fuzz(program):
    check_reference_engine_case(program)


@given(pauli_programs(min_qubits=MIN_BIG_QUBITS, max_qubits=MAX_BIG_QUBITS))
@settings(max_examples=15 * FUZZ_SCALE, deadline=None)
def test_big_ft_pauli_propagation_fuzz(program):
    check_big_ft_case(program)


@given(pauli_programs(min_qubits=MIN_BIG_QUBITS, max_qubits=MAX_BIG_QUBITS))
@settings(max_examples=10 * FUZZ_SCALE, deadline=None)
def test_big_sc_pauli_propagation_fuzz(program):
    check_big_sc_case(program)


# ----------------------------------------------------------------------
# Regression corpus replay
# ----------------------------------------------------------------------

def _corpus_cases():
    cases = []
    if CORPUS.exists():
        for line in CORPUS.read_text().splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                cases.append(json.loads(line))
    return cases


_CHECKS = {
    "ft": check_ft_case,
    "sc": check_sc_case,
    "reference": check_reference_engine_case,
}


@pytest.mark.parametrize(
    "case", _corpus_cases(),
    ids=lambda case: case.get("id", "case"),
)
def test_regression_corpus(case):
    program = program_from_dict(case["program"])
    _CHECKS[case["backend"]](program)


@pytest.mark.parametrize(
    "case", _corpus_cases(),
    ids=lambda case: case.get("id", "case"),
)
def test_regression_corpus_through_pauli_propagation(case):
    """Replay every committed falsifier through the new oracle as well."""
    program = program_from_dict(case["program"])
    result = compile_program(program, backend="ft")
    verify_result(program, result).raise_if_failed()
    if case["backend"] == "sc":
        sc = compile_program(
            program, backend="sc", coupling=linear(program.num_qubits)
        )
        verify_result(program, sc).raise_if_failed()


@given(pauli_programs())
@settings(max_examples=20, deadline=None)
def test_corpus_format_round_trips_the_generator(program):
    """The corpus format must express anything the generator can emit."""
    assert program_from_dict(program_to_dict(program)).multiset_of_terms() == \
        program.multiset_of_terms()
