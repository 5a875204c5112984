"""Golden digests of the FT backend.

Every case compiles one program through :func:`repro.core.ft_compile` (or
synthesizes one term list through :func:`repro.core.ft_synthesize`) and
hashes the exact output in the format of ``test_sc_golden.py``: the gate
list with float parameters in hex, plus the emitted ``(string,
coefficient)`` terms.  The SHA-256 of each case is committed in
``tests/corpora/ft_golden.jsonl``, so a rewrite of the junction planner or
the gate emitter must reproduce the historical output byte for byte — same
chain orders, same tie-breaks, same peephole input.

The grid covers Ising-1D, Heisen-2D, UCCSD-8, REG-20-4, Rand-30 and N2 at
paper scale plus a 60-qubit, 2000-string ``scale_random_program``; the gco,
do, none, gco-stream and do-stream schedulers; the paired and one-sided
junction policies; and peephole levels 0 to 3 and the full fixpoint.  The
small programs run the whole cross product.  The large ones pin the raw
synthesis (level 0) under every scheduler and policy, and the cleanup
levels on a few combinations.  Direct ``ft_synthesize`` cases cover
identity strings inside the term list, single-qubit strings, repeated
adjacent strings, a nested-shared-set list where the one-sided predictor
beats the pairwise DP, and adjacent equal strings of opposite coefficient.
The same hand-made lists also compile through ``ft_compile`` at the
cleanup levels, one string per block under scheduler ``none`` so the list
order holds; the opposite-coefficient list makes rotation merge drop a
rotation and the cancellation cascade down both chains.

Regenerate the corpus only when an output change is intended::

    PYTHONPATH=src python tests/test_ft_golden.py --write
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

import pytest

from repro.core import ft_compile, ft_synthesize
from repro.ir import PauliBlock, PauliProgram
from repro.pauli import PauliString
from repro.workloads import build_benchmark
from repro.workloads.random_hamiltonian import scale_random_program

from test_sc_golden import _gates, _sha

CORPUS = Path(__file__).parent / "corpora" / "ft_golden.jsonl"

SCHEDULERS = ("gco", "do", "none", "gco-stream", "do-stream")
POLICIES = ("paired", "onesided")
LEVELS = (0, 1, 2, 3, None)


# ----------------------------------------------------------------------
# Canonical digests
# ----------------------------------------------------------------------

def ft_digest(result) -> str:
    return _sha({
        "gates": _gates(result.circuit),
        "terms": [[s.label, float(c).hex()] for s, c in result.emitted_terms],
    })


def circuit_digest(circuit) -> str:
    return _sha({"gates": _gates(circuit)})


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------

def _paper(name: str) -> Callable[[], PauliProgram]:
    return lambda: build_benchmark(name, "paper")


_PROGRAMS: Dict[str, Callable[[], PauliProgram]] = {
    "Ising-1D": _paper("Ising-1D"),
    "Heisen-2D": _paper("Heisen-2D"),
    "UCCSD-8": _paper("UCCSD-8"),
    "REG-20-4": _paper("REG-20-4"),
    "Rand-30": _paper("Rand-30"),
    "N2": _paper("N2"),
    "Scale-60q-2k": lambda: scale_random_program(60, 2000, seed=2022),
}

#: Programs small enough to run the whole scheduler x policy x level grid.
_SMALL = ("Ising-1D", "Heisen-2D", "UCCSD-8", "REG-20-4")


@functools.lru_cache(maxsize=None)
def _program(name: str) -> PauliProgram:
    if name.startswith(_LIST_PREFIX):
        return _list_program(_SYNTH_LISTS[name[len(_LIST_PREFIX):]])
    return _PROGRAMS[name]()


def _level_tag(level: Optional[int]) -> str:
    return "opt-full" if level is None else f"opt{level}"


def _compile_cases() -> Dict[str, Dict]:
    cases: Dict[str, Dict] = {}

    def add(program, scheduler, policy, level):
        key = f"ft/{program}/{scheduler}/{policy}/{_level_tag(level)}"
        cases[key] = dict(program=program, scheduler=scheduler,
                          policy=policy, level=level)

    for program in _PROGRAMS:
        for scheduler in SCHEDULERS:
            for policy in POLICIES:
                levels = LEVELS if program in _SMALL else (0,)
                for level in levels:
                    add(program, scheduler, policy, level)
    # The large programs' cleanup levels, on their default schedulers.
    for program, scheduler in (("Rand-30", "gco"),
                               ("Scale-60q-2k", "gco-stream")):
        for level in LEVELS[1:]:
            add(program, scheduler, "paired", level)
        add(program, scheduler, "onesided", None)
    add("Rand-30", "do", "paired", None)
    add("N2", "gco", "paired", None)
    # The hand-made term lists, in list order, at every cleanup level.
    for name in _SYNTH_LISTS:
        for policy in POLICIES:
            for level in LEVELS[1:]:
                add(_LIST_PREFIX + name, "none", policy, level)
    return cases


def _terms(labels: List[str], coefficient: float = 0.3):
    """Terms with coefficients 0.3, 0.6, ...; a label written ``-P``
    is ``P`` with the previous term's coefficient negated."""
    terms = []
    for k, label in enumerate(labels):
        if label.startswith("-"):
            terms.append((PauliString.from_label(label[1:]), -terms[-1][1]))
        else:
            terms.append((PauliString.from_label(label), coefficient * (k + 1)))
    return terms


def _list_program(labels: List[str]) -> PauliProgram:
    """One block per term, so scheduler ``none`` keeps the list order.

    An identity string joins the block before it (no list starts with
    one): a block of identity strings alone is an invalid program, and the
    flow drops identity strings when it flattens the schedule."""
    blocks: List[List] = []
    for term in _terms(labels):
        if term[0].is_identity:
            blocks[-1].append(term)
        else:
            blocks.append([term])
    return PauliProgram([PauliBlock(block) for block in blocks])


_SYNTH_LISTS: Dict[str, List[str]] = {
    "identity-inside": ["ZZIZ", "IIII", "ZZXZ", "IIII", "IIII", "XZXZ",
                        "IIII"],
    "single-qubit": ["IIIZ", "IIZI", "IIZI", "XIII", "IZZI", "IIIY",
                     "IIIY"],
    "repeated-adjacent": ["XXYZ", "XXYZ", "XXYZ", "ZZII", "ZZII", "XXYZ",
                          "IYYI", "IYYI"],
    # Nested shared sets: the one-sided plans cancel 8 CNOTs at the
    # junctions against the pairwise DP's 6, so the paired policy keeps
    # the one-sided set.
    "nested-onesided-wins": ["XIZZ", "ZZZZ", "ZZXZ", "ZZIZ"],
    "mixed-5q": ["ZXIXZ", "XZZZX", "XIIZZ", "XIZZZ", "ZXXZZ", "IIIII",
                 "YYIII"],
    # Equal neighbours of opposite coefficient: their rotations merge to
    # zero, the chains between the outer strings cancel down to the
    # leaves, and the outer equal strings then meet.
    "opposite-adjacent": ["ZXYZ", "XXYZ", "-XXYZ", "ZXYZ", "IYYX", "IYYX",
                          "-IYYX", "ZZIZ", "-ZZIZ"],
}

#: Program-name prefix of the hand-made term lists in ``COMPILE_CASES``.
_LIST_PREFIX = "list:"

COMPILE_CASES = _compile_cases()

SYNTH_CASES: Dict[str, Dict] = {
    f"synth/{name}/{policy}": dict(labels=labels, policy=policy)
    for name, labels in _SYNTH_LISTS.items()
    for policy in POLICIES
}


def run_compile_case(spec: Dict) -> str:
    result = ft_compile(
        _program(spec["program"]), scheduler=spec["scheduler"],
        junction_policy=spec["policy"],
        peephole_level=spec["level"],
    )
    return ft_digest(result)


def run_synth_case(spec: Dict) -> str:
    labels = spec["labels"]
    return circuit_digest(ft_synthesize(
        _terms(labels), len(labels[0]), junction_policy=spec["policy"]))


def compute_all() -> Dict[str, str]:
    digests = {key: run_compile_case(spec)
               for key, spec in COMPILE_CASES.items()}
    digests.update({key: run_synth_case(spec)
                    for key, spec in SYNTH_CASES.items()})
    return digests


def load_corpus() -> Dict[str, str]:
    with CORPUS.open() as handle:
        entries = [json.loads(line) for line in handle if line.strip()]
    return {entry["id"]: entry["sha256"] for entry in entries}


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return load_corpus()


def test_corpus_covers_every_case(golden):
    assert set(golden) == set(COMPILE_CASES) | set(SYNTH_CASES)


@pytest.mark.parametrize("key", sorted(COMPILE_CASES))
def test_ft_compile_matches_golden(key, golden):
    assert run_compile_case(COMPILE_CASES[key]) == golden[key]


@pytest.mark.parametrize("key", sorted(SYNTH_CASES))
def test_ft_synthesize_matches_golden(key, golden):
    assert run_synth_case(SYNTH_CASES[key]) == golden[key]


def main(argv: List[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    digests = compute_all()
    with CORPUS.open("w") as handle:
        for key in sorted(digests):
            handle.write(json.dumps({"id": key, "sha256": digests[key]}) + "\n")
    print(f"wrote {len(digests)} digests to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
