"""Golden digests of the TK baseline and the measurement planner.

Both consumers of the Clifford tableau in ``repro.baselines.tableau`` are
hashed in the format of ``test_sc_golden.py``: :func:`tk_compile`'s gate
list with float parameters in hex, and per :func:`measurement_plans` plan
its diagonalizing circuit plus its ``(weight, sign, bitmask)`` masks.  The
SHA-256 of each case is committed in ``tests/corpora/tk_golden.jsonl``, so
a rewrite of the tableau must reproduce the historical output byte for
byte: same pivots, same CNOT fan-ins, same sign fixes.

The programs are Table 2's four (Ising-1D, Heisen-1D, UCCSD-8, REG-20-4)
at both scales (UCCSD-8 has one), and N2 at paper scale.

Regenerate the corpus only when an output change is intended::

    PYTHONPATH=src python tests/test_tk_golden.py --write
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.baselines import tk_compile
from repro.ir import PauliProgram
from repro.measure import measurement_plans
from repro.workloads import build_benchmark

from test_sc_golden import _gates, _sha

CORPUS = Path(__file__).parent / "corpora" / "tk_golden.jsonl"

#: UCCSD-8 has one size: its small instance is the paper one.
_PROGRAMS: Tuple[Tuple[str, str], ...] = tuple(
    (name, scale)
    for name in ("Ising-1D", "Heisen-1D", "REG-20-4")
    for scale in ("small", "paper")
) + (("UCCSD-8", "paper"), ("N2", "paper"))


@functools.lru_cache(maxsize=None)
def _program(name: str, scale: str) -> PauliProgram:
    return build_benchmark(name, scale)


def tk_digest(program: PauliProgram) -> str:
    return _sha({"gates": _gates(tk_compile(program).circuit)})


def measure_digest(program: PauliProgram) -> str:
    terms = [(ws.string, ws.weight * parameter)
             for ws, parameter in program.all_weighted_strings()]
    plans = measurement_plans(terms, program.num_qubits)
    return _sha([
        {"gates": _gates(plan.circuit),
         "masks": [[float(weight).hex(), sign, mask]
                   for weight, sign, mask in plan.masks]}
        for plan in plans
    ])


CASES: Dict[str, Tuple] = {}
for _name, _scale in _PROGRAMS:
    CASES[f"tk/{_name}/{_scale}"] = (tk_digest, _name, _scale)
    CASES[f"measure/{_name}/{_scale}"] = (measure_digest, _name, _scale)


def run_case(key: str) -> str:
    digest, name, scale = CASES[key]
    return digest(_program(name, scale))


def load_corpus() -> Dict[str, str]:
    with CORPUS.open() as handle:
        entries = [json.loads(line) for line in handle if line.strip()]
    return {entry["id"]: entry["sha256"] for entry in entries}


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return load_corpus()


def test_corpus_covers_every_case(golden):
    assert set(golden) == set(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_tk_matches_golden(key, golden):
    assert run_case(key) == golden[key]


def main(argv: List[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    with CORPUS.open("w") as handle:
        for key in sorted(CASES):
            handle.write(json.dumps({"id": key, "sha256": run_case(key)}) + "\n")
    print(f"wrote {len(CASES)} digests to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
