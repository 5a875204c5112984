"""Golden digests of the SC backend and the reliability router.

Every case compiles one program through :func:`repro.core.sc_compile` (or
routes one circuit through :func:`repro.transpile.route`) and hashes the
exact output: the gate list with float parameters in hex, the initial and
final layouts, and the emitted ``(string, coefficient)`` terms.  The
SHA-256 of each case is committed in ``tests/corpora/sc_golden.jsonl``, so
a refactor of the coupling core, the gather kernels or the router must
reproduce the historical output byte for byte — same SWAPs, same trees,
same tie-breaks.

The grid covers linear, ring, grid, melbourne-15, falcon-27 and
manhattan-65 couplings; the do, gco, none and do-stream schedulers;
peephole levels 0 to 3; uncalibrated and calibrated runs; ``restarts=3``;
and parallel-block deferral.  The router half digests
:func:`repro.transpile.reliability_cost_matrix` (exact floats),
``route(edge_error=...)`` on the ``benchmarks/bench_devices.py`` device x
workload combinations, and the generic :func:`repro.transpile.transpile`
sequence at levels 0 to 3 on all-to-all, falcon-27 and calibrated
falcon-27 targets (FT-synthesized UCCSD-8 input, plus a seeded gate mix
on which every level's output differs).

Regenerate the corpus only when an output change is intended::

    PYTHONPATH=src python tests/test_sc_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.gates import OP_ROTATION, OPCODES
from repro.circuit.tape import NO_SLOT
from repro.core import ft_compile, sc_compile
from repro.ir import PauliBlock, PauliProgram
from repro.noise import NoiseModel
from repro.transpile import (
    falcon_27,
    get_device,
    grid,
    linear,
    manhattan_65,
    melbourne,
    reliability_cost_matrix,
    ring,
    route,
    transpile,
)
from repro.workloads import maxcut_program, regular_graph, uccsd_program
from repro.workloads.random_hamiltonian import random_hamiltonian_program

CORPUS = Path(__file__).parent / "corpora" / "sc_golden.jsonl"


# ----------------------------------------------------------------------
# Canonical digests
# ----------------------------------------------------------------------

def _sha(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _gates(circuit) -> List:
    """``[name, qubits, hex params]`` per gate, read off the tape columns
    (the same rows ``circuit.gates`` would give, without building them)."""
    tape = circuit.tape
    op, q0, q1, param = tape.op, tape.q0, tape.q1, tape.param
    return [[OPCODES[op[s]], [q0[s]] if q1[s] == NO_SLOT else [q0[s], q1[s]],
             [float(param[s]).hex()] if op[s] in OP_ROTATION else []]
            for s in tape.iter_slots()]


def _layout(layout) -> Optional[List]:
    return None if layout is None else sorted(layout.as_dict().items())


def sc_digest(result) -> str:
    return _sha({
        "gates": _gates(result.circuit),
        "initial": _layout(result.initial_layout),
        "final": _layout(result.final_layout),
        "terms": [[s.label, float(c).hex()] for s, c in result.emitted_terms],
    })


def route_digest(result) -> str:
    return _sha({
        "gates": _gates(result.circuit),
        "initial": _layout(result.initial_layout),
        "final": _layout(result.final_layout),
        "swaps": result.swap_count,
    })


def matrix_digest(matrix) -> str:
    return _sha(None if matrix is None
                else [[float(x).hex() for x in row] for row in matrix])


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------

def _rand(n: int, strings: int, seed: int = 2022) -> Callable[[], PauliProgram]:
    return lambda: random_hamiltonian_program(
        n, num_strings=strings, seed=seed, name=f"Rand-{n}")


def _reg(n: int, d: int) -> Callable[[], PauliProgram]:
    return lambda: maxcut_program(regular_graph(n, d, seed=3), name=f"REG-{n}-{d}")


def _deferral() -> PauliProgram:
    # The primary block spans the whole line, so the small blocks of its
    # layer cannot run in parallel and go to the remain pool.
    return PauliProgram([
        PauliBlock(["ZZZZII", "ZZZIII"], 0.7),
        PauliBlock(["XIIIIX"], 0.3),
        PauliBlock(["IYIIYI"], 0.2),
        PauliBlock(["IIXXII"], 0.4),
    ])


_COUPLINGS: Dict[str, Callable] = {
    "linear-6": lambda: linear(6),
    "linear-8": lambda: linear(8),
    "ring-8": lambda: ring(8),
    "grid-3x3": lambda: grid(3, 3),
    "grid-3x4": lambda: grid(3, 4),
    "melbourne-15": melbourne,
    "falcon-27": falcon_27,
    "manhattan-65": manhattan_65,
}

_PROGRAMS: Dict[str, Callable[[], PauliProgram]] = {
    "UCCSD-4s": lambda: uccsd_program(4, include_singles=True),
    "UCCSD-8": lambda: uccsd_program(8),
    "REG-8-3": _reg(8, 3),
    "REG-12-4": _reg(12, 4),
    "Rand-6": _rand(6, 30),
    "Rand-8": _rand(8, 40),
    "Rand-9": _rand(9, 40, seed=7),
    "Rand-12": _rand(12, 60),
    "Rand-20": _rand(20, 80),
    "deferral": _deferral,
}


def _sc_cases() -> Dict[str, Dict]:
    cases: Dict[str, Dict] = {}

    def add(coupling, program, scheduler="do", level=None, calibrated=False,
            restarts=1):
        opt = "-full" if level is None else level
        cal = "cal" if calibrated else "plain"
        cases[f"sc/{coupling}/{program}/{scheduler}/opt{opt}/{cal}/r{restarts}"] = dict(
            coupling=coupling, program=program, scheduler=scheduler,
            level=level, calibrated=calibrated, restarts=restarts)

    # Schedulers x small topologies (dense actives: component walks over
    # the node range rather than the kept set).
    for coupling in ("linear-6", "ring-8", "grid-3x3"):
        program = "Rand-6" if coupling == "linear-6" else "Rand-8"
        for scheduler in ("do", "gco", "none", "do-stream"):
            add(coupling, program, scheduler)
        add(coupling, program, "do", calibrated=True)
    add("grid-3x3", "Rand-9", "gco", calibrated=True)
    add("linear-8", "UCCSD-8", "do")
    add("linear-8", "REG-8-3", "do", calibrated=True)
    add("grid-3x4", "REG-12-4", "do")
    add("grid-3x4", "REG-12-4", "gco", calibrated=True)
    # Peephole levels.
    for level in (0, 1, 2, 3):
        add("grid-3x4", "Rand-12", "do", level=level)
        add("falcon-27", "UCCSD-8", "do", level=level, calibrated=True)
    # The paper's devices, plain and calibrated.
    for coupling in ("melbourne-15", "falcon-27", "manhattan-65"):
        for calibrated in (False, True):
            add(coupling, "UCCSD-8", "do", calibrated=calibrated)
            add(coupling, "REG-12-4", "do", calibrated=calibrated)
            add(coupling, "Rand-12", "gco", calibrated=calibrated)
    add("manhattan-65", "Rand-20", "do")
    add("manhattan-65", "Rand-20", "do-stream", calibrated=True)
    add("falcon-27", "UCCSD-4s", "none", calibrated=True)
    # Restarts (jittered placements).
    add("melbourne-15", "UCCSD-8", "do", restarts=3)
    add("falcon-27", "Rand-12", "do", calibrated=True, restarts=3)
    # Parallel-block deferral to the remain pool.
    add("linear-6", "deferral", "do")
    add("linear-6", "deferral", "gco", calibrated=True)
    return cases


SC_CASES = _sc_cases()

#: The ``benchmarks/bench_devices.py`` combinations (headline + extra).
ROUTE_DEVICES = ("melbourne-15", "falcon-27", "manhattan-65", "sycamore-30",
                 "grid-4x4")
ROUTE_WORKLOADS: Dict[str, Callable[[], PauliProgram]] = {
    "UCCSD-8": lambda: uccsd_program(8),
    "REG-12-4": _reg(12, 4),
}


def _edge_error(coupling_name: str, coupling):
    """The device calibration for registry names, a seeded calibration
    otherwise."""
    try:
        return get_device(coupling_name).edge_error()
    except ValueError:
        return NoiseModel.calibrated(coupling, seed=5).edge_error_map()


def run_sc_case(spec: Dict) -> str:
    coupling = _COUPLINGS[spec["coupling"]]()
    edge_error = (_edge_error(spec["coupling"], coupling)
                  if spec["calibrated"] else None)
    result = sc_compile(
        _PROGRAMS[spec["program"]](), coupling, scheduler=spec["scheduler"],
        edge_error=edge_error, restarts=spec["restarts"],
        peephole_level=spec["level"],
    )
    return sc_digest(result)


def _route_cases() -> Dict[str, Tuple[str, Optional[str]]]:
    cases: Dict[str, Tuple[str, Optional[str]]] = {}
    for device in ROUTE_DEVICES:
        cases[f"cost/{device}"] = (device, None)
        for workload in ROUTE_WORKLOADS:
            cases[f"route/{device}/{workload}"] = (device, workload)
    return cases


ROUTE_CASES = _route_cases()


def run_route_case(device_name: str, workload: Optional[str]) -> str:
    device = get_device(device_name)
    if workload is None:
        return matrix_digest(
            reliability_cost_matrix(device.coupling, device.edge_error()))
    circuit = ft_compile(ROUTE_WORKLOADS[workload](), scheduler="gco").circuit
    return route_digest(
        route(circuit, device.coupling, edge_error=device.edge_error()))


#: ``transpile()`` targets: ``(device, calibrated)``; ``None`` is all-to-all.
TRANSPILE_TARGETS: Dict[str, Tuple[Optional[str], bool]] = {
    "alltoall": (None, False),
    "falcon-27": ("falcon-27", False),
    "falcon-27-cal": ("falcon-27", True),
}


def _mixed_circuit(n: int = 8, size: int = 600, seed: int = 11) -> QuantumCircuit:
    """A seeded gate soup on which every transpile level gives a
    different output (commuting CNOT pairs for level 2, SWAP/CNOT pairs
    for level 3), unlike FT-synthesized input."""
    rng = random.Random(seed)
    circuit = QuantumCircuit(n)
    for _ in range(size):
        kind = rng.random()
        if kind < 0.35:
            circuit.cx(*rng.sample(range(n), 2))
        elif kind < 0.45:
            circuit.swap(*rng.sample(range(n), 2))
        elif kind < 0.7:
            circuit.rz(rng.choice([0.5, -0.5, 0.25, 1.0]), rng.randrange(n))
        elif kind < 0.85:
            circuit.h(rng.randrange(n))
        else:
            circuit.x(rng.randrange(n))
    return circuit


TRANSPILE_INPUTS: Dict[str, Callable[[], QuantumCircuit]] = {
    "UCCSD-8": lambda: ft_compile(uccsd_program(8), scheduler="gco",
                                  run_peephole=False).circuit,
    "mixed-8": _mixed_circuit,
}
TRANSPILE_CASES = {
    f"transpile/{target}/{name}/opt{level}": (target, name, level)
    for target in TRANSPILE_TARGETS for name in TRANSPILE_INPUTS
    for level in range(4)
}


def run_transpile_case(target: str, name: str, level: int) -> str:
    device_name, calibrated = TRANSPILE_TARGETS[target]
    device = get_device(device_name) if device_name else None
    out = transpile(
        TRANSPILE_INPUTS[name](), coupling=device.coupling if device else None,
        optimization_level=level,
        edge_error=device.edge_error() if calibrated else None,
    )
    return _sha({"gates": _gates(out)})


def compute_all() -> Dict[str, str]:
    digests = {key: run_sc_case(spec) for key, spec in SC_CASES.items()}
    digests.update(
        {key: run_route_case(*args) for key, args in ROUTE_CASES.items()})
    digests.update(
        {key: run_transpile_case(*args)
         for key, args in TRANSPILE_CASES.items()})
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
    assert set(golden) == set(SC_CASES) | set(ROUTE_CASES) | set(TRANSPILE_CASES)


@pytest.mark.parametrize("key", sorted(SC_CASES))
def test_sc_output_matches_golden(key, golden):
    assert run_sc_case(SC_CASES[key]) == golden[key]


@pytest.mark.parametrize("key", sorted(ROUTE_CASES))
def test_route_output_matches_golden(key, golden):
    assert run_route_case(*ROUTE_CASES[key]) == golden[key]


@pytest.mark.parametrize("key", sorted(TRANSPILE_CASES))
def test_transpile_output_matches_golden(key, golden):
    assert run_transpile_case(*TRANSPILE_CASES[key]) == golden[key]


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
