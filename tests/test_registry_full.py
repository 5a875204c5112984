"""Every registered benchmark must build and compile at small scale.

The broadest smoke test in the suite: all 31 Table 1 entries go through
their backend's Paulihedral flow end to end (small instances), checking
that no generator/compiler combination is broken.
"""

import pytest

from repro.core import compile_program
from repro.static import check_program
from repro.workloads import BENCHMARKS
from repro.transpile import manhattan_65

_SC_COUPLING = manhattan_65()


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_benchmark_builds_and_compiles(name):
    spec = BENCHMARKS[name]
    program = spec.build("small")
    assert program.num_strings > 0
    assert check_program(program).ok, name

    if spec.backend == "sc":
        result = compile_program(program, backend="sc", coupling=_SC_COUPLING)
    else:
        result = compile_program(program, backend="ft")
    metrics = result.metrics
    assert metrics["total"] > 0
    assert metrics["depth"] > 0
    assert metrics["cnot"] >= 0


@pytest.mark.parametrize("name", ["UCCSD-8", "REG-20-4", "Ising-1D", "Heisen-1D"])
def test_compile_program_restarts_path(name):
    spec = BENCHMARKS[name]
    program = spec.build("small")
    if spec.backend != "sc":
        pytest.skip("restarts only affect the SC backend")
    one = compile_program(program, backend="sc", coupling=_SC_COUPLING, restarts=1)
    many = compile_program(program, backend="sc", coupling=_SC_COUPLING, restarts=4)
    assert many.metrics["cnot"] <= one.metrics["cnot"]
