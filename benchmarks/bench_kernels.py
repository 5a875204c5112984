"""Micro-benchmark: the repository's rewritten kernels vs their seed code.

Two families, both on the paper-scale UCCSD-8 and REG-20-4 workloads:

* **Pauli kernels** — the shipped ``do_schedule`` / ``most_overlap_sort``
  (packed :class:`~repro.pauli.symplectic.PauliTable`, cached
  :class:`~repro.ir.BlockView` masks) against faithful copies of the
  original per-byte scalar implementations;
* **transpile stages** — the tape-based worklist ``optimize`` and the
  incremental SABRE ``route`` (plus the full level-3
  optimize/route/re-optimize composition) against the seed
  rebuild-the-world implementations kept in ``tests/oracles/transpile.py``.

Output equality/equivalence is asserted before timing, and the
pairwise-consistent junction planner is checked for CNOT non-regression
against the legacy one-sided planner on the Table 2 FT configurations.

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # CI gate

``--out FILE`` dumps every timing row as JSON (CI uploads it as an
artifact); ``--baseline FILE`` additionally fails if any kernel runs more
than 2x slower than the committed baseline timings.

Exit status is non-zero when the smoke thresholds fail, so CI can use it
as a perf sanity check.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.circuit.statevector import equivalent_up_to_global_phase, simulate
from repro.core import ft_compile
from repro.core.ft_backend import most_overlap_sort
from repro.core.scheduling import do_schedule
from repro.ir import PauliProgram
from repro.pauli import PauliString
from repro.transpile import manhattan_65, optimize, route
from repro.workloads import build_benchmark

# The scalar oracles live in tests/oracles/, shared with the equivalence
# tests so the two cannot drift; put tests/ on the path the way
# tests/conftest.py does.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.scheduling import scalar_do_schedule, scalar_most_overlap_sort  # noqa: E402
from oracles.transpile import seed_optimize, seed_route  # noqa: E402

WORKLOADS = ("UCCSD-8", "REG-20-4")
TABLE2_FT = ("Ising-1D", "Ising-2D", "Heisen-1D", "Heisen-2D", "N2", "Rand-30")

#: Statevector equivalence is only asserted where it is cheap.
_EQUIV_MAX_QUBITS = 12


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` single-run time.

    The minimum is the standard robust microbenchmark estimator: a load
    spike can only inflate individual runs, never deflate them, so the
    minimum tracks the true cost while a mean smears scheduler noise into
    the speedup ratios (and the CI regression gate built on them).
    """
    fn()  # warm up caches and allocator
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def _schedule_signature(schedule) -> List[List[Tuple[str, ...]]]:
    return [
        [tuple(ws.string.label for ws in block) for block in layer]
        for layer in schedule
    ]


def _program_terms(program: PauliProgram) -> List[Tuple[PauliString, float]]:
    return [
        (ws.string, ws.weight * parameter)
        for ws, parameter in program.all_weighted_strings()
    ]


def bench_kernels(repeats: int) -> List[Dict]:
    rows = []
    for name in WORKLOADS:
        program = build_benchmark(name, "paper")
        terms = _program_terms(program)

        assert _schedule_signature(do_schedule(program)) == _schedule_signature(
            scalar_do_schedule(program)
        ), f"do_schedule output diverged from the scalar reference on {name}"
        assert [s.label for s, _ in most_overlap_sort(terms)] == [
            s.label for s, _ in scalar_most_overlap_sort(terms)
        ], f"most_overlap_sort output diverged from the scalar reference on {name}"

        scalar = _time(lambda: scalar_do_schedule(program), repeats)
        vector = _time(lambda: do_schedule(program), repeats)
        rows.append(
            {"workload": name, "kernel": "do_schedule",
             "scalar_ms": scalar * 1e3, "vector_ms": vector * 1e3,
             "speedup": scalar / vector}
        )
        scalar = _time(lambda: scalar_most_overlap_sort(terms), repeats)
        vector = _time(lambda: most_overlap_sort(terms), repeats)
        rows.append(
            {"workload": name, "kernel": "most_overlap_sort",
             "scalar_ms": scalar * 1e3, "vector_ms": vector * 1e3,
             "speedup": scalar / vector}
        )
    return rows


def _assert_optimize_equivalent(name: str, seed_out, tape_out) -> None:
    """The two optimizers only need to agree up to circuit equivalence."""
    assert len(seed_out) == len(tape_out), (
        f"optimize gate count diverged on {name}: "
        f"{len(seed_out)} vs {len(tape_out)}"
    )
    assert seed_out.count_ops() == tape_out.count_ops(), (
        f"optimize op counts diverged on {name}"
    )
    if seed_out.num_qubits <= _EQUIV_MAX_QUBITS:
        rng = np.random.default_rng(20260730)
        dim = 2 ** seed_out.num_qubits
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)
        assert equivalent_up_to_global_phase(
            simulate(seed_out, state), simulate(tape_out, state)
        ), f"optimize outputs not statevector-equivalent on {name}"


def bench_transpile(repeats: int) -> List[Dict]:
    """Time the level-3 transpile stages: worklist engine + incremental
    router vs the seed implementations, with equivalence asserted first."""
    coupling = manhattan_65()
    coupling.distance_matrix()  # exclude the one-time BFS from both sides
    rows = []
    for name in WORKLOADS:
        program = build_benchmark(name, "paper")
        emission = ft_compile(program, scheduler="do", run_peephole=False).circuit

        seed_opt = seed_optimize(emission)
        tape_opt = optimize(emission)
        _assert_optimize_equivalent(name, seed_opt, tape_opt)

        seed_routed, _, _, seed_swaps = seed_route(seed_opt, coupling)
        tape_result = route(seed_opt, coupling)
        assert list(seed_routed.gates) == list(tape_result.circuit.gates), (
            f"router output diverged from the seed router on {name}"
        )
        assert seed_swaps == tape_result.swap_count

        def seed_l3():
            out = seed_optimize(emission)
            routed, _, _, _ = seed_route(out, coupling)
            return seed_optimize(routed)

        def tape_l3():
            out = optimize(emission)
            routed = route(out, coupling).circuit
            return optimize(routed)

        # Both routers are timed on the same input (seed_opt, the circuit
        # whose routed output was asserted identical above) so the row is
        # a like-for-like ratio.  floor_scale softens the gate for the
        # routing-dominated rows, whose sub-ms seed timings are the
        # noisiest: the recorded full-run speedups (benchmarks/results/)
        # document the achieved >=5x on optimize+route, while the floor
        # only alarms on real regressions instead of timer jitter.
        stages = (
            ("optimize", lambda: seed_optimize(emission), lambda: optimize(emission), 1.0),
            ("route", lambda: seed_route(seed_opt, coupling),
             lambda: route(seed_opt, coupling), 0.6),
            ("optimize+route", seed_l3, tape_l3, 0.8),
        )
        for stage, seed_fn, tape_fn, floor_scale in stages:
            seed_ms = _time(seed_fn, repeats) * 1e3
            tape_ms = _time(tape_fn, repeats) * 1e3
            rows.append(
                {"workload": name, "kernel": stage,
                 "scalar_ms": seed_ms, "vector_ms": tape_ms,
                 "speedup": seed_ms / tape_ms, "floor_scale": floor_scale}
            )
    return rows


def check_junction_planner(names: Sequence[str]) -> List[Dict]:
    """Paired junction planning must never cost CNOTs vs the old one-sided
    rule on the Table 2 FT configurations (same schedule, same terms)."""
    rows = []
    for name in names:
        program = build_benchmark(name, "small")
        for scheduler in ("do", "gco"):
            paired = ft_compile(
                program, scheduler=scheduler, junction_policy="paired"
            ).circuit.cnot_count
            onesided = ft_compile(
                program, scheduler=scheduler, junction_policy="onesided"
            ).circuit.cnot_count
            rows.append(
                {"workload": name, "scheduler": scheduler,
                 "paired_cnot": paired, "onesided_cnot": onesided}
            )
            assert paired <= onesided, (
                f"paired planner regressed CNOTs on {name}/{scheduler}: "
                f"{paired} > {onesided}"
            )
    return rows


def _print_rows(title: str, old_label: str, new_label: str, rows: List[Dict]) -> None:
    print(title)
    print(f"{'workload':<12} {'kernel':<18} {old_label:>10} {new_label:>10} {'speedup':>8}")
    for row in rows:
        print(
            f"{row['workload']:<12} {row['kernel']:<18} "
            f"{row['scalar_ms']:>8.3f}ms {row['vector_ms']:>8.3f}ms "
            f"{row['speedup']:>7.1f}x"
        )
    print()


def check_baseline(rows: List[Dict], path: str) -> List[str]:
    """Fail any kernel that regressed >2x against the committed baseline.

    The comparison uses the seed-vs-new *speedup ratio*, which divides out
    the host machine's absolute speed (both sides run on the same box in
    the same process), so a slow or contended CI runner does not fail the
    gate and a fast one does not mask a real regression.  The committed
    baseline also records the absolute ms for human reference.
    """
    with open(path) as handle:
        baseline = json.load(handle)["kernels"]
    problems = []
    for row in rows:
        key = f"{row['workload']}/{row['kernel']}"
        recorded = baseline.get(key)
        if recorded is None:
            problems.append(f"{key}: no committed baseline entry")
        elif row["speedup"] < recorded["speedup"] / 2.0:
            problems.append(
                f"{key}: speedup {row['speedup']:.1f}x fell below half the "
                f"committed baseline {recorded['speedup']:.1f}x"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast CI mode: fewer repeats, a 2x speedup floor, and the "
             "junction check on two benchmarks",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--out", default=None,
        help="write all timing rows to this JSON file (CI artifact)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="fail if any kernel is >2x slower than this committed "
             "baseline JSON (see benchmarks/results/)",
    )
    args = parser.parse_args(argv)

    repeats = args.repeats or (10 if args.smoke else 50)
    floor = 2.0 if args.smoke else 5.0

    rows = bench_kernels(repeats)
    _print_rows("Pauli kernels (seed scalar vs vectorized)",
                "scalar", "vectorized", rows)

    transpile_rows = bench_transpile(max(3, repeats // 2))
    _print_rows("Transpile stages (seed sweeps vs tape worklist/router)",
                "seed", "tape", transpile_rows)
    rows = rows + transpile_rows

    junction_names = TABLE2_FT[:2] if args.smoke else TABLE2_FT
    junction_rows = check_junction_planner(junction_names)
    print(f"{'workload':<12} {'scheduler':<10} {'paired cx':>10} {'one-sided cx':>13}")
    for row in junction_rows:
        print(
            f"{row['workload']:<12} {row['scheduler']:<10} "
            f"{row['paired_cnot']:>10} {row['onesided_cnot']:>13}"
        )

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {"mode": "smoke" if args.smoke else "full",
                 "repeats": repeats,
                 "rows": rows,
                 "junction": junction_rows},
                handle, indent=2,
            )
        print(f"\nwrote timings to {args.out}")

    failed = False
    for row in rows:
        row_floor = floor * row.get("floor_scale", 1.0)
        if row["speedup"] < row_floor:
            print(
                f"FAIL: {row['workload']}/{row['kernel']} speedup "
                f"{row['speedup']:.1f}x below the {row_floor:.1f}x floor",
                file=sys.stderr,
            )
            failed = True
    if args.baseline:
        for problem in check_baseline(rows, args.baseline):
            print(f"FAIL: {problem}", file=sys.stderr)
            failed = True
    if failed:
        return 1
    print(f"\nall kernels >= their speedup floors (base {floor:.0f}x); "
          f"junction planner never regressed CNOTs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
