"""cProfile attribution for the scheduling/synthesis hot path.

The streaming-scheduler rewrite was driven by exactly this harness: profile
one stage at a time on a scale workload, read the top ``tottime`` rows, and
kill the per-candidate Python work they expose (the padding loop's 1.3M
``column_height`` visits were found here, not guessed).  Kept as a tool so
the next optimization round starts from measurement too.

Stages (``--stage all`` runs every one):

* ``build``     — generator -> :class:`~repro.ir.PauliProgram`;
* ``scan``      — the streaming scanner (compact keys + active lengths);
* ``gco``       — full ``gco-stream`` drain;
* ``do``        — full ``do-stream`` drain (frontier + padding loop);
* ``ft``        — end-to-end ``ft_compile`` (full peephole) via ``gco-stream``;
* ``verify``    — :func:`~repro.verify.verify_result` on the workload's
  ``compile_program(..., backend="ft", scheduler="gco-stream")`` result
  (the compile runs outside the profile); ``--qubits 100 --terms 10000``
  is the ScaleRand-100 shape;
* ``ft-synth``  — :func:`~repro.core.ft_synthesize` alone on the Rand-30
  paper terms (gco order), the compile-ft corpus's largest program;
* ``peephole``  — the full peephole fixpoint (``optimize()``) on that
  synthesized raw circuit;
* ``ft-flow``   — the level-3 FT flow's synthesize and peephole steps on
  the same terms, as ``compile_program`` runs them: the residue synthesis
  and the peephole started from its seeds.  Prints the raw and residue
  gate counts first, then how many long-range basis pairs the residue
  left out and its seams (gates whose wire successor belongs to another
  term) next to its seeds (the slots where a rule can fire);
* ``sc-flow``   — the level-3 SC flow's schedule, synthesize and peephole
  steps, as ``compile_program`` runs them, on compile-sc's UCCSD-12, N2
  (small scale) and Rand-30 (200 strings, seed 2022) on manhattan-65: the
  DO schedule, the columnar emission and the peephole started from its
  seeds.  Prints each emission's gates, distinct CNOT trees against its
  multi-qubit strings, and seeds first;
* ``tk``        — the TK baseline (:func:`~repro.baselines.tk_compile`:
  commuting-set partition plus the int bit-column tableau) on the N2
  paper program.

``ft-synth``, ``peephole``, ``ft-flow``, ``sc-flow`` and ``tk`` ignore
``--qubits``/``--terms``.

Run::

    PYTHONPATH=src python tools/profile_kernels.py --stage do \\
        --qubits 200 --terms 100000
    PYTHONPATH=src python tools/profile_kernels.py --stage all --limit 15
    PYTHONPATH=src python tools/profile_kernels.py --stage ft \\
        --dump ft.pstats       # then e.g. snakeviz ft.pstats elsewhere
    PYTHONPATH=src python tools/profile_kernels.py --stage peephole
    PYTHONPATH=src python tools/profile_kernels.py --stage ft-flow
    PYTHONPATH=src python tools/profile_kernels.py --stage sc-flow
    PYTHONPATH=src python tools/profile_kernels.py --stage tk
    PYTHONPATH=src python tools/profile_kernels.py --stage verify \\
        --qubits 100 --terms 10000
"""

from __future__ import annotations

import argparse
import cProfile
import logging
import pstats
import sys
import time
from typing import Callable, Dict

from repro.baselines import tk_compile
from repro.core import (
    compile_program, ft_backend, ft_compile, ft_synthesize, sc_backend,
)
from repro.core.passes import pass_sequence, run_pipeline
from repro.core.scheduling import do_schedule, gco_schedule
from repro.core.streaming import scan_blocks, stream_schedule
from repro.ir import PauliProgram
from repro.transpile import manhattan_65, optimize
from repro.verify import verify_result
from repro.workloads import (
    build_benchmark, random_hamiltonian_program, scale_random_program,
)

#: Stages run on the Rand-30 paper program instead of the scale workload.
RAND30_STAGES = ("ft-synth", "peephole", "ft-flow")
#: Stages run on compile-sc programs instead of the scale workload.
SC_STAGES = ("sc-flow",)
#: Stages run on the N2 paper program instead of the scale workload.
N2_STAGES = ("tk",)


def _drain(layers) -> int:
    return sum(len(layer) for layer in layers)


def _verify_stage(program: PauliProgram) -> Callable[[], object]:
    """Compile now, outside the profile; return the verification to profile."""
    result = compile_program(program, backend="ft", scheduler="gco-stream")
    print(f"verify: {result.circuit.size} gates to verify")
    return lambda: verify_result(program, result)


def _stages(program: PauliProgram) -> Dict[str, Callable[[], object]]:
    return {
        "scan": lambda: scan_blocks(program),
        "gco": lambda: _drain(stream_schedule(program, "gco-stream")),
        "do": lambda: _drain(stream_schedule(program, "do-stream")),
        "ft": lambda: ft_compile(
            program, scheduler="gco-stream", run_peephole=True
        ),
    }


def _rand30_stages() -> Dict[str, Callable[[], object]]:
    program = build_benchmark("Rand-30", "paper")
    frontend = ft_compile(program, run_peephole=False)
    terms, raw = frontend.emitted_terms, frontend.circuit
    print(f"Rand-30: {len(terms)} terms, {raw.size} gates before peephole")
    # The residue emission reports its counts at DEBUG.
    logging.basicConfig(format="%(message)s")
    log = logging.getLogger(ft_backend.__name__)
    log.setLevel(logging.DEBUG)
    ft_backend._synthesize_residue(terms, program.num_qubits)
    log.setLevel(logging.NOTSET)
    # The stock level-3 flow after its schedule step, which runs once here.
    schedule = gco_schedule(program)
    flow = [lambda _: schedule, *pass_sequence("ft", "gco", 3)[1:]]
    return {
        "ft-synth": lambda: ft_synthesize(terms, program.num_qubits),
        "peephole": lambda: optimize(raw),
        "ft-flow": lambda: run_pipeline(flow, program),
    }


def _sc_stages() -> Dict[str, Callable[[], object]]:
    coupling = manhattan_65()
    programs = [build_benchmark("UCCSD-12", "paper"),
                build_benchmark("N2", "small"),
                random_hamiltonian_program(30, num_strings=200, seed=2022,
                                           name="Rand-30")]
    # The seeded emission reports its counts at DEBUG.
    logging.basicConfig(format="%(message)s")
    log = logging.getLogger(sc_backend.__name__)
    for program in programs:
        print(f"{program.name}: ", end="", flush=True)
        log.setLevel(logging.DEBUG)
        sc_backend.SCSynthesizer(coupling)._run(
            do_schedule(program), program.num_qubits, seeded=True)
        log.setLevel(logging.NOTSET)
    # The stock level-3 flow, its DO schedule step included.
    flow = pass_sequence("sc", "do", 3)
    return {"sc-flow": lambda: [run_pipeline(flow, program, coupling=coupling)
                                for program in programs]}


def _n2_stages() -> Dict[str, Callable[[], object]]:
    program = build_benchmark("N2", "paper")
    print(f"N2: {program.num_strings} strings on {program.num_qubits} qubits")
    return {"tk": lambda: tk_compile(program)}


def profile_stage(name: str, fn: Callable[[], object], sort: str,
                  limit: int, dump: str = None) -> None:
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    fn()
    profiler.disable()
    elapsed = time.perf_counter() - start
    print(f"\n=== {name}: {elapsed:.2f}s ===")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(sort).print_stats(limit)
    if dump:
        stats.dump_stats(dump)
        print(f"[pstats dumped to {dump}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qubits", type=int, default=100)
    parser.add_argument("--terms", type=int, default=20_000)
    parser.add_argument(
        "--stage", default="do",
        choices=["all", "build", "scan", "gco", "do", "ft", "verify",
                 *RAND30_STAGES, *SC_STAGES, *N2_STAGES],
    )
    parser.add_argument(
        "--sort", default="tottime",
        help="pstats sort key (tottime, cumulative, ncalls, ...)",
    )
    parser.add_argument("--limit", type=int, default=25,
                        help="rows of the stats table to print")
    parser.add_argument("--dump", default=None,
                        help="also dump raw pstats to this file")
    args = parser.parse_args(argv)

    if args.stage == "build":
        profile_stage(
            "build",
            lambda: scale_random_program(args.qubits, args.terms),
            args.sort, args.limit, args.dump,
        )
        return 0

    selected: Dict[str, Callable[[], object]] = {}
    program = None
    if args.stage not in RAND30_STAGES + SC_STAGES + N2_STAGES:
        program = scale_random_program(args.qubits, args.terms)
        print(f"workload: {program.num_blocks} blocks on "
              f"{program.num_qubits} qubits")
        selected.update(_stages(program))
        if args.stage in ("all", "verify"):
            selected["verify"] = _verify_stage(program)
    if args.stage == "all" or args.stage in RAND30_STAGES:
        selected.update(_rand30_stages())
    if args.stage == "all" or args.stage in SC_STAGES:
        selected.update(_sc_stages())
    if args.stage == "all" or args.stage in N2_STAGES:
        selected.update(_n2_stages())
    if args.stage != "all":
        selected = {args.stage: selected[args.stage]}
    for name, fn in selected.items():
        if program is not None:
            program.release_views()  # profile from a cold program every time
        profile_stage(name, fn, args.sort, args.limit,
                      args.dump if len(selected) == 1 else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
