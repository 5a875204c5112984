"""The in-process compile workloads: ``compile-sc`` and ``compile-ft``.

Closed loop, one compile at a time: each pass compiles every corpus
program once through ``compile_program`` (no cache, no verify), in an
order shuffled by the seed.  The reference loop of
:func:`common.reference_seconds` runs before the first compile and after
every compile, and each compile's time is taken at reference speed: scaled
by ``REFERENCE_MS`` over the mean of the loops on either side of it.  A
pass (``latency_ms``) is the sum over programs of each program's median
compile at reference speed, which does not move with the host's
minutes-long slow phases the way measured milliseconds do.  The measured
pass in seconds (fastest and median) is in the report line.

Once per run, outside the timed passes, the correctness gate checks every
output: Pauli-propagation verification, a statevector comparison for
outputs on at most 12 qubits, identical gate counts on every pass, and
(on compile-ft) the paper's Table 2 row for Ising-1D.

The traced run calls the layers' public functions step by step, records
a span around each call, and checks that the result is gate-for-gate the
circuit ``compile_program`` produces.
"""

from __future__ import annotations

import math
import random
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from common import (REFERENCE_MS, WORK, Tracer, median, own_peak_rss_mb,
                    patched, reference_seconds)

from repro.circuit import Gate, QuantumCircuit
from repro.circuit.statevector import equivalent_up_to_global_phase, simulate
from repro.core import compile_program
from repro.core import ft_backend
from repro.core.compiler import CompilationResult, resolve_target
from repro.core.scheduling import do_schedule, gco_schedule
from repro.core.sc_backend import SCSynthesizer
from repro.core.streaming import is_streaming_scheduler, stream_schedule
from repro.service.artifact import dumps_artifact, loads_artifact
from repro.service.cache import CompileCache
from repro.service.fingerprint import canonical_options, compile_fingerprint
from repro.transpile import manhattan_65, optimize, transpile
from repro.verify import verify_result
from repro.workloads import build_benchmark
from repro.workloads.random_hamiltonian import (
    random_hamiltonian_program,
    scale_random_program,
)

#: Largest output (qubits it touches) still checked against a statevector.
STATEVECTOR_QUBITS = 12
#: Ising-1D (paper scale) under the ph+qiskit_l3 configuration of Table 2:
#: CNOT / single-qubit / total / depth, as the paper prints them.
ISING_1D_TABLE2 = (58, 29, 87, 6)


@dataclass
class Job:
    """One corpus program with the options it is compiled under."""

    label: str
    backend: str
    build: Callable[[int], object]
    scheduler: Optional[str] = None
    device: Optional[str] = None
    coupling: Optional[str] = None

    def __post_init__(self):
        self.program = None
        self.resolved_scheduler = self.scheduler or (
            "gco" if self.backend == "ft" else "do")

    def setup(self, seed: int) -> None:
        self.program = self.build(seed)
        coupling = manhattan_65() if self.coupling == "manhattan_65" else None
        (self.coupling_map, self.edge_error, self.noise_model,
         self.device_name) = resolve_target(coupling=coupling,
                                            device=self.device)

    def compile(self) -> CompilationResult:
        return compile_program(
            self.program, backend=self.backend, scheduler=self.scheduler,
            coupling=None if self.device else self.coupling_map,
            device=self.device,
        )


def _registry(name: str, scale: str) -> Callable[[int], object]:
    return lambda seed: build_benchmark(name, scale)


def _rand(n: int, strings: Optional[int] = None) -> Callable[[int], object]:
    return lambda seed: random_hamiltonian_program(
        n, num_strings=strings, seed=seed, name=f"Rand-{n}")


def corpus(workload: str, tiny: bool) -> List[Job]:
    """The programs of one compile workload; seed-drawn ones are built in
    :meth:`Job.setup`.  Seed 2022 reproduces the registry programs."""
    m65 = "manhattan_65"
    if workload == "compile-sc" and tiny:
        return [
            Job("UCCSD-8", "sc", _registry("UCCSD-8", "small"), device="falcon-27"),
            Job("REG-20-4", "sc", _registry("REG-20-4", "small"), coupling=m65),
            Job("Rand-8", "sc", _rand(8, 24), coupling=m65),
        ]
    if workload == "compile-sc":
        return [
            Job("UCCSD-8", "sc", _registry("UCCSD-8", "paper"), device="falcon-27"),
            Job("UCCSD-12", "sc", _registry("UCCSD-12", "paper"), coupling=m65),
            Job("REG-20-4", "sc", _registry("REG-20-4", "paper"), coupling=m65),
            Job("N2", "sc", _registry("N2", "small"), coupling=m65),
            Job("Rand-30", "sc", _rand(30, 200), coupling=m65),
        ]
    if tiny:
        return [
            Job("Ising-1D", "ft", _registry("Ising-1D", "paper")),
            Job("Heisen-1D", "ft", _registry("Heisen-1D", "small")),
            Job("Rand-10", "ft", _rand(10, 40)),
        ]
    return [
        Job("Ising-1D", "ft", _registry("Ising-1D", "paper")),
        Job("Heisen-2D", "ft", _registry("Heisen-2D", "paper")),
        Job("N2", "ft", _registry("N2", "paper")),
        Job("Rand-30", "ft", _rand(30)),
        Job("ScaleRand-100", "ft",
            lambda seed: scale_random_program(100, 10_000, seed=seed,
                                              name="ScaleRand-100"),
            scheduler="gco-stream"),
    ]


def setup(workload: str, seed: int, tiny: bool) -> List[Job]:
    jobs = corpus(workload, tiny)
    for job in jobs:
        job.setup(seed)
    return jobs


def setup_probe(workload: str, seed: int, seconds: float, tiny: bool,
                tag: str) -> float:
    """Set the workload up; returns when set-up ended."""
    setup(workload, seed, tiny)
    return time.perf_counter()


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------

def _counts(result: CompilationResult):
    m = result.metrics
    return (m["cnot"], m["total"], m["depth"])


def timed_passes(jobs: List[Job], seed: int, seconds: float):
    """Compile the corpus pass after pass until ``seconds`` are used up.

    Returns per-program compile times in seconds, measured and at
    reference speed, every reference loop's time, the last pass's
    results, and the set of distinct gate counts seen per program (more
    than one means the compiler was not deterministic).
    """
    rng = random.Random(seed)
    times: Dict[str, List[float]] = {job.label: [] for job in jobs}
    scaled: Dict[str, List[float]] = {job.label: [] for job in jobs}
    results: Dict[str, CompilationResult] = {}
    seen: Dict[str, set] = {job.label: set() for job in jobs}
    start = time.perf_counter()
    references = [reference_seconds()]
    while True:
        order = list(jobs)
        rng.shuffle(order)
        pass_start = time.perf_counter()
        for job in order:
            t0 = time.perf_counter()
            result = job.compile()
            elapsed = time.perf_counter() - t0
            references.append(reference_seconds())
            times[job.label].append(elapsed)
            scaled[job.label].append(
                elapsed * 2e-3 * REFERENCE_MS
                / (references[-2] + references[-1]))
            results[job.label] = result
            seen[job.label].add(_counts(result))
        now = time.perf_counter()
        if now + (now - pass_start) > start + seconds:
            break
    return times, scaled, references, results, seen


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------

def _pauli_apply(state: np.ndarray, label: str) -> np.ndarray:
    """``P |state>`` for a Pauli label (rightmost character on qubit 0)."""
    n = len(label)
    x_mask = z_mask = 0
    y_count = 0
    for q in range(n):
        ch = label[n - 1 - q]
        if ch in "XY":
            x_mask |= 1 << q
        if ch in "YZ":
            z_mask |= 1 << q
        y_count += ch == "Y"
    index = np.arange(state.size)
    signs = 1 - 2 * (np.bitwise_count(index & z_mask) & 1).astype(np.int64)
    out = np.empty_like(state)
    out[index ^ x_mask] = (1j ** y_count) * signs * state
    return out


def _evolve(state: np.ndarray, terms) -> np.ndarray:
    """``prod_k exp(i c_k P_k) |state>``, first term applied first."""
    for string, coefficient in terms:
        state = (math.cos(coefficient) * state
                 + 1j * math.sin(coefficient) * _pauli_apply(state, string.label))
    return state


def _embed(state: np.ndarray, positions: List[int], width: int) -> np.ndarray:
    """Place logical qubit ``q`` of ``state`` at ``positions[q]`` of a
    ``width``-qubit register whose other qubits are |0>."""
    index = np.arange(state.size)
    target = np.zeros(state.size, dtype=np.int64)
    for q, pos in enumerate(positions):
        target |= ((index >> q) & 1) << pos
    out = np.zeros(2 ** width, dtype=complex)
    out[target] = state
    return out


def statevector_check(program, result: CompilationResult,
                      rng: np.random.Generator) -> Optional[bool]:
    """Compare the circuit against the exact product of its emitted terms
    on a random input state; ``None`` when it touches too many qubits."""
    n = program.num_qubits
    if result.initial_layout is None:
        before = after = list(range(n))
    else:
        before = [result.initial_layout.physical(q) for q in range(n)]
        after = [result.final_layout.physical(q) for q in range(n)]
    touched = {q for gate in result.circuit.gates for q in gate.qubits}
    touched |= set(before) | set(after)
    if len(touched) > STATEVECTOR_QUBITS:
        return None
    compact = {p: i for i, p in enumerate(sorted(touched))}
    width = len(compact)
    psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    psi /= np.linalg.norm(psi)
    actual = simulate(
        result.circuit.remap_qubits(compact, num_qubits=width),
        _embed(psi, [compact[p] for p in before], width))
    expected = _embed(_evolve(psi, result.emitted_terms),
                      [compact[p] for p in after], width)
    return equivalent_up_to_global_phase(actual, expected, atol=1e-6)


def ising_table2_row():
    """Ising-1D (paper) through the ph+qiskit_l3 configuration of Table 2:
    depth-oriented scheduling, FT synthesis, then the level-3 pipeline."""
    frontend = ft_backend.ft_compile(build_benchmark("Ising-1D", "paper"),
                                     scheduler="do", run_peephole=False)
    circuit = transpile(frontend.circuit, coupling=None, optimization_level=3)
    single = circuit.single_qubit_count
    return (circuit.cnot_count, single, circuit.cnot_count + single,
            circuit.depth())


def flip_one_rz(result: CompilationResult) -> None:
    """Fault injection for the benchmark's own tests: negate the first
    ``rz`` angle of a compiled circuit in place."""
    gates = list(result.circuit.gates)
    index = next(i for i, gate in enumerate(gates) if gate.name == "rz")
    gates[index] = Gate("rz", gates[index].qubits, (-gates[index].params[0],))
    result.circuit = QuantumCircuit(result.circuit.num_qubits).extend(gates)


def correctness_gate(jobs: List[Job], results: Dict[str, CompilationResult],
                     seen: Dict[str, set], workload: str,
                     seed: int) -> Dict:
    """Every check once per run; returns the failures and the verify time."""
    rng = np.random.default_rng(seed)
    failures: List[str] = []
    verify_seconds = 0.0
    statevector_checked = 0
    for job in jobs:
        result = results[job.label]
        if len(seen[job.label]) != 1:
            failures.append(f"{job.label}: gate counts differ between passes "
                            f"{sorted(seen[job.label])}")
        t0 = time.perf_counter()
        report = verify_result(job.program, result)
        verify_seconds += time.perf_counter() - t0
        if not report.ok:
            failures.append(f"{job.label}: verify_result failed: "
                            f"{report.mismatch}")
        state_ok = statevector_check(job.program, result, rng)
        if state_ok is not None:
            statevector_checked += 1
            if not state_ok:
                failures.append(f"{job.label}: statevector mismatch")
    if workload == "compile-ft":   # every compile-ft corpus holds Ising-1D
        row = ising_table2_row()
        if row != ISING_1D_TABLE2:
            failures.append(f"Ising-1D Table 2 row {row} != {ISING_1D_TABLE2}")
    return {"failures": failures, "verify_s": verify_seconds,
            "checks": len(jobs) * 2 + (workload == "compile-ft"),
            "statevector_checked": statevector_checked}


def _sums(results: Dict[str, CompilationResult]) -> Dict[str, float]:
    metrics = [r.metrics for r in results.values()]
    return {
        "cnot": sum(m["cnot"] for m in metrics),
        "gates": sum(m["total"] for m in metrics),
        "depth": sum(m["depth"] for m in metrics),
    }


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, tiny: bool,
        inject_fault: bool = False) -> Dict:
    jobs = setup(workload, seed, tiny)
    setup_done = time.perf_counter()
    times, scaled, references, results, seen = timed_passes(jobs, seed,
                                                            seconds)
    peak_rss = own_peak_rss_mb()
    if inject_fault:
        flip_one_rz(results[jobs[0].label])
    gate = correctness_gate(jobs, results, seen, workload, seed)
    best_s = sum(min(t) for t in times.values())
    passes = len(next(iter(times.values())))
    return {
        "setup_done": setup_done,
        "reference_s": median(references),
        "attempted": passes * len(jobs) + gate["checks"],
        "failures": gate["failures"],
        "metrics": {
            "latency_ms": 1e3 * sum(median(t) for t in scaled.values()),
            "peak_rss_mb": peak_rss,
            **_sums(results),
        },
        "report": {
            "compile_s": best_s,
            "compile_s.median_pass": sum(median(t) for t in times.values()),
            "verify_s": gate["verify_s"],
            "passes": passes,
            "statevector_checked": gate["statevector_checked"],
            "programs": {job.label: {
                "compile_ms": min(times[job.label]) * 1e3,
                "compile_ms.reference_speed": 1e3 * median(scaled[job.label]),
                **results[job.label].metrics,
            } for job in jobs},
        },
    }


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------

def _schedule_fn(tracer: Tracer, scheduler: str):
    def count_layers(record, schedule):
        # Materializing a streamed schedule keeps its work inside the span.
        schedule = [list(layer) for layer in schedule]
        record["layers"] = len(schedule)
        return schedule

    fn = (stream_schedule if is_streaming_scheduler(scheduler)
          else {"do": do_schedule, "gco": gco_schedule}[scheduler])
    return tracer.wrap(fn, "core.scheduling", count_layers)


def traced_compile(job: Job, tracer: Tracer) -> tuple:
    """The compile pipeline step by step; returns ``(result, gates before
    peephole)``."""
    program, scheduler = job.program, job.resolved_scheduler
    if job.backend == "sc":
        schedule = _schedule_fn(tracer, scheduler)(program)
        with tracer.span("core.sc_backend.synth") as record:
            synth = SCSynthesizer(
                job.coupling_map, job.edge_error,
                release_views=is_streaming_scheduler(scheduler),
            ).run(schedule, program.num_qubits)
            record["swaps"] = synth.circuit.count_ops().get("swap", 0)
        raw, terms = synth.circuit, synth.emitted_terms
        layouts = (synth.initial_layout, synth.final_layout)
    else:
        # Term flattening has no public entry point: time the smallest
        # public call containing it, with spans around the calls it makes
        # into the scheduler and the synthesizer; its self time is the
        # flattening.
        schedule_fn = _schedule_fn(tracer, scheduler)
        with patched(ft_backend,
                     gco_schedule=schedule_fn, do_schedule=schedule_fn,
                     stream_schedule=schedule_fn,
                     ft_synthesize=tracer.wrap(ft_backend.ft_synthesize,
                                               "core.ft_backend.synth")):
            with tracer.span("core.ft_backend.compile"):
                ft = ft_backend.ft_compile(program, scheduler=scheduler,
                                           run_peephole=False)
        raw, terms = ft.circuit, ft.emitted_terms
        layouts = (None, None)
    with tracer.span("transpile.peephole"):
        circuit = optimize(raw)
    result = CompilationResult(
        circuit=circuit, backend=job.backend, scheduler=scheduler,
        emitted_terms=terms, initial_layout=layouts[0],
        final_layout=layouts[1], device=job.device_name,
        pipeline=f"{job.backend}-{scheduler}-opt3",
    )
    return result, raw.size


def traced_pass(job: Job, tracer: Tracer, store: CompileCache,
                reference: CompilationResult, failures: List[str]) -> Dict:
    with tracer.span("compile", program=job.label):
        result, raw_size = traced_compile(job, tracer)
    with tracer.span("service.fingerprint", program=job.label):
        result.fingerprint = compile_fingerprint(job.program, canonical_options(
            backend=job.backend, scheduler=job.resolved_scheduler,
            coupling=job.coupling_map, edge_error=job.edge_error,
            noise_model=job.noise_model, device=job.device_name))
    with tracer.span("service.artifact.encode", program=job.label) as record:
        text = dumps_artifact(result)
        record["kb"] = len(text) / 1024.0
    with tracer.span("service.artifact.decode", program=job.label):
        loaded = loads_artifact(text)
    with tracer.span("service.cache.put", program=job.label):
        store.put(result.fingerprint, text)
    with tracer.span("service.cache.get_disk", program=job.label):
        stored = store.get_disk(result.fingerprint)
    with tracer.span("verify", program=job.label):
        report = verify_result(job.program, result)
    if result.circuit.gates != reference.circuit.gates:
        failures.append(f"{job.label}: traced pipeline is not gate-identical "
                        f"to compile_program")
    if loaded.circuit.gates != result.circuit.gates or stored != text:
        failures.append(f"{job.label}: artifact or cache round trip differs")
    if not report.ok:
        failures.append(f"{job.label}: verify_result failed on traced output")
    return {"raw": raw_size, "out": result.circuit.size,
            "kb": len(text) / 1024.0}


def run_traced(workload: str, seed: int, seconds: float, tiny: bool) -> Dict:
    t0 = time.perf_counter()
    jobs = setup(workload, seed, tiny)
    build_ms = (time.perf_counter() - t0) * 1e3
    setup_done = time.perf_counter()
    store_root = WORK / f"trace-store-{workload}-{seed}"
    shutil.rmtree(store_root, ignore_errors=True)
    store = CompileCache(store_root)
    tracer = Tracer()
    failures: List[str] = []
    untraced: Dict[str, List[float]] = {job.label: [] for job in jobs}
    results: Dict[str, CompilationResult] = {}
    counts: Dict[str, Dict] = {}
    rng = random.Random(seed)
    start = time.perf_counter()
    while True:
        # Alternate an untraced and a traced pass, so the tracing overhead
        # is measured under the same conditions.
        pass_start = time.perf_counter()
        order = list(jobs)
        rng.shuffle(order)
        for job in order:
            t = time.perf_counter()
            results[job.label] = job.compile()
            untraced[job.label].append(time.perf_counter() - t)
        for job in order:
            counts[job.label] = traced_pass(job, tracer, store,
                                            results[job.label], failures)
        now = time.perf_counter()
        if now + (now - pass_start) > start + seconds:
            break
    shutil.rmtree(store_root, ignore_errors=True)

    # Every span belongs to the program of its root span.
    program_of: Dict[int, str] = {}
    samples: Dict[tuple, List[float]] = {}
    self_samples: Dict[tuple, List[float]] = {}
    last: Dict[tuple, Dict] = {}
    for s in tracer.spans:
        label = s["program"] if s["parent"] is None else program_of[s["parent"]]
        program_of[s["id"]] = label
        samples.setdefault((label, s["name"]), []).append(tracer.duration(s))
        self_samples.setdefault((label, s["name"]), []).append(
            tracer.self_time(s))
        last[(label, s["name"])] = s

    def layer_ms(name: str, self_time: bool = False) -> float:
        """Per program, the fastest pass's span (self) time, summed over
        the corpus, in ms; 0 where the layer never ran."""
        table = self_samples if self_time else samples
        return 1e3 * sum(min(table.get((job.label, name), [0.0]))
                         for job in jobs)

    def span_count(name: str, key: str) -> int:
        return sum(last[(job.label, name)][key] for job in jobs
                   if (job.label, name) in last)

    raw = sum(c["raw"] for c in counts.values())
    out = sum(c["out"] for c in counts.values())
    untraced_s = sum(min(t) for t in untraced.values())
    traced_s = layer_ms("compile") / 1e3
    stats = store.stats.as_dict()
    metrics = {
        "workloads.build_ms": build_ms,
        "core.scheduling.ms": layer_ms("core.scheduling"),
        "core.scheduling.layers": span_count("core.scheduling", "layers"),
        "core.sc_backend.synth_ms": layer_ms("core.sc_backend.synth"),
        "core.sc_backend.swaps": span_count("core.sc_backend.synth", "swaps"),
        "core.ft_backend.synth_ms": layer_ms("core.ft_backend.synth"),
        "core.ft_backend.flatten_ms": layer_ms("core.ft_backend.compile",
                                               self_time=True),
        "transpile.peephole.ms": layer_ms("transpile.peephole"),
        "transpile.peephole.removed_ratio": (raw - out) / raw if raw else 0.0,
        "verify.ms": layer_ms("verify"),
        "service.fingerprint.ms": layer_ms("service.fingerprint"),
        "service.artifact.encode_ms": layer_ms("service.artifact.encode"),
        "service.artifact.decode_ms": layer_ms("service.artifact.decode"),
        "service.artifact.kb": sum(c["kb"] for c in counts.values()),
        "service.cache.put_ms": layer_ms("service.cache.put"),
        "service.cache.get_disk_ms": layer_ms("service.cache.get_disk"),
        "service.cache.hit_ratio": stats["hits"] / max(1, stats["lookups"]),
        "service.cache.disk_hit_ratio":
            stats["disk_hits"] / max(1, stats["hits"]),
        "trace.compile_s": traced_s,
        "trace.overhead_ratio": traced_s / untraced_s if untraced_s else 0.0,
    }
    prefix = "sc" if workload == "compile-sc" else "ft"
    for job in jobs:
        metrics[f"program.{prefix}.{job.label}.compile_ms"] = \
            min(untraced[job.label]) * 1e3
        metrics[f"program.{prefix}.{job.label}.cnot"] = \
            results[job.label].metrics["cnot"]
    passes = len(untraced[jobs[0].label])
    return {
        "setup_done": setup_done,
        "attempted": passes * len(jobs) * 2,
        "failures": failures,
        "metrics": metrics,
        "tracer": tracer,
        "report": {"compile_s": untraced_s, "passes": passes},
    }
