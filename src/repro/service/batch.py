"""Sharded batch compilation over a process pool.

``compile_batch`` takes a stream of JSON-able job specs, fingerprints every
job up front, answers what it can from the shared cache, **dedupes**
identical fingerprints (a heavy-traffic stream is dominated by repeats of
near-identical kernels), and shards only the unique cache misses across a
``ProcessPoolExecutor``.  Every worker opens the shared store itself and
publishes what it compiles there (atomic temp-file + ``os.replace``, so
concurrent writers are safe); the parent only makes those keys hot in its
memory front and folds the workers' counter deltas into its stats, so an
artifact compiled by any worker is visible to every later batch.  The
gateway's process pool runs the same worker entry point.

Job spec schema (one JSON object per job)::

    {
      "benchmark": "UCCSD-8",        # registry name ...
      "scale": "small",              # ... with optional scale, OR
      "program": {...},              # an explicit repro.service.artifact
                                     #   program payload, OR
      "text": "{(XX, 1.0), 0.5};",   # the Figure-5 textual IR
      "backend": "ft",               # default: registry backend, else "ft"
      "scheduler": "gco",            # default: backend default
      "coupling": "manhattan_65",    # or {"num_qubits": n, "edges": [[a,b]..]};
                                     #   default manhattan_65 for "sc"
      "device": "melbourne-15",      # registry name or a DeviceSpec snapshot
                                     #   dict; supplies coupling + noise model
                                     #   (mutually exclusive with "coupling")
      "run_peephole": true,
      "restarts": 1,
      "label": "anything"            # echoed into the result row
    }
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import PauliProgram, parse_program
from ..transpile import CouplingMap, manhattan_65
from .artifact import dumps_artifact, loads_artifact, program_from_dict, program_to_dict
from .cache import CompileCache
from .fingerprint import canonical_options, compile_fingerprint

__all__ = ["BatchEntry", "BatchResult", "ResolvedJob", "resolve_spec", "compile_batch"]


# ----------------------------------------------------------------------
# Spec resolution
# ----------------------------------------------------------------------

@dataclass
class ResolvedJob:
    """A job spec normalized to (program, JSON-able option set, label)."""

    program: PauliProgram
    options: Dict
    label: str

    def fingerprint(self) -> str:
        # The same target resolution compile_program performs, so a
        # "device" spec fingerprints identically up front and in the
        # worker (deferred import: core is heavy and batch probing is
        # often cache-only).
        from ..core.compiler import resolve_target

        kwargs = _option_kwargs(self.options)
        coupling, edge_error, noise_model, device_name = resolve_target(
            coupling=kwargs.pop("coupling"),
            edge_error=kwargs.pop("edge_error"),
            device=kwargs.pop("device"),
        )
        return compile_fingerprint(
            self.program,
            canonical_options(
                coupling=coupling,
                edge_error=edge_error,
                noise_model=noise_model,
                device=device_name,
                **kwargs,
            ),
        )


def _resolve_coupling(spec) -> Optional[CouplingMap]:
    if spec is None:
        return None
    if spec == "manhattan_65":
        return manhattan_65()
    if isinstance(spec, dict):
        return CouplingMap(
            [tuple(edge) for edge in spec["edges"]],
            num_qubits=spec.get("num_qubits"),
        )
    raise ValueError(f"unknown coupling spec {spec!r}")


def _resolve_device(spec):
    """A registry name passes through (compile_program resolves it); an
    inline snapshot dict becomes a concrete DeviceSpec."""
    if spec is None or isinstance(spec, str):
        return spec
    if isinstance(spec, dict):
        from ..transpile import DeviceSpec  # deferred with the rest

        return DeviceSpec.from_snapshot(spec)
    raise ValueError(f"unknown device spec {spec!r}")


def _option_kwargs(options: Dict) -> Dict:
    """Materialize a JSON-able option set into ``compile_program`` kwargs."""
    edge_error = options.get("edge_error")
    return {
        "backend": options["backend"],
        "scheduler": options["scheduler"],
        "coupling": _resolve_coupling(options.get("coupling")),
        "edge_error": (
            {(int(a), int(b)): float(r) for a, b, r in edge_error}
            if edge_error is not None else None
        ),
        "run_peephole": options.get("run_peephole", True),
        "restarts": options.get("restarts", 1),
        "device": _resolve_device(options.get("device")),
    }


def resolve_spec(spec: Dict) -> ResolvedJob:
    """Normalize one job spec: build the program, default the options."""
    backend = spec.get("backend")
    if "benchmark" in spec:
        from ..workloads import BENCHMARKS  # deferred: registry is heavy

        name = spec["benchmark"]
        registered = BENCHMARKS.get(name)
        if registered is None:
            raise ValueError(f"unknown benchmark {name!r}")
        program = registered.build(spec.get("scale", "small"))
        backend = backend or registered.backend
        label = spec.get("label", name)
    elif "program" in spec:
        program = program_from_dict(spec["program"])
        label = spec.get("label", program.name or "program")
    elif "text" in spec:
        program = parse_program(spec["text"], name=spec.get("label", ""))
        label = spec.get("label", "text")
    else:
        raise ValueError(
            "job spec needs one of 'benchmark', 'program', or 'text'"
        )
    backend = backend or "ft"
    coupling = spec.get("coupling")
    device = spec.get("device")
    if device is not None and coupling is not None:
        raise ValueError("job spec takes 'device' or 'coupling', not both")
    if coupling is None and device is None and backend == "sc":
        coupling = "manhattan_65"
    options = {
        "backend": backend,
        "scheduler": spec.get("scheduler") or ("gco" if backend == "ft" else "do"),
        "coupling": coupling,
        "edge_error": spec.get("edge_error"),
        "run_peephole": spec.get("run_peephole", True),
        "restarts": spec.get("restarts", 1),
        "device": device,
    }
    return ResolvedJob(program=program, options=options, label=label)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

_WORKER_CACHE: Optional[CompileCache] = None
_WORKER_STATS_BASE: Dict[str, int] = {}


def _worker_init(cache_root: Optional[str], memory_entries: int) -> None:
    """Open this worker's handle on the shared store (none when the
    parent's cache is memory-only: the parent then publishes itself), and
    exit with the parent.

    A SIGKILLed parent never shuts its pool down, so without the watch an
    orphaned worker idles on for ever, holding its memory and, through its
    live pid, the ``pub-<pid>-*.tmp`` files ``sweep_stale_tmp`` would reap.
    The parent's sentinel fires on its death under spawn and fork alike.
    """
    global _WORKER_CACHE, _WORKER_STATS_BASE
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(target=_exit_with, args=(parent,),
                         name="parent-watch", daemon=True).start()
    _WORKER_STATS_BASE = {}
    _WORKER_CACHE = (
        None if cache_root is None
        else CompileCache(cache_root, memory_entries=memory_entries)
    )


def _exit_with(parent) -> None:
    parent.join()
    os._exit(1)


def _worker_stats_delta() -> Dict[str, int]:
    """This worker cache's counter movement since the previous report.

    Shipping deltas with every result keeps the batch/gateway accounting
    exact: the parent absorbs them into the shared store's stats, so a
    worker's puts and the evictions of its LRU front are counted once.
    """
    global _WORKER_STATS_BASE
    if _WORKER_CACHE is None:
        return {}
    snap = _WORKER_CACHE.stats.snapshot()
    delta = {
        key: value - _WORKER_STATS_BASE.get(key, 0)
        for key, value in snap.items()
        if value != _WORKER_STATS_BASE.get(key, 0)
    }
    _WORKER_STATS_BASE = snap
    return delta


def _worker_compile(payload: Tuple) -> Tuple[str, Optional[str], float,
                                             Optional[Dict], Dict, int]:
    """Compile one deduped job.

    ``payload`` is ``(fingerprint, program_dict, options)`` plus an
    optional fourth ``cancel_path`` element: when given, the compile
    aborts cooperatively as soon as that flag file appears (the gateway
    touches it when every client waiting on the job has gone away).  An
    optional fifth ``tier`` element selects the speculative fast pass:
    ``"opt1"`` compiles with peephole level 1 and a single placement
    attempt (the gateway's answer-now tier; the full recompile follows
    in its background lane), while ``"opt3"`` is that background
    recompile: a full-effort compile whose artifact is published as a
    compare-and-swap *upgrade* of the request fingerprint.

    Every tier compiles without ``compile_program``'s own cache plumbing
    (the parent already probed the store, so that lookup is the only one
    counted) and publishes explicitly under the *request* fingerprint:
    ``put`` for a full compile, the rank-checked ``put_tiered`` for the
    fast pass (its altered options would derive a different key inside
    the compiler), and the compare-and-swap ``upgrade`` for the background
    recompile, so a concurrent full-effort publish is never clobbered and
    the parent can detect landed upgrades from the worker's ``upgraded``
    counter delta.

    Returns ``(fingerprint, artifact_or_None, seconds, metrics_or_None,
    worker_stats_delta, pid)``; the artifact is ``None`` when the job was
    cancelled mid-compile.
    """
    from ..core.compiler import CompilationCancelled, compile_program

    fingerprint, program_dict, options = payload[:3]
    cancel_path = payload[3] if len(payload) > 3 else None
    tier = payload[4] if len(payload) > 4 else None
    cancel = None
    if cancel_path is not None:
        cancel = lambda: os.path.exists(cancel_path)  # noqa: E731
    kwargs = _option_kwargs(options)
    if tier == "opt1":
        kwargs["restarts"] = 1
        kwargs["peephole_level"] = 1
    program = program_from_dict(program_dict)
    start = time.perf_counter()
    try:
        result = compile_program(program, cache=None, cancel=cancel,
                                 **kwargs)
    except CompilationCancelled:
        return (fingerprint, None, time.perf_counter() - start, None,
                _worker_stats_delta(), os.getpid())
    elapsed = time.perf_counter() - start
    result.fingerprint = fingerprint
    text = dumps_artifact(result)
    if _WORKER_CACHE is not None:
        if tier == "opt3":
            _WORKER_CACHE.upgrade(fingerprint, text)
        elif tier == "opt1":
            _WORKER_CACHE.put_tiered(fingerprint, text, result.tier)
        else:
            _WORKER_CACHE.put(fingerprint, text)
    return (fingerprint, text, elapsed, result.metrics,
            _worker_stats_delta(), os.getpid())


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

@dataclass
class BatchEntry:
    """One input job's outcome, in input order."""

    index: int
    label: str
    fingerprint: str
    #: Served straight from the shared cache, before any dispatch.
    cached: bool
    #: Same fingerprint as an earlier job in this batch (never dispatched).
    deduped: bool
    artifact: str
    seconds: float

    def result(self):
        return loads_artifact(self.artifact)


@dataclass
class BatchResult:
    entries: List[BatchEntry]
    workers: int
    wall_seconds: float
    cache_stats: Optional[Dict] = None
    unique_jobs: int = 0
    dispatched_jobs: int = 0
    #: Aggregate counter movement across the pool's worker-side handles
    #: on the shared store (already absorbed into ``cache_stats``).
    worker_stats: Optional[Dict] = None
    #: Jobs completed per worker pid (empty for the serial path).
    per_worker: Dict[int, int] = field(default_factory=dict)

    def summary(self) -> Dict:
        out = {
            "jobs": len(self.entries),
            "unique": self.unique_jobs,
            "dispatched": self.dispatched_jobs,
            "cache_hits": sum(1 for e in self.entries if e.cached),
            "deduped": sum(1 for e in self.entries if e.deduped),
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
        }
        if self.cache_stats is not None:
            out["cache"] = self.cache_stats
        if self.worker_stats:
            out["worker_cache"] = self.worker_stats
        return out


def compile_batch(
    specs: Sequence[Dict],
    cache: Optional[CompileCache] = None,
    workers: int = 1,
    worker_memory_entries: int = 64,
) -> BatchResult:
    """Compile a stream of job specs, deduped and sharded across workers.

    ``workers <= 1`` compiles serially in-process (no pool overhead), still
    with fingerprint dedupe and cache reuse.  Pool workers publish into the
    shared disk store themselves; their counter movement is folded into
    ``cache.stats``, since those are operations on that same store.  With
    a memory-only cache the parent publishes what the pool returns.
    Either way the batch-level probe is the only lookup counted per job.
    """
    start = time.perf_counter()
    jobs = [resolve_spec(spec) for spec in specs]
    fingerprints = [job.fingerprint() for job in jobs]

    # Shared-cache probe + fingerprint dedupe, in input order.
    artifact_by_fp: Dict[str, str] = {}
    seconds_by_fp: Dict[str, float] = {}
    cached_fps = set()
    first_index: Dict[str, int] = {}
    pending: List[int] = []   # indices of unique jobs that must compile
    for index, fp in enumerate(fingerprints):
        if fp in first_index:
            continue
        first_index[fp] = index
        if cache is not None:
            stored = cache.get(fp)
            if stored is not None:
                artifact_by_fp[fp] = stored
                seconds_by_fp[fp] = 0.0
                cached_fps.add(fp)
                continue
        pending.append(index)

    worker_stats: Dict[str, int] = {}
    per_worker: Dict[int, int] = {}
    if pending and workers > 1:
        cache_root = str(cache.root) if cache is not None and cache.root else None
        payloads = [
            (fingerprints[i], program_to_dict(jobs[i].program), jobs[i].options)
            for i in pending
        ]
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(cache_root, worker_memory_entries),
        ) as pool:
            for fp, text, elapsed, _metrics, delta, pid in pool.map(
                    _worker_compile, payloads):
                artifact_by_fp[fp] = text
                seconds_by_fp[fp] = elapsed
                per_worker[pid] = per_worker.get(pid, 0) + 1
                for key, value in delta.items():
                    worker_stats[key] = worker_stats.get(key, 0) + value
        if cache is not None:
            cache.stats.absorb(worker_stats)
            for index in pending:
                fp = fingerprints[index]
                if cache_root is not None:
                    # Already on disk, already counted: just make it hot.
                    cache.promote(fp, artifact_by_fp[fp])
                else:
                    cache.put(fp, artifact_by_fp[fp])
    elif pending:
        from ..core.compiler import compile_program

        for index in pending:
            job = jobs[index]
            fp = fingerprints[index]
            # The batch-level probe above already counted this miss; compile
            # without the cache and store explicitly (mirrors the pool path)
            # so the stats see each lookup exactly once.
            t0 = time.perf_counter()
            result = compile_program(job.program, **_option_kwargs(job.options))
            seconds_by_fp[fp] = time.perf_counter() - t0
            result.fingerprint = fp
            text = dumps_artifact(result)
            artifact_by_fp[fp] = text
            if cache is not None:
                cache.put(fp, text)

    entries = [
        BatchEntry(
            index=index,
            label=job.label,
            fingerprint=fp,
            cached=fp in cached_fps,
            deduped=first_index[fp] != index,
            artifact=artifact_by_fp[fp],
            seconds=seconds_by_fp[fp] if first_index[fp] == index else 0.0,
        )
        for index, (job, fp) in enumerate(zip(jobs, fingerprints))
    ]
    return BatchResult(
        entries=entries,
        workers=max(1, workers),
        wall_seconds=time.perf_counter() - start,
        cache_stats=cache.stats.as_dict() if cache is not None else None,
        unique_jobs=len(first_index),
        dispatched_jobs=len(pending),
        worker_stats=worker_stats or None,
        per_worker=per_worker,
    )
