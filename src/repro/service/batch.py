"""Sharded batch compilation over a process pool.

``compile_batch`` takes a stream of JSON-able job specs, fingerprints every
job up front, answers what it can from the shared cache, **dedupes**
identical fingerprints (a heavy-traffic stream is dominated by repeats of
near-identical kernels), and shards only the unique cache misses across a
``ProcessPoolExecutor``.

Every compiled kernel reaches a store through one step,
:func:`compile_and_publish`, and one tier rule, :func:`publish`.  Pool
workers run the step on their own handle on the shared store (atomic
temp-file + ``os.replace``, so concurrent writers are safe), the
gateway's thread mode and the serial batch path on the caller's cache.
A pool's parent only makes a worker's artifact hot and folds its counter
deltas into its stats, or publishes itself when its store is memory-only
(:func:`settle`).

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

from ..ir import PauliProgram, parse_program
from ..transpile import CouplingMap, manhattan_65
from .artifact import (TIER_FAST, TIER_FULL, dumps_artifact, loads_artifact,
                       program_from_dict, program_to_dict)
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
# The compile-and-publish step, and the pool workers that run it
# ----------------------------------------------------------------------

#: LRU front of each pool worker's handle on the shared store.
WORKER_MEMORY_ENTRIES = 64
#: Job tier of the gateway's background full-effort recompile, published
#: as a compare-and-swap upgrade of the fast-tier entry it replaces.
TIER_UPGRADE = "opt3"


class CompileJob(NamedTuple):
    """One deduped compile, as a caller hands it to the step."""

    fingerprint: str
    #: The program, or its payload dict (what a pool ships).
    program: Union[PauliProgram, Dict]
    options: Dict
    #: Flag file that cancels the compile at its next pass boundary.
    cancel_path: Optional[str] = None
    #: ``full``, the fast ``opt1`` pass, or ``opt3`` (:data:`TIER_UPGRADE`).
    tier: str = TIER_FULL


class Compiled(NamedTuple):
    """What the step returns, from whichever process ran it."""

    #: Artifact text; ``None`` when the compile was cancelled.
    artifact: Optional[str]
    seconds: float
    metrics: Optional[Dict]
    #: Whether the artifact is now the entry in the store the step was
    #: given (not when cancelled, given no store, or a tiered publish lost).
    published: bool
    #: A pool worker's store counter movement since its previous report.
    stats_delta: Dict[str, int]
    pid: int


def publish(store: CompileCache, fingerprint: str, text: str,
            tier: str) -> bool:
    """Store one artifact under ``fingerprint`` by the one tier rule:
    ``put`` for a full compile, the compare-and-swap ``upgrade`` for the
    ``opt3`` background recompile, and the rank-checked ``put_tiered`` for
    any reduced tier, so nothing clobbers a better artifact.  Returns
    whether ``text`` is now the stored entry.  Blocking (disk writes)."""
    if tier == TIER_FULL:
        store.put(fingerprint, text)
        return True
    if tier == TIER_UPGRADE:
        return store.upgrade(fingerprint, text)
    return store.put_tiered(fingerprint, text, tier)


def compile_and_publish(job: CompileJob,
                        store: Optional[CompileCache]) -> Compiled:
    """Compile one deduped job, encode it, and :func:`publish` it into
    ``store`` (``None``: publish nothing).  Blocking.

    It compiles with ``compile_program(cache=None)`` and publishes under
    the *request* fingerprint: the caller already probed the store, so
    that probe is the only lookup counted, and the fast pass's altered
    options would derive another key inside the compiler.
    """
    from ..core.compiler import CompilationCancelled, compile_program

    cancel = None
    if job.cancel_path is not None:
        cancel = lambda: os.path.exists(job.cancel_path)  # noqa: E731
    kwargs = _option_kwargs(job.options)
    if job.tier == TIER_FAST:
        kwargs["restarts"] = 1
        kwargs["peephole_level"] = 1
    program = job.program
    if not isinstance(program, PauliProgram):
        program = program_from_dict(program)
    start = time.perf_counter()
    try:
        result = compile_program(program, cache=None, cancel=cancel,
                                 **kwargs)
    except CompilationCancelled:
        return Compiled(None, time.perf_counter() - start, None, False, {},
                        os.getpid())
    elapsed = time.perf_counter() - start
    result.fingerprint = job.fingerprint
    text = dumps_artifact(result)
    published = store is not None and publish(
        store, job.fingerprint, text, job.tier)
    return Compiled(text, elapsed, result.metrics, published, {},
                    os.getpid())


def settle(store: CompileCache, job: CompileJob, outcome: Compiled) -> bool:
    """Make a compiled (not cancelled) step's artifact resident in the
    caller's ``store``; returns whether it landed.  A step run in this
    process has published already; a pool worker on the disk store has
    too, so the key only becomes hot here.  Behind a memory-only store no
    worker could publish, so the caller does.  No disk I/O, so an event
    loop may call this."""
    if outcome.pid == os.getpid():
        return outcome.published
    if store.root is None:
        return publish(store, job.fingerprint, outcome.artifact, job.tier)
    if outcome.published:
        store.promote(job.fingerprint, outcome.artifact)
    return outcome.published


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


def _worker_compile(job: CompileJob) -> Compiled:
    """The pool's entry point: :func:`compile_and_publish` on this
    worker's handle on the shared store (none behind a memory-only
    parent), with the handle's counter delta attached."""
    outcome = compile_and_publish(job, _WORKER_CACHE)
    return outcome._replace(stats_delta=_worker_stats_delta())


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
) -> BatchResult:
    """Compile a stream of job specs, deduped and sharded across workers.

    Every unique cache miss runs :func:`compile_and_publish`: with
    ``workers <= 1`` serially on ``cache`` (no pool overhead), otherwise in
    a pool whose workers publish into the shared disk store themselves and
    whose counter movement is folded into ``cache.stats``; a memory-only
    cache gets what the pool returns through :func:`settle`.  Either way
    the batch-level probe is the only lookup counted per job.
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
    compiles = [CompileJob(fingerprints[i], jobs[i].program, jobs[i].options)
                for i in pending]
    if pending and workers > 1:
        cache_root = str(cache.root) if cache is not None and cache.root else None
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(cache_root, WORKER_MEMORY_ENTRIES),
        ) as pool:
            outcomes = list(pool.map(_worker_compile, [
                job._replace(program=program_to_dict(job.program))
                for job in compiles]))
        for outcome in outcomes:
            per_worker[outcome.pid] = per_worker.get(outcome.pid, 0) + 1
            for key, value in outcome.stats_delta.items():
                worker_stats[key] = worker_stats.get(key, 0) + value
        if cache is not None:
            cache.stats.absorb(worker_stats)
    else:
        outcomes = [compile_and_publish(job, cache) for job in compiles]
    for job, outcome in zip(compiles, outcomes):
        artifact_by_fp[job.fingerprint] = outcome.artifact
        seconds_by_fp[job.fingerprint] = outcome.seconds
        if cache is not None:
            settle(cache, job, outcome)

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
