"""Async compile gateway: an admission-controlled streaming daemon.

The seventh architectural layer.  Where ``compile-batch`` amortizes the
content-addressed cache over one process lifetime, the gateway amortizes
it over *many concurrent clients*: a single long-running asyncio process
owns the cache, accepts newline-delimited JSON requests over a local
socket (:mod:`repro.service.protocol`), and streams results back as they
complete — a warm key answers in microseconds while a cold paper-scale
compile is still running behind it.

Request flow::

            ┌──────────── warm lane (never queued) ───────────┐
    frame → resolve → cache probe ─ hit ─→ respond immediately ┘
                          │ miss
                          ▼
              admission control ── full ─→ reject (overloaded)
                          │ admitted
                          ▼
          per-client FIFO queues, drained round-robin   ← fairness
                          │
                          ▼
         in-flight dedupe by fingerprint (followers attach)
                          │
                          ▼
        process-pool workers (publish to the store) ──→ stream responses

Properties the test battery holds the gateway to:

* **Bounded**: at most ``queue_limit`` undispatched cold jobs globally
  and ``per_client_limit`` outstanding per client; excess is rejected
  with ``overloaded``, never buffered.
* **Fair**: cold dispatch drains client queues round-robin, so one
  client flooding cold misses cannot starve another's single request.
* **Deduplicated**: concurrent requests for one fingerprint compile
  once; followers attach to the in-flight job and all stream the result.
* **Cancellable**: a ``cancel`` verb or a client disconnect removes
  undispatched jobs outright and flags dispatched ones through the
  cooperative-cancellation flag file that
  :func:`repro.core.compiler.compile_program` polls at pass boundaries.
* **Self-healing**: a killed worker process breaks the pool; the gateway
  rebuilds it and retries the in-flight jobs instead of failing them.
* **Accountable**: the ``stats`` verb reconciles — every received
  request ends in exactly one outcome counter, and cache/latency/
  per-worker-throughput numbers come from the same structures the
  benchmark gates.

Speculative lane (``speculate=True``): a third lane *behind* warm and
cold.  A cold miss compiles at the fast opt-1 tier and answers
immediately; the gateway then enqueues a background full-effort
recompile that upgrades the cache entry in place
(:meth:`CompileCache.upgrade`, a compare-and-swap — a concurrent
full-tier writer wins and the upgrade counts as stale).  Both lanes run
one job type: the tier names the lane (``opt3`` is background), the
waiters are the requests that keep the job alive, and one coroutine
settles a dispatched job of either lane as done, failed, cancelled, or
dropped after ``REQUEUE_LIMIT`` cancelled reruns.  The lanes differ only
in queue policy and answer.  The background lane can never starve cold
traffic: an upgrade job is only dispatched when the cold queue is
*empty*, its FIFO is bounded by ``speculative_limit`` (overflow counts
``spec_dropped``), and a cold arrival that finds every slot held
preempts running upgrades through the same cooperative cancel-flag
mechanism — the preempted job requeues behind the cold work.  Clients
that set ``want_upgrade`` on the request get one ``upgrade`` push frame
when the background recompile resolves; cancelling that request id
withdraws the client's interest unless it holds another subscription on
the job, a disconnect withdraws it outright, and a job nobody keeps
alive is withdrawn.  The speculative ledger reconciles like the request
one: ``spec_enqueued == spec_upgraded + spec_stale + spec_cancelled +
spec_dropped``.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import multiprocessing
import os
import shutil
import tempfile
import time
from collections import OrderedDict, deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Set, Tuple

from .artifact import (
    TIER_FAST,
    TIER_FULL,
    artifact_tier,
    loads_artifact,
    program_to_dict,
    tier_rank,
)
from .batch import (TIER_UPGRADE, WORKER_MEMORY_ENTRIES, CompileJob, Compiled,
                    _worker_compile, _worker_init, compile_and_publish,
                    resolve_spec, settle)
from .cache import CompileCache
from .protocol import (
    E_BAD_SPEC,
    E_CANCELLED,
    E_COMPILE,
    E_OVERLOADED,
    E_SHUTTING_DOWN,
    Request,
    encode_frame,
    error_frame,
)
from .server import Connection, FrameServer, open_frame_stream, read_frame

__all__ = ["GatewayConfig", "CompileGateway", "GatewayClient"]

#: LRU front of the gateway's own handle on its store.
MEMORY_ENTRIES = 256
#: Bounds on the spec-resolution and result-metrics memos.
RESOLVE_MEMO_ENTRIES = 4096
METRICS_MEMO_ENTRIES = 4096
#: Re-dispatch attempts when the process pool breaks under a job.
DISPATCH_RETRIES = 2
#: Reruns of a job whose compile honoured its cancel flag while someone
#: still waited (a preemption, or a cancel that raced a new waiter); the
#: next such run drops it.
REQUEUE_LIMIT = 3


@dataclass
class GatewayConfig:
    """Everything that shapes one gateway's behavior."""

    #: Unix-domain socket path; when set it wins over host/port.
    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (read it from ``address``).
    port: int = 0
    cache_root: Optional[str] = None
    #: ``>= 1``: a process pool of that width; workers publish into the
    #: shared store themselves.
    #: ``0``: run the same compile-and-publish step in one in-process
    #: thread, on the gateway's own cache (no pool — cheap to start, used
    #: by tests and tiny deployments; cancellation still works).
    workers: int = 1
    #: Global cap on undispatched cold jobs.
    queue_limit: int = 64
    #: Cap on one client's unanswered cold requests.
    per_client_limit: int = 16
    #: Honor the ``shutdown`` verb (off by default: a local admin signal
    #: should stop the daemon, not any client that can open the socket).
    allow_shutdown: bool = False
    #: Cluster replication: peer nodes' store directories probed (pull-
    #: through) when the local disk tier misses, before compiling.
    peer_stores: Tuple[str, ...] = ()
    #: How many peers one miss consults (None = all of peer_stores).
    replica_probes: Optional[int] = None
    #: Tiered speculative compilation: cold misses answer at the fast
    #: opt-1 tier and a background full-effort recompile upgrades the
    #: cache entry in place.
    speculate: bool = False
    #: Budget cap on queued background upgrade jobs; overflow is counted
    #: ``spec_dropped`` rather than buffered.
    speculative_limit: int = 8


@dataclass
class _Waiter:
    """One client request keeping a job alive: an unanswered compile on a
    foreground job, or an answered one on its background upgrade."""

    client: "_Client"
    request_id: str
    want: str
    admitted_at: float
    fingerprint: str = ""
    cancelled: bool = False
    #: Subscribe this request to the background lane's ``upgrade`` push
    #: frame (strictly opt-in: pipelined clients must never receive an
    #: unsolicited trailing frame for an id they consider answered).
    want_upgrade: bool = False

    @property
    def live(self) -> bool:
        return not self.cancelled and not self.client.closed


@dataclass(eq=False)            # identity semantics: jobs live in sets
class _Job:
    """One unique fingerprint compiling in one lane, with every request
    waiting on it.  The tier names the lane: ``full`` or the fast ``opt1``
    pass answers cold requests (foreground); ``opt3`` upgrades an answered
    opt-1 artifact in the background."""

    fingerprint: str
    program_dict: Dict
    options: Dict
    label: str
    tier: str
    cancel_path: str
    created_at: float
    waiters: List[_Waiter] = field(default_factory=list)
    dispatched: bool = False
    requeues: int = 0
    #: The client whose pending deque holds this foreground job (None
    #: once dispatched, and always for a background job); lets pruning
    #: reap an abandoned job from the queue eagerly instead of leaving a
    #: capacity-consuming tombstone.
    owner: Optional["_Client"] = None

    @property
    def background(self) -> bool:
        return self.tier == TIER_UPGRADE

    def live_waiters(self) -> List[_Waiter]:
        return [w for w in self.waiters if w.live]


def _withdraw_cancel_flag(path: str) -> None:
    """Remove a job's cancel-flag file if present (blocking: callers on
    the event loop run this via the executor)."""
    try:
        os.unlink(path)
    except OSError:
        pass


def _raise_cancel_flag(*paths: str) -> None:
    """Touch running jobs' cancel-flag files; each worker notices at its
    next pass boundary (blocking: callers on the event loop run this via
    the executor)."""
    for path in paths:
        try:
            Path(path).touch()
        except OSError:
            pass


class _Client(Connection):
    """Per-connection state; ``waiting`` holds the unanswered cold
    requests' :class:`_Waiter` entries."""

    def __init__(self, writer: asyncio.StreamWriter):
        super().__init__(writer)
        #: Cold jobs this client is responsible for dispatching (fairness
        #: unit: the round-robin drains one of these per turn).
        self.pending: Deque[_Job] = deque()
        self.in_rr = False
        #: Answered requests still subscribed to an ``upgrade`` push
        #: frame, keyed by request id (cancel verb lookups).
        self.upgrades: Dict[str, _Job] = {}


class CompileGateway(FrameServer):
    """The daemon.  ``await start()``, then ``await closed_event.wait()``
    or hold it open however the caller likes; ``await close()`` drains and
    releases everything.  The frame transport is
    :class:`~repro.service.server.FrameServer`'s."""

    connection_class = _Client

    def __init__(self, config: GatewayConfig,
                 cache: Optional[CompileCache] = None):
        super().__init__(config)
        self.cache = cache if cache is not None else CompileCache(
            config.cache_root, memory_entries=MEMORY_ENTRIES,
            peer_roots=config.peer_stores,
            replica_probes=config.replica_probes,
        )
        #: In-flight dedupe: one job per (fingerprint, background).
        self._jobs: Dict[Tuple[str, bool], _Job] = {}
        #: The background lane's FIFO; foreground jobs queue on their
        #: clients' ``pending`` deques, drained round-robin from ``_rr``.
        self._spec_queue: Deque[_Job] = deque()
        #: Jobs a worker is compiling (background ones can be preempted).
        self._running: Set[_Job] = set()
        self._rr: Deque[_Client] = deque()
        self._queued = 0
        self._in_flight = 0
        self._work = asyncio.Event()
        self._dispatcher: Optional[asyncio.Task] = None
        self._resolve_memo: "OrderedDict[str, Tuple]" = OrderedDict()
        self._metrics_memo: "OrderedDict[str, Dict]" = OrderedDict()
        self._cancel_dir: Optional[Path] = None
        self._cancel_seq = itertools.count(1)
        self._pool: Optional[Executor] = None
        self._pool_epoch = 0
        self._pool_lock: Optional[asyncio.Lock] = None
        self._seen_worker_pids: Set[int] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._cancel_dir = Path(await loop.run_in_executor(
            None, lambda: tempfile.mkdtemp(prefix="repro-gw-cancel-")))
        self._pool_lock = asyncio.Lock()
        # Crash recovery: clear droppings a previous incarnation's killed
        # workers may have left mid-publish.  The sweep walks the store
        # directory, so it runs off-loop like every other disk touch here.
        await loop.run_in_executor(None, self.cache.sweep_stale_tmp)
        # Thread mode differs from process mode only in its executor: the
        # same compile-and-publish step runs there on this gateway's cache.
        if self.config.workers >= 1:
            self._pool, self._entry = self._new_pool(), _worker_compile
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="gw-compile")
            self._entry = functools.partial(compile_and_publish,
                                            store=self.cache)
        await self._listen()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    def _new_pool(self) -> ProcessPoolExecutor:
        # "spawn" keeps pool rebuilds safe no matter how many threads the
        # daemon has accumulated (fork from a threaded process can inherit
        # held locks); workers re-import once and then live for thousands
        # of jobs, so the startup cost amortizes to nothing.
        return ProcessPoolExecutor(
            max_workers=self.config.workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_init,
            initargs=(
                str(self.cache.root) if self.cache.root is not None else None,
                WORKER_MEMORY_ENTRIES,
            ),
        )

    async def close(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain in-flight work, tear down."""
        self._work.set()   # wakes the dispatcher to see _closing
        await self._quiesce(drain)
        await self._stop(self._dispatcher)
        await self._cancel_tasks()
        # Upgrade jobs still queued will never run; account each so the
        # speculative ledger reconciles across a shutdown.
        while self._spec_queue:
            job = self._spec_queue.popleft()
            self._drop(job)
            self.metrics.incr(
                "spec_dropped" if job.live_waiters() else "spec_cancelled")
        # Whatever still waits gets a clean refusal before the socket dies;
        # count each one so the outcome ledger still reconciles (these
        # requests were admitted but will never complete).
        for client in list(self._clients):
            for waiter in list(client.waiting.values()):
                if not waiter.cancelled:
                    waiter.cancelled = True
                    self.metrics.incr("rejected")
                    await client.send(error_frame(
                        "compile", waiter.request_id, E_SHUTTING_DOWN,
                        "gateway is shutting down",
                    ))
        self._close_clients()
        if self._pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self._pool.shutdown(wait=True, cancel_futures=True)
            )
            self._pool = None
        # The teardown disk work (temp-dir removal, orphan sweep, socket
        # unlink) runs off-loop in one hop: close() may overlap live
        # traffic on other gateways sharing this loop.
        await asyncio.get_running_loop().run_in_executor(
            None, self._cleanup_disk)

    def _busy(self) -> bool:
        return bool(self._queued or self._in_flight or self._tasks)

    def _cleanup_disk(self) -> None:
        """Blocking teardown I/O, executed on the executor by close()."""
        if self._cancel_dir is not None:
            shutil.rmtree(self._cancel_dir, ignore_errors=True)
        # Only when this gateway actually served: another daemon may own
        # the path/store when close() runs after a failed bind, and its
        # socket file and in-flight .tmp publishes must survive.
        if self._bound:
            # All our writers are down: any .tmp left is an orphan
            # (killed worker).
            self.cache.sweep_stale_tmp(max_age_seconds=0.0)
            self._unlink_socket()

    # ------------------------------------------------------------------
    # Compile, cancel, disconnect
    # ------------------------------------------------------------------
    async def _handle_compile(self, client: _Client, request: Request,
                              received_at: float) -> None:
        self.metrics.incr("received")
        try:
            fingerprint, options, program_dict, label = \
                await self._resolve(request.spec)
        except (ValueError, KeyError, TypeError) as exc:
            self.metrics.incr("bad_specs")
            await client.send(error_frame(
                "compile", request.id, E_BAD_SPEC, str(exc)))
            return
        waiter = _Waiter(client=client, request_id=request.id,
                         want=request.want, admitted_at=received_at,
                         fingerprint=fingerprint,
                         want_upgrade=request.want_upgrade)

        # Warm lane: a cache hit never queues, never touches a worker.
        # The memory front answers inline (lock-guarded dict probe, no
        # I/O).  Only a memory miss with no in-flight compile pays an
        # executor hop for the disk tier: an in-flight fingerprint cannot
        # be on disk yet (the publish happens before the job leaves
        # ``_jobs``), and skipping the hop keeps follower attachment
        # suspension-free — see the dedupe path below.
        text = self.cache.get_memory(fingerprint)
        if text is None and (fingerprint, False) not in self._jobs:
            text = await asyncio.get_running_loop().run_in_executor(
                None, self.cache.get_disk, fingerprint)
        if text is not None:
            tier = None
            if self.config.speculate or request.want_upgrade:
                tier = self._tier_of(text)
            frame = self._result_frame(
                request.id, request.want, fingerprint, text,
                cached=True, queued_ms=0.0, compile_ms=0.0, tier=tier,
            )
            if frame is None:
                # Corrupt stored artifact: heal by dropping the entry and
                # falling through to a cold compile.  Discard unlinks the
                # disk entry, so it goes through the executor too.
                await asyncio.get_running_loop().run_in_executor(
                    None, self.cache.discard, fingerprint)
            else:
                await client.send(frame)
                self.metrics.incr("warm_hits")
                self.metrics.warm_latency.record(
                    time.perf_counter() - received_at)
                # Re-speculation: a warm hit on a lower-tier entry (e.g.
                # left by a gateway restart mid-upgrade) re-arms the
                # background recompile.
                if (self.config.speculate and not self._closing
                        and tier is not None
                        and tier_rank(tier) < tier_rank(TIER_FULL)
                        and options.get("run_peephole", True)):
                    self._speculate(fingerprint, program_dict, options,
                                    label, [waiter])
                return

        if self._closing:
            await client.send(error_frame(
                "compile", request.id, E_SHUTTING_DOWN,
                "gateway is shutting down"))
            self.metrics.incr("rejected")
            return

        # Cold lane: admission control, then the fairness queue.
        if len(client.waiting) >= self.config.per_client_limit:
            self.metrics.incr("rejected")
            await client.send(error_frame(
                "compile", request.id, E_OVERLOADED,
                f"client has {len(client.waiting)} unanswered cold requests "
                f"(limit {self.config.per_client_limit})"))
            return

        job = self._jobs.get((fingerprint, False))
        if job is not None:
            # Follower: the same fingerprint is already queued or running;
            # attach instead of compiling twice.  Attach *before* any
            # suspension so a job completing mid-await still answers this
            # waiter.
            job.waiters.append(waiter)
            client.waiting[request.id] = waiter
            self.metrics.incr("admitted")
            if job.dispatched:
                # A cancel may have raced in before this new interest;
                # withdraw the flag off-loop — if the worker already
                # honored it, the job requeues for the new waiters.
                await asyncio.get_running_loop().run_in_executor(
                    None, _withdraw_cancel_flag, job.cancel_path)
            return

        if self._queued >= self.config.queue_limit:
            self.metrics.incr("rejected")
            await client.send(error_frame(
                "compile", request.id, E_OVERLOADED,
                f"cold queue is full ({self._queued}/{self.config.queue_limit})"))
            return

        # Speculation compiles the fast opt-1 tier first (answer now, the
        # background lane upgrades later); a spec that disables peephole
        # has nothing to speed up and stays on the full path.
        tier = TIER_FULL
        if self.config.speculate and options.get("run_peephole", True):
            tier = TIER_FAST
        job = self._new_job(fingerprint, program_dict, options, label, tier,
                            received_at)
        job.waiters.append(waiter)
        client.waiting[request.id] = waiter
        self._enqueue(job)
        self.metrics.incr("admitted")

    async def _handle_cancel(self, client: _Client, request: Request) -> None:
        waiter = client.waiting.get(request.id)
        state = "not-found"
        flags: List[str] = []
        if waiter is not None and not waiter.cancelled:
            waiter.cancelled = True
            del client.waiting[request.id]
            self.metrics.incr("cancelled")
            await client.send(error_frame(
                "compile", request.id, E_CANCELLED, "cancelled by request"))
            job = self._jobs.get((waiter.fingerprint, False))
            state = "cancelled"
            if job is not None and waiter in job.waiters:
                if self._prune(job):
                    flags.append(job.cancel_path)
                if job.dispatched:
                    state = "in-flight"
        elif waiter is None and request.id in client.upgrades:
            # The compile already answered, but this id still holds an
            # upgrade subscription: cancelling it withdraws the client's
            # interest in the background job, unless the client holds
            # another subscription there.
            job = client.upgrades.pop(request.id)
            mine = [w for w in job.live_waiters() if w.client is client]
            keep = any(w.want_upgrade and w.request_id != request.id
                       for w in mine)
            for w in mine:
                if not keep or (w.want_upgrade
                                and w.request_id == request.id):
                    w.cancelled = True
            if self._prune(job):
                flags.append(job.cancel_path)
            state = "upgrade-cancelled"
        await self._raise_flags(flags)
        await client.send({
            "op": "cancel", "id": request.id, "ok": True, "state": state})

    async def _disconnect(self, client: _Client) -> None:
        cancelled = 0
        for waiter in client.waiting.values():
            if not waiter.cancelled:
                waiter.cancelled = True
                cancelled += 1
        client.waiting.clear()
        client.upgrades.clear()
        if cancelled:
            self.metrics.incr("cancelled", cancelled)
        # Jobs this client was queued to dispatch: hand live ones to a
        # surviving waiter's client, drop the rest.
        while client.pending:
            job = client.pending.popleft()
            job.owner = None
            self._queued -= 1
            if job.live_waiters():
                self._enqueue(job)
            else:
                self._drop(job)
        # Jobs of either lane this client alone kept alive are withdrawn.
        await self._raise_flags([job.cancel_path
                                 for job in list(self._jobs.values())
                                 if self._prune(job)])

    def _prune(self, job: _Job) -> bool:
        """Drop a job's dead waiters.  A job with none left is withdrawn:
        a queued foreground job is reaped now, so it stops consuming
        queue_limit capacity; a queued background job is reaped (and
        counted) when popped; a running one needs its cancel flag raised,
        which the caller does off the loop when this returns True."""
        job.waiters = job.live_waiters()
        if job.waiters:
            return False
        if job.dispatched:
            return True
        if job.owner is not None:
            try:
                job.owner.pending.remove(job)
            except ValueError:
                pass
            else:
                self._queued -= 1
            job.owner = None
            self._drop(job)
        return False

    async def _raise_flags(self, paths: List[str]) -> None:
        """Raise these cancel flags on the executor (a touch is disk I/O)."""
        if paths:
            await asyncio.get_running_loop().run_in_executor(
                None, _raise_cancel_flag, *paths)

    # ------------------------------------------------------------------
    # Jobs and dispatch
    # ------------------------------------------------------------------
    def _new_job(self, fingerprint: str, program_dict: Dict, options: Dict,
                 label: str, tier: str, created_at: float) -> _Job:
        """Create a job and enter it in the dedupe map (not yet queued)."""
        job = _Job(fingerprint, program_dict, options, label, tier,
                   str(self._cancel_dir / f"job-{next(self._cancel_seq)}.cancel"),
                   created_at)
        self._jobs[fingerprint, job.background] = job
        return job

    def _drop(self, job: _Job) -> None:
        """Retire a job's dedupe entry (unless a new job replaced it) and
        its requests' upgrade subscriptions."""
        if self._jobs.get((job.fingerprint, job.background)) is job:
            del self._jobs[job.fingerprint, job.background]
        for waiter in job.waiters:
            if waiter.client.upgrades.get(waiter.request_id) is job:
                del waiter.client.upgrades[waiter.request_id]

    def _enqueue(self, job: _Job) -> None:
        """Queue a job in its lane: a background job at the back of the
        FIFO; a foreground one on the deque of its first live waiter's
        client, the round-robin's fairness unit."""
        if job.background:
            self._spec_queue.append(job)
        else:
            client = job.live_waiters()[0].client
            client.pending.append(job)
            job.owner = client
            self._queued += 1
            if not client.in_rr:
                self._rr.append(client)
                client.in_rr = True
        self._work.set()

    def _pop_next_job(self) -> Optional[_Job]:
        """Round-robin pop: one job from the head client, then rotate."""
        while self._rr:
            client = self._rr.popleft()
            if not client.pending:
                client.in_rr = False
                continue
            job = client.pending.popleft()
            job.owner = None
            if client.pending:
                self._rr.append(client)
            else:
                client.in_rr = False
            self._queued -= 1
            if not job.live_waiters():
                self._drop(job)
                continue
            return job
        return None

    def _pop_next_spec(self) -> Optional[_Job]:
        """Next background job someone keeps alive; withdrawn ones are
        reaped (and counted) here rather than searched out of the deque
        eagerly."""
        while self._spec_queue:
            job = self._spec_queue.popleft()
            if job.live_waiters():
                return job
            self._drop(job)
            self.metrics.incr("spec_cancelled")
        return None

    async def _dispatch_loop(self) -> None:
        workers = max(self.config.workers, 1)
        while True:
            await self._work.wait()
            if self._closing and self._queued == 0:
                return
            # Width throttle first: a job stays *in the queue* (visible to
            # admission control as depth) until a compile slot is free —
            # at most `workers` in flight (1 for the thread mode).  A full
            # house parks on ``_work``, which a freed slot and a cold
            # arrival both set.
            if self._in_flight >= workers:
                # Clear *before* any suspension: a job finishing during
                # the preemption hop below sets it again, and clearing
                # afterwards would eat that wakeup (dispatcher deadlock).
                self._work.clear()
                if self._queued:
                    # Cold work is waiting on a slot a background upgrade
                    # holds: preempt it cooperatively (it requeues), so
                    # speculation can never starve the cold lane.
                    await self._raise_flags([job.cancel_path
                                             for job in self._running
                                             if job.background])
                continue
            job = self._pop_next_job()
            if job is not None:
                self.metrics.queue_wait.record(
                    time.perf_counter() - job.created_at)
            elif (not self._closing
                  and self._in_flight < (workers - 1 if workers > 1 else 1)):
                # Strict priority: the background lane only gets a slot
                # when the cold queue is empty (and never during drain).
                # Multi-worker pools additionally keep one slot in
                # reserve — an arriving cold request starts immediately
                # instead of paying a preemption round trip; with a
                # single worker, preemption is the mechanism.
                job = self._pop_next_spec()
            if job is None:
                self._work.clear()
                if self._closing:
                    return
                continue
            job.dispatched = True
            self._in_flight += 1
            self._spawn(self._run(job))

    async def _compile(self, job: _Job, compile_job: CompileJob,
                       ) -> Tuple[Optional[Compiled], Optional[str]]:
        """Run the compile-and-publish step in the slot the dispatcher
        reserved, rebuilding a broken pool and retrying up to
        ``DISPATCH_RETRIES`` times.  Frees the slot, withdraws the job's
        cancel flag, and absorbs a pool worker's cache counters.
        Returns ``(outcome, failure)``, exactly one of them ``None``."""
        loop = asyncio.get_running_loop()
        outcome = failure = None
        self._running.add(job)
        try:
            for _attempt in range(DISPATCH_RETRIES + 1):
                epoch = self._pool_epoch
                try:
                    outcome = await loop.run_in_executor(
                        self._pool, self._entry, compile_job)
                    failure = None
                    break
                except BrokenProcessPool:
                    await self._rebuild_pool(epoch)
                    failure = "worker pool kept breaking under this job"
                except Exception as exc:  # compile bug / bad program
                    failure = f"{type(exc).__name__}: {exc}"
                    break
        finally:
            self._running.discard(job)
            self._in_flight -= 1
            self._work.set()
        await loop.run_in_executor(None, _withdraw_cancel_flag,
                                   job.cancel_path)
        if outcome is not None:
            self._seen_worker_pids.add(outcome.pid)
            # A worker's counter movement is real store activity whether
            # or not the compile finished: absorb it exactly once,
            # cancelled jobs included (empty for a step run here).
            self.cache.stats.absorb(outcome.stats_delta)
        return outcome, failure

    async def _run(self, job: _Job) -> None:
        """Compile one dispatched job of either lane and settle it once:
        ``done``, ``failed``, ``cancelled`` (nobody waits any more), or
        ``dropped`` once its compile honoured the cancel flag with someone
        still waiting more than ``REQUEUE_LIMIT`` times (before that it
        requeues in its lane).  Only the answer differs by lane."""
        compile_job = CompileJob(job.fingerprint, job.program_dict,
                                 job.options, job.cancel_path, job.tier)
        try:
            outcome, failure = await self._compile(job, compile_job)
        except asyncio.CancelledError:
            # close() tore the task down mid-flight: account a background
            # job so the speculative ledger reconciles across a shutdown
            # (close() refuses a foreground job's waiters itself).
            self._drop(job)
            if job.background:
                self.metrics.incr("spec_dropped")
            raise
        landed = False
        if outcome is None:
            state = "failed"
        elif outcome.artifact is None:
            # The worker honoured the cancel flag: a withdrawal, a
            # preemption, or a cancel that raced a new waiter.
            job.dispatched = False
            if not job.live_waiters():
                state = "cancelled"
            elif job.requeues < REQUEUE_LIMIT:
                job.requeues += 1
                self._enqueue(job)
                return
            else:
                state = "dropped"
        else:
            state = "done"
            landed = settle(self.cache, compile_job, outcome)
            self.metrics.worker_completed(outcome.pid)
        # Only now drop the dedupe entry: a compiled artifact is resident,
        # so a request landing in any suspension above either attached to
        # this job (answered below) or will hit the cache.
        self._drop(job)
        if job.background:
            await self._answer_upgrade(job, state, landed)
        else:
            await self._answer_compile(job, state, outcome, failure)

    async def _answer_compile(self, job: _Job, state: str,
                              outcome: Optional[Compiled],
                              failure: Optional[str]) -> None:
        """The foreground answer: a compile frame to every live waiter,
        then the background upgrade of a fast-tier answer."""
        now = time.perf_counter()
        if state == "done":
            self._remember_metrics(job.fingerprint, outcome.metrics)
        for waiter in job.waiters:
            waiter.client.waiting.pop(waiter.request_id, None)
            if not waiter.live:
                continue
            if state == "done":
                frame = self._result_frame(
                    waiter.request_id, waiter.want, job.fingerprint,
                    outcome.artifact, cached=False,
                    queued_ms=(now - waiter.admitted_at
                               - outcome.seconds) * 1e3,
                    compile_ms=outcome.seconds * 1e3,
                    known_metrics=outcome.metrics,
                    tier=(job.tier if (self.config.speculate
                                       or waiter.want_upgrade) else None),
                )
                self.metrics.incr("completed")
                self.metrics.cold_latency.record(now - waiter.admitted_at)
                await waiter.client.send(frame)
            elif state == "failed":
                self.metrics.incr("failed")
                await waiter.client.send(error_frame(
                    "compile", waiter.request_id, E_COMPILE, failure))
            else:
                waiter.cancelled = True
                self.metrics.incr("cancelled")
                await waiter.client.send(error_frame(
                    "compile", waiter.request_id, E_CANCELLED,
                    "compile cancelled"))
        # The fast tier just answered; hand the full-effort recompile to
        # the background lane (after the responses above, so an upgrade
        # frame can never precede its compile response on the wire).
        if (state == "done" and job.tier != TIER_FULL
                and self.config.speculate and not self._closing):
            live = job.live_waiters()
            if live:
                self._speculate(job.fingerprint, job.program_dict,
                                job.options, job.label, live)

    async def _answer_upgrade(self, job: _Job, state: str,
                              landed: bool) -> None:
        """The background answer: one ``spec_*`` outcome, and an
        ``upgrade`` push to every live subscribed request."""
        if state == "cancelled":            # withdrawn: nobody to tell
            self.metrics.incr("spec_cancelled")
            return
        ok = state == "done" and landed
        if ok:
            gap = time.perf_counter() - job.created_at
            self.metrics.incr("spec_upgraded")
            self.metrics.upgrade_latency.record(gap)
            tail: Dict = {"tier": TIER_FULL,
                          "upgrade_ms": round(gap * 1e3, 3)}
        else:
            # A failed or dropped upgrade: the opt-1 answer stands.
            state = "stale" if state == "done" else state
            self.metrics.incr("spec_stale" if state == "stale"
                              else "spec_dropped")
            tail = {"state": state}
        for waiter in job.live_waiters():
            if waiter.want_upgrade:
                await waiter.client.send({
                    "op": "upgrade", "id": waiter.request_id,
                    "ok": ok, "fingerprint": job.fingerprint,
                    **tail})

    async def _rebuild_pool(self, epoch: int) -> None:
        async with self._pool_lock:
            if self._pool_epoch != epoch or self._pool is None:
                return
            broken = self._pool
            self._pool = self._new_pool()
            self._pool_epoch += 1
            self.metrics.incr("worker_restarts")
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: broken.shutdown(wait=False, cancel_futures=True))

    # ------------------------------------------------------------------
    # Speculative lane
    # ------------------------------------------------------------------
    @staticmethod
    def _tier_of(text: str) -> str:
        """Tier of a stored artifact, with a substring fast path: an
        artifact with no ``tier`` key at all (v1/v2, or any full-effort
        document) skips the JSON parse on the warm lane."""
        if '"tier":' not in text:
            return TIER_FULL
        return artifact_tier(text)

    def _speculate(self, fingerprint: str, program_dict: Dict,
                   options: Dict, label: str,
                   waiters: List[_Waiter]) -> None:
        """Attach answered requests to the background upgrade of
        ``fingerprint``, admitting the job when none is queued or running.
        Over-budget admissions are counted and dropped immediately — the
        queue is a cap, not a buffer."""
        job = self._jobs.get((fingerprint, True))
        if job is None:
            self.metrics.incr("spec_enqueued")
            if len(self._spec_queue) >= self.config.speculative_limit:
                self.metrics.incr("spec_dropped")
                return
            job = self._new_job(fingerprint, program_dict, options, label,
                                TIER_UPGRADE, time.perf_counter())
            self._enqueue(job)
        for waiter in waiters:
            # Keep one waiter per subscribed request id, and one per
            # client that keeps the job alive without subscribing.
            mine = [w for w in job.live_waiters() if w.client is waiter.client]
            if waiter.want_upgrade:
                if any(w.want_upgrade and w.request_id == waiter.request_id
                       for w in mine):
                    continue
                waiter.client.upgrades[waiter.request_id] = job
            elif mine:
                continue
            job.waiters.append(waiter)

    # ------------------------------------------------------------------
    # Resolution / response assembly
    # ------------------------------------------------------------------
    async def _resolve(self, spec: Dict) -> Tuple[str, Dict, Dict, str]:
        """Spec → (fingerprint, options, program payload, label), memoized
        so repeat traffic skips program construction entirely.

        Memo hits return synchronously; a miss builds the program and
        hashes its canonical form on the default thread executor so a
        heavy first-time registry spec cannot stall the warm lane (two
        racing misses on one key both compute — the result is
        deterministic, so the second write is a harmless overwrite).
        """
        key = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        hit = self._resolve_memo.get(key)
        if hit is not None:
            self._resolve_memo.move_to_end(key)
            return hit
        entry = await asyncio.get_running_loop().run_in_executor(
            None, self._resolve_uncached, spec)
        self._resolve_memo[key] = entry
        while len(self._resolve_memo) > RESOLVE_MEMO_ENTRIES:
            self._resolve_memo.popitem(last=False)
        return entry

    @staticmethod
    def _resolve_uncached(spec: Dict) -> Tuple[str, Dict, Dict, str]:
        job = resolve_spec(spec)
        return (job.fingerprint(), job.options,
                program_to_dict(job.program), job.label)

    def _remember_metrics(self, fingerprint: str,
                          result_metrics: Optional[Dict]) -> None:
        if result_metrics is None:
            return
        self._metrics_memo[fingerprint] = result_metrics
        self._metrics_memo.move_to_end(fingerprint)
        while len(self._metrics_memo) > METRICS_MEMO_ENTRIES:
            self._metrics_memo.popitem(last=False)

    def _result_frame(self, request_id: str, want: str, fingerprint: str,
                      text: str, cached: bool, queued_ms: float,
                      compile_ms: float,
                      known_metrics: Optional[Dict] = None,
                      tier: Optional[str] = None) -> Optional[Dict]:
        """Build one success frame; ``None`` if the artifact is corrupt."""
        frame = {
            "op": "compile", "id": request_id, "ok": True,
            "fingerprint": fingerprint, "cached": cached,
            "queued_ms": round(max(queued_ms, 0.0), 3),
            "compile_ms": round(compile_ms, 3),
        }
        if tier is not None:
            frame["tier"] = tier
        if want in ("metrics", "artifact"):
            metrics = known_metrics
            if metrics is None:
                metrics = self._metrics_memo.get(fingerprint)
                if metrics is not None:
                    self._metrics_memo.move_to_end(fingerprint)
            if metrics is None:
                try:
                    metrics = loads_artifact(text).metrics
                except (ValueError, KeyError, TypeError, AttributeError):
                    return None
                self._remember_metrics(fingerprint, metrics)
            frame["metrics"] = metrics
        if want == "artifact":
            frame["artifact"] = json.loads(text)
        return frame

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def worker_pids(self) -> List[int]:
        """Live pool worker pids (process mode), best effort."""
        if self._pool is None or self.config.workers < 1:
            return []
        try:
            return sorted(self._pool._processes.keys())
        except AttributeError:  # private layout changed: fall back
            return sorted(self._seen_worker_pids)

    async def stats_payload(self) -> Dict:
        return self.stats()

    def stats(self) -> Dict:
        snap = self.metrics.snapshot()
        # The daemon's own pid, so a cluster supervisor / soak harness can
        # target the node process behind a router without guessing.
        snap["pid"] = os.getpid()
        cache = self.cache.stats.as_dict()
        cache["hit_rate"] = (
            round(cache["hits"] / cache["lookups"], 4)
            if cache["lookups"] else None
        )
        snap["cache"] = cache
        snap["queue"] = {
            "depth": self._queued,
            "limit": self.config.queue_limit,
            "in_flight": self._in_flight,
            "cold_fingerprints": sum(
                1 for _, background in self._jobs if not background),
        }
        spec = snap.get("speculative", {})
        spec.update({
            "enabled": self.config.speculate,
            "queued": len(self._spec_queue),
            "in_flight": sum(job.background for job in self._running),
            "limit": self.config.speculative_limit,
        })
        snap["speculative"] = spec
        snap["connections"] = len(self._clients)
        snap["workers"] = {
            "mode": "process" if self.config.workers >= 1 else "thread",
            "configured": self.config.workers,
            "pids": self.worker_pids(),
            "restarts": self.metrics.get("worker_restarts"),
        }
        try:
            snap["open_fds"] = len(os.listdir("/proc/self/fd"))
        except OSError:
            snap["open_fds"] = None
        return snap


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------

def _compile_frame(request_id: str, spec: Dict, want: str,
                   tenant: Optional[str], want_upgrade: bool) -> Dict:
    frame = {"op": "compile", "id": request_id, "spec": spec, "want": want}
    if tenant is not None:
        frame["tenant"] = tenant
    if want_upgrade:
        frame["want_upgrade"] = True
    return frame


class GatewayClient:
    """Asyncio client for the gateway protocol (CLI, benchmark, tests).

    Serial helpers (:meth:`compile`, :meth:`stats`, :meth:`ping`) do one
    round trip; :meth:`run_specs` pipelines a whole corpus with a bounded
    in-flight window and collects streamed responses by id.
    """

    #: Ceiling on out-of-band frames parked for a later request(); beyond
    #: it the oldest are dropped (e.g. cancelled-compile errors nobody
    #: will ever ask for), so a long-lived client cannot leak memory.
    STASH_LIMIT = 256

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._stash: "OrderedDict[str, Dict]" = OrderedDict()
        self.hello: Optional[Dict] = None

    @staticmethod
    def _key(op: Optional[str], request_id) -> str:
        """Stash key of a frame: its id, except that the ``upgrade`` push
        and the ``cancel`` ack, which share an id with the compile
        response they trail, are keyed apart so none can shadow another."""
        if op in ("upgrade", "cancel"):
            return f"{op}:{request_id}"
        return str(request_id)

    def _stash_frame(self, frame: Dict) -> None:
        self._stash[self._key(frame.get("op"), frame.get("id"))] = frame
        while len(self._stash) > self.STASH_LIMIT:
            self._stash.popitem(last=False)

    @classmethod
    async def connect(cls, socket_path: Optional[str] = None,
                      host: str = "127.0.0.1", port: int = 0,
                      timeout: float = 10.0) -> "GatewayClient":
        reader, writer, hello = await open_frame_stream(
            socket_path, host, port, timeout)
        client = cls(reader, writer)
        client.hello = hello
        return client

    async def _read_frame(self) -> Dict:
        return await read_frame(self._reader)

    async def _send(self, frame: Dict) -> None:
        self._writer.write(encode_frame(frame))
        await self._writer.drain()

    async def _wait(self, op: Optional[str], request_id, what: str,
                    timeout: float) -> Dict:
        """The frame keyed ``(op, request_id)``, from the stash or the
        wire; every other frame read meanwhile is stashed for its own
        caller.  ``TimeoutError`` once ``timeout`` seconds pass."""
        key = self._key(op, request_id)
        if key in self._stash:
            return self._stash.pop(key)
        deadline = time.monotonic() + timeout
        error = f"no {what} for id {str(request_id)!r}"
        while True:
            frame = await self._read_by(deadline, error)
            if self._key(frame.get("op"), frame.get("id")) == key:
                return frame
            self._stash_frame(frame)

    async def _read_by(self, deadline: float, error: str) -> Dict:
        """The next frame, or ``TimeoutError(error)`` at ``deadline``."""
        try:
            return await asyncio.wait_for(
                self._read_frame(), max(deadline - time.monotonic(), 0.0))
        except asyncio.TimeoutError:
            raise TimeoutError(error) from None

    async def request(self, frame: Dict, timeout: float = 300.0) -> Dict:
        """One round trip; tolerates interleaved responses to other ids."""
        await self._send(frame)
        return await self._wait(frame.get("op"), frame.get("id"),
                                "response", timeout)

    async def compile(self, spec: Dict, request_id: str = "c1",
                      want: str = "metrics", timeout: float = 300.0,
                      tenant: Optional[str] = None,
                      want_upgrade: bool = False) -> Dict:
        return await self.request(
            _compile_frame(request_id, spec, want, tenant, want_upgrade),
            timeout=timeout)

    async def wait_upgrade(self, request_id: str,
                           timeout: float = 300.0) -> Dict:
        """Block until the ``upgrade`` push frame for ``request_id``
        arrives (the request must have been sent with ``want_upgrade``)."""
        return await self._wait("upgrade", request_id, "upgrade frame",
                                timeout)

    async def stats(self, timeout: float = 30.0) -> Dict:
        response = await self.request({"op": "stats", "id": "_stats"},
                                      timeout=timeout)
        return response["stats"]

    async def ping(self, timeout: float = 30.0) -> Dict:
        return await self.request({"op": "ping", "id": "_ping"},
                                  timeout=timeout)

    async def cancel(self, request_id: str, timeout: float = 30.0) -> Dict:
        """Cancel a compile; returns the cancel acknowledgement frame."""
        await self._send({"op": "cancel", "id": request_id})
        return await self._wait("cancel", request_id, "cancel ack", timeout)

    async def run_specs(self, specs: List[Dict], want: str = "metrics",
                        window: int = 32, id_prefix: str = "q",
                        timeout: float = 600.0,
                        tenant: Optional[str] = None,
                        want_upgrade: bool = False,
                        ) -> Tuple[List[Optional[Dict]], List[float]]:
        """Pipeline ``specs`` with ≤ ``window`` in flight.

        Returns ``(responses_by_input_index, per_request_latency_seconds)``;
        responses stream back in completion order and are re-keyed by id.
        """
        results: List[Optional[Dict]] = [None] * len(specs)
        latencies: List[float] = [0.0] * len(specs)
        sent_at: Dict[str, Tuple[int, float]] = {}
        next_index = 0
        deadline = time.monotonic() + timeout
        while next_index < len(specs) or sent_at:
            while next_index < len(specs) and len(sent_at) < window:
                rid = f"{id_prefix}{next_index}"
                sent_at[rid] = (next_index, time.perf_counter())
                await self._send(_compile_frame(
                    rid, specs[next_index], want, tenant, want_upgrade))
                next_index += 1
            response = await self._read_by(deadline, "corpus run timed out")
            rid = self._key(response.get("op"), response.get("id"))
            if rid not in sent_at:
                self._stash_frame(response)
                continue
            index, t0 = sent_at.pop(rid)
            results[index] = response
            latencies[index] = time.perf_counter() - t0
        return results, latencies

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except Exception:
            pass
