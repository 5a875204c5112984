"""The serving workloads: ``serve-mixed`` and ``serve-cluster``.

``serve-mixed`` starts a real ``repro serve --workers 1`` daemon on an
on-disk cache, pre-warms a Zipf-popular hot set larger than the
gateway's 256-entry memory front, and drives it open loop from one
asyncio generator over two connections: Poisson arrivals at a fixed
rate, each request timed from when it was due.  About 90% of requests
are warm (some re-rendered with shuffled term order, which misses the
gateway's resolve memo but still hits the cache; some asking for the
full artifact) and 10% are fresh programs the cache has never seen.

``serve-cluster`` starts ``repro serve-cluster --nodes 2 --workers 1``,
pre-warms a hot set through the router and drives warm requests closed
loop on two connections.  It runs no compiles, so only the router hop,
the node gateways and the cache are exercised.

After each run the daemon's ``stats`` must reconcile (``received`` equals
the sum of the outcomes, at every level), its queue must be empty, and it
must exit cleanly on SIGTERM.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (ROOT, WORK, Tracer, median, percentile, reference_seconds,
                    tail_supported, vm_hwm_mb)

from repro.service.artifact import dumps_artifact, loads_artifact, program_to_dict
from repro.service.batch import resolve_spec
from repro.service.cache import CompileCache
from repro.service.cluster import HashRing
from repro.service.protocol import MAX_FRAME_BYTES, encode_frame
from repro.verify import verify_result
from repro.workloads.random_hamiltonian import random_hamiltonian_program

#: Open-loop arrival rate of serve-mixed, calibrated so that the one
#: worker is 50-70% busy with the fresh programs on a 2-core machine.
MIXED_RATE = 200.0
COLD_SHARE = 0.10
#: Shares of the warm requests that are re-rendered / ask for artifacts.
RERENDER_SHARE = 0.10
ARTIFACT_SHARE = 0.10
ZIPF_EXPONENT = 1.0
HOT_MIXED = 320        # above the gateway's 256-entry memory front
HOT_CLUSTER = 192
HOT_SET_SEED = 2022
CONNECTIONS = 2
#: Paired router/direct requests behind the traced hop percentiles.
HOP_PAIRS = 1100
#: Fresh programs re-fetched as artifacts and verified after a run.
VERIFY_FRESH = 40
REQUEST_TIMEOUT = 60.0
#: Reference loops timed just before and just after the traffic.
REFERENCE_LOOPS = 15
_OUTCOMES = ("warm_hits", "completed", "failed", "cancelled", "rejected",
             "bad_specs")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def _program(rng: random.Random, qubits: Tuple[int, int],
             strings: Tuple[int, int], name: str):
    return random_hamiltonian_program(
        rng.randint(*qubits), num_strings=rng.randint(*strings),
        seed=rng.randrange(2 ** 31), name=name)


def _spec(program) -> Dict:
    return {"program": program_to_dict(program), "backend": "ft",
            "label": program.name}


def _rerender(spec: Dict, rng: random.Random) -> Dict:
    """The same program with blocks and terms in a new order: a different
    spec document (a resolve-memo miss) with the same fingerprint."""
    payload = json.loads(json.dumps(spec["program"]))
    for block in payload["blocks"]:
        rng.shuffle(block["strings"])
    rng.shuffle(payload["blocks"])
    return {**spec, "program": payload}


class Zipf:
    def __init__(self, n: int, exponent: float):
        weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
        total = sum(weights)
        self.cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self.cumulative.append(acc)

    def draw(self, rng: random.Random) -> int:
        return min(bisect.bisect_left(self.cumulative, rng.random()),
                   len(self.cumulative) - 1)


@dataclass
class Request:
    rid: str
    at: float                 # due time, seconds after the traffic starts
    kind: str                 # warm | rerender | artifact | cold
    program: int              # hot rank, or fresh index for "cold"
    frame: bytes


@dataclass
class Inputs:
    hot: List = field(default_factory=list)
    hot_specs: List[Dict] = field(default_factory=list)
    fresh: List = field(default_factory=list)
    requests: List[Request] = field(default_factory=list)
    build_ms: float = 0.0


def build_inputs(workload: str, seed: int, seconds: float,
                 tiny: bool) -> Inputs:
    """Everything the generator sends, built up front.  The hot set is the
    same for every seed (it stands for a fixed population of popular
    kernels); the fresh programs, the Zipf ranks, the request mix order
    and the arrival schedule come from the seed."""
    t0 = time.perf_counter()
    inputs = Inputs()
    hot_count = 24 if tiny else (HOT_MIXED if workload == "serve-mixed"
                                 else HOT_CLUSTER)
    hot_rng = random.Random(HOT_SET_SEED)
    inputs.hot = [_program(hot_rng, (4, 8), (8, 24), f"hot-{i}")
                  for i in range(hot_count)]
    inputs.hot_specs = [_spec(p) for p in inputs.hot]
    if workload == "serve-mixed":
        rng = random.Random(seed)
        rate = 40.0 if tiny else MIXED_RATE
        total = max(1, round(rate * seconds))
        cold = round(total * COLD_SHARE)
        rerender = round((total - cold) * RERENDER_SHARE)
        artifact = round((total - cold) * ARTIFACT_SHARE)
        kinds = (["cold"] * cold + ["rerender"] * rerender
                 + ["artifact"] * artifact
                 + ["warm"] * (total - cold - rerender - artifact))
        rng.shuffle(kinds)
        zipf = Zipf(hot_count, ZIPF_EXPONENT)
        at = 0.0
        for k, kind in enumerate(kinds):
            at += rng.expovariate(rate)
            want = "artifact" if kind == "artifact" else "metrics"
            if kind == "cold":
                index = len(inputs.fresh)
                inputs.fresh.append(_program(rng, (12, 16), (60, 120),
                                             f"fresh-{index}"))
                spec = _spec(inputs.fresh[-1])
            else:
                index = zipf.draw(rng)
                spec = inputs.hot_specs[index]
                if kind == "rerender":
                    spec = _rerender(spec, rng)
            frame = encode_frame({"op": "compile", "id": f"r{k}",
                                  "spec": spec, "want": want})
            inputs.requests.append(Request(f"r{k}", at, kind, index, frame))
    inputs.build_ms = (time.perf_counter() - t0) * 1e3
    return inputs


# ----------------------------------------------------------------------
# Daemon and connections
# ----------------------------------------------------------------------

class Daemon:
    """A ``repro serve`` or ``repro serve-cluster`` subprocess."""

    def __init__(self, workload: str, root: Path):
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        self.root = root
        self.cluster = workload == "serve-cluster"
        limits = ["--workers", "1", "--queue-limit", "256",
                  "--per-client-limit", "256"]
        if self.cluster:
            self.socket = str(root / "router.sock")
            command = ["serve-cluster", str(root), "--nodes", "2"] + limits
        else:
            self.socket = str(root / "gw.sock")
            command = ["serve", "--socket", self.socket,
                       "--cache", str(root / "store")] + limits
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "")
                                   .split(os.pathsep) if p])
        self.log = open(root / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli"] + command,
            stdout=self.log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        #: Every serving process seen in ``stats`` (daemon, nodes, workers).
        self.pids: set = {self.proc.pid}

    def node_sockets(self) -> Dict[str, str]:
        return {f"node-{i}": str(self.root / f"node-{i}.sock")
                for i in range(2)}

    async def wait_ready(self, timeout: float = 90.0) -> "Conn":
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}"
                                   f" (log: {self.root / 'daemon.log'})")
            try:
                conn = await Conn.open(self.socket)
            except OSError:
                await asyncio.sleep(0.05)
                continue
            stats = await conn.stats()
            if not self.cluster or stats["router"]["nodes_healthy"] == 2:
                self.track(stats)
                return conn
            await conn.close()
            await asyncio.sleep(0.05)
        raise TimeoutError("daemon did not become ready")

    def track(self, stats: Dict) -> None:
        """Remember the pids a stats payload names, for memory and for
        making sure every one of them is gone after shutdown."""
        sections = [stats]
        if self.cluster:
            self.pids.add(stats["router"]["pid"])
            sections = [n["stats"] for n in stats["nodes"].values()
                        if n.get("stats")]
        for section in sections:
            self.pids.add(section["pid"])
            self.pids.update(section["workers"]["pids"])

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in self.pids)

    def stop(self, timeout: float = 30.0) -> bool:
        """SIGTERM and wait; ``True`` for a clean exit (code 0) with every
        serving process gone."""
        clean = False
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            clean = self.proc.wait(timeout=timeout) == 0
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + 10.0
        for pid in self.pids - {self.proc.pid}:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(pid):
                clean = False
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.log.close()
        return clean


def _alive(pid: int) -> bool:
    try:
        status = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return status.rsplit(")", 1)[1].split()[0] != "Z"


class Conn:
    """One protocol connection with a reader task matching frames by id."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.pending: Dict[str, asyncio.Future] = {}
        self.task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, path: str) -> "Conn":
        reader, writer = await asyncio.open_unix_connection(
            path, limit=MAX_FRAME_BYTES)
        await asyncio.wait_for(reader.readline(), 10.0)   # hello
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                received = time.perf_counter()
                if not line:
                    break
                frame = json.loads(line)
                future = self.pending.pop(str(frame.get("id")), None)
                if future is not None and not future.done():
                    future.set_result((frame, received))
        finally:
            for future in self.pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))

    def send(self, rid: str, data: bytes) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.pending[rid] = future
        self.writer.write(data)
        return future

    async def request(self, payload: Dict) -> Tuple[Dict, float]:
        """One round trip: ``(frame, seconds)``."""
        sent = time.perf_counter()
        future = self.send(str(payload["id"]), encode_frame(payload))
        await self.writer.drain()
        frame, received = await asyncio.wait_for(future, REQUEST_TIMEOUT)
        return frame, received - sent

    async def stats(self) -> Dict:
        frame, _ = await self.request({"op": "stats", "id": "stats"})
        return frame["stats"]

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.task.cancel()


async def prewarm(conn: Conn, specs: List[Dict], window: int = 8) -> List[Dict]:
    """Compile the hot set through the daemon; returns each answer."""
    answers: List[Optional[Dict]] = [None] * len(specs)

    async def one(index: int):
        frame, _ = await conn.request({"op": "compile", "id": f"w{index}",
                                       "spec": specs[index]})
        answers[index] = frame

    for start in range(0, len(specs), window):
        await asyncio.gather(*(one(i) for i in
                               range(start, min(start + window, len(specs)))))
    bad = [a for a in answers if not a.get("ok")]
    if bad:
        raise RuntimeError(f"pre-warm failed: {bad[0]}")
    return answers


# ----------------------------------------------------------------------
# Ledgers
# ----------------------------------------------------------------------

def _ledger_errors(where: str, section: Dict, queue_depth: int) -> List[str]:
    requests = section["requests"]
    errors = []
    outcomes = sum(requests[name] for name in _OUTCOMES)
    if requests["received"] != outcomes:
        errors.append(f"{where}: received {requests['received']} != "
                      f"sum(outcomes) {outcomes}")
    if queue_depth:
        errors.append(f"{where}: queue depth {queue_depth} after the run")
    for name in ("failed", "cancelled", "rejected", "bad_specs"):
        if requests[name]:
            errors.append(f"{where}: {requests[name]} {name}")
    return errors


def ledger_errors(stats: Dict, cluster: bool) -> List[str]:
    if not cluster:
        return _ledger_errors("gateway", stats, stats["queue"]["depth"])
    errors = _ledger_errors("router", stats["router"],
                            stats["router"]["outstanding"])
    for name, node in stats["nodes"].items():
        if not node.get("stats"):
            errors.append(f"{name}: no stats (unhealthy)")
            continue
        errors += _ledger_errors(name, node["stats"],
                                 node["stats"]["queue"]["depth"])
    errors += _ledger_errors("cluster", stats["cluster"], 0)
    return errors


def cache_counters(stats: Dict, cluster: bool) -> Dict[str, int]:
    return stats["cluster"]["cache"] if cluster else stats["cache"]


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    kind: str
    program: int
    due: float
    sent: float
    received: float = 0.0
    frame: Optional[Dict] = None
    error: Optional[str] = None


async def open_loop(conns: List[Conn], requests: List[Request]) -> List[Outcome]:
    """Send every request at its due time, whatever the replies do."""
    start = time.perf_counter() + 0.05
    outcomes: List[Outcome] = []
    waits = []
    for k, request in enumerate(requests):
        due = start + request.at
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        conn = conns[k % len(conns)]
        outcome = Outcome(request.kind, request.program, due,
                          time.perf_counter())
        outcomes.append(outcome)
        waits.append((outcome, conn.send(request.rid, request.frame)))
        if conn.writer.transport.get_write_buffer_size() > 1 << 16:
            await conn.writer.drain()
    for outcome, future in waits:
        try:
            frame, received = await asyncio.wait_for(
                future, max(0.1, outcome.sent + REQUEST_TIMEOUT
                            - time.perf_counter()))
            outcome.frame, outcome.received = frame, received
        except (asyncio.TimeoutError, ConnectionError) as exc:
            outcome.error = f"{outcome.kind} request: {type(exc).__name__}"
    return outcomes


async def closed_loop(conns: List[Conn], specs: List[Dict], seed: int,
                      seconds: float) -> List[Outcome]:
    """Each connection sends its next warm request when the last returns."""
    zipf = Zipf(len(specs), ZIPF_EXPONENT)
    deadline = time.perf_counter() + seconds
    outcomes: List[Outcome] = []

    async def client(index: int, conn: Conn):
        rng = random.Random(seed * 31 + index)
        k = 0
        while time.perf_counter() < deadline:
            rank = zipf.draw(rng)
            data = encode_frame({"op": "compile", "id": f"c{index}-{k}",
                                 "spec": specs[rank]})
            k += 1
            outcome = Outcome("warm", rank, 0.0, time.perf_counter())
            outcome.due = outcome.sent
            outcomes.append(outcome)
            try:
                frame, outcome.received = await asyncio.wait_for(
                    conn.send(f"c{index}-{k - 1}", data), REQUEST_TIMEOUT)
                outcome.frame = frame
            except (asyncio.TimeoutError, ConnectionError) as exc:
                outcome.error = f"warm request: {type(exc).__name__}"

    await asyncio.gather(*(client(i, c) for i, c in enumerate(conns)))
    return outcomes


def outcome_errors(outcomes: List[Outcome], hot_answers: List[Dict]) -> List[str]:
    errors = []
    for o in outcomes:
        if o.error is not None:
            errors.append(o.error)
        elif not o.frame.get("ok"):
            errors.append(f"{o.kind} request: {o.frame.get('code')}: "
                          f"{o.frame.get('error')}")
        elif o.kind == "cold":
            if o.frame.get("cached"):
                errors.append(f"fresh-{o.program} was served from the cache")
        elif not o.frame.get("cached"):
            errors.append(f"hot-{o.program} ({o.kind}) missed the cache")
        elif o.frame["metrics"] != hot_answers[o.program]["metrics"]:
            errors.append(f"hot-{o.program} ({o.kind}) answered different "
                          f"gate counts than at pre-warm")
    return errors


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

async def _start(workload: str, seed: int, tag: str, inputs: Inputs):
    daemon = Daemon(workload, WORK / f"{workload}-{seed}-{tag}")
    try:
        conn = await daemon.wait_ready()
        answers = await prewarm(conn, inputs.hot_specs)
    except BaseException:
        daemon.stop()
        raise
    return daemon, conn, answers


async def _setup_probe(workload: str, seed: int, seconds: float,
                       tiny: bool, tag: str) -> float:
    inputs = build_inputs(workload, seed, seconds, tiny)
    daemon, conn, _ = await _start(workload, seed, tag, inputs)
    done = time.perf_counter()
    await conn.close()
    daemon.stop()
    shutil.rmtree(daemon.root, ignore_errors=True)
    return done


def setup_probe(workload: str, seed: int, seconds: float, tiny: bool,
                tag: str) -> float:
    """Set the workload up and tear it down; returns when set-up ended."""
    return asyncio.run(_setup_probe(workload, seed, seconds, tiny, tag))


def _sum_counts(answers: List[Dict]) -> Dict[str, float]:
    return {
        "cnot": sum(a["metrics"]["cnot"] for a in answers),
        "gates": sum(a["metrics"]["total"] for a in answers),
        "depth": sum(a["metrics"]["depth"] for a in answers),
    }


def _pct(samples: List[float], p: float) -> float:
    return percentile(samples, p) if tail_supported(len(samples), p) \
        or p <= 50 else 0.0


async def _run(workload: str, seed: int, seconds: float, tiny: bool,
               traced: bool) -> Dict:
    cluster = workload == "serve-cluster"
    inputs = build_inputs(workload, seed, seconds, tiny)
    daemon, conn, hot_answers = await _start(
        workload, seed, "trace" if traced else "main", inputs)
    failures: List[str] = []
    try:
        conns = [conn] + [await Conn.open(daemon.socket)
                          for _ in range(CONNECTIONS - 1)]
        setup_done = time.perf_counter()
        references = [reference_seconds() for _ in range(REFERENCE_LOOPS)]
        before = await conn.stats()
        traffic_start = time.perf_counter()
        if cluster:
            outcomes = await closed_loop(conns, inputs.hot_specs, seed, seconds)
        else:
            outcomes = await open_loop(conns, inputs.requests)
        traffic_s = time.perf_counter() - traffic_start
        references += [reference_seconds() for _ in range(REFERENCE_LOOPS)]
        after = await conn.stats()
        daemon.track(after)
        failures += outcome_errors(outcomes, hot_answers)
        failures += ledger_errors(after, cluster)
        fresh_checks = await verify_fresh(conn, inputs, seed, failures,
                                          tiny) if not cluster else 0
        failures += verify_artifacts(outcomes, inputs)
        layers, layer_samples = {}, {}
        if traced:
            layers, layer_samples = await traced_layers(
                daemon, conns, inputs, outcomes, hot_answers, before, after,
                cluster, tiny)
        final = await conn.stats()
        daemon.track(final)
        peak_rss = daemon.peak_rss_mb()
        for c in conns:
            await c.close()
    finally:
        clean = daemon.stop()
    if not clean:
        failures.append("daemon did not exit cleanly on SIGTERM")
    shutil.rmtree(daemon.root, ignore_errors=True)

    latencies = [o.received - o.due for o in outcomes if o.frame is not None]
    warm = [1e3 * (o.received - o.due) for o in outcomes
            if o.kind != "cold" and o.frame is not None]
    cold = [1e3 * (o.received - o.due) for o in outcomes
            if o.kind == "cold" and o.frame is not None]
    lag = [1e3 * (o.sent - o.due) for o in outcomes]
    client = {
        "client.warm_ms.p50": _pct(warm, 50),
        "client.warm_ms.p99": _pct(warm, 99),
        "client.cold_ms.p50": _pct(cold, 50),
        "client.cold_ms.p95": _pct(cold, 95),
        "client.lag_ms.p99": 0.0 if cluster else _pct(lag, 99),
        "client.throughput_rps": len(latencies) / traffic_s,
    }
    lag_p99 = percentile(lag, 99)
    if not cluster and lag_p99 > 50.0:
        # The generator itself fell behind: the schedule was not honoured,
        # so latencies from due time are not what the daemon imposed.
        failures.append(f"invalid run: generator lag p99 {lag_p99:.1f} ms")
    metrics = {
        "latency_ms": 1e3 * median(latencies),
        "peak_rss_mb": peak_rss,
        # Warm answers were checked equal to these pre-warm answers.
        **_sum_counts(hot_answers),
    }
    result = {
        "setup_done": setup_done,
        "reference_s": median(references),
        "attempted": len(outcomes) + fresh_checks + 1,
        "failures": failures,
        "metrics": metrics,
        "report": {
            **client,
            "samples": {"all": len(latencies), "warm": len(warm),
                        "cold": len(cold), **layer_samples},
        },
    }
    if traced:
        result["metrics"] = {**layers, **client,
                             "workloads.build_ms": inputs.build_ms}
        result["tracer"] = request_spans(outcomes)
    return result


def request_spans(outcomes: List[Outcome]) -> Tracer:
    """One client-side span per request, from send to reply, carrying
    its due time and the frame's queue and compile times."""
    tracer = Tracer()
    for o in outcomes:
        frame = o.frame or {}
        tracer.spans.append({
            "id": len(tracer.spans), "name": f"client.{o.kind}",
            "parent": None, "start": o.sent, "end": o.received or None,
            "due": o.due, "children_s": 0.0, "ok": bool(frame.get("ok")),
            "queued_ms": frame.get("queued_ms"),
            "compile_ms": frame.get("compile_ms")})
    return tracer


def run(workload: str, seed: int, seconds: float, tiny: bool) -> Dict:
    return asyncio.run(_run(workload, seed, seconds, tiny, traced=False))


def run_traced(workload: str, seed: int, seconds: float, tiny: bool) -> Dict:
    return asyncio.run(_run(workload, seed, seconds, tiny, traced=True))


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

async def verify_fresh(conn: Conn, inputs: Inputs, seed: int,
                       failures: List[str], tiny: bool) -> int:
    """Fetch a seeded sample of the fresh programs' artifacts (now warm)
    and check them with the Pauli-propagation verifier."""
    rng = random.Random(seed)
    sample = rng.sample(range(len(inputs.fresh)),
                        min(len(inputs.fresh), 4 if tiny else VERIFY_FRESH))
    for index in sample:
        program = inputs.fresh[index]
        frame, _ = await conn.request({"op": "compile", "id": f"v{index}",
                                       "spec": _spec(program),
                                       "want": "artifact"})
        if not frame.get("ok"):
            failures.append(f"fresh-{index}: artifact fetch failed")
            continue
        result = loads_artifact(json.dumps(frame["artifact"]))
        if not verify_result(program, result).ok:
            failures.append(f"fresh-{index}: served circuit fails verify")
    return len(sample)


def verify_artifacts(outcomes: List[Outcome], inputs: Inputs) -> List[str]:
    errors = []
    for o in outcomes:
        if o.kind == "artifact" and o.frame is not None and o.frame.get("ok"):
            result = loads_artifact(json.dumps(o.frame["artifact"]))
            if not verify_result(inputs.hot[o.program], result).ok:
                errors.append(f"hot-{o.program}: artifact fails verify")
    return errors


# ----------------------------------------------------------------------
# Traced run: per-layer numbers from outside the daemon
# ----------------------------------------------------------------------

async def traced_layers(daemon: Daemon, conns: List[Conn], inputs: Inputs,
                        outcomes: List[Outcome], hot_answers: List[Dict],
                        before: Dict, after: Dict, cluster: bool,
                        tiny: bool) -> Tuple[Dict[str, float], Dict]:
    """The per-layer metrics, and the sample count behind each
    percentile."""
    ok = [o for o in outcomes if o.frame is not None and o.frame.get("ok")]
    cold = [o.frame for o in ok if o.kind == "cold"]
    queued = [f["queued_ms"] for f in cold]
    compile_ms = [f["compile_ms"] for f in cold]
    overhead = [1e3 * (o.received - o.sent) - o.frame["queued_ms"]
                - o.frame["compile_ms"] for o in ok]
    c0 = cache_counters(before, cluster)
    c1 = cache_counters(after, cluster)
    hits = (c1["memory_hits"] + c1["disk_hits"]
            - c0["memory_hits"] - c0["disk_hits"])
    lookups = hits + c1["misses"] - c0["misses"]
    span = max(o.received for o in ok) - min(o.sent for o in ok) if ok else 1.0
    layers = {
        "service.gateway.queue_wait_ms.p50": _pct(queued, 50),
        "service.gateway.queue_wait_ms.p95": _pct(queued, 95),
        "service.batch.compile_ms.p50": _pct(compile_ms, 50),
        "service.batch.compile_ms.p95": _pct(compile_ms, 95),
        "service.batch.utilization": sum(compile_ms) / 1e3 / span,
        "service.gateway.overhead_ms.p50": _pct(overhead, 50),
        "service.cache.hit_ratio": hits / max(1, lookups),
        "service.cache.disk_hit_ratio":
            (c1["disk_hits"] - c0["disk_hits"]) / max(1, hits),
    }
    layers.update(_replay_layers(daemon, inputs, outcomes, hot_answers,
                                 cluster))
    samples = {"cold_frames": len(cold), "overhead": len(overhead)}
    if cluster:
        hop = await hop_samples(daemon, conns[0], inputs, hot_answers,
                                50 if tiny else HOP_PAIRS)
        layers["service.cluster.hop_ms.p50"] = _pct(hop, 50)
        layers["service.cluster.hop_ms.p99"] = _pct(hop, 99)
        samples["hop_pairs"] = len(hop)
    return layers, samples


def _replay_layers(daemon: Daemon, inputs: Inputs, outcomes: List[Outcome],
                   hot_answers: List[Dict], cluster: bool) -> Dict[str, float]:
    """Time, in this process, the calls the daemon makes on the same data:
    fingerprinting re-rendered specs, artifact codec, cache put and disk
    reads of the daemon's own store."""

    def timed(fn, items) -> List[float]:
        out = []
        for item in items:
            t0 = time.perf_counter()
            fn(item)
            out.append(1e3 * (time.perf_counter() - t0))
        return out

    rng = random.Random(len(outcomes))
    rerendered = [_rerender(inputs.hot_specs[i], rng)
                  for i in range(min(len(inputs.hot_specs), 100))]
    jobs = [resolve_spec(spec) for spec in rerendered]
    layers = {"service.fingerprint.ms":
              median(timed(lambda job: job.fingerprint(), jobs))}
    texts = [json.dumps(o.frame["artifact"]) for o in outcomes
             if o.kind == "artifact" and o.frame is not None
             and o.frame.get("ok")][:200]
    if texts:
        results = [loads_artifact(t) for t in texts]
        layers["service.artifact.kb"] = median(len(t) / 1024.0 for t in texts)
        layers["service.artifact.decode_ms"] = median(timed(loads_artifact,
                                                            texts))
        layers["service.artifact.encode_ms"] = median(timed(dumps_artifact,
                                                            results))
        scratch = CompileCache(daemon.root / "replay-store")
        layers["service.cache.put_ms"] = median(timed(
            lambda t: scratch.put(f"{hash(t) & (2 ** 64 - 1):064x}", t),
            texts))
    stores = ([daemon.root / f"store-{i}" for i in range(2)] if cluster
              else [daemon.root / "store"])
    fingerprints = [a["fingerprint"] for a in hot_answers]

    def read(fingerprint):
        for root in stores:
            if CompileCache(root).get_disk(fingerprint) is not None:
                return
        raise RuntimeError(f"{fingerprint} is in no store")

    layers["service.cache.get_disk_ms"] = median(timed(read, fingerprints))
    return layers


async def hop_samples(daemon: Daemon, router: Conn, inputs: Inputs,
                      hot_answers: List[Dict], pairs: int) -> List[float]:
    """The same warm spec through the router and straight to its owning
    node, alternately; returns router minus direct round trip, in ms."""
    ring = HashRing(["node-0", "node-1"], vnodes=128)
    direct = {name: await Conn.open(path)
              for name, path in daemon.node_sockets().items()}
    rng = random.Random(pairs)
    zipf = Zipf(len(inputs.hot_specs), ZIPF_EXPONENT)
    hops = []
    try:
        for k in range(pairs):
            rank = zipf.draw(rng)
            payload = {"op": "compile", "id": f"h{k}",
                       "spec": inputs.hot_specs[rank]}
            owner = ring.owner(hot_answers[rank]["fingerprint"])
            via_router, t_router = await router.request(payload)
            at_node, t_direct = await direct[owner].request(payload)
            if via_router.get("cached") and at_node.get("cached"):
                hops.append(1e3 * (t_router - t_direct))
    finally:
        for conn in direct.values():
            await conn.close()
    return hops
