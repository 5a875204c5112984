"""Every terminal outcome of the gateway's two lanes, pinned.

A dispatched job of either lane ends one way: done, failed, cancelled,
or dropped once its cancelled runs reach the requeue cap.  The
foreground lane (``full``/``opt1``) answers with compile frames and the
request counters; the background lane (the ``opt3`` upgrade) answers
with ``upgrade`` pushes and the ``spec_*`` counters.  Each test runs a
thread-mode gateway with ``compile_and_publish`` replaced before
``start()``, so the outcome is chosen, not raced for, and each checks
that its ledger reconciles.  So does the one test of the requests the
gateway refuses before either lane: a bad spec, both admission limits,
and the waiters left at shutdown.
"""

import asyncio
import os
import threading
import time

from repro.service import CompileGateway, GatewayClient, GatewayConfig
from repro.service import gateway as gateway_module
from repro.service.batch import TIER_UPGRADE, Compiled
from repro.service.protocol import (E_BAD_SPEC, E_CANCELLED, E_COMPILE,
                                    E_OVERLOADED, E_SHUTTING_DOWN)

from helpers import ledger

SPEC_A = {"text": "{(XXI, 1.0), (YYI, 0.5), 0.3};", "label": "a"}
SPEC_B = {"text": "{(IZZ, -0.25), 0.7};", "label": "b"}
SPEC_C = {"text": "{(XZXZX, 1.0), 0.2};", "label": "c"}
SLOW_SPEC = {"benchmark": "Rand-30", "scale": "paper", "label": "slow"}

real_compile = gateway_module.compile_and_publish


def cancelled_outcome() -> Compiled:
    """What the step returns when the compile honoured its cancel flag."""
    return Compiled(None, 0.0, None, False, {}, os.getpid())


def wait_for_flag(job, timeout=30.0) -> bool:
    """Block (in the compile thread) until the job's cancel flag is up."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(job.cancel_path):
            return True
        time.sleep(0.005)
    return False


async def start_gateway(tmp_path, monkeypatch, fake, **overrides):
    monkeypatch.setattr(gateway_module, "compile_and_publish", fake)
    kwargs = dict(cache_root=str(tmp_path / "cache"), workers=0, port=0)
    kwargs.update(overrides)
    gateway = CompileGateway(GatewayConfig(**kwargs))
    await gateway.start()
    return gateway


async def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise TimeoutError("condition not reached")


def spec_settled(gateway):
    spec = gateway.stats()["speculative"]
    return (ledger(spec, "spec_enqueued") == 0 and spec["in_flight"] == 0
            and spec["queued"] == 0)


def test_foreground_compile_error_answers_and_counts_failed(
        tmp_path, monkeypatch):
    def fake(job, store):
        raise RuntimeError("boom")

    async def scenario():
        gateway = await start_gateway(tmp_path, monkeypatch, fake)
        client = await GatewayClient.connect(port=gateway.port)
        response = await client.compile(SPEC_A, "r1")
        assert not response["ok"]
        assert response["code"] == E_COMPILE
        assert response["error"] == "RuntimeError: boom"
        stats = await client.stats()
        req = stats["requests"]
        assert req["failed"] == 1 and req["completed"] == 0
        assert ledger(req) == 0
        assert stats["queue"]["cold_fingerprints"] == 0
        await client.close()
        await gateway.close()

    asyncio.run(scenario())


def test_foreground_cancel_honoured_every_time_runs_four_times(
        tmp_path, monkeypatch):
    runs = []

    def fake(job, store):
        runs.append(job.tier)
        return cancelled_outcome()

    async def scenario():
        gateway = await start_gateway(tmp_path, monkeypatch, fake)
        client = await GatewayClient.connect(port=gateway.port)
        response = await client.compile(SPEC_A, "r1")
        assert not response["ok"]
        assert response["code"] == E_CANCELLED
        assert runs == ["full"] * 4
        stats = await client.stats()
        req = stats["requests"]
        assert req["cancelled"] == 1 and req["admitted"] == 1
        assert ledger(req) == 0
        assert stats["queue"]["cold_fingerprints"] == 0
        assert stats["queue"]["depth"] == 0
        await client.close()
        await gateway.close()

    asyncio.run(scenario())


def test_background_failure_drops_and_pushes_failed(tmp_path, monkeypatch):
    def fake(job, store):
        if job.tier == TIER_UPGRADE:
            raise RuntimeError("upgrade broke")
        return real_compile(job, store)

    async def scenario():
        gateway = await start_gateway(tmp_path, monkeypatch, fake,
                                      speculate=True)
        client = await GatewayClient.connect(port=gateway.port)
        cold = await client.compile(SPEC_A, "r1", want_upgrade=True)
        assert cold["ok"] and cold["tier"] == "opt1"
        push = await client.wait_upgrade("r1", timeout=30)
        assert push == {"op": "upgrade", "id": "r1", "ok": False,
                        "fingerprint": cold["fingerprint"],
                        "state": "failed"}
        await wait_until(lambda: spec_settled(gateway))
        stats = await client.stats()
        spec = stats["speculative"]
        assert spec["spec_enqueued"] == 1 and spec["spec_dropped"] == 1
        assert ledger(spec, "spec_enqueued") == 0
        req = stats["requests"]
        assert req["completed"] == 1 and req["failed"] == 0
        assert ledger(req) == 0
        await client.close()
        await gateway.close()

    asyncio.run(scenario())


def test_background_cancelled_every_time_runs_four_times_then_drops(
        tmp_path, monkeypatch):
    runs = []

    def fake(job, store):
        if job.tier == TIER_UPGRADE:
            runs.append(job.fingerprint)
            return cancelled_outcome()
        return real_compile(job, store)

    async def scenario():
        gateway = await start_gateway(tmp_path, monkeypatch, fake,
                                      speculate=True)
        client = await GatewayClient.connect(port=gateway.port)
        cold = await client.compile(SPEC_A, "r1", want_upgrade=True)
        assert cold["ok"] and cold["tier"] == "opt1"
        push = await client.wait_upgrade("r1", timeout=30)
        assert push == {"op": "upgrade", "id": "r1", "ok": False,
                        "fingerprint": cold["fingerprint"],
                        "state": "dropped"}
        assert runs == [cold["fingerprint"]] * 4
        await wait_until(lambda: spec_settled(gateway))
        stats = await client.stats()
        spec = stats["speculative"]
        assert spec["spec_enqueued"] == 1 and spec["spec_dropped"] == 1
        assert spec["spec_cancelled"] == 0
        assert ledger(spec, "spec_enqueued") == 0
        req = stats["requests"]
        assert ledger(req) == 0
        await client.close()
        await gateway.close()

    asyncio.run(scenario())


def test_cancelling_the_one_subscription_withdraws_the_client(
        tmp_path, monkeypatch):
    """``r2`` (no ``want_upgrade``) keeps the client interested in the
    upgrade ``r1`` subscribed to, but holds no subscription of its own:
    cancelling ``r1`` withdraws the client, and with it the job."""
    def fake(job, store):
        if job.tier == TIER_UPGRADE:
            # Never finishes on its own: only the withdrawal ends it.
            wait_for_flag(job)
            return cancelled_outcome()
        return real_compile(job, store)

    async def scenario():
        gateway = await start_gateway(tmp_path, monkeypatch, fake,
                                      speculate=True)
        client = await GatewayClient.connect(port=gateway.port)
        cold = await client.compile(SLOW_SPEC, "r1", want_upgrade=True,
                                    timeout=240)
        assert cold["ok"] and cold["tier"] == "opt1"
        warm = await client.compile(SLOW_SPEC, "r2", timeout=240)
        assert warm["cached"] and warm["tier"] == "opt1"
        ack = await client.cancel("r1")
        assert ack["state"] == "upgrade-cancelled"
        await wait_until(lambda: spec_settled(gateway))
        stats = await client.stats()
        spec = stats["speculative"]
        assert spec["spec_enqueued"] == 1
        assert spec["spec_cancelled"] == 1
        assert ledger(spec, "spec_enqueued") == 0
        req = stats["requests"]
        assert ledger(req) == 0
        await client.ping()
        assert not any(k.startswith("upgrade:") for k in client._stash)
        await client.close()
        await gateway.close()

    asyncio.run(scenario())


def test_close_accounts_queued_background_jobs(tmp_path, monkeypatch):
    release = threading.Event()

    def fake(job, store):
        # An upgrade waits for the release, yielding to cold arrivals
        # (their preemption raises its cancel flag) until then.
        deadline = time.monotonic() + 30
        while job.tier == TIER_UPGRADE and not release.wait(0.005):
            if os.path.exists(job.cancel_path) or \
                    time.monotonic() > deadline:
                return cancelled_outcome()
        return real_compile(job, store)

    async def scenario():
        gateway = await start_gateway(tmp_path, monkeypatch, fake,
                                      speculate=True)
        client = await GatewayClient.connect(port=gateway.port)
        for rid, spec in (("a", SPEC_A), ("b", SPEC_B), ("c", SPEC_C)):
            cold = await client.compile(spec, rid)
            assert cold["ok"] and cold["tier"] == "opt1"

        def two_queued_one_running():
            spec = gateway.stats()["speculative"]
            return spec["queued"] == 2 and spec["in_flight"] == 1

        await wait_until(two_queued_one_running)
        closing = asyncio.ensure_future(gateway.close())
        await asyncio.sleep(0.05)
        release.set()
        await closing
        stats = gateway.stats()
        spec = stats["speculative"]
        assert spec["spec_enqueued"] == 3
        assert spec["spec_upgraded"] == 1 and spec["spec_dropped"] == 2
        assert ledger(spec, "spec_enqueued") == 0
        assert spec["queued"] == 0 and spec["in_flight"] == 0
        req = stats["requests"]
        assert req["completed"] == 3
        assert ledger(req) == 0
        await client.close()

    asyncio.run(scenario())


def test_refusals_answer_and_count_one_outcome_each(tmp_path, monkeypatch):
    """A request the gateway will not compile is answered with its error
    code and counted once: a bad spec, both admission limits, and the
    waiters a shutdown leaves behind."""
    release = threading.Event()

    def fake(job, store):
        release.wait(30)
        return cancelled_outcome()

    async def scenario():
        gateway = await start_gateway(tmp_path, monkeypatch, fake,
                                      per_client_limit=1, queue_limit=1)
        a = await GatewayClient.connect(port=gateway.port)
        b = await GatewayClient.connect(port=gateway.port)
        bad = await a.compile({"benchmark": "No-Such"}, "bad")
        assert bad["code"] == E_BAD_SPEC
        await a._send({"op": "compile", "id": "r1", "spec": SPEC_A})
        await wait_until(lambda: gateway.stats()["queue"]["in_flight"] == 1)
        over = await a.compile(SPEC_B, "r2")
        assert over["code"] == E_OVERLOADED           # per-client limit
        await b._send({"op": "compile", "id": "q1", "spec": SPEC_B})
        await wait_until(lambda: gateway.stats()["queue"]["depth"] == 1)
        full = await b.compile(SPEC_C, "q2")
        assert full["code"] == E_OVERLOADED           # queue limit
        closing = asyncio.ensure_future(gateway.close(drain=False))
        for client, rid in ((a, "r1"), (b, "q1")):
            frame = await asyncio.wait_for(client._read_frame(), 30)
            assert (frame["id"], frame["code"]) == (rid, E_SHUTTING_DOWN)
        release.set()
        await closing
        req = gateway.stats()["requests"]
        assert req["received"] == 5 and req["bad_specs"] == 1
        assert req["rejected"] == 4 and req["admitted"] == 2
        assert ledger(req) == 0
        await a.close()
        await b.close()

    asyncio.run(scenario())
