"""Soak test: 60 seconds of hostile traffic against a real gateway.

Run with ``-m slow`` (excluded from tier-1; the nightly CI job runs it).
``REPRO_SOAK_SECONDS`` shortens the churn window for local iteration.

One ``repro.cli serve`` subprocess (process-pool workers, on-disk cache,
unix socket) takes:

* churning well-behaved clients (connect, mixed warm/cold/stats/ping
  traffic, disconnect, reconnect);
* rude clients that send garbage frames or slam the connection shut with
  requests still in flight;
* an injector that SIGKILLs a random pool worker every few seconds —
  with speculation on, kills land during background opt-3 upgrades too,
  so the speculative ledger is audited under worker death.

Afterwards the gateway must still be coherent: queue drained, no leaked
in-flight work, a stats ledger that reconciles (every received request
has exactly one outcome), responses the clients actually got accounted
for, file descriptors back to idle, a clean SIGTERM exit, no orphaned
worker processes, and no partial artifacts in the store.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import helpers
from repro.service import GatewayClient

pytestmark = pytest.mark.slow

SRC = str(Path(__file__).resolve().parent.parent / "src")
SOAK_SECONDS = float(os.environ.get("REPRO_SOAK_SECONDS", "60"))

WARM_SPECS = [
    {"text": "{(XXI, 1.0), (YYI, 0.5), 0.3};", "label": "warm-a"},
    {"text": "{(IZZ, -0.25), 0.7};", "label": "warm-b"},
    {"benchmark": "Ising-1D", "scale": "small"},
]


def cold_spec(thread_id: int, sequence: int) -> dict:
    """A unique small program per (thread, sequence): always a cold miss."""
    paulis = "IXYZ"
    state = (thread_id * 7919 + sequence * 104729) & 0x7FFFFFFF
    label = "".join(paulis[(state >> (2 * q)) & 3] for q in range(5))
    if set(label) == {"I"}:
        label = "XY" + label[2:]
    return {
        "text": f"{{({label}, 1.0), 0.{1 + sequence % 9}}};",
        "label": f"cold-{thread_id}-{sequence}",
    }


class ClientLedger:
    """What the churn threads actually observed, summed at the end."""

    def __init__(self):
        self.lock = threading.Lock()
        self.ok = 0
        self.errors = 0
        self.send_failures = 0

    def add(self, ok: int, errors: int, send_failures: int = 0):
        with self.lock:
            self.ok += ok
            self.errors += errors
            self.send_failures += send_failures


def churn_client(socket_path: str, thread_id: int, deadline: float,
                 ledger: ClientLedger, rude: bool):
    """Loop: connect, run a small burst, disconnect; rude clients inject
    garbage and hang up without reading."""
    sequence = 0
    while time.monotonic() < deadline:
        try:
            responses = _one_session(socket_path, thread_id, sequence, rude)
        except (ConnectionError, OSError, asyncio.TimeoutError, TimeoutError):
            ledger.add(0, 0, 1)
            time.sleep(0.05)
            continue
        ok = sum(1 for r in responses if r.get("ok"))
        ledger.add(ok, len(responses) - ok)
        sequence += 10
        time.sleep(0.01)


def _one_session(socket_path: str, thread_id: int, base: int,
                 rude: bool) -> list:
    async def session():
        client = await GatewayClient.connect(socket_path=socket_path,
                                             timeout=20)
        responses = []
        try:
            if rude:
                client._writer.write(b'{"op": "compile"}\n')   # missing bits
                client._writer.write(b"pure garbage\n")
                await client._writer.drain()
                responses.append(await asyncio.wait_for(
                    client._read_frame(), 30))   # bad-request reply
                responses.append(await asyncio.wait_for(
                    client._read_frame(), 30))   # bad-frame reply
                # Launch a cold compile and slam the door mid-flight.
                await client._send({"op": "compile", "id": "orphan",
                                    "spec": cold_spec(thread_id, base + 99)})
                return [r for r in responses if True]
            for i in range(4):
                spec = (WARM_SPECS[(base + i) % len(WARM_SPECS)]
                        if i % 2 == 0 else cold_spec(thread_id, base + i))
                responses.append(await client.compile(
                    spec, f"s{thread_id}-{base + i}", timeout=120))
            # Speculative-lane churn: subscribe to the background
            # upgrade, then either cancel the subscription (withdrawing
            # the job when we were its only interest), briefly wait for
            # the push, or just hang up — the disconnect below must
            # withdraw it.  All three paths land in the spec ledger.
            upgrade_id = f"up{thread_id}-{base}"
            answered = await client.compile(
                cold_spec(thread_id, base + 7), upgrade_id,
                timeout=120, want_upgrade=True)
            responses.append(answered)
            if answered.get("ok"):
                mode = (thread_id + base) % 3
                if mode == 0:
                    responses.append(await client.cancel(upgrade_id))
                elif mode == 1:
                    try:
                        await client.wait_upgrade(upgrade_id, timeout=3)
                    except (TimeoutError, asyncio.TimeoutError):
                        pass   # starved by cold churn: fine, priority works
                # mode 2: disconnect with the subscription live.
            responses.append(await client.ping())
            stats = await client.stats()
            assert stats["queue"]["depth"] <= stats["queue"]["limit"]
            return responses
        finally:
            await client.close()

    return asyncio.run(session())


def worker_killer(socket_path: str, deadline: float, kills: list):
    """Every ~7s, SIGKILL one pool worker through the stats verb."""
    while time.monotonic() < deadline:
        time.sleep(7)
        if time.monotonic() >= deadline:
            return
        try:
            async def snipe():
                client = await GatewayClient.connect(
                    socket_path=socket_path, timeout=20)
                stats = await client.stats()
                await client.close()
                return stats["workers"]["pids"]

            pids = asyncio.run(snipe())
            if pids:
                os.kill(pids[0], signal.SIGKILL)
                kills.append(pids[0])
        except (ConnectionError, OSError, ProcessLookupError,
                asyncio.TimeoutError, TimeoutError):
            continue


@pytest.mark.slow
def test_gateway_soak(tmp_path):
    socket_path = str(tmp_path / "gw.sock")
    cache_dir = tmp_path / "cache"
    env = {**os.environ, "PYTHONPATH": SRC}
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--socket", socket_path, "--cache", str(cache_dir),
         "--workers", "2", "--queue-limit", "32",
         "--speculate", "--speculative-limit", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        assert "listening" in server.stdout.readline()

        deadline = time.monotonic() + SOAK_SECONDS
        ledger = ClientLedger()
        kills: list = []
        threads = [
            threading.Thread(
                target=churn_client,
                args=(socket_path, i, deadline, ledger, i % 3 == 2),
                daemon=True)
            for i in range(6)
        ]
        threads.append(threading.Thread(
            target=worker_killer, args=(socket_path, deadline, kills),
            daemon=True))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=SOAK_SECONDS + 120)
            assert not t.is_alive(), "a churn thread wedged"

        # ------------------------------------------------------------------
        # Reconciliation: connect one calm client and audit the wreckage.
        # ------------------------------------------------------------------
        async def audit():
            client = await GatewayClient.connect(socket_path=socket_path,
                                                 timeout=30)
            # Wait for the queue to fully drain (rude clients may have
            # left compiles in flight moments ago).
            drain_deadline = time.monotonic() + 120
            while time.monotonic() < drain_deadline:
                stats = await client.stats()
                queue = stats["queue"]
                if queue["depth"] == 0 and queue["in_flight"] == 0 \
                        and queue["cold_fingerprints"] == 0:
                    break
                await asyncio.sleep(0.25)
            # The gateway must still do real work after the storm.
            post = await client.compile(
                {"text": "{(XYXYX, 1.0), 0.5};", "label": "post-soak"},
                "post", timeout=120)
            assert post["ok"]
            # Let the background lane settle (the post-soak cold above
            # speculated too) before freezing the ledger.
            settle_deadline = time.monotonic() + 120
            while time.monotonic() < settle_deadline:
                stats = await client.stats()
                spec = stats["speculative"]
                if spec["queued"] == 0 and spec["in_flight"] == 0:
                    break
                await asyncio.sleep(0.25)
            final = await client.stats()
            await client.close()
            return final

        final = asyncio.run(audit())

        queue = final["queue"]
        assert queue["depth"] == 0, queue
        assert queue["in_flight"] == 0, queue
        assert queue["cold_fingerprints"] == 0, queue

        req = final["requests"]
        assert helpers.ledger(req) == 0, req
        assert req["failed"] == 0, req

        # The speculative ledger reconciles through cancels, disconnects,
        # preemption, and workers SIGKILLed mid-upgrade: every enqueued
        # background job reached exactly one terminal outcome.
        spec = final["speculative"]
        assert helpers.ledger(spec, "spec_enqueued") == 0, spec
        assert spec["spec_enqueued"] > 0, spec
        assert spec["queued"] == 0 and spec["in_flight"] == 0, spec
        # Every response a client actually received was really served.
        assert ledger.ok + ledger.errors <= req["received"] \
            + req["bad_requests"] + 10_000  # pings/stats excluded loosely
        assert ledger.ok > 50, f"suspiciously little traffic: {vars(ledger)}"
        # Worker-death injection really happened and was survived.
        assert len(kills) >= 1
        assert final["workers"]["restarts"] >= 1
        # Only the audit connection remains; every churn socket was reaped.
        assert final["connections"] == 1, final["connections"]
        # fd hygiene: bounded by baseline + workers + small slack, not by
        # the hundreds of sockets the churn opened.
        assert final["open_fds"] is None or final["open_fds"] < 64, final

        worker_pids = final["workers"]["pids"]

        # ------------------------------------------------------------------
        # Clean shutdown: SIGTERM -> drain -> exit 0, workers reaped,
        # no partial artifacts on disk.
        # ------------------------------------------------------------------
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=90) == 0
        for pid in worker_pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)
        assert not os.path.exists(socket_path)
        assert not list(cache_dir.rglob("*.tmp"))
        for artifact in cache_dir.rglob("*.json"):
            json.loads(artifact.read_text())   # every artifact is whole
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
