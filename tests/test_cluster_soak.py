"""Cluster soak: node-kill fault injection under hostile mixed load.

Run with ``-m slow`` (excluded from tier-1; the nightly CI job runs it).
``REPRO_SOAK_SECONDS`` shortens the churn window for local iteration.

One ``repro.cli serve-cluster`` subprocess (3 supervised gateway nodes,
process-pool workers, shared-store pull-through, unix router socket)
takes:

* churning well-behaved clients running mixed warm/cold/stats/ping
  traffic through the router, some asking for full artifacts;
* rude clients that send garbage frames and slam the connection shut
  with compiles still in flight;
* a killer that SIGKILLs a random *gateway node* every ~10 seconds
  (the supervisor restarts it; the router fails its ranges over in the
  meantime), after which the killed node's pool workers must exit too.

The cluster must hold three promises through all of it:

1. **Zero lost requests** — every compile a client managed to send on a
   live router connection is answered: a result, or a clean, coded
   rejection.  Never silence.
2. **Byte-identical artifacts** — a fingerprint's artifact payload is
   the same no matter which node (original owner, failover peer, or a
   restarted incarnation) served it.
3. **A reconciling ledger** — after drain, the router's stats satisfy
   received == sum(outcomes), nothing is left outstanding, all three
   nodes are healthy again, and a SIGTERM drains to exit 0 with no
   partial artifacts in any store.
"""

import asyncio
import json
import os
import signal
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
KILL_INTERVAL = max(3.0, min(10.0, SOAK_SECONDS / 4))

WARM_SPECS = [
    {"text": "{(XXI, 1.0), (YYI, 0.5), 0.3};", "label": "warm-a"},
    {"text": "{(IZZ, -0.25), 0.7};", "label": "warm-b"},
    {"benchmark": "Ising-1D", "scale": "small"},
]


def cold_spec(thread_id: int, sequence: int) -> dict:
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
        self.sent = 0            # compiles sent on connections that lived
        self.answered = 0        # ... and were answered (ok or coded error)
        self.ok = 0
        self.rejected = 0        # clean coded rejections
        self.errors = 0          # other coded errors (bad-spec etc.)
        self.session_failures = 0
        #: fingerprint -> canonical artifact JSON, first seen; mismatches
        #: collect in divergent.
        self.artifacts = {}
        self.divergent = []

    def record_session(self, responses):
        with self.lock:
            self.sent += len(responses)
            for response in responses:
                if response is None:
                    continue
                self.answered += 1
                if response.get("ok"):
                    self.ok += 1
                    if "artifact" in response:
                        self._check_artifact(response)
                elif response.get("code") in ("overloaded", "unavailable",
                                              "shutting-down", "cancelled"):
                    self.rejected += 1
                else:
                    self.errors += 1

    def _check_artifact(self, response):
        fingerprint = response["fingerprint"]
        canonical = json.dumps(response["artifact"], sort_keys=True)
        first = self.artifacts.setdefault(fingerprint, canonical)
        if first != canonical:
            self.divergent.append(fingerprint)


def churn_client(socket_path: str, thread_id: int, deadline: float,
                 ledger: ClientLedger, rude: bool):
    sequence = 0
    while time.monotonic() < deadline:
        try:
            responses = _one_session(socket_path, thread_id, sequence, rude)
        except (ConnectionError, OSError, asyncio.TimeoutError,
                TimeoutError):
            # The router connection itself failed; nothing sent on it is
            # held against the zero-loss promise (we never kill the
            # router, so these should stay rare).
            ledger.session_failures += 1
            time.sleep(0.05)
            continue
        ledger.record_session(responses)
        sequence += 10
        time.sleep(0.01)


def _one_session(socket_path: str, thread_id: int, base: int,
                 rude: bool) -> list:
    async def session():
        client = await GatewayClient.connect(socket_path=socket_path,
                                             timeout=20)
        try:
            if rude:
                client._writer.write(b'{"op": "compile"}\n')   # no id
                client._writer.write(b"pure garbage\n")
                await client._writer.drain()
                await asyncio.wait_for(client._read_frame(), 30)
                await asyncio.wait_for(client._read_frame(), 30)
                # Launch a cold compile and slam the door mid-flight.
                await client._send({"op": "compile", "id": "orphan",
                                    "spec": cold_spec(thread_id, base + 99)})
                return []
            responses = []
            for i in range(4):
                if i % 2 == 0:
                    spec = WARM_SPECS[(base + i) % len(WARM_SPECS)]
                    # Warm artifacts feed the byte-identity audit: over
                    # the soak every node ends up serving these.
                    responses.append(await client.compile(
                        spec, f"s{thread_id}-{base + i}", want="artifact",
                        timeout=180))
                else:
                    responses.append(await client.compile(
                        cold_spec(thread_id, base + i),
                        f"s{thread_id}-{base + i}", timeout=180))
            pong = await client.ping()
            assert pong["ok"]
            return responses
        finally:
            await client.close()

    return asyncio.run(session())


def node_killer(socket_path: str, deadline: float, kills: list):
    """Every ~KILL_INTERVAL s, SIGKILL one gateway node, rotating through
    the fleet; pids (the node's and its pool workers') come from the
    cluster stats verb."""
    victim_index = 0
    while time.monotonic() < deadline:
        time.sleep(KILL_INTERVAL)
        if time.monotonic() >= deadline:
            return
        try:
            async def snipe(index):
                client = await GatewayClient.connect(
                    socket_path=socket_path, timeout=20)
                stats = await client.stats(timeout=60)
                await client.close()
                names = sorted(stats["nodes"])
                name = names[index % len(names)]
                section = stats["nodes"][name]
                if section["stats"] is None:
                    return None, None, []
                node = section["stats"]
                return name, node["pid"], node["workers"]["pids"]

            name, pid, workers = asyncio.run(snipe(victim_index))
            victim_index += 1
            if pid:
                os.kill(pid, signal.SIGKILL)
                kills.append((name, pid, workers))
        except (ConnectionError, OSError, ProcessLookupError,
                asyncio.TimeoutError, TimeoutError, KeyError):
            continue


@pytest.mark.slow
def test_cluster_soak(tmp_path):
    state_dir = tmp_path / "state"
    socket_path = str(state_dir / "router.sock")
    env = {**os.environ, "PYTHONPATH": SRC}
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve-cluster", str(state_dir),
         "--nodes", "3", "--workers", "1", "--queue-limit", "32"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        for _ in range(10):
            line = server.stdout.readline()
            if "cluster listening" in line:
                break
        else:   # pragma: no cover
            pytest.fail("serve-cluster never reported listening")

        deadline = time.monotonic() + SOAK_SECONDS
        ledger = ClientLedger()
        kills: list = []
        threads = [
            threading.Thread(
                target=churn_client,
                args=(socket_path, i, deadline, ledger, i % 3 == 2),
                daemon=True)
            for i in range(5)
        ]
        threads.append(threading.Thread(
            target=node_killer, args=(socket_path, deadline, kills),
            daemon=True))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=SOAK_SECONDS + 300)
            assert not t.is_alive(), "a churn thread wedged"

        # ------------------------------------------------------------------
        # Promise 1: zero lost requests — every compile sent on a live
        # router connection got an answer.
        # ------------------------------------------------------------------
        assert ledger.sent == ledger.answered, vars(ledger)
        assert ledger.ok > 20, f"suspiciously little traffic: {vars(ledger)}"
        assert ledger.errors == 0, vars(ledger)
        assert len(kills) >= 1, "fault injection never fired"
        # A killed node's pool workers exit with it instead of idling on
        # as orphans.
        orphans = helpers.wait_until_gone(
            [w for _, _, workers in kills for w in workers], timeout=10)
        assert not orphans, f"pool workers outlived their node: {orphans}"

        # ------------------------------------------------------------------
        # Promise 2: byte-identical artifacts regardless of serving node.
        # ------------------------------------------------------------------
        assert not ledger.divergent, ledger.divergent
        assert len(ledger.artifacts) >= 1

        # ------------------------------------------------------------------
        # Promise 3: drain and reconcile.
        # ------------------------------------------------------------------
        async def audit():
            client = await GatewayClient.connect(socket_path=socket_path,
                                                 timeout=30)
            drain_deadline = time.monotonic() + 180
            while time.monotonic() < drain_deadline:
                stats = await client.stats(timeout=60)
                router = stats["router"]
                if router["outstanding"] == 0 \
                        and router["nodes_healthy"] == 3:
                    break
                await asyncio.sleep(0.25)
            # The cluster must still do real work after the storm.
            post = await client.compile(
                {"text": "{(XYXYX, 1.0), 0.5};", "label": "post-soak"},
                "post", timeout=180)
            assert post["ok"]
            final = await client.stats(timeout=60)
            await client.close()
            return final

        final = asyncio.run(audit())

        router = final["router"]
        req = router["requests"]
        assert helpers.ledger(req) == 0, req
        assert router["outstanding"] == 0, router
        assert router["nodes_healthy"] == 3, router
        # The killed nodes really restarted: their trunks reconnected.
        killed_names = {name for name, _, _ in kills if name}
        for name in killed_names:
            assert final["nodes"][name]["connects"] >= 2, final["nodes"][name]
        # Each node's own ledger reconciles too.
        for name, section in final["nodes"].items():
            node_req = section["stats"]["requests"]
            assert helpers.ledger(node_req) == 0, (name, node_req)
        # Replication actually happened: some warm traffic was served by
        # pulling a peer's artifact through.
        assert final["cluster"]["cache"]["pulled"] >= 1, final["cluster"]

        # ------------------------------------------------------------------
        # Clean shutdown: SIGTERM -> drain -> exit 0, stores whole.
        # ------------------------------------------------------------------
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=120) == 0
        assert not os.path.exists(socket_path)
        for store in state_dir.glob("store-*"):
            assert not list(store.rglob("*.tmp")), store
            for artifact in store.rglob("*.json"):
                json.loads(artifact.read_text())   # every artifact is whole
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
