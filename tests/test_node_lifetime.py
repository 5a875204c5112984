"""Cluster nodes exit when the supervisor that launched them dies.

``repro serve-cluster`` runs its gateway nodes as child processes in
their own process groups.  A SIGKILLed supervisor runs no shutdown, so
each node watches its stdin, a pipe whose write end only the supervisor
holds (``service/cluster.py::_serve_node``), and exits at its end of file;
the node's pool workers then follow through their own parent watch.
This test runs a real two-node cluster, compiles once, kills the
supervisor and requires every node and worker gone soon after.  On the
way it reads each node's stats, which show that every node serves the
gateway options ``serve-cluster`` was given.
"""

import asyncio
import os
import signal
import subprocess
import sys
from pathlib import Path

from helpers import wait_until_gone
from repro.service import GatewayClient

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_nodes_exit_when_the_supervisor_is_killed(tmp_path):
    state_dir = tmp_path / "state"
    socket_path = str(state_dir / "router.sock")
    env = {**os.environ, "PYTHONPATH": SRC}
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve-cluster", str(state_dir),
         "--nodes", "2", "--workers", "1", "--queue-limit", "7",
         "--speculate", "--speculative-limit", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    pids = []
    try:
        for _ in range(10):
            if "cluster listening" in server.stdout.readline():
                break
        else:
            raise AssertionError("serve-cluster never reported listening")

        async def compile_once():
            client = await GatewayClient.connect(socket_path=socket_path,
                                                 timeout=30)
            try:
                reply = await client.compile(
                    {"text": "{(XXI, 1.0), (YYI, 0.5), 0.3};"}, "one",
                    timeout=120)
                stats = await client.stats(timeout=60)
            finally:
                await client.close()
            return reply, stats["nodes"]

        reply, nodes = asyncio.run(compile_once())
        assert reply["ok"], reply
        assert len(nodes) == 2, nodes
        for section in nodes.values():
            node = section["stats"]
            assert node["queue"]["limit"] == 7, node["queue"]
            assert node["speculative"]["enabled"], node["speculative"]
            assert node["speculative"]["limit"] == 3, node["speculative"]
            assert node["workers"]["configured"] == 1, node["workers"]
            pids += [node["pid"], *node["workers"]["pids"]]
        # Two nodes, and at least the worker that compiled.
        assert len(pids) >= 3, nodes

        server.kill()
        server.wait(timeout=30)
        survivors = wait_until_gone(pids, timeout=10)
        assert not survivors, f"orphaned nodes or workers: {survivors}"
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        for pid in wait_until_gone(pids, timeout=0):
            os.kill(pid, signal.SIGKILL)
