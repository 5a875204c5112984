"""Pool workers exit when the process that owns their pool dies.

A SIGKILLed gateway runs no shutdown, so nothing tells its spawn-pool
workers to stop; they watch the parent's sentinel instead
(``service/batch.py::_worker_init``).  This test runs a real ``repro
serve`` daemon, lets one worker compile, kills the daemon and requires
the worker to be gone soon after.
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


def test_workers_exit_when_the_gateway_is_killed(tmp_path):
    socket_path = str(tmp_path / "gw.sock")
    env = {**os.environ, "PYTHONPATH": SRC}
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--socket", socket_path, "--cache", str(tmp_path / "cache"),
         "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        assert "listening" in server.stdout.readline()

        async def compile_once():
            client = await GatewayClient.connect(socket_path=socket_path,
                                                 timeout=30)
            try:
                reply = await client.compile(
                    {"text": "{(XXI, 1.0), (YYI, 0.5), 0.3};"}, "one",
                    timeout=120)
                stats = await client.stats()
            finally:
                await client.close()
            return reply, stats["workers"]["pids"]

        reply, pids = asyncio.run(compile_once())
        assert reply["ok"], reply
        assert len(pids) == 1, pids

        server.kill()
        server.wait(timeout=30)
        assert not wait_until_gone(pids, timeout=10), "orphaned pool worker"
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
