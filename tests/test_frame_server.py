"""Frame-transport conformance: one battery, both servers.

The compile gateway and the cluster router speak the same NDJSON frame
protocol (:mod:`repro.service.protocol`).  Everything below the compile
and cancel verbs -- hello, line framing, malformed and over-long frames,
the ping/stats/shutdown verbs -- must behave identically on both, so
every test here runs once against a thread-mode :class:`CompileGateway`
and once against a one-node :class:`ClusterRouter` fronting one.
"""

import asyncio
import json

import pytest

from repro.service import (
    ClusterConfig,
    ClusterRouter,
    CompileGateway,
    GatewayClient,
    GatewayConfig,
    NodeSpec,
)
from repro.service.protocol import (
    E_BAD_FRAME,
    E_BAD_REQUEST,
    E_UNSUPPORTED,
    MAX_FRAME_BYTES,
)

SERVERS = ("gateway", "router")
HELLO_NAMES = {"gateway": "repro-gateway", "router": "repro-cluster"}


def run(coro):
    return asyncio.run(coro)


class Harness:
    """One server under test plus whatever it needs behind it."""

    def __init__(self, kind, server, teardown):
        self.kind = kind
        self.server = server
        self._teardown = teardown

    async def connect(self):
        return await GatewayClient.connect(port=self.server.port)

    async def raw(self):
        """A bare stream pair, hello already consumed."""
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", self.server.port, limit=MAX_FRAME_BYTES)
        await reader.readline()
        return reader, writer

    async def bad_requests(self):
        client = await self.connect()
        try:
            stats = await client.stats()
        finally:
            await client.close()
        if self.kind == "router":
            stats = stats["router"]
        return stats["requests"].get("bad_requests", 0)

    async def close(self):
        await self._teardown()


async def open_server(kind, tmp_path, allow_shutdown=False):
    gateway = CompileGateway(GatewayConfig(
        cache_root=str(tmp_path / "store"), workers=0, port=0,
        allow_shutdown=allow_shutdown if kind == "gateway" else False))
    await gateway.start()
    if kind == "gateway":
        return Harness(kind, gateway,
                       lambda: gateway.close(drain=False))
    router = ClusterRouter(ClusterConfig(
        nodes=(NodeSpec("node-0", GatewayConfig(
            port=gateway.port, cache_root=str(tmp_path / "store"))),),
        port=0, allow_shutdown=allow_shutdown))
    await router.start()
    assert router.healthy_nodes() == ("node-0",)

    async def teardown():
        await router.close(drain=False)
        await gateway.close(drain=False)

    return Harness(kind, router, teardown)


async def read_frame(reader, timeout=10.0):
    line = await asyncio.wait_for(reader.readline(), timeout)
    assert line, "server closed the connection"
    return json.loads(line)


@pytest.mark.parametrize("kind", SERVERS)
class TestFrameServer:
    def test_hello_names_the_server(self, kind, tmp_path):
        async def scenario():
            harness = await open_server(kind, tmp_path)
            try:
                client = await harness.connect()
                assert client.hello["op"] == "hello"
                assert client.hello["proto"] == 1
                assert client.hello["server"] == HELLO_NAMES[kind]
                await client.close()
            finally:
                await harness.close()
        run(scenario())

    def test_blank_line_is_ignored(self, kind, tmp_path):
        async def scenario():
            harness = await open_server(kind, tmp_path)
            try:
                reader, writer = await harness.raw()
                writer.write(b"\n   \n")
                writer.write(b'{"op": "ping", "id": "p"}\n')
                await writer.drain()
                # The blank lines produce nothing: the very next frame is
                # the pong.
                frame = await read_frame(reader)
                assert frame == {"op": "pong", "id": "p", "ok": True}
                writer.close()
            finally:
                await harness.close()
        run(scenario())

    def test_non_json_line_keeps_the_connection(self, kind, tmp_path):
        async def scenario():
            harness = await open_server(kind, tmp_path)
            try:
                before = await harness.bad_requests()
                reader, writer = await harness.raw()
                writer.write(b"this is not json\n")
                await writer.drain()
                frame = await read_frame(reader)
                assert frame["ok"] is False
                assert frame["code"] == E_BAD_FRAME
                assert frame["id"] is None
                writer.write(b'{"op": "ping", "id": "after"}\n')
                await writer.drain()
                assert (await read_frame(reader))["op"] == "pong"
                writer.close()
                assert await harness.bad_requests() == before + 1
            finally:
                await harness.close()
        run(scenario())

    def test_unknown_op_is_a_bad_request(self, kind, tmp_path):
        async def scenario():
            harness = await open_server(kind, tmp_path)
            try:
                client = await harness.connect()
                response = await client.request({"op": "frobnicate",
                                                 "id": "u1"})
                assert response["ok"] is False
                assert response["code"] == E_BAD_REQUEST
                assert response["id"] == "u1"
                assert (await client.ping())["ok"]
                await client.close()
            finally:
                await harness.close()
        run(scenario())

    def test_over_long_frame_closes_the_connection(self, kind, tmp_path):
        async def scenario():
            harness = await open_server(kind, tmp_path)
            try:
                before = await harness.bad_requests()
                reader, writer = await harness.raw()
                # No newline within the limit: the framing is lost.  The
                # write is not drained first, since the server stops
                # reading (and closes) once the limit is crossed.
                writer.write(b"x" * (MAX_FRAME_BYTES + 1024) + b"\n")
                frame = await read_frame(reader, timeout=60.0)
                assert frame["ok"] is False
                assert frame["code"] == E_BAD_FRAME
                assert "size limit" in frame["error"]
                assert await asyncio.wait_for(reader.read(), 30.0) == b""
                writer.close()
                assert await harness.bad_requests() == before + 1
                # The server itself is unharmed.
                client = await harness.connect()
                assert (await client.ping())["ok"]
                await client.close()
            finally:
                await harness.close()
        run(scenario())

    def test_ping(self, kind, tmp_path):
        async def scenario():
            harness = await open_server(kind, tmp_path)
            try:
                client = await harness.connect()
                assert await client.ping() == {
                    "op": "pong", "id": "_ping", "ok": True}
                await client.close()
            finally:
                await harness.close()
        run(scenario())

    def test_shutdown_refused_by_default(self, kind, tmp_path):
        async def scenario():
            harness = await open_server(kind, tmp_path)
            try:
                client = await harness.connect()
                response = await client.request({"op": "shutdown",
                                                 "id": "x"})
                assert response["ok"] is False
                assert response["code"] == E_UNSUPPORTED
                assert response["error"] == (
                    "shutdown verb is disabled (start with --allow-shutdown)")
                assert not harness.server.shutdown_requested.is_set()
                assert (await client.ping())["ok"]
                await client.close()
            finally:
                await harness.close()
        run(scenario())

    def test_shutdown_honoured_when_allowed(self, kind, tmp_path):
        async def scenario():
            harness = await open_server(kind, tmp_path, allow_shutdown=True)
            try:
                client = await harness.connect()
                response = await client.request({"op": "shutdown",
                                                 "id": "x"})
                assert response == {"op": "shutdown", "id": "x", "ok": True}
                await asyncio.wait_for(
                    harness.server.shutdown_requested.wait(), 5.0)
                await client.close()
            finally:
                await harness.close()
        run(scenario())
