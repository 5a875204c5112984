"""Frame transport shared by the compile gateway and the cluster router.

Both daemons speak :mod:`repro.service.protocol`, and everything below
the compile and cancel verbs is the same for both: the listener bind
(unix socket or TCP, lines capped at ``MAX_FRAME_BYTES``), the hello
frame, the per-connection read loop, the ping/stats/shutdown verbs,
serialized per-connection sends, and teardown.  :class:`FrameServer`
owns that once; :class:`~repro.service.gateway.CompileGateway` and
:class:`~repro.service.cluster.ClusterRouter` subclass it.  Framing
rules: a blank line is ignored; an invalid request gets ``bad-frame`` or
``bad-request`` and the connection stays open; a line over
``MAX_FRAME_BYTES`` gets ``bad-frame`` and closes the connection, since
the stream can no longer be trusted to resynchronize.  The last two
count in ``bad_requests``.
"""

from __future__ import annotations

import asyncio
import errno
import itertools
import json
import os
import socket as socket_module
import stat
import time
from typing import Dict, Optional, Set, Tuple

from .metrics import GatewayMetrics
from .protocol import (
    E_UNSUPPORTED,
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
    error_frame,
    hello_frame,
    parse_request,
)

__all__ = [
    "Connection",
    "FrameServer",
    "open_frame_stream",
    "prepare_unix_path",
    "read_frame",
    "unix_listener_alive",
]

#: How long a draining close waits for in-flight work, in seconds.
DRAIN_TIMEOUT = 30.0


class Connection:
    """One peer connection, owned by the event loop.  ``send`` writes
    whole frames under ``send_lock``; the first write failure marks the
    connection closed, and later sends return ``False``."""

    _ids = itertools.count(1)

    def __init__(self, writer: asyncio.StreamWriter):
        self.id = next(self._ids)
        self.writer = writer
        self.send_lock = asyncio.Lock()
        self.closed = False
        #: Unanswered compile requests, keyed by the client's request id.
        self.waiting: Dict[str, object] = {}

    async def send(self, frame: Dict) -> bool:
        if self.closed:
            return False
        async with self.send_lock:
            if self.closed:
                return False
            try:
                self.writer.write(encode_frame(frame))
                await self.writer.drain()
                return True
            except (ConnectionError, RuntimeError, OSError):
                self.closed = True
                return False


class FrameServer:
    """An asyncio NDJSON frame server.

    Subclasses supply the coroutines ``_handle_compile(client, request,
    received_at)``, ``_handle_cancel(client, request)``,
    ``_disconnect(client)`` (request cleanup once a connection ends) and
    ``stats_payload()``, plus ``_busy()``, the drain condition.
    ``connection_class`` is their per-connection state and
    ``server_name`` the hello frame's ``server`` field.
    """

    server_name = "repro-gateway"
    connection_class = Connection

    def __init__(self, config):
        self.config = config
        self.metrics = GatewayMetrics()
        self.shutdown_requested = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._clients: Set[Connection] = set()
        self._closing = False
        #: Background tasks (jobs, trunk readers, failovers) close() reaps.
        self._tasks: Set[asyncio.Task] = set()
        #: True once *this* server bound its socket; teardown only removes
        #: the socket file when it actually owned it.
        self._bound = False

    async def _listen(self) -> None:
        if self.config.socket_path:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket_path,
                limit=MAX_FRAME_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port,
                limit=MAX_FRAME_BYTES,
            )
        self._bound = True

    @property
    def address(self) -> str:
        """Human-readable bound address (socket path or ``host:port``)."""
        if self.config.socket_path:
            return self.config.socket_path
        host, port = self._server.sockets[0].getsockname()[:2]
        return f"{host}:{port}"

    @property
    def port(self) -> Optional[int]:
        if self.config.socket_path or self._server is None:
            return None
        return self._server.sockets[0].getsockname()[1]

    # -- teardown helpers (each subclass's close() sequences them) -------
    async def _quiesce(self, drain: bool) -> None:
        """Mark the server closing and stop accepting; with ``drain``,
        wait up to ``DRAIN_TIMEOUT`` seconds while ``_busy()``."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            deadline = time.monotonic() + DRAIN_TIMEOUT
            while self._busy() and time.monotonic() < deadline:
                await asyncio.sleep(0.02)

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    @staticmethod
    async def _stop(task: Optional[asyncio.Task]) -> None:
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def _cancel_tasks(self) -> None:
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    def _close_clients(self) -> None:
        for client in list(self._clients):
            client.closed = True
            try:
                client.writer.close()
            except Exception:
                pass

    def _unlink_socket(self) -> None:
        """Remove the socket file this server bound (blocking)."""
        if self._bound and self.config.socket_path:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass

    # -- connections and frames ------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        client = self.connection_class(writer)
        self._clients.add(client)
        self.metrics.incr("connections_total")
        await client.send(hello_frame(server=self.server_name))
        try:
            while not client.closed:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over-long line: framing is lost, drop the connection.
                    self.metrics.incr("bad_requests")
                    await client.send(error_frame(
                        None, None, "bad-frame", "frame exceeds size limit"))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_frame(client, line)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._clients.discard(client)
            client.closed = True
            self.metrics.incr("disconnects")
            await self._disconnect(client)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_frame(self, client: Connection, line: bytes) -> None:
        received_at = time.perf_counter()
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self.metrics.incr("bad_requests")
            await client.send(error_frame(
                None, exc.request_id, exc.code, str(exc)))
            return
        if request.op == "ping":
            await client.send({"op": "pong", "id": request.id, "ok": True})
        elif request.op == "stats":
            await client.send({"op": "stats", "id": request.id, "ok": True,
                               "stats": await self.stats_payload()})
        elif request.op == "shutdown":
            if not self.config.allow_shutdown:
                await client.send(error_frame(
                    "shutdown", request.id, E_UNSUPPORTED,
                    "shutdown verb is disabled (start with --allow-shutdown)"))
                return
            await client.send({"op": "shutdown", "id": request.id, "ok": True})
            self.shutdown_requested.set()
        elif request.op == "cancel":
            await self._handle_cancel(client, request)
        else:  # compile
            await self._handle_compile(client, request, received_at)


async def read_frame(reader: asyncio.StreamReader) -> Dict:
    """One frame off ``reader``; ``ConnectionError`` at end of stream."""
    line = await reader.readline()
    if not line:
        raise ConnectionError("gateway closed the connection")
    return json.loads(line)


async def open_frame_stream(
        socket_path: Optional[str], host: str, port: int, timeout: float,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter, Dict]:
    """Connect to a frame server (a unix socket wins over host/port) and
    read its hello: ``(reader, writer, hello)``.  Raises ``OSError``,
    ``asyncio.TimeoutError`` or ``ValueError`` (a hello that is not
    JSON), closing the stream first."""
    if socket_path:
        opening = asyncio.open_unix_connection(
            socket_path, limit=MAX_FRAME_BYTES)
    else:
        opening = asyncio.open_connection(host, port, limit=MAX_FRAME_BYTES)
    reader, writer = await asyncio.wait_for(opening, timeout)
    try:
        hello = await asyncio.wait_for(read_frame(reader), timeout)
    except BaseException:
        writer.close()
        raise
    return reader, writer, hello


def unix_listener_alive(path: str, timeout: float = 0.5) -> bool:
    """Whether anything accepts connections on the unix socket ``path``
    (blocking)."""
    probe = socket_module.socket(socket_module.AF_UNIX,
                                 socket_module.SOCK_STREAM)
    try:
        probe.settimeout(timeout)
        probe.connect(path)
        return True
    except OSError:
        return False
    finally:
        probe.close()


def prepare_unix_path(path: str) -> None:
    """Make ``path`` bindable: remove a *stale* socket file, but raise
    ``OSError(EADDRINUSE)`` if a live server is already listening there.
    A path that exists but is not a socket (a typo'd data file) is never
    touched -- the bind fails instead of the file being deleted."""
    if not os.path.exists(path):
        return
    if not stat.S_ISSOCK(os.stat(path).st_mode):
        raise OSError(
            errno.EEXIST,
            f"{path} exists and is not a socket; refusing to replace it")
    if unix_listener_alive(path):
        raise OSError(errno.EADDRINUSE,
                      f"a gateway is already listening on {path}")
    os.unlink(path)  # stale: nobody home
