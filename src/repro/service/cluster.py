"""Sharded compile fabric: a consistent-hash router over N gateways.

The eleventh architectural layer.  One :class:`CompileGateway` (PR 5) is
a single daemon owning one cache: one process death loses all serving
capacity, and throughput is capped at one node.  This module scales the
same wire protocol horizontally::

                          clients (protocol.py frames)
                                     │
                             ┌───────▼────────┐
                             │  ClusterRouter │   fingerprint → shard
                             │  (hash ring,   │   quotas, health,
                             │   quotas)      │   failover, stats
                             └───┬────┬────┬──┘
                        trunk ┌──┘    │    └──┐ trunk
                      ┌───────▼─┐ ┌───▼────┐ ┌▼────────┐
                      │ node-0  │ │ node-1 │ │ node-2  │   CompileGateway,
                      │ store-0 │ │ store-1│ │ store-2 │   shared-store
                      └────┬────┘ └───┬────┘ └────┬────┘   workers
                           └── pull-through ──────┘        (cache.py)

Pieces:

* :class:`HashRing` — deterministic consistent hashing with virtual
  nodes.  Points are SHA-256 based (never Python's randomized ``hash``),
  so every process that builds the ring from the same member names maps
  every fingerprint to the same owner, and membership changes move only
  the departed/arrived node's ranges.
* :class:`ClusterRouter` — an asyncio daemon speaking the exact gateway
  protocol on both sides.  Compile requests are fingerprinted (memoized,
  off-loop), quota-checked (per-connection and per-tenant), and
  forwarded verbatim to the shard owner over a persistent multiplexed
  trunk connection; responses stream back re-keyed to the client's ids.
  A dead trunk fails the node immediately: its ring ranges fall over to
  the surviving members and in-flight forwards are retried there
  (compiles are pure and content-addressed, so a replay is idempotent).
  The router keeps its own :class:`~repro.service.metrics.GatewayMetrics`
  ledger — every received request ends in exactly one outcome counter —
  and its ``stats`` verb aggregates each node's snapshot plus a
  cluster-wide sum.
* :class:`ClusterSupervisor` — synchronous process manager for local
  node fleets: start, wait-ready, restart on death, stop; the children
  exit when the supervisor dies.  Each child runs the
  :class:`~repro.service.gateway.GatewayConfig` its :class:`NodeSpec`
  holds, handed over whole, through the same gateway-serving function
  ``repro serve`` runs.  The fault-injection soak SIGKILLs the children
  it manages.

:func:`plan_cluster` builds every node's config from one template
``GatewayConfig``, so a gateway option is declared once, in that class.

Artifact replication is *pull-through* at the store layer (see
:meth:`repro.service.cache.CompileCache.pull_through`): each node's
cache lists its peers' store directories as a replica set, so a miss on
the shard owner probes the replicas before compiling and publishes what
it finds with the exclusive-link publish.  Because replication is
filesystem-level, a dead node's already-published artifacts remain
servable by whoever inherits its ranges.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .batch import resolve_spec
from .gateway import GatewayConfig
from .protocol import (
    E_BAD_SPEC,
    E_CANCELLED,
    E_OVERLOADED,
    E_SHUTTING_DOWN,
    E_UNAVAILABLE,
    Request,
    error_frame,
)
from .server import (
    Connection,
    FrameServer,
    open_frame_stream,
    read_frame,
    unix_listener_alive,
)

__all__ = [
    "HashRing",
    "NodeSpec",
    "ClusterConfig",
    "ClusterRouter",
    "ClusterSupervisor",
    "plan_cluster",
]

#: How many *additional* nodes a forward may fail over to after its
#: first node dies under it.
FORWARD_RETRIES = 2
#: Deadline, in seconds, of a health ping or a stats fan-out to a node.
HEALTH_TIMEOUT = 5.0
#: Consecutive ping failures before a live trunk is declared dead (an
#: EOF/reset on the trunk fails the node immediately).
HEALTH_FAILURES = 2
#: Deadline, in seconds, of one trunk connect plus its hello.
CONNECT_TIMEOUT = 2.0
#: Bound on the router's spec-to-fingerprint memo.
FINGERPRINT_MEMO_ENTRIES = 4096
#: Pause, in seconds, before the supervisor relaunches a dead node.
RESTART_DELAY = 0.25


# ----------------------------------------------------------------------
# Consistent hashing
# ----------------------------------------------------------------------

class HashRing:
    """Deterministic consistent-hash ring with virtual nodes.

    Each member contributes ``vnodes`` points at
    ``sha256(name + "\\x00" + i)``; a key lands on the first point
    clockwise from ``sha256(key)``.  SHA-256 keeps the mapping identical
    across processes and Python versions (no seeded ``hash()``), and
    per-member points mean removing a node only reassigns *its* ranges —
    the minimal-remap property the cluster's cache locality relies on.
    """

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = 128):
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.vnodes = int(vnodes)
        self._points: List[Tuple[int, str]] = []
        self._members: Set[str] = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _point(data: str) -> int:
        digest = hashlib.sha256(data.encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def add(self, node: str) -> None:
        if not node:
            raise ValueError("node name must be non-empty")
        if node in self._members:
            return
        self._members.add(node)
        for index in range(self.vnodes):
            entry = (self._point(f"{node}\x00{index}"), node)
            bisect.insort(self._points, entry)

    def remove(self, node: str) -> None:
        if node not in self._members:
            return
        self._members.discard(node)
        self._points = [(p, n) for (p, n) in self._points if n != node]

    def members(self) -> Tuple[str, ...]:
        return tuple(sorted(self._members))

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node: str) -> bool:
        return node in self._members

    def owner(self, key: str) -> Optional[str]:
        """The member owning ``key``; ``None`` on an empty ring."""
        preferred = self.preference(key, 1)
        return preferred[0] if preferred else None

    def preference(self, key: str, count: Optional[int] = None) -> List[str]:
        """The first ``count`` *distinct* members clockwise from the
        key's point — the owner first, then its natural failover order
        (the replica set for that key)."""
        if not self._points:
            return []
        want = len(self._members) if count is None \
            else max(0, min(count, len(self._members)))
        index = bisect.bisect_left(self._points, (self._point(key), ""))
        out: List[str] = []
        seen: Set[str] = set()
        for step in range(len(self._points)):
            _, node = self._points[(index + step) % len(self._points)]
            if node not in seen:
                seen.add(node)
                out.append(node)
                if len(out) >= want:
                    break
        return out


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

@dataclass
class NodeSpec:
    """One gateway node: its name and the config its gateway runs.

    The router dials ``gateway``'s address (its unix socket wins over
    host/port); the supervisor runs the node on the whole config, and
    needs its ``socket_path`` and ``cache_root`` to do so.
    """

    name: str
    gateway: GatewayConfig


@dataclass
class ClusterConfig:
    """Everything that shapes one router's behavior."""

    #: Router listen address (same precedence rules as GatewayConfig).
    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0
    nodes: Tuple[NodeSpec, ...] = ()
    vnodes: int = 128
    #: Cap on one client connection's unanswered compile requests.
    per_client_limit: int = 32
    #: Per-tenant caps on outstanding compiles across all connections;
    #: tenants not listed fall back to ``default_tenant_quota``
    #: (``None`` = unlimited).  Requests carrying no tenant are only
    #: subject to the per-connection cap.
    tenant_quotas: Dict[str, int] = field(default_factory=dict)
    default_tenant_quota: Optional[int] = None
    health_interval: float = 1.0
    allow_shutdown: bool = False


def plan_cluster(state_dir: os.PathLike, nodes: int, node: GatewayConfig,
                 **router_kwargs) -> ClusterConfig:
    """Lay out an N-node local cluster under ``state_dir``.

    Every node runs a copy of the template ``node`` config with its own
    ``node-<i>.sock`` and ``store-<i>/``, listing every other node's store
    as a pull-through replica; the router listens on ``router.sock``.
    Extra keyword arguments configure the router (``vnodes``,
    ``tenant_quotas``, ``per_client_limit``, ...).  Purely a path plan —
    nothing is created on disk.

    A node's ``per_client_limit`` is its ``queue_limit``: the router
    funnels *every* client's traffic to a node over one trunk
    connection, so the node-side per-client cap must not be the
    bottleneck (admission control belongs to the node's global queue
    limit and the router's own per-client/tenant quotas).
    """
    if nodes < 1:
        raise ValueError("a cluster needs at least one node")
    state = Path(state_dir)
    roots = [str(state / f"store-{i}") for i in range(nodes)]
    specs = tuple(
        NodeSpec(f"node-{i}", replace(
            node,
            socket_path=str(state / f"node-{i}.sock"),
            cache_root=roots[i],
            peer_stores=tuple(r for j, r in enumerate(roots) if j != i),
            per_client_limit=node.queue_limit,
        ))
        for i in range(nodes)
    )
    router_kwargs.setdefault("socket_path", str(state / "router.sock"))
    return ClusterConfig(nodes=specs, **router_kwargs)


# ----------------------------------------------------------------------
# Router internals
# ----------------------------------------------------------------------

@dataclass
class _Forward:
    """One client compile request in flight somewhere in the cluster."""

    client: Connection
    request_id: str
    router_id: str
    frame: Dict                  # original compile frame, id rewritten on send
    fingerprint: str
    tenant: Optional[str]
    received_at: float
    attempts: int = 0
    node: Optional[str] = None   # name of the node currently holding it
    cancel_requested: bool = False
    done: bool = False


class _Trunk(Connection):
    """The router's persistent multiplexed connection to one node."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        super().__init__(writer)
        self.reader = reader
        #: Forwards on this node, keyed by router id.
        self.pending: Dict[str, _Forward] = {}
        #: Router-originated requests (pings, stats fan-out) by id.
        self.waiters: Dict[str, asyncio.Future] = {}
        self.reader_task: Optional[asyncio.Task] = None


class _Node:
    """Router-side view of one gateway node."""

    def __init__(self, spec: NodeSpec):
        self.spec = spec
        self.trunk: Optional[_Trunk] = None
        self.healthy = False
        self.failures = 0
        self.connects = 0    # successful trunk establishments (restarts show)


def _spec_fingerprint(spec: Dict) -> str:
    """Spec → content fingerprint (blocking: runs on the executor)."""
    return resolve_spec(spec).fingerprint()


def _cancelled_frames(request_id: str, message: str) -> List[Dict]:
    """What a client sees when the router settles a cancel itself: the
    compile's ``cancelled`` error, then the cancel ack."""
    return [error_frame("compile", request_id, E_CANCELLED, message),
            {"op": "cancel", "id": request_id, "ok": True,
             "state": "cancelled"}]


#: Node error codes the router passes through as clean rejections.
_REJECT_CODES = (E_OVERLOADED, E_SHUTTING_DOWN, E_UNAVAILABLE)


class ClusterRouter(FrameServer):
    """Fingerprint-sharding front for a fleet of compile gateways.

    Speaks :mod:`repro.service.protocol` to clients and to every node;
    ``await start()``, then hold it open; ``await close()`` drains and
    releases everything.  Single event loop, no threads of its own —
    spec fingerprinting is the only CPU-bound step and runs on the
    default executor, memoized.  The client-side frame transport is
    :class:`~repro.service.server.FrameServer`'s; each client's
    ``waiting`` maps its request ids to :class:`_Forward` entries.
    """

    server_name = "repro-cluster"

    def __init__(self, config: ClusterConfig):
        if not config.nodes:
            raise ValueError("a cluster router needs at least one node spec")
        names = [spec.name for spec in config.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in {names}")
        super().__init__(config)
        self.ring = HashRing(vnodes=config.vnodes)
        self._nodes: Dict[str, _Node] = {
            spec.name: _Node(spec) for spec in config.nodes
        }
        self._forward_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._fp_memo: "OrderedDict[str, str]" = OrderedDict()
        #: Tenant → outstanding forwarded compiles (quota denominator).
        self._tenants: Dict[str, int] = {}
        self._tenant_received: Dict[str, int] = {}
        #: Recently finished router-id → (client, client request id), so a
        #: node's trailing cancel ack can still be translated back.
        self._recent: "OrderedDict[str, Tuple[Connection, str]]" = \
            OrderedDict()
        self._health_task: Optional[asyncio.Task] = None
        self._health_wake = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, wait_nodes: bool = True) -> None:
        """Bind the listen socket and begin health-checking the fleet.

        ``wait_nodes`` runs one immediate connect pass so a router whose
        nodes are already up starts with a populated ring.
        """
        await self._listen()
        if wait_nodes:
            await self._probe_all()
        self._health_task = asyncio.create_task(self._health_loop())

    def healthy_nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(
            name for name, node in self._nodes.items() if node.healthy))

    async def close(self, drain: bool = True) -> None:
        await self._quiesce(drain)
        await self._stop(self._health_task)
        # Whatever still waits gets a clean refusal, counted in the
        # ledger, before the sockets die.
        for client in list(self._clients):
            for forward in list(client.waiting.values()):
                await self._finish(forward, "rejected", [error_frame(
                    "compile", forward.request_id, E_SHUTTING_DOWN,
                    "cluster router is shutting down")])
        self._close_clients()
        for node in self._nodes.values():
            if node.trunk is not None:
                await self._drop_trunk(node, node.trunk, retry=False)
        await self._cancel_tasks()
        if self._bound and self.config.socket_path:
            await asyncio.get_running_loop().run_in_executor(
                None, self._unlink_socket)

    def _busy(self) -> bool:
        return any(c.waiting for c in self._clients)

    # ------------------------------------------------------------------
    # Node health / trunks
    # ------------------------------------------------------------------
    async def _health_loop(self) -> None:
        while not self._closing:
            try:
                await asyncio.wait_for(
                    self._health_wake.wait(),
                    timeout=self.config.health_interval)
            except asyncio.TimeoutError:
                pass
            self._health_wake.clear()
            if self._closing:
                return
            await self._probe_all()

    async def _probe_all(self) -> None:
        await asyncio.gather(
            *(self._probe_node(node) for node in self._nodes.values()),
            return_exceptions=True,
        )

    async def _probe_node(self, node: _Node) -> None:
        if node.trunk is None:
            await self._connect_node(node)
            return
        trunk = node.trunk
        try:
            await self._node_request(
                node, {"op": "ping"}, timeout=HEALTH_TIMEOUT)
            node.failures = 0
        except (ConnectionError, asyncio.TimeoutError, OSError):
            node.failures += 1
            if node.failures >= HEALTH_FAILURES:
                await self._drop_trunk(node, trunk)

    async def _connect_node(self, node: _Node) -> bool:
        address = node.spec.gateway
        try:
            reader, writer, _hello = await open_frame_stream(
                address.socket_path, address.host, address.port,
                CONNECT_TIMEOUT)
        except (OSError, asyncio.TimeoutError, ValueError):
            node.failures += 1
            return False
        trunk = _Trunk(reader, writer)
        node.trunk = trunk
        node.healthy = True
        node.failures = 0
        node.connects += 1
        self.ring.add(node.spec.name)
        trunk.reader_task = self._spawn(self._trunk_reader(node, trunk))
        return True

    async def _trunk_reader(self, node: _Node, trunk: _Trunk) -> None:
        try:
            while True:
                try:
                    frame = await read_frame(trunk.reader)
                except json.JSONDecodeError:   # blank or garbled line
                    continue
                if isinstance(frame, dict):
                    await self._on_node_frame(node, trunk, frame)
        except (ConnectionError, ValueError, asyncio.CancelledError):
            # End of stream, or an over-long frame: the trunk is unusable.
            pass
        finally:
            await self._drop_trunk(node, trunk)

    async def _drop_trunk(self, node: _Node, trunk: _Trunk,
                          retry: bool = True) -> None:
        """Fail a node: remove its ring ranges, rehome its in-flight
        forwards.  Idempotent per trunk (reader teardown and health-loop
        detection can both get here)."""
        if node.trunk is not trunk:
            return
        node.trunk = None
        node.healthy = False
        self.ring.remove(node.spec.name)
        if trunk.reader_task is not None \
                and trunk.reader_task is not asyncio.current_task():
            trunk.reader_task.cancel()
        for future in trunk.waiters.values():
            if not future.done():
                future.set_exception(
                    ConnectionError("node connection lost"))
        trunk.waiters.clear()
        pending = list(trunk.pending.values())
        trunk.pending.clear()
        try:
            trunk.writer.close()
        except Exception:
            pass
        for forward in pending:
            if forward.done:
                continue
            if not retry or forward.cancel_requested:
                await self._finish(forward, "cancelled", _cancelled_frames(
                    forward.request_id, "node lost while cancelling"))
            else:
                # Failover: the ring no longer contains this node, so the
                # retry lands on the key's next preference — replaying a
                # pure, content-addressed compile is safe.
                self._spawn(self._forward(forward))
        if retry and not self._closing:
            self._health_wake.set()

    async def _node_request(self, node: _Node, frame: Dict,
                            timeout: float) -> Dict:
        """One router-originated round trip on a node's trunk."""
        trunk = node.trunk
        if trunk is None:
            raise ConnectionError(f"{node.spec.name} has no trunk")
        rid = f"rt-{next(self._request_ids)}"
        frame = dict(frame)
        frame["id"] = rid
        future = asyncio.get_running_loop().create_future()
        trunk.waiters[rid] = future
        try:
            if not await trunk.send(frame):
                raise ConnectionError(f"{node.spec.name} trunk send failed")
            return await asyncio.wait_for(future, timeout)
        finally:
            trunk.waiters.pop(rid, None)

    async def _on_node_frame(self, node: _Node, trunk: _Trunk,
                             frame: Dict) -> None:
        rid = frame.get("id")
        rid = None if rid is None else str(rid)
        future = trunk.waiters.get(rid)
        if future is not None:
            if not future.done():
                future.set_result(frame)
            return
        if frame.get("op") in ("cancel", "upgrade"):
            # A cancel ack or a speculative-lane upgrade push: translate
            # the id back and relay verbatim.  Both trail the compile
            # outcome for the same id (the node answers the compile
            # *before* acking the cancel; an upgrade follows the answer
            # it improves), so the forward may already have finished —
            # _recent bridges that.  Want_upgrade travelled to the node
            # inside the raw compile frame, so only subscribed clients
            # ever get an upgrade.
            target = None
            forward = trunk.pending.get(rid)
            if forward is not None:
                target = (forward.client, forward.request_id)
            elif rid in self._recent:
                target = self._recent[rid]
            if target is not None:
                out = dict(frame)
                out["id"] = target[1]
                await target[0].send(out)
            return
        forward = trunk.pending.pop(rid, None)
        if forward is None or forward.done:
            return
        out = dict(frame)
        out["id"] = forward.request_id
        if frame.get("ok"):
            counter = "warm_hits" if frame.get("cached") else "completed"
        else:
            code = frame.get("code")
            if code in _REJECT_CODES:
                counter = "rejected"
            elif code == E_BAD_SPEC:
                counter = "bad_specs"
            elif code == E_CANCELLED:
                counter = "cancelled"
            else:
                counter = "failed"
        await self._finish(forward, counter, [out])

    # ------------------------------------------------------------------
    # Client compile, cancel, disconnect
    # ------------------------------------------------------------------
    async def _handle_compile(self, client: Connection, request: Request,
                              received_at: float) -> None:
        self.metrics.incr("received")
        if request.tenant is not None:
            self._tenant_received[request.tenant] = \
                self._tenant_received.get(request.tenant, 0) + 1
        try:
            fingerprint = await self._fingerprint(request.spec)
        except (ValueError, KeyError, TypeError) as exc:
            self.metrics.incr("bad_specs")
            await client.send(error_frame(
                "compile", request.id, E_BAD_SPEC, str(exc)))
            return
        if self._closing:
            self.metrics.incr("rejected")
            await client.send(error_frame(
                "compile", request.id, E_SHUTTING_DOWN,
                "cluster router is shutting down"))
            return
        if len(client.waiting) >= self.config.per_client_limit:
            self.metrics.incr("rejected")
            await client.send(error_frame(
                "compile", request.id, E_OVERLOADED,
                f"client has {len(client.waiting)} unanswered requests "
                f"(limit {self.config.per_client_limit})"))
            return
        quota = self._tenant_quota(request.tenant)
        if quota is not None \
                and self._tenants.get(request.tenant, 0) >= quota:
            self.metrics.incr("rejected")
            await client.send(error_frame(
                "compile", request.id, E_OVERLOADED,
                f"tenant {request.tenant!r} has "
                f"{self._tenants.get(request.tenant, 0)} outstanding "
                f"requests (quota {quota})"))
            return

        forward = _Forward(
            client=client,
            request_id=request.id,
            router_id=f"fw-{next(self._forward_ids)}",
            frame=dict(request.raw),
            fingerprint=fingerprint,
            tenant=request.tenant,
            received_at=received_at,
        )
        client.waiting[request.id] = forward
        if request.tenant is not None:
            self._tenants[request.tenant] = \
                self._tenants.get(request.tenant, 0) + 1
        self.metrics.incr("admitted")
        await self._forward(forward)

    def _tenant_quota(self, tenant: Optional[str]) -> Optional[int]:
        if tenant is None:
            return None
        quota = self.config.tenant_quotas.get(tenant)
        if quota is None:
            quota = self.config.default_tenant_quota
        return quota

    async def _forward(self, forward: _Forward) -> None:
        """Place one compile on its shard owner, failing over through the
        key's preference order as nodes die under it."""
        while not forward.done:
            if forward.client.closed or forward.cancel_requested:
                await self._finish(forward, "cancelled", [])
                return
            owner = self.ring.owner(forward.fingerprint)
            if owner is None or forward.attempts > FORWARD_RETRIES:
                await self._finish(forward, "rejected", [error_frame(
                    "compile", forward.request_id, E_UNAVAILABLE,
                    "no healthy node owns this shard" if owner is None else
                    f"shard owners kept failing ({forward.attempts} attempts)",
                )])
                return
            node = self._nodes[owner]
            trunk = node.trunk
            if trunk is None or not node.healthy:
                # The ring and trunk state disagree for an instant
                # (membership changes mid-await): fail the node and loop.
                if trunk is not None:
                    await self._drop_trunk(node, trunk)
                else:
                    self.ring.remove(owner)
                    self._health_wake.set()
                continue
            forward.attempts += 1
            forward.node = owner
            trunk.pending[forward.router_id] = forward
            frame = dict(forward.frame)
            frame["id"] = forward.router_id
            if await trunk.send(frame):
                return   # the trunk reader owns the response from here
            trunk.pending.pop(forward.router_id, None)
            await self._drop_trunk(node, trunk)

    async def _handle_cancel(self, client: Connection,
                             request: Request) -> None:
        forward = client.waiting.get(request.id)
        if forward is None or forward.done:
            await client.send({"op": "cancel", "id": request.id,
                               "ok": True, "state": "not-found"})
            return
        forward.cancel_requested = True
        node = self._nodes.get(forward.node) if forward.node else None
        trunk = node.trunk if node is not None else None
        if trunk is not None and forward.router_id in trunk.pending:
            # The node owns the outcome: it answers the compile with
            # E_CANCELLED (or a result, if it raced past the cancel) and
            # acks the cancel; both frames are translated back above.
            await trunk.send({"op": "cancel", "id": forward.router_id})
            return
        # Not currently on any node (between failovers): settle it here.
        await self._finish(forward, "cancelled", _cancelled_frames(
            request.id, "cancelled by request"))

    async def _disconnect(self, client: Connection) -> None:
        for forward in list(client.waiting.values()):
            forward.cancel_requested = True
            node = self._nodes.get(forward.node) if forward.node else None
            trunk = node.trunk if node is not None else None
            if trunk is not None and forward.router_id in trunk.pending:
                # Let the node reap the work; its answer frame settles the
                # ledger (the client is gone, so the frames go nowhere).
                await trunk.send({"op": "cancel", "id": forward.router_id})
            else:
                await self._finish(forward, "cancelled", [])

    # ------------------------------------------------------------------
    # Settlement / send
    # ------------------------------------------------------------------
    async def _finish(self, forward: _Forward, counter: str,
                      frames: Sequence[Dict]) -> None:
        """Settle one forward exactly once: ledger, quota release, client
        frames, and the recent-id bridge for trailing cancel acks."""
        if forward.done:
            return
        forward.done = True
        client = forward.client
        if client.waiting.get(forward.request_id) is forward:
            del client.waiting[forward.request_id]
        if forward.tenant is not None:
            left = self._tenants.get(forward.tenant, 0) - 1
            if left > 0:
                self._tenants[forward.tenant] = left
            else:
                self._tenants.pop(forward.tenant, None)
        self.metrics.incr(counter)
        elapsed = time.perf_counter() - forward.received_at
        if counter == "warm_hits":
            self.metrics.warm_latency.record(elapsed)
        elif counter == "completed":
            self.metrics.cold_latency.record(elapsed)
        self._recent[forward.router_id] = (client, forward.request_id)
        while len(self._recent) > 1024:
            self._recent.popitem(last=False)
        for frame in frames:
            await client.send(frame)

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    async def _fingerprint(self, spec: Dict) -> str:
        key = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        hit = self._fp_memo.get(key)
        if hit is not None:
            self._fp_memo.move_to_end(key)
            return hit
        fingerprint = await asyncio.get_running_loop().run_in_executor(
            None, _spec_fingerprint, spec)
        self._fp_memo[key] = fingerprint
        while len(self._fp_memo) > FINGERPRINT_MEMO_ENTRIES:
            self._fp_memo.popitem(last=False)
        return fingerprint

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def router_stats(self) -> Dict:
        """The router's own reconciling snapshot (no node round trips)."""
        snap = self.metrics.snapshot()
        snap["pid"] = os.getpid()
        snap["ring"] = {
            "vnodes": self.config.vnodes,
            "members": list(self.ring.members()),
        }
        snap["nodes_healthy"] = len(self.healthy_nodes())
        snap["nodes_total"] = len(self._nodes)
        snap["connections"] = len(self._clients)
        snap["outstanding"] = sum(len(c.waiting) for c in self._clients)
        snap["tenants"] = {
            tenant: {
                "received": self._tenant_received.get(tenant, 0),
                "outstanding": self._tenants.get(tenant, 0),
                "quota": self._tenant_quota(tenant),
            }
            for tenant in sorted(set(self._tenant_received)
                                 | set(self._tenants))
        }
        return snap

    async def stats_payload(self) -> Dict:
        return await self.cluster_stats()

    async def cluster_stats(self) -> Dict:
        """The ``stats`` verb payload: router ledger + per-node snapshots
        + cluster-wide sums, fetched from every healthy node in parallel.

        Reconciliation nests: the router's ``requests`` section satisfies
        received == sum(outcomes) for traffic *it* accepted, each node's
        section satisfies it for traffic that *reached* that node, and
        ``cluster.requests`` is the per-node sum (so it reconciles too).
        """

        async def fetch(node: _Node):
            if node.trunk is None:
                return node, None
            try:
                response = await self._node_request(
                    node, {"op": "stats"}, timeout=HEALTH_TIMEOUT)
            except (ConnectionError, asyncio.TimeoutError, OSError):
                return node, None
            return node, response.get("stats")

        fetched = await asyncio.gather(
            *(fetch(node) for node in self._nodes.values()))
        nodes_section: Dict[str, Dict] = {}
        cluster: Dict[str, Dict[str, int]] = {
            "requests": {}, "cache": {}, "speculative": {}}
        for node, stats in sorted(fetched, key=lambda p: p[0].spec.name):
            nodes_section[node.spec.name] = {
                "healthy": node.healthy,
                "address": node.spec.gateway.socket_path
                or f"{node.spec.gateway.host}:{node.spec.gateway.port}",
                "connects": node.connects,
                "stats": stats,
            }
            if not stats:
                continue
            for section, totals in cluster.items():
                for name, value in stats.get(section, {}).items():
                    # Only the spec_* counters sum meaningfully across
                    # nodes (queue gauges and the enabled flag are
                    # per-node state).
                    if section == "speculative" \
                            and not name.startswith("spec_"):
                        continue
                    if isinstance(value, (int, float)):
                        totals[name] = totals.get(name, 0) + value
        cluster["cache"].pop("hit_rate", None)
        return {
            "router": self.router_stats(),
            "nodes": nodes_section,
            "cluster": cluster,
        }


# ----------------------------------------------------------------------
# Local fleet supervision
# ----------------------------------------------------------------------

#: What a supervised node runs: :func:`_serve_node` on its JSON config.
_NODE_MAIN = ("import sys; from repro.service.cluster import _serve_node; "
              "sys.exit(_serve_node(sys.argv[1]))")


def _serve_node(config_json: str) -> int:
    """Serve the gateway whose :class:`GatewayConfig` is ``config_json``
    as a supervised node, which exits when its supervisor dies.

    The gateway runs under :func:`repro.cli.serve_gateway`, as under
    ``repro serve``.  The node's stdin is a pipe whose only write end the
    supervisor holds and never writes to, so end of file on it means the
    supervisor is gone, SIGKILLed included.  Nothing is left to route to
    the node then, so it exits at once; its pool workers follow through
    their own parent watch (``service/batch.py::_worker_init``)."""
    threading.Thread(target=_exit_at_eof, name="supervisor-watch",
                     daemon=True).start()
    config = GatewayConfig(**json.loads(config_json))
    config.peer_stores = tuple(config.peer_stores)
    from ..cli import serve_gateway
    return serve_gateway(config)


def _exit_at_eof() -> None:
    while os.read(0, 4096):
        pass
    os._exit(1)


class ClusterSupervisor:
    """Run and babysit a local fleet of gateway nodes.

    Each node is a child process running the :class:`GatewayConfig` its
    :class:`NodeSpec` holds: the supervisor hands the config over as JSON
    and the child serves it as ``repro serve`` would (:func:`_serve_node`).
    Synchronous by design (the router owns the event loop; process
    management is thread + ``subprocess`` territory): ``start()`` spawns
    every node and waits for its socket to accept, a monitor thread
    restarts any child that dies after ``RESTART_DELAY`` — which is
    exactly what the fault-injection soak exercises by SIGKILLing them —
    and ``stop()`` terminates the fleet cleanly.  A node exits by itself
    when the supervisor dies.
    """

    def __init__(self, specs: Sequence[NodeSpec],
                 log_dir: Optional[os.PathLike] = None):
        self.specs = list(specs)
        self.log_dir = Path(log_dir) if log_dir is not None else None
        self._procs: Dict[str, subprocess.Popen] = {}
        self._logs: Dict[str, object] = {}
        self._restarts: Dict[str, int] = {}
        self._stopping = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- launch --------------------------------------------------------
    @staticmethod
    def _command(spec: NodeSpec) -> List[str]:
        if not spec.gateway.socket_path or not spec.gateway.cache_root:
            raise ValueError(
                f"node {spec.name!r} needs socket_path and cache_root "
                f"to be supervised")
        return [sys.executable, "-c", _NODE_MAIN,
                json.dumps(asdict(spec.gateway))]

    @staticmethod
    def _env() -> Dict[str, str]:
        env = dict(os.environ)
        # The child imports `repro`: make sure it resolves to *this*
        # checkout even when the parent imported repro off sys.path
        # tweaks (tests, benchmarks) rather than an installed package.
        src = str(Path(__file__).resolve().parents[2])
        parts = [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                         if p and p != src]
        env["PYTHONPATH"] = os.pathsep.join(parts)
        return env

    def _launch(self, spec: NodeSpec) -> None:
        if self.log_dir is not None:
            self.log_dir.mkdir(parents=True, exist_ok=True)
            log = open(self.log_dir / f"{spec.name}.log", "ab")
        else:
            log = None
        proc = subprocess.Popen(
            self._command(spec),
            stdin=subprocess.PIPE,  # the node's watch on this process
            stdout=log if log is not None else subprocess.DEVNULL,
            stderr=subprocess.STDOUT,
            env=self._env(),
            start_new_session=True,
        )
        with self._lock:
            old_log = self._logs.pop(spec.name, None)
            old_proc = self._procs.get(spec.name)
            self._procs[spec.name] = proc
            if log is not None:
                self._logs[spec.name] = log
        for stream in (old_log, old_proc and old_proc.stdin):
            if stream is not None:
                try:
                    stream.close()
                except Exception:
                    pass

    def _wait_listening(self, spec: NodeSpec, deadline: float) -> None:
        while time.monotonic() < deadline:
            with self._lock:
                proc = self._procs.get(spec.name)
            if proc is not None and proc.poll() is not None:
                raise RuntimeError(
                    f"node {spec.name} exited with {proc.returncode} "
                    f"before listening (see {self.log_dir})")
            if unix_listener_alive(spec.gateway.socket_path):
                return
            time.sleep(0.1)
        raise TimeoutError(f"node {spec.name} did not start listening")

    # -- lifecycle -----------------------------------------------------
    def start(self, wait_ready: float = 60.0) -> None:
        for spec in self.specs:
            self._launch(spec)
        deadline = time.monotonic() + wait_ready
        for spec in self.specs:
            self._wait_listening(spec, deadline)
        monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-supervisor",
            daemon=True)
        with self._lock:
            self._monitor = monitor
        monitor.start()

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(0.2):
            for spec in self.specs:
                with self._lock:
                    proc = self._procs.get(spec.name)
                if proc is None or proc.poll() is None:
                    continue
                if self._stopping.is_set():
                    return
                with self._lock:
                    self._restarts[spec.name] = \
                        self._restarts.get(spec.name, 0) + 1
                time.sleep(RESTART_DELAY)
                self._launch(spec)

    def pids(self) -> Dict[str, int]:
        """Live child pids by node name."""
        with self._lock:
            procs = dict(self._procs)
        return {name: proc.pid for name, proc in procs.items()
                if proc.poll() is None}

    def restarts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._restarts)

    def kill(self, name: str, sig: int = signal.SIGKILL) -> bool:
        """Signal one node (fault injection); ``True`` if delivered."""
        with self._lock:
            proc = self._procs.get(name)
        if proc is None or proc.poll() is not None:
            return False
        try:
            os.kill(proc.pid, sig)
            return True
        except OSError:
            return False

    def stop(self, timeout: float = 30.0) -> None:
        self._stopping.set()
        monitor = self._monitor
        if monitor is not None:
            monitor.join(timeout=5.0)
        with self._lock:
            procs = dict(self._procs)
        for proc in procs.values():
            if proc.poll() is None:
                try:
                    proc.terminate()
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        for proc in procs.values():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                try:
                    proc.kill()
                    proc.wait(timeout=5.0)
                except (OSError, subprocess.TimeoutExpired):
                    pass
        with self._lock:
            logs = dict(self._logs)
            self._logs.clear()
        for stream in [*logs.values(), *(p.stdin for p in procs.values())]:
            try:
                stream.close()
            except Exception:
                pass
