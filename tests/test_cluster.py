"""Functional tests for the cluster router (in-process, fast).

Everything runs on the test's own event loop: N thread-mode gateways
(``workers=0``) with pull-through peer stores, fronted by one
:class:`ClusterRouter` on a loopback TCP port.  No subprocesses — the
routing, quota, failover, and reconciliation logic is identical to the
supervised fleet, which ``test_cluster_soak.py`` exercises for real
behind ``-m slow``.
"""

import asyncio
import json
import sys
import time

import pytest

from repro.service import (
    ClusterConfig,
    ClusterRouter,
    ClusterSupervisor,
    CompileGateway,
    GatewayClient,
    GatewayConfig,
    NodeSpec,
    plan_cluster,
)
from repro.service import cluster
from repro.service.protocol import (
    E_BAD_SPEC,
    E_CANCELLED,
    E_OVERLOADED,
    E_UNAVAILABLE,
)

from helpers import ledger

SPEC_A = {"text": "{(XXI, 1.0), (YYI, 0.5), 0.3};", "label": "a"}
SPEC_B = {"text": "{(IZZ, -0.25), 0.7};", "label": "b"}
SLOW_SPEC = {"benchmark": "Rand-30", "scale": "paper", "label": "slow"}


def run(coro):
    return asyncio.run(coro)


async def make_cluster(tmp_path, nodes=3, **router_overrides):
    """N thread-mode gateways with peer stores + one router, all on the
    current loop.  Returns ``(router, gateways)``."""
    roots = [str(tmp_path / f"store-{i}") for i in range(nodes)]
    gateways = []
    for i in range(nodes):
        gateway = CompileGateway(GatewayConfig(
            cache_root=roots[i], workers=0, port=0,
            peer_stores=tuple(r for j, r in enumerate(roots) if j != i),
        ))
        await gateway.start()
        gateways.append(gateway)
    specs = tuple(
        NodeSpec(f"node-{i}", GatewayConfig(port=gateways[i].port,
                                            cache_root=roots[i]))
        for i in range(nodes)
    )
    router = ClusterRouter(ClusterConfig(nodes=specs, port=0,
                                         **router_overrides))
    await router.start()
    assert router.healthy_nodes() == tuple(s.name for s in specs)
    return router, gateways


async def teardown(router, gateways):
    await router.close(drain=False)
    for gateway in gateways:
        try:
            await gateway.close(drain=False)
        except Exception:
            pass


async def wait_until(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        await asyncio.sleep(0.02)
    pytest.fail(f"timed out waiting for {message}")


class TestConfig:
    def test_plan_cluster_layout(self, tmp_path):
        template = GatewayConfig(workers=2, queue_limit=16, replica_probes=1,
                                 speculate=True, speculative_limit=3)
        config = plan_cluster(tmp_path, 3, template,
                              vnodes=64, tenant_quotas={"acme": 4})
        assert len(config.nodes) == 3
        assert config.vnodes == 64
        assert config.tenant_quotas == {"acme": 4}
        assert config.socket_path == str(tmp_path / "router.sock")
        stores = [str(tmp_path / f"store-{i}") for i in range(3)]
        for i, spec in enumerate(config.nodes):
            assert spec.name == f"node-{i}"
            # Each node runs the template with only its socket, its store,
            # its peers' stores and the per-client cap replaced.  Trunk-as-
            # one-client: the node-side per-client cap must not throttle
            # the whole cluster, so it is the node's queue_limit.
            assert spec.gateway == GatewayConfig(
                socket_path=str(tmp_path / f"node-{i}.sock"),
                cache_root=stores[i],
                workers=2, queue_limit=16, per_client_limit=16,
                peer_stores=tuple(s for s in stores if s != stores[i]),
                replica_probes=1, speculate=True, speculative_limit=3)
        assert template == GatewayConfig(workers=2, queue_limit=16,
                                         replica_probes=1, speculate=True,
                                         speculative_limit=3)

    def test_plan_cluster_rejects_zero_nodes(self, tmp_path):
        with pytest.raises(ValueError):
            plan_cluster(tmp_path, 0, GatewayConfig())

    def test_router_rejects_bad_node_sets(self):
        with pytest.raises(ValueError):
            ClusterRouter(ClusterConfig(nodes=()))
        with pytest.raises(ValueError):
            ClusterRouter(ClusterConfig(nodes=(
                NodeSpec("dup", GatewayConfig()),
                NodeSpec("dup", GatewayConfig()))))

    def test_supervisor_hands_a_node_its_config(self, tmp_path):
        """The supervised node serves the very GatewayConfig its spec
        holds: the command carries it as JSON, and nothing else."""
        spec = plan_cluster(tmp_path, 2, GatewayConfig(
            workers=0, speculate=True, speculative_limit=3)).nodes[0]
        command = ClusterSupervisor._command(spec)
        assert command[:3] == [sys.executable, "-c", cluster._NODE_MAIN]
        handed = GatewayConfig(**json.loads(command[3]))
        handed.peer_stores = tuple(handed.peer_stores)
        assert handed == spec.gateway
        assert len(command) == 4

    def test_supervisor_needs_a_socket_and_a_store(self):
        for gateway in (GatewayConfig(cache_root="store"),
                        GatewayConfig(socket_path="node.sock")):
            with pytest.raises(ValueError, match="socket_path and cache_root"):
                ClusterSupervisor._command(NodeSpec("node-0", gateway))


class TestRouting:
    def test_cold_then_warm_through_the_router(self, tmp_path):
        async def scenario():
            router, gateways = await make_cluster(tmp_path)
            client = await GatewayClient.connect(port=router.port)
            cold = await client.compile(SPEC_A, "r1", timeout=120)
            assert cold["ok"] and not cold["cached"]
            warm = await client.compile(SPEC_A, "r2", timeout=120)
            assert warm["ok"] and warm["cached"]
            assert warm["fingerprint"] == cold["fingerprint"]
            assert warm["metrics"] == cold["metrics"]
            # Sticky placement: both requests landed on the ring owner.
            owner = router.ring.owner(cold["fingerprint"])
            owner_index = int(owner.split("-")[1])
            node_stats = gateways[owner_index].stats()
            assert node_stats["requests"]["received"] == 2
            assert node_stats["requests"]["warm_hits"] == 1
            # Router ledger reconciles: 2 received, 1 warm + 1 completed.
            snap = router.router_stats()["requests"]
            assert snap["received"] == 2
            assert snap["warm_hits"] == 1 and snap["completed"] == 1
            await client.close()
            await teardown(router, gateways)

        run(scenario())

    def test_distinct_specs_spread_and_everyone_reconciles(self, tmp_path):
        async def scenario():
            router, gateways = await make_cluster(tmp_path)
            client = await GatewayClient.connect(port=router.port)
            specs = [{"text": f"{{(XZXZX, 1.0), 0.{i+1}}};"}
                     for i in range(8)]
            responses, _ = await client.run_specs(specs, window=8,
                                                  timeout=240)
            assert all(r and r["ok"] for r in responses)
            stats = await client.stats()
            assert set(stats) == {"router", "nodes", "cluster"}
            req = stats["router"]["requests"]
            assert req["received"] == 8 and ledger(req) == 0
            # Node sections carry real per-node snapshots; the cluster
            # section is their exact sum.
            assert len(stats["nodes"]) == 3
            node_received = sum(
                section["stats"]["requests"]["received"]
                for section in stats["nodes"].values())
            assert stats["cluster"]["requests"]["received"] == node_received
            assert node_received == 8
            assert "hit_rate" not in stats["cluster"]["cache"]
            assert stats["router"]["nodes_healthy"] == 3
            await client.close()
            await teardown(router, gateways)

        run(scenario())

    def test_bad_spec_rejected_at_the_router(self, tmp_path):
        async def scenario():
            router, gateways = await make_cluster(tmp_path, nodes=1)
            client = await GatewayClient.connect(port=router.port)
            bad = await client.compile({"benchmark": "No-Such"}, "r1")
            assert not bad["ok"] and bad["code"] == E_BAD_SPEC
            snap = router.router_stats()["requests"]
            assert snap["bad_specs"] == 1 and snap["received"] == 1
            # The fleet never saw it: the router fingerprints first.
            assert gateways[0].stats()["requests"]["received"] == 0
            await client.close()
            await teardown(router, gateways)

        run(scenario())

    def test_ping_and_disabled_shutdown(self, tmp_path):
        async def scenario():
            router, gateways = await make_cluster(tmp_path, nodes=1)
            client = await GatewayClient.connect(port=router.port)
            pong = await client.ping()
            assert pong["op"] == "pong" and pong["ok"]
            refused = await client.request({"op": "shutdown", "id": "x"})
            assert refused["ok"] is False
            assert not router.shutdown_requested.is_set()
            await client.close()
            await teardown(router, gateways)

        run(scenario())


class TestReplication:
    def test_pull_through_serves_a_dead_nodes_artifact(self, tmp_path):
        """The acceptance criterion: an artifact compiled on one node is
        served byte-identical by a peer after the owner dies — warm, via
        pull-through, without recompilation."""
        async def scenario():
            router, gateways = await make_cluster(tmp_path)
            client = await GatewayClient.connect(port=router.port)
            cold = await client.compile(SPEC_A, "r1", want="artifact",
                                        timeout=120)
            assert cold["ok"] and not cold["cached"]
            owner = router.ring.owner(cold["fingerprint"])
            owner_index = int(owner.split("-")[1])

            # Kill the owner (close its server + trunk: EOF at the
            # router) and wait for its ranges to fail over.
            await gateways[owner_index].close(drain=False)
            await wait_until(lambda: owner not in router.ring,
                             message="owner to leave the ring")
            survivor = router.ring.owner(cold["fingerprint"])
            assert survivor is not None and survivor != owner

            warm = await client.compile(SPEC_A, "r2", want="artifact",
                                        timeout=120)
            assert warm["ok"] and warm["cached"], warm
            assert warm["fingerprint"] == cold["fingerprint"]
            assert warm["artifact"] == cold["artifact"]
            # Served by replication, not recompilation: the survivor
            # pulled the bytes from the dead owner's store.
            survivor_cache = gateways[int(survivor.split("-")[1])].cache
            assert survivor_cache.stats.pulled == 1
            stats = await client.stats()
            assert stats["cluster"]["cache"]["pulled"] == 1
            await client.close()
            await teardown(router, gateways)

        run(scenario())


class TestQuotas:
    def test_tenant_quota_rejects_with_overloaded(self, tmp_path):
        async def scenario():
            router, gateways = await make_cluster(
                tmp_path, nodes=1, tenant_quotas={"acme": 0})
            client = await GatewayClient.connect(port=router.port)
            refused = await client.compile(SPEC_A, "r1", tenant="acme")
            assert not refused["ok"] and refused["code"] == E_OVERLOADED
            # Other tenants (and anonymous traffic) are unaffected.
            other = await client.compile(SPEC_A, "r2", tenant="beta",
                                         timeout=120)
            assert other["ok"]
            anonymous = await client.compile(SPEC_B, "r3", timeout=120)
            assert anonymous["ok"]
            snap = router.router_stats()
            assert snap["requests"]["rejected"] == 1
            assert snap["tenants"]["acme"] == {
                "received": 1, "outstanding": 0, "quota": 0}
            assert snap["tenants"]["beta"]["received"] == 1
            await client.close()
            await teardown(router, gateways)

        run(scenario())

    def test_default_tenant_quota_applies_to_unlisted_tenants(self, tmp_path):
        async def scenario():
            router, gateways = await make_cluster(
                tmp_path, nodes=1, default_tenant_quota=0,
                tenant_quotas={"vip": 8})
            client = await GatewayClient.connect(port=router.port)
            refused = await client.compile(SPEC_A, "r1", tenant="walk-in")
            assert not refused["ok"] and refused["code"] == E_OVERLOADED
            vip = await client.compile(SPEC_A, "r2", tenant="vip",
                                       timeout=120)
            assert vip["ok"]
            await client.close()
            await teardown(router, gateways)

        run(scenario())

    def test_router_per_client_limit(self, tmp_path):
        async def scenario():
            router, gateways = await make_cluster(
                tmp_path, nodes=1, per_client_limit=1)
            client = await GatewayClient.connect(port=router.port)
            await client._send({"op": "compile", "id": "slow",
                                "spec": SLOW_SPEC})
            # The cap counts *registered* forwards; wait until the slow
            # one is past fingerprinting before poking at the limit.
            await wait_until(
                lambda: router.router_stats()["outstanding"] == 1,
                message="slow compile to register")
            refused = await client.compile(SPEC_A, "fast", timeout=30)
            assert not refused["ok"] and refused["code"] == E_OVERLOADED
            slow = await client.request({"op": "ping", "id": "sync"},
                                        timeout=240)
            assert slow["ok"]
            snap = router.router_stats()["requests"]
            assert snap["rejected"] == 1
            await client.close()
            await teardown(router, gateways)

        run(scenario())


class TestFailover:
    def test_mid_flight_trunk_loss_retries_on_a_survivor(self, tmp_path):
        """A node dying with a compile in flight (trunk EOF, no answer)
        must not lose the request: the router replays it on the key's
        next preference and the client still gets a real result."""
        async def scenario():
            router, gateways = await make_cluster(tmp_path)
            client = await GatewayClient.connect(port=router.port)
            await client._send({"op": "compile", "id": "r1",
                                "spec": SLOW_SPEC})
            # Wait until the forward actually sits on a trunk.
            def forwarded():
                return any(node.trunk is not None and node.trunk.pending
                           for node in router._nodes.values())
            await wait_until(forwarded, message="forward to reach a node")
            victim = next(node for node in router._nodes.values()
                          if node.trunk is not None and node.trunk.pending)
            await router._drop_trunk(victim, victim.trunk)

            response = await asyncio.wait_for(client._read_frame(), 240)
            assert str(response.get("id")) == "r1"
            assert response["ok"], response
            snap = router.router_stats()["requests"]
            assert snap["received"] == 1 and snap["completed"] == 1
            await client.close()
            await teardown(router, gateways)

        run(scenario())

    def test_all_nodes_dead_is_a_clean_unavailable(self, tmp_path):
        async def scenario():
            router, gateways = await make_cluster(tmp_path, nodes=2)
            for gateway in gateways:
                await gateway.close(drain=False)
            await wait_until(lambda: len(router.ring) == 0,
                             message="ring to empty")
            client = await GatewayClient.connect(port=router.port)
            refused = await client.compile(SPEC_A, "r1", timeout=60)
            assert not refused["ok"]
            assert refused["code"] == E_UNAVAILABLE
            snap = router.router_stats()["requests"]
            assert snap["received"] == 1 and snap["rejected"] == 1
            assert router.router_stats()["nodes_healthy"] == 0
            await client.close()
            await teardown(router, gateways)

        run(scenario())

    def test_node_rejoin_heals_the_ring(self, tmp_path):
        """After a dead node's port comes back, the health loop reattaches
        it and the ring returns to full strength."""
        async def scenario():
            router, gateways = await make_cluster(
                tmp_path, nodes=2, health_interval=0.1)
            await gateways[1].close(drain=False)
            await wait_until(lambda: "node-1" not in router.ring,
                             message="node-1 to leave")
            # Resurrect it on the same port.
            reborn = CompileGateway(GatewayConfig(
                cache_root=str(tmp_path / "store-1"), workers=0,
                port=router._nodes["node-1"].spec.gateway.port))
            await reborn.start()
            gateways[1] = reborn
            await wait_until(lambda: "node-1" in router.ring,
                             timeout=60, message="node-1 to rejoin")
            assert router._nodes["node-1"].connects >= 2
            await teardown(router, gateways)

        run(scenario())


class TestCancellation:
    def test_cancel_travels_through_the_router(self, tmp_path):
        async def scenario():
            router, gateways = await make_cluster(tmp_path, nodes=1)
            client = await GatewayClient.connect(port=router.port)
            await client._send({"op": "compile", "id": "victim",
                                "spec": SLOW_SPEC})
            await wait_until(
                lambda: router.router_stats()["outstanding"] == 1,
                message="compile to register")
            await client._send({"op": "cancel", "id": "victim"})
            frames = []
            while len(frames) < 2:
                frames.append(
                    await asyncio.wait_for(client._read_frame(), 240))
            by_op = {frame["op"]: frame for frame in frames}
            assert by_op["cancel"]["ok"]
            compile_frame = by_op["compile"]
            # The node may have raced past the cancel; either way the
            # outcome is settled and the ledger reconciles.
            assert compile_frame["ok"] or \
                compile_frame["code"] == E_CANCELLED
            snap = router.router_stats()["requests"]
            assert snap["received"] == 1 and ledger(snap) == 0
            await client.close()
            await teardown(router, gateways)

        run(scenario())

    def test_cancel_unknown_id_answers_not_found(self, tmp_path):
        async def scenario():
            router, gateways = await make_cluster(tmp_path, nodes=1)
            client = await GatewayClient.connect(port=router.port)
            ack = await client.cancel("ghost")
            assert ack["ok"] and ack["state"] == "not-found"
            await client.close()
            await teardown(router, gateways)

        run(scenario())

    def test_disconnect_releases_tenant_quota(self, tmp_path):
        """A client that walks away mid-compile must not pin its tenant's
        quota forever."""
        async def scenario():
            router, gateways = await make_cluster(
                tmp_path, nodes=1, tenant_quotas={"acme": 1})
            rude = await GatewayClient.connect(port=router.port)
            await rude._send({"op": "compile", "id": "r1",
                              "spec": SLOW_SPEC, "tenant": "acme"})
            await wait_until(
                lambda: router.router_stats()["outstanding"] == 1,
                message="compile to register")
            await rude.close()
            await wait_until(
                lambda: router.router_stats()["tenants"]
                .get("acme", {}).get("outstanding", 0) == 0,
                timeout=240, message="quota release")
            polite = await GatewayClient.connect(port=router.port)
            ok = await polite.compile(SPEC_A, "r1", tenant="acme",
                                      timeout=120)
            assert ok["ok"]
            await polite.close()
            await teardown(router, gateways)

        run(scenario())
