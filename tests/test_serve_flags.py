"""``repro serve`` and ``repro serve-cluster`` flags build the configs
their daemons run.

The flags take their defaults from ``GatewayConfig`` and
``ClusterConfig``; these tests write each expected value out literally,
so a default that drifts in either place fails here.  The argv sets are
the bare commands and the one the perfbench serving workloads run.
"""

from repro.cli import _cluster_config, _serve_config, build_parser
from repro.service import ClusterConfig, GatewayConfig, NodeSpec

PERFBENCH = ["--workers", "1", "--queue-limit", "256",
             "--per-client-limit", "256"]


def parse(argv):
    return build_parser().parse_args(argv)


def nodes(state, count, **template):
    stores = [f"{state}/store-{i}" for i in range(count)]
    return tuple(
        NodeSpec(f"node-{i}", GatewayConfig(
            socket_path=f"{state}/node-{i}.sock", cache_root=stores[i],
            peer_stores=tuple(s for s in stores if s != stores[i]),
            **template))
        for i in range(count))


def test_serve_defaults():
    assert _serve_config(parse(["serve"])) == GatewayConfig(
        socket_path=None, host="127.0.0.1", port=7421, cache_root=None,
        workers=1, queue_limit=64, per_client_limit=16,
        allow_shutdown=False, peer_stores=(), replica_probes=None,
        speculate=False, speculative_limit=8)


def test_serve_perfbench_argv():
    argv = ["serve", "--socket", "gw.sock", "--cache", "store"] + PERFBENCH
    assert _serve_config(parse(argv)) == GatewayConfig(
        socket_path="gw.sock", host="127.0.0.1", port=7421,
        cache_root="store", workers=1, queue_limit=256,
        per_client_limit=256, allow_shutdown=False, peer_stores=(),
        replica_probes=None, speculate=False, speculative_limit=8)


def test_serve_every_flag():
    argv = ["serve", "--host", "0.0.0.0", "--port", "0", "--workers", "0",
            "--queue-limit", "5", "--per-client-limit", "2",
            "--allow-shutdown", "--peer-stores", "a, b,", "--replica-probes",
            "1", "--speculate", "--speculative-limit", "3"]
    assert _serve_config(parse(argv)) == GatewayConfig(
        socket_path=None, host="0.0.0.0", port=0, cache_root=None,
        workers=0, queue_limit=5, per_client_limit=2, allow_shutdown=True,
        peer_stores=("a", "b"), replica_probes=1, speculate=True,
        speculative_limit=3)


def test_serve_cluster_defaults():
    assert _cluster_config(parse(["serve-cluster", "st"])) == ClusterConfig(
        socket_path="st/router.sock", host="127.0.0.1", port=0,
        nodes=nodes("st", 3, workers=1, queue_limit=64,
                    per_client_limit=64, replica_probes=None,
                    speculate=False, speculative_limit=8),
        vnodes=128, per_client_limit=32, tenant_quotas={},
        default_tenant_quota=None, health_interval=1.0,
        allow_shutdown=False)


def test_serve_cluster_perfbench_argv():
    argv = ["serve-cluster", "st", "--nodes", "2"] + PERFBENCH
    assert _cluster_config(parse(argv)) == ClusterConfig(
        socket_path="st/router.sock", host="127.0.0.1", port=0,
        nodes=nodes("st", 2, workers=1, queue_limit=256,
                    per_client_limit=256, replica_probes=None,
                    speculate=False, speculative_limit=8),
        vnodes=128, per_client_limit=256, tenant_quotas={},
        default_tenant_quota=None, health_interval=1.0,
        allow_shutdown=False)


def test_serve_cluster_every_flag():
    argv = ["serve-cluster", "st", "--nodes", "1", "--socket", "r.sock",
            "--workers", "0", "--queue-limit", "7", "--per-client-limit",
            "4", "--vnodes", "16", "--replica-probes", "1",
            "--tenant-quota", "acme=2", "--allow-shutdown", "--speculate",
            "--speculative-limit", "3"]
    assert _cluster_config(parse(argv)) == ClusterConfig(
        socket_path="r.sock", host="127.0.0.1", port=0,
        nodes=nodes("st", 1, workers=0, queue_limit=7, per_client_limit=7,
                    replica_probes=1, speculate=True, speculative_limit=3),
        vnodes=16, per_client_limit=4, tenant_quotas={"acme": 2},
        default_tenant_quota=None, health_interval=1.0,
        allow_shutdown=True)
