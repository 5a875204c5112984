"""Serving layer: content-addressed compile caching, batch compilation,
and the async compile gateway.

A deterministic compiler front that identifies every compilation by a
content fingerprint, stores artifacts in a two-tier content-addressed
cache, shards batch traffic across worker processes with fingerprint
dedupe, and — through :mod:`repro.service.gateway` — serves all of it as
a long-running admission-controlled streaming daemon.
"""

from .artifact import (
    ARTIFACT_VERSION,
    OLDEST_SUPPORTED_VERSION,
    TIER_FAST,
    TIER_FULL,
    artifact_tier,
    circuit_from_dict,
    circuit_to_dict,
    dumps_artifact,
    loads_artifact,
    program_from_dict,
    program_to_dict,
    result_from_dict,
    result_to_dict,
    tier_rank,
)
from .batch import BatchEntry, BatchResult, compile_batch, resolve_spec
from .cache import CacheStats, CompileCache
from .cluster import (
    ClusterConfig,
    ClusterRouter,
    ClusterSupervisor,
    HashRing,
    NodeSpec,
    plan_cluster,
)
from .fingerprint import (
    FINGERPRINT_VERSION,
    canonical_options,
    compile_fingerprint,
    program_fingerprint,
)
from .gateway import CompileGateway, GatewayClient, GatewayConfig
from .metrics import GatewayMetrics, LatencyReservoir
from .protocol import PROTOCOL_VERSION, ProtocolError, parse_request
from .server import FrameServer, open_frame_stream, prepare_unix_path

__all__ = [
    "ARTIFACT_VERSION",
    "FINGERPRINT_VERSION",
    "OLDEST_SUPPORTED_VERSION",
    "PROTOCOL_VERSION",
    "TIER_FAST",
    "TIER_FULL",
    "artifact_tier",
    "tier_rank",
    "BatchEntry",
    "BatchResult",
    "CacheStats",
    "ClusterConfig",
    "ClusterRouter",
    "ClusterSupervisor",
    "CompileCache",
    "CompileGateway",
    "HashRing",
    "NodeSpec",
    "plan_cluster",
    "GatewayClient",
    "GatewayConfig",
    "GatewayMetrics",
    "LatencyReservoir",
    "FrameServer",
    "ProtocolError",
    "open_frame_stream",
    "parse_request",
    "prepare_unix_path",
    "canonical_options",
    "circuit_from_dict",
    "circuit_to_dict",
    "compile_batch",
    "compile_fingerprint",
    "dumps_artifact",
    "loads_artifact",
    "program_fingerprint",
    "program_from_dict",
    "program_to_dict",
    "resolve_spec",
    "result_from_dict",
    "result_to_dict",
]
