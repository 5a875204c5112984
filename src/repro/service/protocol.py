"""Wire protocol of the compile gateway: newline-delimited JSON frames.

Every frame — request or response — is one JSON object on one line
(``\\n``-terminated, UTF-8).  The framing layer here is transport-free:
pure encode/parse functions the asyncio servers, the CLI client, the
benchmark, and raw-socket tests all share.  The transport both servers
run it over -- listener, hello, read loop, framing rules, the
ping/stats/shutdown verbs -- is :mod:`repro.service.server`.

Requests (client → server)::

    {"op": "compile", "id": "r1", "spec": {...}, "want": "metrics"}
    {"op": "cancel",  "id": "r1"}
    {"op": "stats",   "id": "s1"}
    {"op": "ping",    "id": "p1"}
    {"op": "shutdown","id": "x1"}      # honored only with --allow-shutdown

``spec`` uses the ``compile-batch`` job-spec schema
(:mod:`repro.service.batch`).  ``want`` selects the response payload:
``"metrics"`` (default — paper gate counts only, small frames),
``"artifact"`` (full versioned artifact document), or ``"ack"``
(fingerprint only).  ``id`` is an arbitrary client-chosen string, unique
per connection; responses echo it, which is what permits streaming —
results arrive *as they complete*, not in request order.

Responses (server → client)::

    {"op": "hello", "proto": 1, "server": "..."}          # once, on connect
    {"op": "compile", "id": "r1", "ok": true,
     "fingerprint": "...", "cached": true,
     "queued_ms": 0.0, "compile_ms": 1.2, "metrics": {...}}
    {"op": "compile", "id": "r2", "ok": false,
     "code": "overloaded", "error": "..."}

Error codes are the ``E_*`` constants below.  A malformed line gets an
``ok: false`` / ``bad-frame`` response with ``id: null`` and the
connection stays open; only an oversized frame closes it.

Speculative compilation (``--speculate``) adds one field and one
server-push verb.  A compile request may set ``"want_upgrade": true``;
its compile response then carries ``"tier"`` (``"opt1"`` when the
answer came from the fast speculative pass, ``"full"`` otherwise), and
when the background opt-3 recompile lands, the server pushes one extra
frame on the same connection::

    {"op": "upgrade", "id": "r1", "ok": true, "fingerprint": "...",
     "tier": "full", "upgrade_ms": 12.5}

Upgrade frames are strictly opt-in: without ``want_upgrade`` a client
never receives one (pipelined clients match any frame bearing a known
id to its request, so an unsolicited trailing frame would corrupt their
accounting).  An upgrade that never lands (CAS lost, cancelled, or
dropped) pushes ``ok: false`` with the reason in ``"state"``.  The
``stats`` payload grows a ``"speculative"`` section, a ledger of its own
(:mod:`repro.service.metrics` declares both ledgers).

Cluster extensions (:mod:`repro.service.cluster`) reuse the same frames:
a router speaks this exact protocol to clients (hello ``server`` is
``"repro-cluster"``) and to each gateway node.  Three additions:

* ``compile`` requests may carry an optional ``"tenant"`` string, which
  the router uses for multi-tenant quota accounting (single gateways
  accept and ignore it);
* ``E_UNAVAILABLE`` rejects a request whose shard has no healthy owner
  (every node dead / unreachable) — a clean refusal, never a hang;
* the router's ``stats`` response nests reconciling sections:
  ``{"router": {...}, "nodes": {name: {...}}, "cluster": {...}}``, where
  ``router`` is the router's own ``GatewayMetrics`` snapshot (the same
  request ledger as a node), ``nodes`` maps each node
  name to its health plus its own ``stats`` payload, and ``cluster``
  sums the per-node request/cache counters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "E_BAD_FRAME",
    "E_BAD_REQUEST",
    "E_BAD_SPEC",
    "E_OVERLOADED",
    "E_COMPILE",
    "E_CANCELLED",
    "E_SHUTTING_DOWN",
    "E_UNSUPPORTED",
    "E_UNAVAILABLE",
    "WANT_CHOICES",
    "ProtocolError",
    "Request",
    "encode_frame",
    "decode_frame",
    "parse_request",
    "hello_frame",
    "error_frame",
]

PROTOCOL_VERSION = 1

#: Hard per-line ceiling on both sides; a paper-scale artifact response is
#: a few MB, so this leaves generous headroom without letting one rogue
#: frame balloon the peer's buffer.
MAX_FRAME_BYTES = 32 * 1024 * 1024

E_BAD_FRAME = "bad-frame"          # not JSON / not an object / too large
E_BAD_REQUEST = "bad-request"      # JSON object, but not a valid request
E_BAD_SPEC = "bad-spec"            # compile spec failed to resolve
E_OVERLOADED = "overloaded"        # admission control rejected the job
E_COMPILE = "compile-error"        # the compilation itself raised
E_CANCELLED = "cancelled"          # cancelled by the client or a disconnect
E_SHUTTING_DOWN = "shutting-down"  # server is draining
E_UNSUPPORTED = "unsupported"      # unknown op / disabled verb
E_UNAVAILABLE = "unavailable"      # cluster: no healthy node owns the shard

WANT_CHOICES = ("metrics", "artifact", "ack")

_OPS = ("compile", "cancel", "stats", "ping", "shutdown")


class ProtocolError(ValueError):
    """A frame that cannot be honored; carries the error code to answer
    with."""

    def __init__(self, code: str, message: str,
                 request_id: Optional[str] = None):
        super().__init__(message)
        self.code = code
        self.request_id = request_id


@dataclass
class Request:
    """One parsed, validated request frame."""

    op: str
    id: Optional[str] = None
    spec: Optional[Dict] = None
    want: str = "metrics"
    #: Optional multi-tenant identity on compile requests; the cluster
    #: router quotas by it, single gateways ignore it.
    tenant: Optional[str] = None
    #: Compile requests only: subscribe to the ``upgrade`` push frame of
    #: the speculative lane.  Ignored when the server runs without
    #: ``--speculate``.
    want_upgrade: bool = False
    raw: Dict = field(default_factory=dict)


def encode_frame(payload: Dict) -> bytes:
    """One JSON object as one ``\\n``-terminated line."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def decode_frame(line: Union[bytes, str]) -> Dict:
    """Parse one line into a JSON object; :class:`ProtocolError` on junk."""
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(E_BAD_FRAME, "frame exceeds size limit")
        try:
            line = line.decode()
        except UnicodeDecodeError as exc:
            raise ProtocolError(E_BAD_FRAME, f"frame is not UTF-8: {exc}")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(E_BAD_FRAME, f"frame is not JSON: {exc}")
    if not isinstance(payload, dict):
        raise ProtocolError(E_BAD_FRAME, "frame must be a JSON object")
    return payload


def parse_request(line: Union[bytes, str, Dict]) -> Request:
    """Validate a request frame into a :class:`Request`.

    Raises :class:`ProtocolError` carrying the code (and the request id
    when one could be salvaged, so the error response still correlates).
    """
    payload = line if isinstance(line, dict) else decode_frame(line)
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError(E_BAD_REQUEST, "'id' must be a string or int")
    request_id = None if request_id is None else str(request_id)

    op = payload.get("op")
    if op not in _OPS:
        raise ProtocolError(
            E_BAD_REQUEST, f"unknown op {op!r}; expected one of {_OPS}",
            request_id,
        )
    if op in ("compile", "cancel") and request_id is None:
        raise ProtocolError(E_BAD_REQUEST, f"{op!r} requires an 'id'")

    spec = None
    want = "metrics"
    tenant = None
    want_upgrade = False
    if op == "compile":
        spec = payload.get("spec")
        if not isinstance(spec, dict):
            raise ProtocolError(
                E_BAD_REQUEST, "'compile' requires an object 'spec'",
                request_id,
            )
        want = payload.get("want", "metrics")
        if want not in WANT_CHOICES:
            raise ProtocolError(
                E_BAD_REQUEST,
                f"unknown want {want!r}; expected one of {WANT_CHOICES}",
                request_id,
            )
        tenant = payload.get("tenant")
        if tenant is not None and not isinstance(tenant, str):
            raise ProtocolError(
                E_BAD_REQUEST, "'tenant' must be a string", request_id)
        want_upgrade = payload.get("want_upgrade", False)
        if not isinstance(want_upgrade, bool):
            raise ProtocolError(
                E_BAD_REQUEST, "'want_upgrade' must be a boolean",
                request_id)
    return Request(op=op, id=request_id, spec=spec, want=want,
                   tenant=tenant, want_upgrade=want_upgrade, raw=payload)


def hello_frame(server: str = "repro-gateway") -> Dict:
    return {"op": "hello", "proto": PROTOCOL_VERSION, "server": server}


def error_frame(op: Optional[str], request_id: Optional[str], code: str,
                message: str) -> Dict:
    frame = {"op": op or "error", "id": request_id, "ok": False,
             "code": code, "error": message}
    return frame
