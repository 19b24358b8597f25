"""The scheduling-service wire protocol: requests, keys and responses.

A request is one JSON object per line.  Three *compute* kinds ask
scheduling questions -- ``schedule`` (one design at one clock period),
``min-clock`` (the design's minimum feasible clock period) and ``min-ii``
(the design's minimum feasible initiation interval) -- and three *control*
kinds (``ping``, ``stats``, ``shutdown``) talk to the daemon itself::

    {"kind": "schedule", "design": "rrot", "clock_period_ps": 1200, "id": "r1"}
    {"kind": "min-clock", "design": "crc32"}
    {"kind": "min-ii", "design": "loop:depth=4,width=2,seed=1,dist=2"}

Every compute request has a *content-addressed key*
(:meth:`ServiceRequest.key`): the :func:`repro.store.content_key` of the
question's identity fields after the daemon fills config defaults
(resolution, speculation width, latency weight).  The key is the warm
cache's index, the coalescing index *and* the ``service-result`` record
key in the artifact store, so the three layers can never disagree about
what "the same request" means.

Responses echo the request's ``id`` (when given) and carry either
``{"ok": true, "result": ..., "served": "warm"|"cold"|"coalesced"}`` or a
typed error ``{"ok": false, "error": "<code>", "message": ...}``.  The
``result`` payload is deterministic -- byte-identical to the offline
``runner dse`` / scheduler answer for the same question -- while
``served`` / ``latency_s`` describe how *this* response was produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from repro.store import StoreRecord, content_key

#: Every request kind the protocol accepts.
REQUEST_KINDS = ("schedule", "min-clock", "min-ii", "ping", "stats",
                 "shutdown")

#: The kinds that reach the worker pool (everything else is answered by
#: the daemon inline).
COMPUTE_KINDS = ("schedule", "min-clock", "min-ii")

#: Typed error codes of ``{"ok": false}`` responses.
ERROR_BAD_REQUEST = "bad-request"    # malformed/invalid request object
ERROR_BAD_DESIGN = "bad-design"      # design name did not resolve
ERROR_OVERLOADED = "overloaded"      # queue_limit cold misses pending
ERROR_DEADLINE = "deadline"          # no result within the deadline
ERROR_WORKER_CRASH = "worker-crash"  # a pool worker died mid-request
ERROR_SHUTDOWN = "shutting-down"     # daemon is draining
ERROR_INTERNAL = "internal"          # unexpected evaluator exception

#: Body schema of ``service-result`` artifact-store records.
SERVICE_RESULT_BODY_SCHEMA = 1

#: Fields a request object may carry, by kind (``kind``/``id`` always).
_FIELDS_BY_KIND = {
    "schedule": ("design", "clock_period_ps", "deadline_s"),
    "min-clock": ("design", "resolution_ps", "speculate", "max_probes",
                  "max_stages", "deadline_s"),
    "min-ii": ("design", "clock_period_ps", "deadline_s"),
    "ping": (),
    "stats": (),
    "shutdown": (),
}


class ProtocolError(ValueError):
    """The request object is not a valid service request."""


@dataclass(frozen=True)
class ServiceRequest:
    """One parsed (and, for compute kinds, normalised) service request.

    ``None`` knob fields mean "use the daemon's configured default"; the
    daemon normalises them before computing :meth:`key`, so a request
    spelling the default explicitly and one omitting it share a key.

    Attributes:
        kind: one of :data:`REQUEST_KINDS`.
        design: design name (compute kinds only).
        clock_period_ps: probed clock period (``schedule``; optional
            search period for ``min-ii``).
        resolution_ps: min-clock convergence threshold.
        speculate: min-clock batch width (fixed width keeps the probed
            period sequence -- and therefore the result -- independent of
            the worker count).
        max_probes: min-clock per-design probe budget.
        max_stages: min-clock optional pipeline-depth cap.
        latency_weight: LP tie-breaking weight (config-filled).
        deadline_s: per-request deadline override.
        client_id: opaque ``id`` echoed on the response.
    """

    kind: str
    design: str = ""
    clock_period_ps: float | None = None
    resolution_ps: float | None = None
    speculate: int | None = None
    max_probes: int | None = None
    max_stages: int | None = None
    latency_weight: float | None = None
    deadline_s: float | None = None
    client_id: str | None = None

    def identity(self) -> dict:
        """The question's identity fields (the content the key hashes).

        Only fields that change the deterministic *answer* participate:
        ``deadline_s`` and ``client_id`` never do, and per-kind only the
        knobs that kind consumes are included.
        """
        identity: dict[str, Any] = {"kind": self.kind, "design": self.design,
                                    "latency_weight": self.latency_weight}
        if self.kind in ("schedule", "min-ii"):
            identity["clock_period_ps"] = self.clock_period_ps
        if self.kind == "min-clock":
            identity["resolution_ps"] = self.resolution_ps
            identity["speculate"] = self.speculate
            identity["max_probes"] = self.max_probes
            identity["max_stages"] = self.max_stages
        return identity

    def key(self) -> str:
        """Content-addressed key of this request (compute kinds only)."""
        return content_key(self.identity())


def _number(raw: dict, field: str, *, required: bool = False,
            positive: bool = False) -> float | None:
    value = raw.get(field)
    if value is None:
        if required:
            raise ProtocolError(f"{raw.get('kind')} request needs a "
                                f"numeric {field!r} field")
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"field {field!r} must be a number, "
                            f"got {value!r:.80}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ProtocolError(f"field {field!r} must be a finite number, "
                            f"got {value}")
    if positive and value <= 0:
        raise ProtocolError(f"field {field!r} must be positive, got {value}")
    return value


def _integer(raw: dict, field: str, *, minimum: int = 1) -> int | None:
    value = raw.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {field!r} must be an integer, "
                            f"got {value!r:.80}")
    if value < minimum:
        raise ProtocolError(f"field {field!r} must be >= {minimum}, "
                            f"got {value}")
    return value


def parse_request(raw: Any) -> ServiceRequest:
    """Validate one decoded JSON request object.

    Raises:
        ProtocolError: the object is not a well-formed request (wrong
            shape, unknown kind, missing/ill-typed fields, or fields that
            do not apply to the kind -- silently ignoring a knob the kind
            does not consume would let two *different-looking* requests
            share a key, so unexpected fields are rejected outright).
    """
    if not isinstance(raw, dict):
        raise ProtocolError(f"a request must be a JSON object, "
                            f"got {type(raw).__name__}")
    kind = raw.get("kind")
    if kind not in REQUEST_KINDS:
        raise ProtocolError(f"unknown request kind {kind!r}; expected one "
                            "of " + ", ".join(REQUEST_KINDS))
    allowed = set(_FIELDS_BY_KIND[kind]) | {"kind", "id"}
    unexpected = sorted(set(raw) - allowed)
    if unexpected:
        raise ProtocolError(f"{kind} request does not accept field(s) "
                            + ", ".join(repr(f) for f in unexpected))
    client_id = raw.get("id")
    if client_id is not None and not isinstance(client_id, (str, int)):
        raise ProtocolError(f"field 'id' must be a string or integer, "
                            f"got {client_id!r:.80}")
    if kind not in COMPUTE_KINDS:
        return ServiceRequest(kind=kind, client_id=None if client_id is None
                              else str(client_id))
    design = raw.get("design")
    if not isinstance(design, str) or not design:
        raise ProtocolError(f"{kind} request needs a non-empty string "
                            "'design' field")
    return ServiceRequest(
        kind=kind,
        design=design,
        clock_period_ps=_number(raw, "clock_period_ps",
                                required=(kind == "schedule"), positive=True),
        resolution_ps=_number(raw, "resolution_ps", positive=True),
        speculate=_integer(raw, "speculate"),
        max_probes=_integer(raw, "max_probes"),
        max_stages=_integer(raw, "max_stages"),
        deadline_s=_number(raw, "deadline_s", positive=True),
        client_id=None if client_id is None else str(client_id))


def normalize(request: ServiceRequest, *, resolution_ps: float,
              speculate: int, max_probes: int,
              latency_weight: float) -> ServiceRequest:
    """Fill config defaults so equal questions always produce equal keys."""
    if request.kind not in COMPUTE_KINDS:
        return request
    fills: dict[str, Any] = {"latency_weight": float(latency_weight)}
    if request.kind == "min-clock":
        if request.resolution_ps is None:
            fills["resolution_ps"] = float(resolution_ps)
        if request.speculate is None:
            fills["speculate"] = int(speculate)
        if request.max_probes is None:
            fills["max_probes"] = int(max_probes)
    return replace(request, **fills)


def ok_response(request: ServiceRequest, result: dict, served: str,
                latency_s: float | None = None) -> dict:
    """A success response envelope.

    ``result`` is the deterministic payload; ``served`` records which
    layer answered (``warm`` cache hit, ``cold`` computation, or
    ``coalesced`` into another request's in-flight computation).
    """
    response: dict[str, Any] = {"ok": True, "kind": request.kind}
    if request.kind in COMPUTE_KINDS:
        response["key"] = request.key()
        response["served"] = served
    response["result"] = result
    if latency_s is not None:
        response["latency_s"] = latency_s
    if request.client_id is not None:
        response["id"] = request.client_id
    return response


def error_response(code: str, message: str,
                   request: ServiceRequest | None = None,
                   client_id: str | None = None) -> dict:
    """A typed error response envelope (see the ``ERROR_*`` codes)."""
    response: dict[str, Any] = {"ok": False, "error": code,
                                "message": message}
    if request is not None:
        response["kind"] = request.kind
        if client_id is None:
            client_id = request.client_id
    if client_id is not None:
        response["id"] = client_id
    return response


def service_result_record(request: ServiceRequest,
                          result: dict) -> StoreRecord:
    """The ``service-result`` artifact-store record of one served request.

    The record key is the request key, so re-serving a question
    supersedes rather than duplicates its record, and a restarted daemon
    preloads its warm cache from exactly the keys it will be asked for.
    """
    return StoreRecord(kind="service-result", key=request.key(),
                       schema=SERVICE_RESULT_BODY_SCHEMA,
                       body={"request": request.identity(), "result": result})


__all__ = [
    "COMPUTE_KINDS",
    "ERROR_BAD_DESIGN",
    "ERROR_BAD_REQUEST",
    "ERROR_DEADLINE",
    "ERROR_INTERNAL",
    "ERROR_OVERLOADED",
    "ERROR_SHUTDOWN",
    "ERROR_WORKER_CRASH",
    "REQUEST_KINDS",
    "SERVICE_RESULT_BODY_SCHEMA",
    "ProtocolError",
    "ServiceRequest",
    "error_response",
    "normalize",
    "ok_response",
    "parse_request",
    "service_result_record",
]
