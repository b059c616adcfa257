"""Wire protocol of ``etrain serve``: NDJSON frames, canonically encoded.

Every frame is one JSON object per line.  Requests carry an ``op`` plus
op-specific fields; every request receives exactly one response frame.
Responses are encoded canonically (sorted keys, compact separators —
the :class:`repro.obs.recorder.JsonlRecorder` convention), so identical
sessions produce byte-identical transcripts, which is what the golden
wire pins in ``tests/test_serve_golden.py`` check.

Schema contract (mirrors ``repro.obs.events.CORE_FIELDS``): the fields
listed in :data:`CORE_RESPONSE_FIELDS` and :data:`OP_RESPONSE_FIELDS`
are a floor, not a ceiling — a future server may *add* response fields
(bumping :data:`PROTOCOL_VERSION` only for breaking changes), but must
never rename or remove a core field.  Clients must ignore fields they
do not know.

Requests
--------
``{"op": "hello"}``
    Capability probe: protocol version, known strategies, which fall
    back to the scalar kernel.
``{"op": "open", "device": D, "strategy": S, "horizon": H, ...}``
    Create a session.  Optional: ``params`` (strategy tunables),
    ``slot``, ``power_model`` (registry name), ``bandwidth``
    (``{"kind": "wuhan"}`` or ``{"kind": "constant", "rate": R}``),
    ``apps`` (cargo app specs ``{"app_id", "cost_kind", "deadline"}``).
``{"op": "event", "device": D, "kind": "cargo"|"hb", "t": ...}``
    One observation.  Cargo: ``app``, ``size``, ``deadline``.
    Heartbeat: ``app``, ``seq``, ``size``.  Event times must be
    non-decreasing per device; the response reports every transmission
    finalized by this event (a slot is final once an event at or past
    its end proves no more inputs can land in it).
``{"op": "close", "device": D}``
    Run out the horizon, force-flush leftovers, return the final
    summary and per-device fleet aggregate, then drop the session.
``{"op": "batch", "strategy": S, "devices": N, ...}``
    Bulk decision request: simulate ``N`` synthesized devices (optional
    ``device_offset``, ``horizon``, ``seed``, ``params``, ``bandwidth``,
    ``power_model``) through the *vectorized* fleet kernel in one call
    and return the aggregated :class:`FleetChunkSummary` as ``fleet``.
    Configurations the registry's coverage rule leaves to the scalar
    engine are refused (``scalar_only``); params every path rejects
    answer ``bad_params``.  Adjacent batch requests in one server micro-batch
    that share a configuration and cover contiguous device ranges are
    fused into a single kernel call; ``coalesced`` reports the fusion
    width.

Every request may carry an ``id``; the response echoes it.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from repro.core.packet import TransmissionRecord

__all__ = [
    "PROTOCOL_VERSION",
    "SERVER_NAME",
    "CORE_RESPONSE_FIELDS",
    "OP_RESPONSE_FIELDS",
    "ProtocolError",
    "encode_frame",
    "tx_to_wire",
    "error_response",
]

#: Bumped only on breaking changes; additive fields ride version 1.
PROTOCOL_VERSION = 1

SERVER_NAME = "etrain-serve"

#: Fields present in *every* response frame.
CORE_RESPONSE_FIELDS: Tuple[str, ...] = ("ok", "op")

#: Additional fields guaranteed per successful op (additive contract).
OP_RESPONSE_FIELDS: Dict[str, Tuple[str, ...]] = {
    "hello": ("proto", "server", "strategies", "scalar_fallback"),
    "open": ("device", "strategy", "horizon", "slot", "n_slots"),
    "event": ("device", "t", "decisions", "tx", "held"),
    "close": ("device", "decisions", "tx", "flushed", "summary", "fleet"),
    "batch": (
        "strategy",
        "devices",
        "device_offset",
        "horizon",
        "seed",
        "coalesced",
        "packets",
        "bursts",
        "fleet",
    ),
}

#: Fields guaranteed on every error response.
ERROR_RESPONSE_FIELDS: Tuple[str, ...] = ("ok", "op", "error")


class ProtocolError(Exception):
    """A request the server rejects, mapped 1:1 to an error response.

    ``code`` is machine-matchable and stable; ``retryable`` marks purely
    load-induced rejections (the client should back off ``retry_after``
    seconds and resend, nothing about the request itself is wrong).
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        retryable: bool = False,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.retryable = retryable
        self.retry_after = retry_after


def encode_frame(frame: Dict) -> bytes:
    """Canonical NDJSON bytes: sorted keys, compact separators, one line."""
    return (
        json.dumps(frame, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def tx_to_wire(record: TransmissionRecord) -> Dict:
    """A radio burst as a response-embeddable dict (floats verbatim)."""
    return {
        "start": record.start,
        "duration": record.duration,
        "size": record.size_bytes,
        "kind": record.kind,
        "apps": list(record.app_ids),
        "packet_ids": list(record.packet_ids),
    }


def error_response(op: Optional[str], exc: ProtocolError, request: Dict) -> Dict:
    """Build the error frame for a rejected request."""
    resp: Dict = {
        "ok": False,
        "op": op if op is not None else "?",
        "error": {"code": exc.code, "message": exc.message},
    }
    if exc.retryable:
        resp["retry_after"] = exc.retry_after if exc.retry_after is not None else 0.0
    if "id" in request:
        resp["id"] = request["id"]
    if isinstance(request.get("device"), str):
        resp["device"] = request["device"]
    return resp
