"""Wire protocol of the distributed executor (version 1).

The coordinator and its workers speak the same canonical NDJSON framing
as ``etrain serve`` (one JSON object per line, sorted keys, compact
separators — see :mod:`repro.serve.protocol`, whose ``encode_frame`` and
``ProtocolError`` this module reuses).  Every worker request receives
exactly one response frame; unsolicited frames never occur, so a worker
can drive the connection with a blocking request/response loop (the
connection's heartbeat thread shares the socket under a lock and its
acks are filtered out by op).

Requests (worker → coordinator)
-------------------------------
``{"op": "hello", "proto": V, "worker": W, "pid": P}``
    Handshake.  Rejected (``proto_mismatch``) unless ``V`` equals
    :data:`DIST_PROTOCOL_VERSION`.  The response carries the run key,
    the total job count, the serialized fault plan workers must apply
    (or null), and the heartbeat cadence the coordinator expects.
``{"op": "lease", "worker": W}``
    Pull one job.  The response is either a lease (``job`` wire dict,
    ``index``, ``key``, ``attempt``, ``deadline_s``), ``idle`` with a
    ``retry_after`` hint, or ``done`` (run complete — the worker exits
    0).  While the queue is empty or the start barrier still closed the
    coordinator holds the request until a job is requeued or the run
    ends, and answers ``idle`` (``retry_after`` 0) only after a bounded
    wait shorter than the worker's socket timeout.
``{"op": "heartbeat", "worker": W, "index": I, "key": K}``
    Keep a lease alive.  Extends the *heartbeat* deadline only — the
    hard per-job deadline from ``RetryPolicy.job_timeout`` is never
    extended, which is how a hung-but-heartbeating worker is bounded.
``{"op": "result", "worker": W, "index": I, "key": K, "attempt": A,
"summary": S, "wall_time": T, "pid": P, "metrics": M, "hash": H}``
    Upload a finished job.  ``H`` must equal
    :func:`result_hash` ``(K, S, M)``; the coordinator recomputes it
    before accepting (``bad_hash`` otherwise, and the attempt is treated
    as lost).  A duplicate upload for an already-completed index is
    acknowledged as ``stale`` — deterministic jobs make duplicates
    byte-identical, so dropping them is safe.
``{"op": "fail", "worker": W, "index": I, "key": K, "error": E}``
    Negative acknowledgement: the worker could not run the job (spec
    rebuild mismatch, simulation exception).  The coordinator requeues
    or rescues it exactly like a lost lease.

Job wire format
---------------
Specs travel as their canonical cache dicts (``spec.to_dict()``, the
same bytes their content hash covers), discriminated by the
``"kind"`` key: ``"fleet_chunk"`` rebuilds a
:class:`~repro.sim.fleet.spec.FleetChunkSpec`, anything else a sweep
:class:`~repro.sim.parallel.specs.JobSpec`.  Because
``FleetChunkSpec.to_dict`` never includes the shared-memory channel
handle, wire round-trips naturally yield ``channel=None`` and workers
read the channel table from their own per-process memo — the
placement-invariance property the result hashes then verify end to
end.  A version skew between
coordinator and worker raises instead of silently producing
differently-keyed results.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

from repro.serve.protocol import ProtocolError, encode_frame, error_response

__all__ = [
    "DIST_PROTOCOL_VERSION",
    "COORDINATOR_NAME",
    "ProtocolError",
    "encode_frame",
    "error_response",
    "job_to_wire",
    "job_from_wire",
    "result_hash",
]

#: Bumped only on breaking changes; additive fields ride version 1.
DIST_PROTOCOL_VERSION = 1

COORDINATOR_NAME = "etrain-coordinator"


def job_to_wire(spec) -> Dict:
    """A job spec as its canonical, content-hash-covered wire dict."""
    return spec.to_dict()


def job_from_wire(wire: Dict):
    """Rebuild the spec a wire dict describes (exact content-hash peer).

    Raises ``ValueError`` on a malformed dict or a cache-version skew —
    a worker running different code than the coordinator must fail the
    lease loudly rather than compute under a stale key.
    """
    if not isinstance(wire, dict):
        raise ValueError(f"job wire must be a dict, got {type(wire).__name__}")
    if wire.get("kind") == "fleet_chunk":
        from repro.sim.fleet.spec import FLEET_CACHE_VERSION, FleetChunkSpec

        if wire.get("version") != FLEET_CACHE_VERSION:
            raise ValueError(
                f"fleet cache version skew: wire has {wire.get('version')!r}, "
                f"this worker speaks {FLEET_CACHE_VERSION}"
            )
        # Field values ride verbatim: JSON round-trips ints, floats and
        # nulls exactly, and any coercion here (int -> float, say) would
        # change the canonical dict and break key equality.
        return FleetChunkSpec(
            strategy=wire["strategy"],
            params=tuple(sorted(dict(wire["params"]).items())),
            seed=wire["seed"],
            horizon=wire["horizon"],
            rate=wire["rate"],
            power_model=wire["power_model"],
            phase_mode=wire["phase_mode"],
            bandwidth=wire["bandwidth"],
            bandwidth_rate=wire["bandwidth_rate"],
            n_devices=wire["n_devices"],
            device_offset=wire["device_offset"],
        )
    from repro.sim.parallel.specs import (
        CACHE_VERSION,
        JobSpec,
        ScenarioSpec,
        StrategySpec,
    )

    if wire.get("version") != CACHE_VERSION:
        raise ValueError(
            f"job cache version skew: wire has {wire.get('version')!r}, "
            f"this worker speaks {CACHE_VERSION}"
        )
    strategy = StrategySpec.make(
        wire["strategy"]["name"], **dict(wire["strategy"]["params"])
    )
    scenario = ScenarioSpec(**wire["scenario"])
    return JobSpec(strategy=strategy, scenario=scenario)


def result_hash(key: str, summary: Dict, metrics) -> str:
    """Content address of one uploaded result.

    SHA-256 over the canonical JSON of ``{key, summary, metrics}`` —
    ``wall_time`` is deliberately excluded (timing is measurement, not
    content, and must not fail verification).  JSON float serialization
    round-trips exactly, so the worker-side and coordinator-side digests
    of the same payload always agree.
    """
    payload = {"key": key, "summary": summary, "metrics": metrics}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
