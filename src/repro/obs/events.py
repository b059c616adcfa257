"""Structured trace event schema (versioned).

Every event is a plain JSON-serialisable dict with two reserved keys:
``"ev"`` (the event type, one of :class:`EventType`) and, on the
``run_start`` event only, ``"schema"`` (the integer
:data:`TRACE_SCHEMA_VERSION`).  All remaining keys are type-specific.

Versioning contract
-------------------
Within one schema version, the **core fields** of each event type
(:data:`CORE_FIELDS`) are stable: they may not be renamed, removed or
change meaning.  New fields may be *added* at any time without a version
bump — consumers (the replay engine, the golden-trace comparator) must
ignore keys they do not know.  Removing or renaming a core field
requires bumping :data:`TRACE_SCHEMA_VERSION`.

Event types
-----------
``run_start``
    Opens a trace: schema version, strategy name, horizon, slot, the
    power-model parameters (enough to recompute energy analytically) and
    an optional per-app cost table ``{app_id: {"cost_kind": k,
    "deadline": d}}`` used by the replay's delay-cost computation.
``arrival``
    One cargo packet entering the system.  Emitted in delivery order
    (ascending ``(arrival, packet_id)`` — exactly the order the dense
    loop delivers and ``SimulationResult`` iterates), which is what lets
    the replay reproduce float sums bit-for-bit.
``heartbeat``
    A train heartbeat fired (app, sequence number, departure time).
``burst``
    One radio burst: actual start, duration, bytes, kind (``heartbeat`` /
    ``data`` / ``piggyback``), carried packet ids and whether the radio
    was cold (fully demoted) when the burst was requested.  A
    ``piggyback`` burst *is* the piggyback decision record.
``rrc``
    An RRC state transition (``IDLE→DCH``, ``DCH→FACH``, ``FACH→IDLE``)
    at an exact time, derived from the burst sequence and the power
    model's tail timers.
``flush``
    The horizon flush: how many leftover packets were force-released.
``run_end``
    Closes a trace with the run's summary metrics; the replay engine
    recomputes these from the events above and compares exactly.
``fleet_chunk`` / ``fleet_run``
    Fleet-engine counterparts: one merged summary per simulated chunk
    and one for the whole population run.
``fleet_burst``
    Per-burst fleet event (device-indexed), emitted by
    ``simulate_fleet_chunk(..., recorder=...)`` for chunk-level audits.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Sequence, Tuple

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "EventType",
    "CORE_FIELDS",
    "core_view",
    "cost_kind_of",
]

#: Bump only on breaking changes to core fields (see module docstring).
TRACE_SCHEMA_VERSION = 1


class EventType:
    """String constants for the ``"ev"`` field."""

    RUN_START = "run_start"
    ARRIVAL = "arrival"
    HEARTBEAT = "heartbeat"
    BURST = "burst"
    RRC = "rrc"
    FLUSH = "flush"
    RUN_END = "run_end"
    FLEET_CHUNK = "fleet_chunk"
    FLEET_BURST = "fleet_burst"
    FLEET_RUN = "fleet_run"
    FLEET_FALLBACK = "fleet_fallback"
    # Execution-layer fault events (emitted by the fault-tolerant
    # executor, not by the simulation engines; see docs/robustness.md).
    JOB_RETRY = "job_retry"
    WORKER_FAILURE = "worker_failure"
    SERIAL_FALLBACK = "serial_fallback"
    # Distributed-coordinator event: a leased job's deadline passed
    # without a heartbeat (silent host death) or past its hard budget
    # (hung worker); the job is requeued or rescued like a lost connection.
    LEASE_EXPIRED = "lease_expired"


#: The schema-stable fields per event type.  The golden-trace comparator
#: projects events onto these keys, so traces gain additive fields
#: without breaking pinned snapshots.
CORE_FIELDS: Dict[str, Tuple[str, ...]] = {
    EventType.RUN_START: ("ev", "schema", "strategy", "horizon", "slot"),
    EventType.ARRIVAL: ("ev", "id", "app", "t", "size", "deadline"),
    EventType.HEARTBEAT: ("ev", "app", "seq", "t", "size"),
    EventType.BURST: ("ev", "t", "dur", "size", "kind", "pkts", "cold"),
    EventType.RRC: ("ev", "t", "frm", "to"),
    EventType.FLUSH: ("ev", "t", "count"),
    EventType.RUN_END: ("ev", "summary"),
    EventType.FLEET_CHUNK: ("ev", "devices", "packets", "bursts"),
    EventType.FLEET_BURST: ("ev", "dev", "t", "dur", "size", "kind"),
    EventType.FLEET_RUN: ("ev", "devices", "chunks"),
    EventType.FLEET_FALLBACK: ("ev", "strategy", "chunks"),
    EventType.JOB_RETRY: ("ev", "job", "attempt"),
    EventType.WORKER_FAILURE: ("ev", "lost", "timed_out"),
    EventType.SERIAL_FALLBACK: ("ev", "jobs", "breaks"),
    EventType.LEASE_EXPIRED: ("ev", "job", "worker", "timed_out"),
}


def core_view(event: Mapping) -> Dict:
    """Project an event onto its schema-core fields.

    Unknown event types project onto just ``{"ev": ...}`` so a trace
    with *new event types* still compares stably on the types both sides
    know.  Missing core fields stay missing (a removed core field then
    shows up as a pin diff, which is the point).
    """
    fields = CORE_FIELDS.get(event.get("ev"), ("ev",))
    return {k: event[k] for k in fields if k in event}


def cost_kind_of(cost_function: object) -> Optional[int]:
    """Small-integer kind of a cost function (mail=0, weibo=1, cloud=2).

    Mirrors ``repro.sim.fleet.workload.COST_KINDS`` without importing
    NumPy; returns None for cost functions the replay cannot evaluate.
    """
    from repro.core.cost_functions import CloudCost, MailCost, WeiboCost

    for cls, kind in ((MailCost, 0), (WeiboCost, 1), (CloudCost, 2)):
        if isinstance(cost_function, cls):
            return kind
    return None


def app_cost_table(profiles: Sequence) -> Dict[str, Dict]:
    """``{app_id: {cost_kind, deadline}}`` from cargo app profiles."""
    table: Dict[str, Dict] = {}
    for p in profiles:
        table[p.app_id] = {
            "cost_kind": cost_kind_of(p.cost_function),
            "deadline": p.deadline,
        }
    return table


def power_model_fields(power_model) -> Dict[str, float]:
    """Plain-data power-model parameters for the ``run_start`` event."""
    return dataclasses.asdict(power_model)
