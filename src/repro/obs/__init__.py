"""Observability layer: structured tracing and metrics.

``repro.obs`` is the layer every engine reports through:

* :mod:`repro.obs.events` — the structured trace event schema (packet
  arrivals, heartbeat fires, piggyback decisions, RRC transitions,
  horizon flushes) with a schema version for forward compatibility;
* :mod:`repro.obs.recorder` — the narrow :class:`Recorder` sink protocol
  plus ring-buffer, in-memory and JSONL implementations;
* :mod:`repro.obs.tracer` — the engine-side emitter that plugs a
  recorder into :class:`repro.sim.engine.Simulation` and the fleet
  engine with zero overhead when no recorder is attached;
* :mod:`repro.obs.metrics` — a process-local registry of counters,
  gauges and histograms whose merge is associative and commutative, so
  worker metrics combine like fleet chunk summaries (its histograms
  also carry the ``fleet.phase.*`` timings behind ``etrain fleet``'s
  phase table);
* :mod:`repro.obs.replay` — recomputes a run's summary metrics (total
  energy, piggyback ratio, delay cost) from its event trace alone,
  making traces a correctness artifact rather than just a log.

See ``docs/observability.md`` for the full schema and semantics.
"""

from repro.obs.events import TRACE_SCHEMA_VERSION, EventType
from repro.obs.metrics import (
    MetricsRegistry,
    current_registry,
    metrics_scope,
)
from repro.obs.recorder import (
    JsonlRecorder,
    ListRecorder,
    NullRecorder,
    Recorder,
    RingBufferRecorder,
    TruncatedTraceError,
    read_jsonl,
)
from repro.obs.replay import replay_events, replay_trace_file, verify_trace

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "EventType",
    "Recorder",
    "NullRecorder",
    "ListRecorder",
    "RingBufferRecorder",
    "JsonlRecorder",
    "TruncatedTraceError",
    "read_jsonl",
    "MetricsRegistry",
    "metrics_scope",
    "current_registry",
    "replay_events",
    "replay_trace_file",
    "verify_trace",
]
