"""Spans around the program's public layer calls, installed from outside.

Nothing under ``src/`` knows about this module.  :func:`install` swaps
each layer's public function for a wrapper that records a span (name,
optional tag, start, end, parent, run id, pid) into a process-local
:class:`Tracer`, kept in memory and written out as JSON lines.  It must
run before the program does any work, so that:

* the case process traces its own calls;
* forked pool workers inherit the wrappers (``os.register_at_fork``
  gives each child a fresh span buffer, flushed after every root span
  because pool workers exit without running ``atexit`` hooks);
* the serve daemon is started through ``serve_launcher.py``, which
  installs first and then calls the program's own ``serve`` entry.

:func:`layer_table` turns spans into per-layer busy and self times on
one process's timeline; ``unattributed`` is the wall time the layers'
self times do not cover, so the rows add up to the wall by definition
and the check that matters is that no self time is negative and the
self times never exceed the wall.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

__all__ = ["Tracer", "import_layers", "install", "load_trace", "layer_table", "percentile"]


class Tracer:
    """Per-process span buffer plus a few counters and samples."""

    def __init__(self, run_id: str, out_dir: Path) -> None:
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.owner_pid = self.pid
        self.spans: List[Dict] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self._next = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans, self.stack = [], []
        self.counts, self.maxima, self.samples = {}, {}, {}
        self._next = 0

    @contextlib.contextmanager
    def span(self, name: str, tag: Optional[str] = None):
        sid = self._next
        self._next += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append(
                {
                    "id": sid,
                    "name": name,
                    "tag": tag,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": self.run_id,
                    "pid": self.pid,
                }
            )
            if not self.stack and self.pid != self.owner_pid:
                self.flush()  # forked pool worker: may exit without atexit

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def high(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def flush(self) -> None:
        """Append buffered spans and stats to this process's trace file."""
        if not (self.spans or self.counts or self.maxima or self.samples):
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            stats = {
                "stats": True,
                "pid": self.pid,
                "counts": self.counts,
                "maxima": self.maxima,
                "samples": self.samples,
            }
            fh.write(json.dumps(stats) + "\n")
        self.spans = []
        self.counts, self.maxima, self.samples = {}, {}, {}


def _wrap(tracer: Tracer, fn: Callable, name: str, tag_of=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tag = tag_of(args, kwargs) if tag_of is not None else None
        with tracer.span(name, tag):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _patch(tracer, owners: Iterable, attr: str, name: str, tag_of=None, after=None,
           classmethod_=False) -> None:
    """Replace ``attr`` on every owner (module or class) with one wrapper."""
    owners = list(owners)
    original = getattr(owners[0], attr)
    wrapped = _wrap(tracer, original, name, tag_of, after)
    for owner in owners:
        setattr(owner, attr, classmethod(lambda cls, *a, **k: wrapped(*a, **k))
                if classmethod_ else wrapped)


def import_layers() -> None:
    """Import every wrapped module, so traced and untraced runs pay the
    import cost before their timed region alike."""
    import repro.serve.server  # noqa: F401
    import repro.sim.fleet  # noqa: F401
    import repro.sim.fleet.accounting  # noqa: F401
    import repro.sim.fleet.engine  # noqa: F401
    import repro.sim.fleet.reference  # noqa: F401
    import repro.sim.parallel  # noqa: F401


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls; call before the program runs."""
    import repro.serve.server as server_mod
    import repro.sim.fleet as fleet_pkg
    import repro.sim.fleet.accounting as accounting
    import repro.sim.fleet.engine as engine
    import repro.sim.fleet.reference as reference
    import repro.sim.fleet.runner as runner
    import repro.sim.fleet.workload as workload
    import repro.sim.parallel.executor as executor_mod
    from repro.serve.batcher import Inbox
    from repro.serve.server import ServeApp
    from repro.serve.sessions import SessionStore
    from repro.sim.fleet.aggregate import FleetChunkSummary
    from repro.sim.fleet.channel import ChannelTable, SharedChannel
    from repro.sim.parallel.cache import ResultCache
    from repro.sim.parallel.journal import RunJournal
    from repro.workload.trace_io import NdjsonDecoder

    # -- fleet ---------------------------------------------------------
    _patch(tracer, [runner, fleet_pkg], "run_fleet", "fleet.run")
    _patch(tracer, [ChannelTable], "from_model", "fleet.channel", classmethod_=True)
    _patch(tracer, [SharedChannel], "publish", "fleet.channel", classmethod_=True)
    _patch(tracer, [SharedChannel], "attach", "fleet.channel", classmethod_=True)

    def _packets(args, kwargs, result):
        tracer.count("fleet.workload.packets", result.n_packets)

    _patch(tracer, [workload], "synthesize_fleet", "fleet.workload", after=_packets)

    def _strategy(args, kwargs):
        return kwargs.get("strategy", "etrain")

    def _device_slots(args, kwargs, result):
        wl = args[0]
        tracer.count("fleet.kernel.device_slots", wl.n_devices * wl.horizon)

    _patch(tracer, [engine], "simulate_fleet_chunk", "fleet.kernel",
           tag_of=_strategy, after=_device_slots)
    _patch(tracer, [accounting], "summarize_chunk", "fleet.accounting")

    def _ref_devices(args, kwargs, result):
        tracer.count("fleet.reference.devices", args[0].n_devices)

    _patch(tracer, [reference], "simulate_reference_chunk", "fleet.reference",
           tag_of=_strategy, after=_ref_devices)
    _patch(tracer, [FleetChunkSummary], "merge_all", "fleet.aggregate",
           classmethod_=True)

    # -- parallel ------------------------------------------------------
    run_job = executor_mod.run_job

    @functools.wraps(run_job)
    def traced_run_job(spec):
        if hasattr(spec, "run_in_worker"):
            with tracer.span("fleet.chunk", spec.strategy):
                return run_job(spec)
        with tracer.span("engine", spec.strategy.name):
            return run_job(spec)

    executor_mod.run_job = traced_run_job
    _patch(tracer, [executor_mod.ExperimentExecutor], "run", "parallel.executor")
    _patch(tracer, [ResultCache], "put", "parallel.cache.put")
    _patch(tracer, [RunJournal], "record", "parallel.journal.append")

    # -- serve ---------------------------------------------------------
    _patch(tracer, [NdjsonDecoder], "feed", "serve.protocol.decode")
    _patch(tracer, [server_mod], "encode_frame", "serve.protocol.encode")
    _patch(tracer, [ServeApp], "handle_batch", "serve.server.handle_batch")

    def _op(args, kwargs):
        request = args[1] if len(args) > 1 else kwargs.get("request")
        op = request.get("op") if isinstance(request, dict) else None
        return op if isinstance(op, str) else "?"

    _patch(tracer, [ServeApp], "handle", "serve.server.handle", tag_of=_op)

    offer, drain = Inbox.offer, Inbox.drain
    enqueued: Dict[int, List[float]] = {}

    @functools.wraps(offer)
    def traced_offer(self, item):
        accepted = offer(self, item)
        if accepted:
            enqueued.setdefault(id(self), []).append(time.perf_counter())
            tracer.high("serve.batcher.backlog_max", len(self))
        return accepted

    @functools.wraps(drain)
    def traced_drain(self, max_items):
        batch = drain(self, max_items)
        now = time.perf_counter()
        stamps = enqueued.get(id(self), [])
        for t in stamps[: len(batch)]:
            tracer.sample("serve.batcher.wait_ms", (now - t) * 1e3)
        del stamps[: len(batch)]
        tracer.sample("serve.batcher.frames_per_drain", len(batch))
        tracer.maxima["serve.batcher.shed"] = self.shed
        return batch

    Inbox.offer, Inbox.drain = traced_offer, traced_drain

    put = SessionStore.put

    @functools.wraps(put)
    def traced_put(self, device, session):
        evicted = put(self, device, session)
        tracer.high("serve.sessions.live_max", len(self))
        return evicted

    SessionStore.put = traced_put


# -- reading traces back ------------------------------------------------


def load_trace(trace_dir: Path):
    """All spans and merged stats written under ``trace_dir``."""
    spans: List[Dict] = []
    counts: Dict[str, float] = {}
    maxima: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if not rec.get("stats"):
                spans.append(rec)
                continue
            for k, v in rec["counts"].items():
                counts[k] = counts.get(k, 0) + v
            for k, v in rec["maxima"].items():
                maxima[k] = max(maxima.get(k, v), v)
            for k, v in rec["samples"].items():
                samples.setdefault(k, []).extend(v)
    return spans, {"counts": counts, "maxima": maxima, "samples": samples}


def layer_table(spans: List[Dict], wall_s: float, pid: int) -> Dict:
    """Busy and self time per span name on one process's timeline.

    Self time is a span's duration minus the part its direct children
    cover (children nest inside their parent on one thread, so that part
    is the children's summed durations).  ``unattributed`` is ``wall_s``
    minus every self time.
    """
    mine = [s for s in spans if s["pid"] == pid]
    child_time: Dict[int, float] = {}
    for s in mine:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (
                s["end"] - s["start"]
            )
    layers: Dict[str, Dict[str, float]] = {}
    for s in mine:
        dur = s["end"] - s["start"]
        row = layers.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += dur
        row["self_s"] += dur - child_time.get(s["id"], 0.0)
    attributed = sum(r["self_s"] for r in layers.values())
    return {
        "wall_s": wall_s,
        "layers": layers,
        "unattributed_s": wall_s - attributed,
    }


def percentile(values: List[float], q: float) -> float:
    """Exact nearest-rank percentile (0 when there are no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100.0)
    return ordered[min(max(rank, 1), len(ordered)) - 1]
