"""Fleet orchestration: chunks through the experiment executor.

``run_fleet`` is the one call the CLI and examples use: it fans the
fleet's chunks across the
:class:`~repro.sim.parallel.executor.ExperimentExecutor` (serial
in-process, sharing one channel table through shared memory, or forked
lease workers — same code path either way), merges the streamed chunk
summaries, and reports throughput plus peak RSS.  Its orchestration
phases are timed into the executor's metrics registry as
``fleet.phase.<name>_s`` (wall) and ``fleet.phase.<name>_cpu_s``
histograms; :attr:`FleetRunResult.phases` is the table view of them.

Memory stays O(chunk_size): no structure here grows with the fleet's
device count except the list of fixed-size chunk summaries (O(chunks)).
``docs/performance.md`` records measured RSS for a 1M-device run.
"""

from __future__ import annotations

import contextlib
import resource
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional

from repro.obs.events import TRACE_SCHEMA_VERSION, EventType
from repro.obs.metrics import MetricsRegistry
from repro.sim.fleet.aggregate import FleetChunkSummary
from repro.sim.fleet.channel import ChannelTable, SharedChannel
from repro.sim.fleet.spec import FleetSpec
from repro.sim.parallel.executor import ExecutorStats, ExperimentExecutor

__all__ = ["FleetRunResult", "run_fleet", "peak_rss_bytes"]

#: ``run_fleet``'s orchestration phases, in pipeline order.
PHASES = ("channel_publish", "simulate", "aggregate")


def peak_rss_bytes(include_children: bool = True) -> int:
    """Peak resident set size of this process (and reaped children), bytes.

    ``ru_maxrss`` is kilobytes on Linux; children matter because lease
    workers do the actual simulation in parallel runs.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return int(peak) * 1024


@contextlib.contextmanager
def _phase(metrics: MetricsRegistry, name: str) -> Iterator[None]:
    """Observe the block's wall and CPU seconds as ``fleet.phase.<name>``."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        yield
    finally:
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        metrics.histogram(f"fleet.phase.{name}_s").observe(wall)
        metrics.histogram(f"fleet.phase.{name}_cpu_s").observe(cpu)


@dataclass
class FleetRunResult:
    """Merged outcome of one fleet run."""

    spec: FleetSpec
    summary: FleetChunkSummary
    wall_time: float
    chunks: int
    cached_chunks: int
    vectorized: bool
    peak_rss: int  # bytes, publisher process + reaped workers
    #: Merged per-worker metrics plus this run's ``fleet.phase.*``
    #: (serialised MetricsRegistry dict).
    metrics: Dict
    #: The executor's stats (retries, worker failures, timeouts, ...).
    executor_stats: ExecutorStats

    @property
    def phases(self) -> Dict[str, Dict[str, float]]:
        """Wall/CPU seconds and calls per orchestration phase, in
        pipeline order: a view of the ``fleet.phase.*`` histograms."""
        table = {}
        for name in PHASES:
            wall = self.metrics[f"fleet.phase.{name}_s"]
            cpu = self.metrics[f"fleet.phase.{name}_cpu_s"]
            table[name] = {
                "wall_s": wall["sum"],
                "cpu_s": cpu["sum"],
                "calls": wall["count"],
            }
        return table

    @property
    def devices_per_sec(self) -> float:
        return self.spec.devices / self.wall_time if self.wall_time > 0 else 0.0

    def describe(self) -> str:
        mode = "vectorized" if self.vectorized else "scalar fallback"
        return (
            f"{self.spec.devices} devices ({self.spec.strategy}, {mode}) in "
            f"{self.wall_time:.2f}s — {self.devices_per_sec:,.0f} devices/s, "
            f"{self.chunks} chunk(s), peak RSS {self.peak_rss / 2**20:.0f} MiB"
        )


def run_fleet(
    spec: FleetSpec,
    *,
    workers: Optional[int] = None,
    cache_dir=None,
    progress: Optional[Callable[[str], None]] = None,
    share_channel: Optional[bool] = None,
    recorder=None,
    retry=None,
    faults=None,
    journal=None,
    make_executor: Optional[Callable] = None,
) -> FleetRunResult:
    """Run a fleet spec end to end and merge its chunk summaries.

    ``share_channel`` defaults to "when vectorized": when the executor
    runs the chunks in this process, the prefix table is published to ``multiprocessing.shared_memory`` once
    and every chunk attaches instead of re-deriving it.  Lease workers
    get chunks over the wire without a handle and build the table
    themselves, so nothing is published for them.  The publisher's
    context manager closes *and* unlinks even when the run dies
    mid-flight; attached readers only close.

    ``recorder`` optionally receives one ``fleet_chunk`` event per chunk
    summary plus a closing ``fleet_run`` event.  (Chunk specs cross
    process boundaries, so per-burst tracing is only available through
    the direct ``simulate_fleet_chunk(..., recorder=...)`` API.)

    ``retry`` / ``faults`` / ``journal`` flow straight into
    :class:`~repro.sim.parallel.executor.ExperimentExecutor`: retry
    policy for crashed/hung workers, a deterministic
    :class:`~repro.faults.FaultPlan` to inject failures, and a
    :class:`~repro.sim.parallel.journal.RunJournal` for
    ``fleet --resume`` bookkeeping.

    ``make_executor`` swaps the placement layer: a factory called with
    the executor keyword arguments above (minus ``workers``) that
    returns an :class:`ExperimentExecutor`-compatible instance — the
    hook the CLI uses to build its executor from the placement flags
    (``--bind`` yields a :class:`~repro.sim.dist.DistExecutor`).  Chunk content
    hashes exclude the shared-channel handle, so cache, journal and
    results are identical whichever placement runs them.
    """
    vectorized = spec.vectorized
    if share_channel is None:
        share_channel = vectorized
    started = time.perf_counter()
    common = dict(
        cache_dir=cache_dir,
        progress=progress,
        retry=retry,
        faults=faults,
        journal=journal,
        recorder=recorder,
    )
    if make_executor is not None:
        executor = make_executor(**common)
    else:
        executor = ExperimentExecutor(workers=workers, **common)
    with contextlib.ExitStack() as stack:
        with _phase(executor.metrics, "channel_publish"):
            if share_channel and vectorized and executor.in_process:
                table = ChannelTable.from_model(spec.bandwidth_model(), spec.horizon)
                shared = stack.enter_context(SharedChannel.publish(table))
                chunks = spec.chunk_specs(channel=shared.handle)
            else:
                chunks = spec.chunk_specs()
        if not vectorized:
            # Fallback visibility: count it where dashboards look and
            # stamp it into the trace so a slow run explains itself.
            executor.metrics.counter("fleet.scalar_fallback").inc(len(chunks))
            if recorder is not None:
                recorder.emit(
                    {
                        "ev": EventType.FLEET_FALLBACK,
                        "schema": TRACE_SCHEMA_VERSION,
                        "strategy": spec.strategy,
                        "chunks": len(chunks),
                    }
                )
        with _phase(executor.metrics, "simulate"):
            results = executor.run(chunks)
    with _phase(executor.metrics, "aggregate"):
        summaries = [FleetChunkSummary.from_dict(r.summary) for r in results]
        merged = FleetChunkSummary.merge_all(summaries)
    wall = time.perf_counter() - started
    if recorder is not None:
        for s in summaries:
            recorder.emit(
                {
                    "ev": EventType.FLEET_CHUNK,
                    "schema": TRACE_SCHEMA_VERSION,
                    "devices": int(s.devices),
                    "packets": int(s.packets),
                    "bursts": int(s.bursts),
                    "energy_total_j": float(s.energy_total_j),
                    "piggyback_hits": int(s.piggyback_hits),
                }
            )
        recorder.emit(
            {
                "ev": EventType.FLEET_RUN,
                "devices": int(merged.devices),
                "chunks": len(results),
                "summary": {k: float(v) for k, v in merged.summary().items()},
            }
        )
    return FleetRunResult(
        spec=spec,
        summary=merged,
        wall_time=wall,
        chunks=len(results),
        cached_chunks=sum(1 for r in results if r.cached),
        vectorized=vectorized,
        peak_rss=peak_rss_bytes(include_children=not executor.in_process),
        metrics=executor.metrics.to_dict(),
        executor_stats=executor.stats,
    )
