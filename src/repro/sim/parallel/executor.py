"""Experiment executor with caching and fault tolerance.

The executor fans a grid of :class:`~repro.sim.parallel.specs.JobSpec`
cells across worker processes.  Four properties the rest of the library
leans on:

* **Determinism** — each worker rebuilds its job from the spec alone
  (fresh packet-id counter, seeded traces), so a parallel run returns
  summaries bit-identical to a serial run of the same grid, in the same
  order as the submitted jobs.
* **Caching** — with a ``cache_dir``, completed cells are stored under
  their spec's content hash; reruns and overlapping sweeps skip the
  simulation entirely (visible in :class:`ExecutorStats`).
* **Fault tolerance** — parallel runs go through the lease coordinator
  of :mod:`repro.sim.dist`: a worker dying (OOM kill, segfault, injected
  crash) drops its connection and its lease is requeued under a bounded
  per-job retry budget, a worker holding a lease past the per-job
  timeout is killed, dead workers are respawned within a budget, and —
  when they keep dying — the remaining jobs degrade to in-process serial
  execution rather than failing the run.  Because jobs are pure
  functions of their specs, a retried job returns the exact bytes the
  first attempt would have (see ``docs/robustness.md``).
* **Instrumentation** — jobs done, per-job wall time, cache hits,
  retries/timeouts/respawns and worker utilization accumulate in
  ``executor.stats``, the ``executor.*`` counters of
  ``executor.metrics``, and stream through the optional ``progress``
  callback; an optional ``recorder`` receives one structured event per
  failure-handling action.

``workers=None`` (the default) runs jobs in-process, in submission
order — the drop-in replacement for the old serial loops, sharing the
exact code path workers use.  ``workers=N`` (N > 1) forks N local lease
workers attached to a localhost coordinator.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, metrics_scope
from repro.sim.parallel.cache import ResultCache
from repro.sim.parallel.specs import JobSpec, run_job

__all__ = ["JobResult", "ExecutorStats", "RetryPolicy", "ExperimentExecutor"]


@dataclass(frozen=True)
class JobResult:
    """Outcome of one grid cell."""

    spec: JobSpec
    summary: Dict[str, float]
    wall_time: float
    worker_pid: int
    cached: bool = False
    #: Serialised :class:`~repro.obs.metrics.MetricsRegistry` the job's
    #: worker recorded (None for cache entries written before metrics
    #: existed).  The executor folds these into ``executor.metrics``.
    metrics: Optional[Dict] = None


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor responds to worker death and hung jobs.

    ``max_retries`` bounds *leases per job*: a job may be handed to a
    worker at most ``1 + max_retries`` times; a job lost beyond that
    budget gets one last-resort in-process serial run (with fault
    injection off) instead of failing the sweep.  Dead local workers are
    respawned at most ``max_pool_rebuilds`` times per run; past that, with
    no worker left, the executor finishes the remaining jobs serially.
    ``job_timeout`` (seconds from the lease grant, never extended by
    heartbeats) revokes and requeues a job that overruns it and kills
    the local worker that held it.
    """

    max_retries: int = 2
    job_timeout: Optional[float] = None
    max_pool_rebuilds: int = 3
    #: Poll period of the lease watchdog (expiries and respawns).
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError(f"job_timeout must be > 0, got {self.job_timeout}")
        if self.max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )


@dataclass
class ExecutorStats:
    """Lifetime counters of one executor (accumulated across ``run`` calls)."""

    jobs_total: int = 0
    jobs_run: int = 0
    cache_hits: int = 0
    cache_misses: int = 0  # lookups that went to simulation (cache configured)
    wall_time: float = 0.0
    busy_time: float = 0.0
    workers: int = 1
    job_times: List[float] = field(default_factory=list)
    # Fault-tolerance counters (all zero on a healthy run).
    retries: int = 0  # resubmissions after a job was lost
    worker_failures: int = 0  # connections lost with live leases
    timeouts: int = 0  # leases that overran job_timeout
    pool_rebuilds: int = 0  # dead local workers respawned
    serial_fallbacks: int = 0  # local workers given up on entirely
    serial_rescues: int = 0  # jobs run in-process after exhausting retries

    @property
    def worker_utilization(self) -> float:
        """Fraction of worker-seconds spent simulating (0 when idle)."""
        capacity = self.workers * self.wall_time
        return self.busy_time / capacity if capacity > 0 else 0.0

    @property
    def mean_job_time(self) -> float:
        return sum(self.job_times) / len(self.job_times) if self.job_times else 0.0

    def describe(self) -> str:
        """One-line human summary (used by the CLI)."""
        line = (
            f"{self.jobs_total} jobs ({self.jobs_run} run, "
            f"{self.cache_hits} cached) in {self.wall_time:.2f}s wall, "
            f"mean job {self.mean_job_time * 1000:.0f}ms, "
            f"{self.workers} worker(s) at {100 * self.worker_utilization:.0f}% "
            "utilization"
        )
        if self.worker_failures or self.timeouts or self.retries:
            line += (
                f"; survived {self.worker_failures} worker failure(s), "
                f"{self.timeouts} timeout(s) via {self.retries} retrie(s)"
            )
        return line


def _job_key(spec) -> str:
    """The stable identity faults and journals key on (the cache key)."""
    return spec.content_hash()


def _execute(spec, faults=None, attempt: int = 1):
    """Worker entry point: run one job, timing it.

    Returns ``(summary, wall seconds, pid, metrics dict)``.  Each job
    runs inside its own :func:`~repro.obs.metrics.metrics_scope` so
    engine-side instrumentation lands in a per-job registry that ships
    back with the summary; the executor merges the registries
    associatively, exactly like fleet chunk summaries.

    ``faults`` (a :class:`repro.faults.FaultPlan` or None) injects its
    decision for this (job, attempt) first — an injected crash kills the
    worker via ``os._exit`` before any simulation state exists, which is
    what makes retried jobs bit-identical to undisturbed ones.
    """
    if faults is not None:
        faults.inject(_job_key(spec), attempt)
    started = time.perf_counter()
    with metrics_scope() as registry:
        summary = run_job(spec)
    elapsed = time.perf_counter() - started
    registry.counter("executor.jobs").inc()
    registry.histogram("executor.job_wall_s").observe(elapsed)
    return summary, elapsed, os.getpid(), registry.to_dict()


def _run_in_process(spec) -> JobResult:
    """Run one job here, fault injection off (serial runs and rescues)."""
    summary, elapsed, pid, metrics = _execute(spec)
    return JobResult(
        spec=spec, summary=summary, wall_time=elapsed, worker_pid=pid, metrics=metrics
    )


class ExperimentExecutor:
    """Runs job grids serially in-process or on forked lease workers."""

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        cache_dir=None,
        progress: Optional[Callable[[str], None]] = None,
        retry: Optional[RetryPolicy] = None,
        faults=None,
        journal=None,
        recorder=None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1 or None, got {workers}")
        self.workers = workers
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.progress = progress
        #: Failure-handling knobs; the default policy retries twice and
        #: never times jobs out.
        self.retry = retry if retry is not None else RetryPolicy()
        #: Optional :class:`repro.faults.FaultPlan`.  Injected in lease
        #: workers only — an in-process crash/hang would take down or
        #: stall the parent, which is the failure mode, not the test.
        self.faults = faults
        #: Optional :class:`repro.sim.parallel.journal.RunJournal`; every
        #: completed cell's key is appended, making the run resumable.
        self.journal = journal
        #: Optional trace recorder for failure-handling events
        #: (``job_retry`` / ``worker_failure``).
        self.recorder = recorder
        self.stats = ExecutorStats(workers=workers if workers else 1)
        #: Merge of every job's per-worker registry (run or cached), in
        #: completion order — the merge is associative and commutative,
        #: so the totals are independent of scheduling and cache state.
        #: The parent-side ``executor.retries`` / ``executor.timeouts`` /
        #: ``executor.worker_failures`` / ``executor.pool_rebuilds``
        #: counters land here too.
        self.metrics = MetricsRegistry()

    @property
    def in_process(self) -> bool:
        """Whether jobs run in this process rather than on lease workers."""
        return self.workers is None or self.workers == 1

    def _absorb_metrics(self, result: JobResult) -> None:
        if result.metrics:
            self.metrics.merge(MetricsRegistry.from_dict(result.metrics))

    # -- internals ---------------------------------------------------------

    def _report(self, done: int, total: int, result: JobResult) -> None:
        if self.progress is None:
            return
        origin = "cache" if result.cached else f"{result.wall_time:.2f}s"
        self.progress(f"[{done}/{total}] {result.spec.describe()} ({origin})")

    def _count_fault(self, name: str, amount: int = 1) -> None:
        """Bump a parent-side fault counter in stats and metrics together."""
        setattr(self.stats, name, getattr(self.stats, name) + amount)
        self.metrics.counter(f"executor.{name}").inc(amount)

    def _emit(self, event: Dict) -> None:
        if self.recorder is not None:
            self.recorder.emit(event)

    def _finish(self, result: JobResult, done: int, total: int) -> int:
        """Common completion path: store, merge metrics, journal, report."""
        self._store(result)
        self._absorb_metrics(result)
        if self.journal is not None:
            self.journal.record(_job_key(result.spec), tag=result.spec.tag)
        done += 1
        self._report(done, total, result)
        return done

    def _from_cache(self, spec: JobSpec) -> Optional[JobResult]:
        if self.cache is None:
            return None
        entry = self.cache.get(spec.content_hash())
        if entry is None:
            return None
        return JobResult(
            spec=spec,
            summary=dict(entry["summary"]),
            wall_time=float(entry.get("wall_time", 0.0)),
            worker_pid=0,
            cached=True,
            metrics=entry.get("metrics"),
        )

    def _store(self, result: JobResult) -> None:
        if self.cache is None or result.cached:
            return
        self.cache.put(
            result.spec.content_hash(),
            {
                "spec": result.spec.to_dict(),
                "tag": result.spec.tag,
                "summary": result.summary,
                "wall_time": result.wall_time,
                "metrics": result.metrics,
            },
        )

    def _run_serial(
        self, misses: List[int], jobs: Sequence[JobSpec], results: List[Optional[JobResult]]
    ) -> None:
        done = len(jobs) - len(misses)
        for i in misses:
            results[i] = _run_in_process(jobs[i])
            done = self._finish(results[i], done, len(jobs))

    def _dispatch(
        self, misses: List[int], jobs: Sequence[JobSpec], results: List[Optional[JobResult]]
    ) -> None:
        """Execute the cache misses; the extension point subclasses override.

        Everything around this call — cache prefill, journaling of hits,
        the hole check, and stats accounting — is placement-independent
        and shared; only *where* the misses run differs: in-process, or
        on ``workers`` forked local lease workers (the same coordinator
        :class:`repro.sim.dist.DistExecutor` runs for external workers).
        """
        if self.workers is not None and self.workers > 1 and len(misses) > 1:
            from repro.sim.dist.coordinator import DistConfig, LeaseRun

            LeaseRun(
                self, misses, jobs, results,
                spawn_workers=min(self.workers, len(misses)),
                config=DistConfig(),
            ).run()
        else:
            self._run_serial(misses, jobs, results)

    # -- public API --------------------------------------------------------

    def describe_cache(self) -> Optional[str]:
        """One-line cache summary (None when no cache is configured)."""
        if self.cache is None:
            return None
        return (
            f"cache: {self.stats.cache_hits} hit(s), "
            f"{self.stats.cache_misses} miss(es), "
            f"{len(self.cache)} entries, "
            f"{self.cache.size_bytes() / 1024:.1f} KiB on disk"
        )

    def run(self, jobs: Sequence[JobSpec]) -> List[JobResult]:
        """Execute a grid; results come back in submission order."""
        jobs = list(jobs)
        started = time.perf_counter()
        results: List[Optional[JobResult]] = [None] * len(jobs)

        misses: List[int] = []
        for i, spec in enumerate(jobs):
            hit = self._from_cache(spec)
            if hit is not None:
                results[i] = hit
                self._absorb_metrics(hit)
                if self.journal is not None:
                    self.journal.record(_job_key(spec), tag=spec.tag)
            else:
                misses.append(i)
        # Cache hits are reported up front, before any simulation starts.
        reported = 0
        for r in results:
            if r is not None:
                reported += 1
                self._report(reported, len(jobs), r)

        if misses:
            self._dispatch(misses, jobs, results)

        elapsed = time.perf_counter() - started
        holes = [i for i, r in enumerate(results) if r is None]
        if holes:
            # Completeness is an invariant callers depend on (sweep zips
            # results against its spec grid, fleet merges chunks by
            # position); a hole would silently misalign every result
            # after it, so fail loudly instead of filtering it away.
            raise RuntimeError(
                f"executor lost {len(holes)} of {len(jobs)} job(s) "
                f"(indices {holes[:10]}{'...' if len(holes) > 10 else ''})"
            )
        finished: List[JobResult] = [r for r in results if r is not None]
        executed = [r for r in finished if not r.cached]
        self.stats.jobs_total += len(jobs)
        self.stats.jobs_run += len(executed)
        self.stats.cache_hits += len(finished) - len(executed)
        if self.cache is not None:
            self.stats.cache_misses += len(misses)
        self.stats.wall_time += elapsed
        self.stats.busy_time += sum(r.wall_time for r in executed)
        self.stats.job_times.extend(r.wall_time for r in executed)
        return finished
