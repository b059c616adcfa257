"""TCP chunk coordinator: the multi-node :class:`ExperimentExecutor`.

:class:`DistExecutor` runs the exact grid the process-pool executor
runs, but places the cache misses on pull-based TCP workers
(:mod:`repro.sim.dist.worker`) instead of local pool processes.  It is
a thin placement layer: cache prefill, journaling, the result-hole
check and stats accounting are all inherited — only
``_dispatch(misses, jobs, results)`` is overridden, with an asyncio
lease server.

Ownership and failure semantics
-------------------------------
The coordinator is the *sole* owner of the
:class:`~repro.sim.parallel.journal.RunJournal` and
:class:`~repro.sim.parallel.cache.ResultCache`: workers never touch
disk state, they upload content-addressed results
(:func:`~repro.sim.dist.protocol.result_hash`-verified before anything
is journaled), so ``--resume`` after killing the coordinator or any
worker behaves exactly like the single-node story in
``docs/robustness.md``.

Every lease carries two deadlines:

* a **heartbeat deadline** (``DistConfig.lease_timeout`` past the last
  heartbeat) that catches silent host death and network partitions, and
* a **hard deadline** (``RetryPolicy.job_timeout`` past the grant,
  never extended) that bounds a hung-but-heartbeating worker — the
  distributed analogue of the pool's hung-worker kill.

A connection close revokes that worker's leases immediately (the fast
path, mirroring ``BrokenProcessPool``); the deadlines are the backstop.
Lost jobs are requeued under the same per-job
``RetryPolicy.max_retries`` budget the pool uses, count the same
``retries`` / ``worker_failures`` / ``timeouts`` stats, and over-budget
jobs get the same last-resort in-process serial rescue (fault injection
off), so a distributed run degrades in throughput, never in results.

When ``spawn_workers > 0`` the coordinator spawns that many local
worker processes itself (the ``--workers-remote N`` CLI path) and
replaces dead ones up to ``RetryPolicy.max_pool_rebuilds`` respawns;
past that budget, with no external workers attached, the remaining
queue degrades to in-process serial execution (``serial_fallbacks``),
exactly like a pool that will not stay up.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.obs.events import EventType
from repro.sim.dist.protocol import (
    COORDINATOR_NAME,
    DIST_PROTOCOL_VERSION,
    ProtocolError,
    encode_frame,
    error_response,
    job_to_wire,
    result_hash,
)
from repro.sim.parallel.executor import (
    ExperimentExecutor,
    JobResult,
    _execute_indexed,
    _job_key,
)
from repro.sim.parallel.journal import run_key_of
from repro.workload.trace_io import NdjsonDecoder

__all__ = ["DistConfig", "DistExecutor"]


@dataclass(frozen=True)
class DistConfig:
    """Knobs of the coordinator's lease server."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (resolved into ``DistExecutor.port``).
    port: int = 0
    #: Seconds a lease survives without a heartbeat before it is revoked
    #: and the job requeued.  The advertised heartbeat cadence is a
    #: third of this, so one lost beat never kills a healthy lease.
    lease_timeout: float = 30.0
    #: Leases are granted only once this many workers have completed the
    #: hello handshake (a one-way latch).  0 means "first worker starts
    #: the run"; the spawned-worker CLI path sets it to the worker count
    #: so scaling measurements exclude worker startup.
    min_workers: int = 0
    #: ``retry_after`` hint returned with idle lease responses.
    idle_retry: float = 0.05

    def __post_init__(self) -> None:
        if self.lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {self.lease_timeout}")
        if self.min_workers < 0:
            raise ValueError(f"min_workers must be >= 0, got {self.min_workers}")

    @property
    def heartbeat_s(self) -> float:
        return max(0.2, self.lease_timeout / 3.0)


@dataclass
class _Lease:
    """One outstanding job grant."""

    index: int
    key: str
    worker: str
    attempt: int
    hb_deadline: float  # monotonic; pushed forward by heartbeats
    hard_deadline: Optional[float]  # monotonic; never extended


class DistExecutor(ExperimentExecutor):
    """Executor whose misses run on TCP lease workers.

    Results are byte-identical to serial and pool execution: workers
    run the same ``_execute_indexed`` entry point on specs rebuilt from
    their canonical wire dicts, and content hashes are verified at both
    ends (spec key on lease, result hash on upload).
    """

    def __init__(
        self,
        *,
        spawn_workers: int = 0,
        config: Optional[DistConfig] = None,
        announce: Optional[Callable[[str], None]] = None,
        **kwargs,
    ) -> None:
        super().__init__(workers=None, **kwargs)
        if spawn_workers < 0:
            raise ValueError(f"spawn_workers must be >= 0, got {spawn_workers}")
        self.spawn_workers = spawn_workers
        self.config = config if config is not None else DistConfig()
        #: Optional callback told the resolved listen address (external
        #: workers need the ephemeral port before they can connect).
        self.announce = announce
        self.host = self.config.host
        self.port = self.config.port
        #: Wall seconds from the first lease grant to the last accepted
        #: result — the placement-independent scaling signal the dist
        #: bench gates on (worker startup and handshake excluded).
        self.dispatch_wall = 0.0
        self.stats.workers = max(1, spawn_workers or self.config.min_workers)

    # -- placement hook ----------------------------------------------------

    def _dispatch(self, misses, jobs, results) -> None:
        asyncio.run(self._serve(misses, jobs, results))

    # -- lease server ------------------------------------------------------

    async def _serve(
        self,
        misses: List[int],
        jobs: Sequence,
        results: List[Optional[JobResult]],
    ) -> None:
        self._jobs = jobs
        self._results_ref = results
        self._total = len(jobs)
        self._done_count = self._total - len(misses)
        self._queue: deque = deque(misses)
        self._submissions: Dict[int, int] = {i: 0 for i in misses}
        self._leases: Dict[int, _Lease] = {}
        self._remaining: Set[int] = set(misses)
        self._rescues: deque = deque()
        self._rescue_task: Optional[asyncio.Task] = None
        self._done_event = asyncio.Event()
        self._connected = 0
        self._barrier_open = self.config.min_workers == 0
        self._respawns = 0
        self._spawn_serial = 0
        self._spawned: List[subprocess.Popen] = []
        self._spawned_by_name: Dict[str, subprocess.Popen] = {}
        self._t_first_lease: Optional[float] = None
        self._t_last_result: Optional[float] = None
        self._run_key = run_key_of(_job_key(spec) for spec in jobs)

        server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.host = self.config.host
        self.port = server.sockets[0].getsockname()[1]
        if self.announce is not None:
            self.announce(
                f"coordinator: listening on {self.host}:{self.port} "
                f"({len(misses)} job(s) to lease, run {self._run_key[:16]})"
            )
        watchdog = asyncio.create_task(self._watchdog())
        try:
            for _ in range(self.spawn_workers):
                self._spawn_one()
            await self._done_event.wait()
            # Grace period: keep answering `done` leases until connected
            # workers hang up, so they exit 0 instead of hitting a reset.
            deadline = time.monotonic() + 5.0
            while self._connected > 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
        finally:
            watchdog.cancel()
            try:
                await watchdog
            except asyncio.CancelledError:
                pass
            if self._rescue_task is not None:
                try:
                    await self._rescue_task
                except asyncio.CancelledError:  # pragma: no cover
                    pass
            server.close()
            await server.wait_closed()
            await asyncio.get_running_loop().run_in_executor(None, self._reap_all)
        if self._t_first_lease is not None and self._t_last_result is not None:
            self.dispatch_wall = self._t_last_result - self._t_first_lease

    async def _on_connection(self, reader, writer) -> None:
        decoder = NdjsonDecoder()
        held: Dict[int, _Lease] = {}
        state = {"hello": False, "worker": "?"}
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for frame in decoder.feed(data):
                    if frame.error is not None:
                        exc = ProtocolError("parse_error", str(frame.error))
                        writer.write(encode_frame(error_response(None, exc, {})))
                    elif frame.obj is not None:
                        writer.write(encode_frame(self._handle(frame.obj, held, state)))
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self._revoke(held, state["worker"])
            if state["hello"]:
                self._connected -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - racing close
                pass

    # -- op handlers (all synchronous: state mutations never interleave) ---

    def _handle(self, request: Dict, held: Dict[int, _Lease], state: Dict) -> Dict:
        op = request.get("op")
        try:
            if not isinstance(request, dict) or not isinstance(op, str):
                raise ProtocolError("bad_request", "frame must carry a string op")
            if op == "hello":
                return self._on_hello(request, state)
            if not state["hello"]:
                raise ProtocolError("no_hello", "handshake required before any other op")
            if op == "lease":
                return self._on_lease(state["worker"], held)
            if op == "heartbeat":
                return self._on_heartbeat(request)
            if op == "result":
                return self._on_result(request, held)
            if op == "fail":
                return self._on_fail(request, held)
            raise ProtocolError("unknown_op", f"unknown op {op!r}")
        except ProtocolError as exc:
            return error_response(op if isinstance(op, str) else None, exc, request)

    def _on_hello(self, request: Dict, state: Dict) -> Dict:
        proto = request.get("proto")
        if proto != DIST_PROTOCOL_VERSION:
            raise ProtocolError(
                "proto_mismatch",
                f"coordinator speaks dist protocol {DIST_PROTOCOL_VERSION}, "
                f"worker sent {proto!r}",
            )
        if not state["hello"]:
            state["hello"] = True
            self._connected += 1
            self.metrics.counter("dist.workers_connected").inc()
        state["worker"] = str(request.get("worker") or f"worker-{self._connected}")
        if not self._barrier_open and self._connected >= self.config.min_workers:
            self._barrier_open = True
        return {
            "ok": True,
            "op": "hello",
            "proto": DIST_PROTOCOL_VERSION,
            "server": COORDINATOR_NAME,
            "run_key": self._run_key,
            "jobs": self._total,
            "faults": self.faults.to_dict() if self.faults is not None else None,
            "heartbeat_s": self.config.heartbeat_s,
            "lease_timeout_s": self.config.lease_timeout,
        }

    def _on_lease(self, worker: str, held: Dict[int, _Lease]) -> Dict:
        if not self._remaining:
            return {"ok": True, "op": "lease", "done": True}
        if not self._barrier_open or not self._queue:
            return {
                "ok": True,
                "op": "lease",
                "idle": True,
                "retry_after": self.config.idle_retry,
            }
        i = self._queue.popleft()
        if self._t_first_lease is None:
            self._t_first_lease = time.perf_counter()
        attempt = self._submissions[i] + 1
        self._submissions[i] = attempt
        if attempt > 1:
            self._count_fault("retries")
            self._emit(
                {
                    "ev": EventType.JOB_RETRY,
                    "job": self._jobs[i].describe(),
                    "attempt": attempt,
                }
            )
        key = _job_key(self._jobs[i])
        now = time.monotonic()
        lease = _Lease(
            index=i,
            key=key,
            worker=worker,
            attempt=attempt,
            hb_deadline=now + self.config.lease_timeout,
            hard_deadline=(
                now + self.retry.job_timeout
                if self.retry.job_timeout is not None
                else None
            ),
        )
        self._leases[i] = lease
        held[i] = lease
        self.metrics.counter("dist.leases").inc()
        return {
            "ok": True,
            "op": "lease",
            "index": i,
            "key": key,
            "attempt": attempt,
            "deadline_s": self.config.lease_timeout,
            "job": job_to_wire(self._jobs[i]),
        }

    def _on_heartbeat(self, request: Dict) -> Dict:
        lease = self._leases.get(request.get("index"))
        if lease is None or lease.key != request.get("key"):
            return {"ok": True, "op": "heartbeat", "extended": False}
        lease.hb_deadline = time.monotonic() + self.config.lease_timeout
        return {"ok": True, "op": "heartbeat", "extended": True}

    def _on_result(self, request: Dict, held: Dict[int, _Lease]) -> Dict:
        i = request.get("index")
        key = request.get("key")
        if (
            not isinstance(i, int)
            or not 0 <= i < self._total
            or key != _job_key(self._jobs[i])
        ):
            raise ProtocolError(
                "bad_request", "result index/key do not match any job of this run"
            )
        summary = request.get("summary")
        metrics = request.get("metrics")
        if result_hash(key, summary, metrics) != request.get("hash"):
            # A corrupt upload spends the attempt: revoke the lease and
            # requeue, exactly like a lost worker.
            self.metrics.counter("dist.hash_rejects").inc()
            lease = self._leases.get(i)
            if lease is not None and held.get(i) is lease:
                del self._leases[i]
                held.pop(i, None)
                self._lost(i)
            raise ProtocolError(
                "bad_hash", "result hash does not match uploaded content"
            )
        # A verified upload settles the index no matter who holds the
        # lease (first write wins; deterministic jobs make any duplicate
        # byte-identical, so dropping it as stale is safe).
        if self._leases.get(i) is not None:
            del self._leases[i]
        held.pop(i, None)
        if i not in self._remaining:
            return {"ok": True, "op": "result", "accepted": False, "stale": True}
        result = JobResult(
            spec=self._jobs[i],
            summary=summary,
            wall_time=float(request.get("wall_time", 0.0)),
            worker_pid=int(request.get("pid", 0)),
            metrics=metrics,
        )
        self._settle(i, result)
        return {"ok": True, "op": "result", "accepted": True, "stale": False}

    def _on_fail(self, request: Dict, held: Dict[int, _Lease]) -> Dict:
        i = request.get("index")
        lease = self._leases.get(i)
        if lease is not None and held.get(i) is lease:
            del self._leases[i]
            held.pop(i, None)
            self.metrics.counter("dist.nacks").inc()
            self._lost(i)
        return {"ok": True, "op": "fail"}

    # -- loss, rescue and completion ---------------------------------------

    def _settle(self, i: int, result: JobResult) -> None:
        """Record one verified completion (upload or in-process rescue)."""
        self._results_ref[i] = result
        self._remaining.discard(i)
        self._t_last_result = time.perf_counter()
        self._done_count = self._finish(result, self._done_count, self._total)
        if not self._remaining and not self._done_event.is_set():
            self._done_event.set()

    def _lost(self, i: int) -> None:
        """Requeue a lost attempt within budget, else queue a rescue."""
        if i not in self._remaining:
            return
        if self._submissions[i] <= self.retry.max_retries:
            self._queue.append(i)
        else:
            self._rescues.append(i)
            self._kick_rescues()

    def _revoke(self, held: Dict[int, _Lease], worker: str) -> None:
        """Connection closed: drop every lease it still holds (fast path)."""
        lost = []
        for i, lease in list(held.items()):
            if self._leases.get(i) is lease:
                del self._leases[i]
                if i in self._remaining:
                    lost.append(i)
        held.clear()
        if not lost:
            return
        self._count_fault("worker_failures")
        self._emit(
            {
                "ev": EventType.WORKER_FAILURE,
                "lost": len(lost),
                "timed_out": 0,
                "worker": worker,
            }
        )
        # A dropped connection with live leases usually means the process
        # behind it died; respawn now rather than on the next watchdog
        # tick so the fleet is back to strength before the requeued
        # leases are handed out (a fast surviving worker can otherwise
        # drain the queue first and the dead slot is never refilled).
        # A spawned worker's socket closes a moment before its process
        # can be reaped, so hold its leases back until then.
        proc = self._spawned_by_name.get(worker)
        if proc is not None and proc.poll() is None:
            asyncio.ensure_future(self._requeue_after_exit(proc, lost))
        else:
            self._requeue_and_tend(lost)

    def _requeue_and_tend(self, lost: List[int]) -> None:
        for i in lost:
            self._lost(i)
        self._tend_spawned()

    async def _requeue_after_exit(
        self, proc: subprocess.Popen, lost: List[int], grace: float = 1.0
    ) -> None:
        """Requeue ``lost`` and respawn once ``proc`` is reaped.

        A worker still alive after ``grace`` seconds dropped only its
        connection: it reconnects and may still upload, which the
        first-write-wins settle makes harmless.
        """
        deadline = time.monotonic() + grace
        while proc.poll() is None and time.monotonic() < deadline:
            await asyncio.sleep(0.002)
        self._requeue_and_tend(lost)

    def _kick_rescues(self) -> None:
        if self._rescue_task is None or self._rescue_task.done():
            self._rescue_task = asyncio.ensure_future(self._drain_rescues())

    async def _drain_rescues(self) -> None:
        """Run over-budget jobs in-process, compute off the event loop.

        Only the simulation itself runs in the thread; journaling,
        caching and completion bookkeeping stay on the loop thread so
        they never interleave with the op handlers.
        """
        loop = asyncio.get_running_loop()
        while self._rescues:
            i = self._rescues.popleft()
            if i not in self._remaining:
                continue
            self._count_fault("serial_rescues")
            index, summary, elapsed, pid, metrics = await loop.run_in_executor(
                None, _execute_indexed, (i, self._jobs[i], None, 1)
            )
            if index not in self._remaining:  # pragma: no cover - late upload won
                continue
            self._settle(
                index,
                JobResult(
                    spec=self._jobs[index],
                    summary=summary,
                    wall_time=elapsed,
                    worker_pid=pid,
                    metrics=metrics,
                ),
            )

    async def _watchdog(self) -> None:
        """Expire dead leases and keep the spawned-worker fleet alive."""
        poll = max(0.01, self.retry.poll_interval)
        while True:
            await asyncio.sleep(poll)
            now = time.monotonic()
            for i, lease in list(self._leases.items()):
                if lease.hard_deadline is not None and now > lease.hard_deadline:
                    self._count_fault("timeouts")
                    self._expire(i, lease, timed_out=True)
                elif now > lease.hb_deadline:
                    self._count_fault("worker_failures")
                    self._expire(i, lease, timed_out=False)
            self._tend_spawned()

    def _expire(self, i: int, lease: _Lease, *, timed_out: bool) -> None:
        del self._leases[i]
        self.metrics.counter("dist.lease_expiries").inc()
        self._emit(
            {
                "ev": EventType.LEASE_EXPIRED,
                "job": self._jobs[i].describe(),
                "worker": lease.worker,
                "timed_out": int(timed_out),
            }
        )
        self._lost(i)

    # -- spawned local workers (the --workers-remote path) -----------------

    def _spawn_one(self) -> None:
        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root + os.pathsep + existing if existing else src_root
        )
        name = f"local-{self._spawn_serial}"
        self._spawn_serial += 1
        # Workers write nothing the coordinator's caller should see;
        # silencing them keeps CLI output byte-identical to local runs.
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.sim.dist.worker",
                "--connect",
                f"{self.host}:{self.port}",
                "--name",
                name,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self._spawned.append(proc)
        self._spawned_by_name[name] = proc

    def _tend_spawned(self) -> None:
        """Respawn dead local workers within the rebuild budget.

        Past the budget with nobody connected, the remaining queue
        degrades to in-process serial execution — the distributed
        analogue of the pool executor's serial fallback.
        """
        if self.spawn_workers <= 0 or self._done_event.is_set():
            return
        for k, proc in enumerate(self._spawned):
            if proc.poll() is None:
                continue
            if self._respawns >= self.retry.max_pool_rebuilds:
                continue
            self._respawns += 1
            self._count_fault("pool_rebuilds")
            self._spawn_one()
            self._spawned[k] = self._spawned.pop()
        if (
            self._respawns >= self.retry.max_pool_rebuilds
            and self._connected == 0
            and not any(p.poll() is None for p in self._spawned)
            and self._queue
        ):
            self._count_fault("serial_fallbacks")
            self._emit(
                {
                    "ev": EventType.SERIAL_FALLBACK,
                    "jobs": len(self._queue),
                    "breaks": self._respawns,
                }
            )
            while self._queue:
                self._rescues.append(self._queue.popleft())
            self._kick_rescues()

    def _reap_all(self) -> None:
        """Collect spawned workers at shutdown (blocking; off-loop)."""
        for proc in self._spawned:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - wedged child
                proc.kill()
                proc.wait()
