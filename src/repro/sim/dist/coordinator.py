"""TCP lease coordinator: the placement layer of every parallel run.

:class:`LeaseRun` places one batch of cache misses on pull-based TCP
workers (:mod:`repro.sim.dist.worker`).  Two executors drive it, and
both override only ``_dispatch(misses, jobs, results)``; cache prefill,
journaling, the result-hole check and stats accounting are inherited
from :class:`~repro.sim.parallel.executor.ExperimentExecutor`:

* ``ExperimentExecutor(workers=N)`` forks N local workers attached to
  an ephemeral localhost port, with no start barrier;
* :class:`DistExecutor` adds a listen address, a start barrier and an
  ``announce`` callback for external ``etrain worker --connect``
  processes, plus any number of forked local workers.

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
  never extended) that bounds a hung-but-heartbeating worker; a local
  worker that overruns it is killed.

A connection close revokes that worker's leases immediately (the fast
path); the deadlines are the backstop.  Lost jobs are requeued under
the per-job ``RetryPolicy.max_retries`` budget and count ``retries`` /
``worker_failures`` / ``timeouts``; over-budget jobs get a last-resort
in-process serial rescue (fault injection off), so a parallel run
degrades in throughput, never in results.  Dead local workers are
respawned up to ``RetryPolicy.max_pool_rebuilds`` times; past that
budget, with no worker attached, the remaining queue degrades to
in-process serial execution (``serial_fallbacks``).

Any exception raised by the coordinator's own code (the ``progress``
callback, the cache, the journal, the event recorder, a serial rescue)
ends the run: local workers are killed and reaped, and the exception
propagates out of ``run``.  Only socket errors on a worker's
connection are absorbed; they revoke that worker's leases.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
from repro.sim.dist.worker import SOCKET_TIMEOUT_S, run_worker
from repro.sim.parallel.executor import (
    ExperimentExecutor,
    JobResult,
    _job_key,
    _run_in_process,
)
from repro.sim.parallel.journal import run_key_of
from repro.workload.trace_io import NdjsonDecoder

__all__ = ["DistConfig", "DistExecutor", "LeaseRun"]


@dataclass(frozen=True)
class DistConfig:
    """Knobs of the coordinator's lease server."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (told to ``announce``).
    port: int = 0
    #: Seconds a lease survives without a heartbeat before it is revoked
    #: and the job requeued.  The advertised heartbeat cadence is a
    #: third of this, so one lost beat never kills a healthy lease.
    lease_timeout: float = 30.0
    #: Leases are granted only once this many workers have completed the
    #: hello handshake (a one-way latch).  0 means "first worker starts
    #: the run"; scaling measurements set it to the worker count so they
    #: exclude worker startup.
    min_workers: int = 0

    def __post_init__(self) -> None:
        if self.lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {self.lease_timeout}")
        if self.min_workers < 0:
            raise ValueError(f"min_workers must be >= 0, got {self.min_workers}")

    @property
    def heartbeat_s(self) -> float:
        return max(0.2, self.lease_timeout / 3.0)

    @property
    def park_s(self) -> float:
        """Longest an idle lease request is held before answering idle.

        Half the worker's socket timeout at most, so a parked worker
        never mistakes the wait for a dead coordinator.
        """
        return min(self.heartbeat_s, SOCKET_TIMEOUT_S / 2.0)


@dataclass
class _Lease:
    """One outstanding job grant."""

    key: str
    worker: str
    hb_deadline: float  # monotonic; pushed forward by heartbeats
    hard_deadline: Optional[float]  # monotonic; never extended


def _local_worker(host: str, port: int, name: str, inherited: List[int]) -> None:
    """Forked local worker: serve the coordinator, exit with its code.

    The child drops its copy of the listening socket, so a worker that
    outlives a killed coordinator finds the port closed instead of a
    backlog nobody accepts.
    """
    for fd in inherited:
        os.close(fd)
    sys.exit(run_worker(host, port, name=name))


def _reap(procs: List[multiprocessing.Process], kill: bool) -> None:
    """Collect local workers at shutdown (blocking; run off the loop)."""
    for proc in procs:
        if kill:
            proc.kill()
        proc.join(5.0)
        if proc.exitcode is None:  # pragma: no cover - wedged child
            proc.kill()
            proc.join()


class LeaseRun:
    """One coordinator lifetime: lease ``misses`` out until all settle.

    Results are byte-identical to serial execution: workers run the
    same ``_execute`` entry point on specs rebuilt from their
    canonical wire dicts, and content hashes are verified at both ends
    (spec key on lease, result hash on upload).  Local workers are
    forked from the default ``multiprocessing`` context, so they start
    with the parent's imports and module state instead of paying an
    interpreter start each; the child touches only its own sockets and
    the simulation, never a lock another parent thread may hold.
    """

    def __init__(
        self,
        executor: ExperimentExecutor,
        misses: List[int],
        jobs: Sequence,
        results: List[Optional[JobResult]],
        *,
        spawn_workers: int = 0,
        config: Optional[DistConfig] = None,
        announce: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.ex = executor
        self.config = config if config is not None else DistConfig()
        self.spawn_workers = spawn_workers
        self.announce = announce
        self.jobs = jobs
        self.results = results
        self.total = len(jobs)
        self.done_count = self.total - len(misses)
        self.queue: deque = deque(misses)
        self.submissions: Dict[int, int] = {i: 0 for i in misses}
        self.leases: Dict[int, _Lease] = {}
        self.remaining = set(misses)
        self.rescues: deque = deque()
        self.rescue_task: Optional[asyncio.Task] = None
        self.waits: Set[asyncio.Task] = set()
        self.connected = 0
        self.barrier_open = self.config.min_workers == 0
        self.respawns = 0
        self.spawn_serial = 0
        #: Live local worker slots by worker name.
        self.local: Dict[str, multiprocessing.Process] = {}
        self.listen_fds: List[int] = []
        #: Open connections: handler task -> its writer.
        self.conns: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.error: Optional[BaseException] = None
        self.t_first_lease: Optional[float] = None
        self.keys = [_job_key(spec) for spec in jobs]
        self.run_key = run_key_of(self.keys)
        self.port = self.config.port
        self.dispatch_wall = 0.0  # first lease grant to last settle

    def run(self) -> "LeaseRun":
        asyncio.run(self._serve())
        return self

    async def _serve(self) -> None:
        self.done = asyncio.Event()
        self.wakeup = asyncio.Event()
        server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self.listen_fds = [sock.fileno() for sock in server.sockets]
        watchdog = self._start(self._watchdog())
        clean = False
        try:
            if self.announce is not None:
                self.announce(
                    f"coordinator: listening on {self.config.host}:{self.port} "
                    f"({len(self.remaining)} job(s) to lease, "
                    f"run {self.run_key[:16]})"
                )
            for _ in range(self.spawn_workers):
                self._spawn_one()
            await self.done.wait()
            if self.error is None:
                # Grace period: keep answering `done` leases until the
                # workers hang up, so they exit 0 instead of hitting a
                # reset.
                if self.conns:
                    await asyncio.wait(list(self.conns), timeout=5.0)
                clean = True
        finally:
            self.done.set()  # no respawn or requeue past this point
            watchdog.cancel()
            if self.rescue_task is not None and not clean:
                self.rescue_task.cancel()
            # A task's exception is already self.error; wait() never raises.
            await asyncio.wait([t for t in (watchdog, self.rescue_task) if t])
            server.close()
            await server.wait_closed()
            await asyncio.get_running_loop().run_in_executor(
                None, _reap, list(self.local.values()), not clean
            )
            # Hang up on stragglers and let their handlers finish, so no
            # handler is left to be cancelled when the loop closes.
            for writer in self.conns.values():
                writer.close()
            if self.conns:
                await asyncio.wait(list(self.conns), timeout=1.0)
        if self.error is not None:
            raise self.error

    async def _on_connection(self, reader, writer) -> None:
        decoder = NdjsonDecoder()
        held: Dict[int, _Lease] = {}
        state = {"hello": False, "worker": "?"}
        task = asyncio.current_task()
        self.conns[task] = writer
        try:
            while True:
                try:
                    data = await reader.read(65536)
                except (ConnectionError, OSError):
                    break  # the worker is gone: revoke its leases below
                if not data:
                    break
                for frame in decoder.feed(data):
                    if frame.error is not None:
                        exc = ProtocolError("parse_error", str(frame.error))
                        writer.write(encode_frame(error_response(None, exc, {})))
                    elif frame.obj is not None:
                        reply = self._handle(frame.obj, held, state)
                        if reply.get("idle"):
                            reply = await self._park(held, state)
                        writer.write(encode_frame(reply))
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
            self._revoke(held, state["worker"])
        except Exception as exc:  # a coordinator fault must end the run
            self._fail(exc)
        finally:
            if state["hello"]:
                self.connected -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - racing close
                pass
            del self.conns[task]

    async def _park(self, held: Dict[int, _Lease], state: Dict) -> Dict:
        """Hold an idle lease reply until work is requeued or the run ends.

        Replaces a worker-side poll: the reply goes out as soon as
        :meth:`_poke` signals a change, or as ``idle`` after
        ``DistConfig.park_s``.
        """
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self.wakeup.wait(), self.config.park_s)
        return self._on_lease(state["worker"], held)

    def _poke(self) -> None:
        """Wake every parked lease request (queue, barrier or run changed)."""
        self.wakeup.set()
        self.wakeup = asyncio.Event()

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
            self.connected += 1
            self.ex.metrics.counter("dist.workers_connected").inc()
        state["worker"] = str(request.get("worker") or f"worker-{self.connected}")
        if not self.barrier_open and self.connected >= self.config.min_workers:
            self.barrier_open = True
            self._poke()
        faults = self.ex.faults
        return {
            "ok": True,
            "op": "hello",
            "proto": DIST_PROTOCOL_VERSION,
            "server": COORDINATOR_NAME,
            "run_key": self.run_key,
            "jobs": self.total,
            "faults": faults.to_dict() if faults is not None else None,
            "heartbeat_s": self.config.heartbeat_s,
            "lease_timeout_s": self.config.lease_timeout,
        }

    def _on_lease(self, worker: str, held: Dict[int, _Lease]) -> Dict:
        if self.done.is_set():
            return {"ok": True, "op": "lease", "done": True}
        if not self.barrier_open or not self.queue:
            # A parked request has already waited; ask again at once.
            return {"ok": True, "op": "lease", "idle": True, "retry_after": 0.0}
        i = self.queue.popleft()
        if self.t_first_lease is None:
            self.t_first_lease = time.perf_counter()
        attempt = self.submissions[i] + 1
        self.submissions[i] = attempt
        if attempt > 1:
            self.ex._count_fault("retries")
            self.ex._emit(
                {
                    "ev": EventType.JOB_RETRY,
                    "job": self.jobs[i].describe(),
                    "attempt": attempt,
                }
            )
        key = self.keys[i]
        now = time.monotonic()
        job_timeout = self.ex.retry.job_timeout
        lease = _Lease(
            key=key,
            worker=worker,
            hb_deadline=now + self.config.lease_timeout,
            hard_deadline=now + job_timeout if job_timeout is not None else None,
        )
        self.leases[i] = lease
        held[i] = lease
        self.ex.metrics.counter("dist.leases").inc()
        return {
            "ok": True,
            "op": "lease",
            "index": i,
            "key": key,
            "attempt": attempt,
            "deadline_s": self.config.lease_timeout,
            "job": job_to_wire(self.jobs[i]),
        }

    def _on_heartbeat(self, request: Dict) -> Dict:
        lease = self.leases.get(request.get("index"))
        if lease is None or lease.key != request.get("key"):
            return {"ok": True, "op": "heartbeat", "extended": False}
        lease.hb_deadline = time.monotonic() + self.config.lease_timeout
        return {"ok": True, "op": "heartbeat", "extended": True}

    def _on_result(self, request: Dict, held: Dict[int, _Lease]) -> Dict:
        i = request.get("index")
        key = request.get("key")
        if (
            not isinstance(i, int)
            or not 0 <= i < self.total
            or key != self.keys[i]
        ):
            raise ProtocolError(
                "bad_request", "result index/key do not match any job of this run"
            )
        summary = request.get("summary")
        metrics = request.get("metrics")
        if result_hash(key, summary, metrics) != request.get("hash"):
            # A corrupt upload spends the attempt: revoke the lease and
            # requeue, exactly like a lost worker.
            self.ex.metrics.counter("dist.hash_rejects").inc()
            lease = self.leases.get(i)
            if lease is not None and held.get(i) is lease:
                del self.leases[i]
                held.pop(i, None)
                self._lost(i)
            raise ProtocolError(
                "bad_hash", "result hash does not match uploaded content"
            )
        # A verified upload settles the index no matter who holds the
        # lease (first write wins; deterministic jobs make any duplicate
        # byte-identical, so dropping it as stale is safe).
        self.leases.pop(i, None)
        held.pop(i, None)
        if i not in self.remaining:
            return {"ok": True, "op": "result", "accepted": False, "stale": True}
        result = JobResult(
            spec=self.jobs[i],
            summary=summary,
            wall_time=float(request.get("wall_time", 0.0)),
            worker_pid=int(request.get("pid", 0)),
            metrics=metrics,
        )
        self._settle(i, result)
        return {"ok": True, "op": "result", "accepted": True, "stale": False}

    def _on_fail(self, request: Dict, held: Dict[int, _Lease]) -> Dict:
        i = request.get("index")
        lease = self.leases.get(i)
        if lease is not None and held.get(i) is lease:
            del self.leases[i]
            held.pop(i, None)
            self.ex.metrics.counter("dist.nacks").inc()
            self._lost(i)
        return {"ok": True, "op": "fail"}

    # -- loss, rescue and completion ---------------------------------------

    def _settle(self, i: int, result: JobResult) -> None:
        """Record one verified completion (upload or in-process rescue)."""
        self.results[i] = result
        self.remaining.discard(i)
        if self.t_first_lease is not None:
            self.dispatch_wall = time.perf_counter() - self.t_first_lease
        try:
            self.done_count = self.ex._finish(result, self.done_count, self.total)
        except BaseException as exc:  # progress, cache or journal: run() re-raises
            self._fail(exc)
            return
        if not self.remaining:
            self.done.set()
            self._poke()

    def _fail(self, exc: BaseException) -> None:
        """End the run with ``exc``; ``run`` kills the workers and raises it."""
        if self.error is None:
            self.error = exc
        self.done.set()
        self._poke()

    def _lost(self, i: int) -> None:
        """Requeue a lost attempt within budget, else queue a rescue."""
        if i not in self.remaining:
            return
        if self.submissions[i] <= self.ex.retry.max_retries:
            self.queue.append(i)
            self._poke()
        else:
            self.rescues.append(i)
            self._kick_rescues()

    def _revoke(self, held: Dict[int, _Lease], worker: str) -> None:
        """Connection closed: drop every lease it still holds (fast path)."""
        lost = []
        for i, lease in list(held.items()):
            if self.leases.get(i) is lease:
                del self.leases[i]
                if i in self.remaining:
                    lost.append(i)
        held.clear()
        if not lost or self.done.is_set():
            return
        self.ex._count_fault("worker_failures")
        self.ex._emit(
            {
                "ev": EventType.WORKER_FAILURE,
                "lost": len(lost),
                "timed_out": 0,
                "worker": worker,
            }
        )
        # A dropped connection with live leases usually means the process
        # behind it died; respawn now rather than on the next watchdog
        # tick so the workers are back to strength before the requeued
        # leases are handed out (a fast surviving worker can otherwise
        # drain the queue first and the dead slot is never refilled).
        # A local worker's socket closes a moment before its process
        # can be reaped, so hold its leases back until then.
        proc = self.local.get(worker)
        if proc is not None and proc.is_alive():
            self._start(self._requeue_after_exit(proc, lost))
        else:
            self._requeue_and_tend(lost)

    def _start(self, coro) -> asyncio.Task:
        """Run ``coro`` as a task whose exception ends the run."""
        task = asyncio.ensure_future(coro)
        self.waits.add(task)  # the loop holds tasks only weakly
        task.add_done_callback(self._on_task_done)
        return task

    def _on_task_done(self, task: asyncio.Task) -> None:
        self.waits.discard(task)
        if not task.cancelled() and task.exception() is not None:
            self._fail(task.exception())

    def _requeue_and_tend(self, lost: List[int]) -> None:
        for i in lost:
            self._lost(i)
        self._tend_local()

    async def _requeue_after_exit(
        self, proc: multiprocessing.Process, lost: List[int], grace: float = 1.0
    ) -> None:
        """Requeue ``lost`` and respawn once ``proc`` is reaped.

        A worker still alive after ``grace`` seconds dropped only its
        connection: it reconnects and may still upload, which the
        first-write-wins settle makes harmless.
        """
        deadline = time.monotonic() + grace
        while proc.is_alive() and time.monotonic() < deadline:
            await asyncio.sleep(0.002)
        self._requeue_and_tend(lost)

    def _kick_rescues(self) -> None:
        if self.rescue_task is None or self.rescue_task.done():
            self.rescue_task = self._start(self._drain_rescues())

    async def _drain_rescues(self) -> None:
        """Run over-budget jobs in-process, compute off the event loop.

        Only the simulation itself runs in the thread; journaling,
        caching and completion bookkeeping stay on the loop thread so
        they never interleave with the op handlers.  The thread lives
        for one drain, during which :meth:`_tend_local` forks nothing.
        """
        loop = asyncio.get_running_loop()
        pool = ThreadPoolExecutor(1, thread_name_prefix="etrain-rescue")
        try:
            while self.rescues and self.error is None:
                i = self.rescues.popleft()
                if i not in self.remaining:
                    continue
                self.ex._count_fault("serial_rescues")
                result = await loop.run_in_executor(pool, _run_in_process, self.jobs[i])
                if i in self.remaining:  # else a late upload won
                    self._settle(i, result)
        finally:
            # Join the idle thread before any respawn forks; a run that is
            # ending forks nothing and must not wait on a busy thread.
            pool.shutdown(wait=not self.done.is_set())

    async def _watchdog(self) -> None:
        """Expire dead leases and keep the local workers alive."""
        poll = max(0.01, self.ex.retry.poll_interval)
        while True:
            await asyncio.sleep(poll)
            now = time.monotonic()
            for i, lease in list(self.leases.items()):
                if lease.hard_deadline is not None and now > lease.hard_deadline:
                    self.ex._count_fault("timeouts")
                    self._expire(i, lease, timed_out=True)
                elif now > lease.hb_deadline:
                    self.ex._count_fault("worker_failures")
                    self._expire(i, lease, timed_out=False)
            self._tend_local()

    def _expire(self, i: int, lease: _Lease, *, timed_out: bool) -> None:
        del self.leases[i]
        self.ex.metrics.counter("dist.lease_expiries").inc()
        self.ex._emit(
            {
                "ev": EventType.LEASE_EXPIRED,
                "job": self.jobs[i].describe(),
                "worker": lease.worker,
                "timed_out": int(timed_out),
            }
        )
        if timed_out:
            # A hung local worker is killed, then respawned by the
            # watchdog; its revoked lease finds nothing left to requeue.
            proc = self.local.get(lease.worker)
            if proc is not None and proc.is_alive():
                proc.kill()
        self._lost(i)

    # -- forked local workers ----------------------------------------------

    def _spawn_one(self) -> None:
        name = f"local-{self.spawn_serial}"
        self.spawn_serial += 1
        forked = multiprocessing.get_start_method() == "fork"
        proc = multiprocessing.Process(
            target=_local_worker,
            args=(self.config.host, self.port, name, self.listen_fds if forked else []),
            name=name,
            daemon=True,
        )
        proc.start()
        self.local[name] = proc

    def _tend_local(self) -> None:
        """Respawn dead local workers within the rebuild budget.

        Past the budget with nobody connected, the remaining queue
        degrades to in-process serial execution.
        """
        if not self.local or self.done.is_set():
            return
        if self.rescue_task is not None and not self.rescue_task.done():
            return  # no fork beside the rescue thread; the next tick respawns
        budget = self.ex.retry.max_pool_rebuilds
        for name, proc in list(self.local.items()):
            if self.respawns >= budget or proc.is_alive():
                continue
            self.respawns += 1
            self.ex._count_fault("pool_rebuilds")
            del self.local[name]
            self._spawn_one()
        if (
            self.respawns >= budget
            and self.connected == 0
            and self.queue
            and not any(p.is_alive() for p in self.local.values())
        ):
            self.ex._count_fault("serial_fallbacks")
            self.ex._emit(
                {
                    "ev": EventType.SERIAL_FALLBACK,
                    "jobs": len(self.queue),
                    "breaks": self.respawns,
                }
            )
            self.rescues.extend(self.queue)
            self.queue.clear()
            self._kick_rescues()



class DistExecutor(ExperimentExecutor):
    """Executor whose misses run on TCP lease workers, local or external.

    ``spawn_workers`` forked local workers join the coordinator; any
    number of external ``etrain worker --connect`` processes may attach
    to ``config.host:config.port`` as well (``announce`` is told the
    resolved address).
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
        self.announce = announce
        #: Wall seconds from the first lease grant to the last accepted
        #: result — the placement-independent scaling signal the dist
        #: bench gates on (worker startup and handshake excluded).
        self.dispatch_wall = 0.0
        self.stats.workers = max(1, spawn_workers or self.config.min_workers)

    in_process = False  # jobs always go to lease workers

    def _dispatch(self, misses, jobs, results) -> None:
        run = LeaseRun(
            self, misses, jobs, results,
            spawn_workers=self.spawn_workers,
            config=self.config,
            announce=self.announce,
        ).run()
        self.dispatch_wall = run.dispatch_wall
