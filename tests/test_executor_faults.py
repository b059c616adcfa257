"""Fault-tolerant executor: crash recovery, timeouts, degradation.

Every scenario injects failures through a seeded
:class:`repro.faults.FaultPlan`, so the injected set is computable in
the test (``crashes_for`` / ``hangs_for``) and the run is replayable.
The one invariant every scenario must preserve: summaries are
bit-identical to a clean serial run of the same grid, whatever died
along the way.
"""

import multiprocessing
import signal
import threading
import time

import pytest

from repro.faults import FaultPlan
from repro.obs import ListRecorder
from repro.obs.events import EventType
from repro.sim.parallel import (
    ExperimentExecutor,
    ResultCache,
    RetryPolicy,
    RunJournal,
    ScenarioSpec,
    StrategySpec,
    run_key_of,
    seed_grid,
)

pytestmark = pytest.mark.faults


def tiny_grid(seeds=3):
    return seed_grid(
        [StrategySpec.make("immediate"), StrategySpec.make("etrain", theta=1.0)],
        list(range(seeds)),
        ScenarioSpec(horizon=240.0),
    )


def plan_with(keys, *, n_crashes=0, n_hangs=0, hang_seconds=30.0, **kw):
    """Search seeds for a plan injecting exactly the requested fault counts."""
    for seed in range(500):
        plan = FaultPlan(
            seed=seed,
            crash_prob=0.25 if n_crashes else 0.0,
            hang_prob=0.25 if n_hangs else 0.0,
            hang_seconds=hang_seconds,
            **kw,
        )
        if (
            len(plan.crashes_for(keys)) == n_crashes
            and len(plan.hangs_for(keys)) == n_hangs
        ):
            return plan
    raise AssertionError("no seed matches the requested fault counts")


@pytest.fixture(scope="module")
def jobs():
    return tiny_grid()


@pytest.fixture(scope="module")
def keys(jobs):
    return [j.content_hash() for j in jobs]


@pytest.fixture(scope="module")
def clean(jobs):
    return [r.summary for r in ExperimentExecutor().run(jobs)]


class TestCrashRecovery:
    def test_single_crash_converges_bit_identical(self, jobs, keys, clean):
        plan = plan_with(keys, n_crashes=1)
        ex = ExperimentExecutor(workers=2, faults=plan)
        results = ex.run(jobs)
        assert [r.summary for r in results] == clean
        assert ex.stats.worker_failures == 1
        assert ex.stats.pool_rebuilds == 1
        assert ex.stats.retries >= 1  # the crashed job, plus in-flight casualties
        assert ex.stats.serial_fallbacks == 0

    def test_metrics_counters_mirror_stats(self, jobs, keys):
        plan = plan_with(keys, n_crashes=1)
        ex = ExperimentExecutor(workers=2, faults=plan)
        ex.run(jobs)
        metrics = ex.metrics.to_dict()
        assert metrics["executor.worker_failures"]["value"] == ex.stats.worker_failures
        assert metrics["executor.retries"]["value"] == ex.stats.retries
        assert metrics["executor.pool_rebuilds"]["value"] == ex.stats.pool_rebuilds

    def test_recorder_sees_failure_events(self, jobs, keys):
        plan = plan_with(keys, n_crashes=1)
        recorder = ListRecorder()
        ex = ExperimentExecutor(workers=2, faults=plan, recorder=recorder)
        ex.run(jobs)
        kinds = [e["ev"] for e in recorder]
        assert EventType.WORKER_FAILURE in kinds
        assert EventType.JOB_RETRY in kinds

    def test_stats_describe_mentions_survival(self, jobs, keys):
        plan = plan_with(keys, n_crashes=1)
        ex = ExperimentExecutor(workers=2, faults=plan)
        ex.run(jobs)
        assert "survived 1 worker failure(s)" in ex.stats.describe()


class TestHangTimeout:
    def test_hung_worker_is_killed_and_job_retried(self, jobs, keys, clean):
        plan = plan_with(keys, n_hangs=1, hang_seconds=60.0)
        ex = ExperimentExecutor(
            workers=2,
            faults=plan,
            retry=RetryPolicy(job_timeout=1.5, poll_interval=0.02),
        )
        started = time.monotonic()
        results = ex.run(jobs)
        wall = time.monotonic() - started
        assert [r.summary for r in results] == clean
        assert ex.stats.timeouts == 1
        # A timeout kill is not double-counted as a spontaneous failure.
        assert ex.stats.worker_failures == 0
        # The hung worker is killed at its deadline, not waited out
        # through the shutdown grace and reap (about 10 s more), and no
        # worker outlives the run.
        assert wall < 8.0
        assert multiprocessing.active_children() == []

    def test_no_timeout_without_policy(self, jobs, keys, clean):
        # hang shorter than the watchdog-free run just delays completion.
        plan = plan_with(keys, n_hangs=1, hang_seconds=0.3)
        ex = ExperimentExecutor(workers=2, faults=plan)
        results = ex.run(jobs)
        assert [r.summary for r in results] == clean
        assert ex.stats.timeouts == 0


class TestDegradation:
    def test_budget_exhaustion_falls_back_to_serial_rescue(self, jobs, keys, clean):
        # Crash the same job on every attempt; with retries exhausted the
        # executor must still finish via the in-process rescue path.
        plan = plan_with(keys, n_crashes=1, max_attempt=10**6)
        ex = ExperimentExecutor(
            workers=2,
            faults=plan,
            retry=RetryPolicy(max_retries=1),
        )
        results = ex.run(jobs)
        assert [r.summary for r in results] == clean
        assert ex.stats.serial_rescues >= 1

    def test_pool_collapse_falls_back_to_serial(self, jobs, clean):
        # Every attempt of every job crashes: no worker survives a job,
        # so after max_pool_rebuilds respawns the executor finishes the
        # whole queue serially (faults off in-process).
        plan = FaultPlan(seed=0, crash_prob=1.0, max_attempt=10**6)
        ex = ExperimentExecutor(
            workers=2,
            faults=plan,
            retry=RetryPolicy(max_retries=1, max_pool_rebuilds=1),
        )
        results = ex.run(jobs)
        assert [r.summary for r in results] == clean
        assert ex.stats.serial_fallbacks == 1 or ex.stats.serial_rescues >= 1

    def test_no_worker_is_forked_beside_a_rescue_thread(
        self, monkeypatch, jobs, clean
    ):
        # Every crash goes straight to a serial rescue (no retries) while
        # the dead worker is respawned: a fork must wait until the rescue
        # thread is joined, or the child could inherit a lock it held.
        # Slowed rescues make the overlap certain.
        from repro.sim.dist import coordinator
        from repro.sim.dist.coordinator import LeaseRun

        run_in_process = coordinator._run_in_process

        def slow_rescue(spec):
            time.sleep(0.2)
            return run_in_process(spec)

        monkeypatch.setattr(coordinator, "_run_in_process", slow_rescue)
        before = set(threading.enumerate())
        extra_threads = []
        spawn_one = LeaseRun._spawn_one

        def spying_spawn(run):
            extra_threads.append(
                [t.name for t in threading.enumerate() if t not in before]
            )
            spawn_one(run)

        monkeypatch.setattr(LeaseRun, "_spawn_one", spying_spawn)
        ex = ExperimentExecutor(
            workers=2,
            faults=FaultPlan(seed=0, crash_prob=1.0, max_attempt=10**6),
            retry=RetryPolicy(max_retries=0, max_pool_rebuilds=4),
        )
        results = ex.run(jobs)
        assert [r.summary for r in results] == clean
        assert ex.stats.pool_rebuilds >= 1 and ex.stats.serial_rescues >= 1
        assert len(extra_threads) == 2 + ex.stats.pool_rebuilds
        assert extra_threads == [[]] * len(extra_threads)

    def test_serial_mode_ignores_faults(self, jobs, clean):
        # workers=None never forks a worker; fault plans only apply to
        # lease workers, so the serial path must be unaffected.
        ex = ExperimentExecutor(faults=FaultPlan(seed=0, crash_prob=1.0))
        assert [r.summary for r in ex.run(jobs)] == clean


class TestResultHoles:
    def test_incomplete_results_raise_instead_of_misaligning(
        self, monkeypatch, jobs
    ):
        """Completeness is an invariant: a hole in the result list must
        fail loudly, never be silently filtered away."""
        ex = ExperimentExecutor()
        monkeypatch.setattr(ex, "_run_serial", lambda *a, **k: None)
        with pytest.raises(RuntimeError, match="lost"):
            ex.run(jobs)


class TestCallbackFailure:
    """An exception while a result is recorded ends the run promptly."""

    def _assert_propagates(self, ex, jobs, exc_type):
        def overdue(signum, frame):
            raise AssertionError("run() still blocked after 20 s")

        previous = signal.signal(signal.SIGALRM, overdue)
        signal.alarm(20)  # a regression fails here instead of hanging
        started = time.monotonic()
        try:
            with pytest.raises(exc_type, match="boom"):
                ex.run(jobs)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 10.0
        assert multiprocessing.active_children() == []

    def test_raising_progress_propagates(self, jobs):
        def progress(line):
            raise OSError("boom")

        ex = ExperimentExecutor(workers=2, progress=progress)
        self._assert_propagates(ex, jobs, OSError)

    def test_raising_cache_put_propagates(self, tmp_path, monkeypatch, jobs):
        def put(self, key, entry):
            raise RuntimeError("boom")

        monkeypatch.setattr(ResultCache, "put", put)
        ex = ExperimentExecutor(workers=2, cache_dir=tmp_path / "cache")
        self._assert_propagates(ex, jobs, RuntimeError)

    @pytest.mark.parametrize(
        "event, n_crashes, n_hangs",
        [
            (EventType.WORKER_FAILURE, 1, 0),  # a dropped connection's revoke
            (EventType.JOB_RETRY, 1, 0),  # granting the requeued lease
            (EventType.LEASE_EXPIRED, 0, 1),  # the watchdog's expiry
        ],
    )
    def test_raising_recorder_propagates(self, jobs, keys, event, n_crashes, n_hangs):
        class RaisingRecorder:
            def emit(self, ev):
                if ev["ev"] == event:
                    raise OSError("boom")

        ex = ExperimentExecutor(
            workers=2,
            faults=plan_with(
                keys, n_crashes=n_crashes, n_hangs=n_hangs, hang_seconds=60.0
            ),
            recorder=RaisingRecorder(),
            retry=RetryPolicy(job_timeout=1.5, poll_interval=0.02),
        )
        self._assert_propagates(ex, jobs, OSError)


class TestJournalIntegration:
    def test_journal_records_every_completed_job(self, tmp_path, jobs, keys):
        journal = RunJournal.attach(
            tmp_path / "j.jsonl", run_key_of(keys), len(jobs)
        )
        ex = ExperimentExecutor(workers=2, journal=journal)
        ex.run(jobs)
        journal.close()
        assert journal.completed == set(keys)

    def test_cache_hits_are_journalled_too(self, tmp_path, jobs, keys):
        cache_dir = tmp_path / "cache"
        ExperimentExecutor(cache_dir=cache_dir).run(jobs)  # warm the cache
        journal = RunJournal.attach(
            tmp_path / "j.jsonl", run_key_of(keys), len(jobs)
        )
        ex = ExperimentExecutor(cache_dir=cache_dir, journal=journal)
        ex.run(jobs)
        journal.close()
        assert ex.stats.cache_hits == len(jobs)
        assert journal.completed == set(keys)
