"""Failure-injection tests: the system degrades gracefully, not wrongly.

The first half exercises *simulation-level* adversity (missing trains,
channel outages, degenerate workloads).  The second half (``-m faults``)
exercises *execution-level* adversity through :mod:`repro.faults`:
kill -9 mid-sweep then ``--resume``, injected hangs hitting the timeout
path, injected crashes surfacing in the retry metrics, and shared-memory
leaks swept by ``etrain fleet --cleanup-shm``.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bandwidth.models import ConstantBandwidth, TraceBandwidth
from repro.baselines.etrain import ETrainStrategy
from repro.baselines.immediate import ImmediateStrategy
from repro.core.profiles import weibo_profile
from repro.core.scheduler import SchedulerConfig
from repro.heartbeat.apps import make_generator
from repro.heartbeat.generators import JitteredCycleGenerator
from repro.heartbeat.monitor import HeartbeatMonitor
from repro.sim.engine import Simulation

from tests.conftest import make_packet


def etrain(theta=0.5):
    return ETrainStrategy([weibo_profile()], SchedulerConfig(theta=theta))


class TestNoTrains:
    def test_etrain_without_heartbeats_still_delivers(self):
        """No trains: nothing to piggyback on, but the horizon flush and
        threshold dribble must still deliver every packet."""
        packets = [make_packet(arrival=float(i * 20)) for i in range(10)]
        sim = Simulation(etrain(), [], packets, horizon=400.0)
        result = sim.run()
        assert all(p.is_scheduled for p in packets)
        # Delivered-byte conservation: with no heartbeat trains, every
        # byte the radio moved is a cargo byte — no more, no less.
        delivered = sum(r.size_bytes for r in result.records)
        assert delivered == sum(p.size_bytes for p in packets)
        # And every packet id appears in exactly one burst.
        carried = [pid for r in result.records for pid in r.packet_ids]
        assert sorted(carried) == sorted(p.packet_id for p in packets)

    def test_fleet_engine_without_trains_conserves_bytes(self):
        """Fleet counterpart: ``trains=[]`` must still schedule every
        packet, and the burst rows' bytes must sum to the workload's."""
        import numpy as np

        from repro.bandwidth.synth import wuhan_bandwidth_model
        from repro.sim.fleet.channel import ChannelTable
        from repro.sim.fleet.engine import simulate_fleet_chunk
        from repro.sim.fleet.workload import synthesize_fleet

        horizon = 1800.0
        workload = synthesize_fleet(16, horizon, seed=7, trains=[])
        table = ChannelTable.from_model(wuhan_bandwidth_model(), horizon)
        raw = simulate_fleet_chunk(workload, table, strategy="etrain")

        # Every packet mapped to a valid burst row (the map is total).
        assert raw.pk_burst.shape[0] == workload.n_packets
        assert (raw.pk_burst >= 0).all()
        assert (raw.pk_burst < raw.burst_dev.shape[0]).all()
        # Byte conservation, chunk-wide and per device.
        workload_bytes = int(sum(int(s.sum()) for s in workload.sizes))
        assert int(raw.burst_size.sum()) == workload_bytes
        per_dev_burst = np.bincount(
            raw.burst_dev, weights=raw.burst_size, minlength=raw.n_devices
        )
        per_dev_pkt = np.bincount(
            raw.pk_dev, weights=raw.pk_size, minlength=raw.n_devices
        )
        assert np.array_equal(per_dev_burst, per_dev_pkt)

    def test_empty_workload_with_trains(self):
        sim = Simulation(etrain(), [make_generator("qq")], [], horizon=700.0)
        result = sim.run()
        assert result.burst_count == 3  # heartbeats only
        assert result.normalized_delay == 0.0


class TestJitteredHeartbeats:
    def test_jittered_trains_still_enable_savings(self):
        """Heartbeat jitter (alarm slack) must not break piggybacking."""
        packets = [make_packet(arrival=float(17 * i + 3)) for i in range(40)]
        jittered = [
            JitteredCycleGenerator(make_generator("qq"), max_jitter=10.0, seed=3)
        ]
        sim = Simulation(etrain(theta=1.0), jittered, list(packets), horizon=900.0)
        result = sim.run()

        baseline_packets = [
            make_packet(arrival=p.arrival_time, size=p.size_bytes) for p in packets
        ]
        base = Simulation(
            ImmediateStrategy(), jittered, baseline_packets, horizon=900.0
        ).run()
        assert result.total_energy < base.total_energy

    def test_monitor_tolerates_jitter(self):
        mon = HeartbeatMonitor()
        gen = JitteredCycleGenerator(make_generator("qq"), max_jitter=5.0, seed=1)
        for hb in gen.heartbeats_until(3000.0):
            mon.observe("qq", hb.time)
        cycle = mon.cycle_of("qq")
        assert cycle == pytest.approx(300.0, rel=0.05)


class TestChannelOutages:
    def test_zero_bandwidth_interval_delays_but_delivers(self):
        """A mid-run outage stretches transmissions across it."""
        samples = [100_000.0] * 100 + [0.0] * 50 + [100_000.0] * 400
        bw = TraceBandwidth(samples)
        p = make_packet(arrival=99.0, size=150_000)
        sim = Simulation(ImmediateStrategy(), [], [p], bandwidth=bw, horizon=500.0)
        result = sim.run()
        record = result.records[0]
        # 100 KB fits in the first second; the rest waits out the outage.
        assert record.end > 150.0
        assert p.is_scheduled

    def test_pathological_outage_raises_cleanly(self):
        bw = TraceBandwidth([0.0])
        p = make_packet(arrival=0.0, size=1_000)
        sim = Simulation(ImmediateStrategy(), [], [p], bandwidth=bw, horizon=10.0)
        with pytest.raises(RuntimeError):
            sim.run()


class TestDegenerateWorkloads:
    def test_burst_of_simultaneous_arrivals(self):
        packets = [make_packet(arrival=10.0) for _ in range(50)]
        sim = Simulation(
            etrain(theta=1e9),  # selection only at heartbeats (k = inf)
            [make_generator("qq")],
            packets,
            horizon=700.0,
        )
        result = sim.run()
        assert all(p.is_scheduled for p in packets)
        # All 50 ride the t=300 heartbeat: 3 bursts total.
        assert result.burst_count == 3
        assert result.piggyback_ratio == 1.0

    def test_packet_arriving_at_horizon_boundary(self):
        p = make_packet(arrival=99.999)
        sim = Simulation(ImmediateStrategy(), [], [p], horizon=100.0)
        result = sim.run()
        assert p.is_scheduled
        assert result.flushed_packets == 1

    def test_huge_packet_on_slow_channel(self):
        p = make_packet(arrival=0.0, size=1_000_000)
        sim = Simulation(
            ImmediateStrategy(),
            [],
            [p],
            bandwidth=ConstantBandwidth(10_000.0),
            horizon=300.0,
        )
        result = sim.run()
        assert result.records[0].duration == pytest.approx(100.0)


class TestMonitorRobustness:
    def test_missed_heartbeats_do_not_break_prediction(self):
        mon = HeartbeatMonitor()
        # Observe beats 0, 1, 3, 4 (beat 2 missed).
        for t in (0.0, 300.0, 900.0, 1200.0):
            mon.observe("qq", t)
        assert mon.predict_next("qq", 1250.0) == pytest.approx(1500.0)

    def test_irregular_app_gives_conservative_cycle(self):
        mon = HeartbeatMonitor()
        for t in (0.0, 100.0, 350.0, 380.0, 800.0):
            mon.observe("qq", t)
        # Whatever is learned must still produce a future prediction.
        predicted = mon.predict_next("qq", 900.0)
        assert predicted is None or predicted > 900.0


# ---------------------------------------------------------------------------
# Execution-layer fault injection (repro.faults): the scenarios below
# drive the real CLI, some in subprocesses that get SIGKILLed mid-run.
# ---------------------------------------------------------------------------

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _spawn_cli(args, cwd):
    """Start ``etrain <args>`` in its own session (so killpg is clean)."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=cwd,
        env=_cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=cwd,
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )


def _sweep_table(stdout: str):
    """The deterministic region of sweep output: title through data rows.

    The trailing stats/cache lines carry wall times and hit counts that
    legitimately differ between runs, so byte-identity is asserted on
    the result table only.
    """
    lines = stdout.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("Sweep:"))
    table = []
    for line in lines[start:]:
        if " wall," in line or line.startswith("cache:"):
            break
        table.append(line)
    assert len(table) >= 3, f"no table in output:\n{stdout}"
    return table


def _sweep_grid(horizon=1200.0):
    from repro.sim.parallel import ScenarioSpec, StrategySpec, seed_grid

    return seed_grid(
        [StrategySpec.make("immediate"), StrategySpec.make("etrain")],
        [0, 1, 2],
        ScenarioSpec(horizon=horizon),
    )


SWEEP_ARGS = [
    "sweep", "--strategies", "immediate,etrain", "--seeds", "3",
    "--horizon", "1200", "--workers", "2", "--quiet",
]


@pytest.mark.faults
class TestKillNineThenResume:
    def test_sigkill_mid_sweep_then_resume_is_bit_identical(self, tmp_path):
        """ISSUE acceptance: SIGKILL a sweep partway, ``--resume`` it, and
        the final table must be byte-identical to a never-killed run."""
        from repro.faults import FaultPlan
        from repro.sim.parallel import run_key_of

        jobs = _sweep_grid()
        keys = [j.content_hash() for j in jobs]
        # A plan that hangs about half the grid — but not the first two
        # jobs, so the two workers are guaranteed to complete (and
        # journal) some cells before both wedge on hung ones.
        for seed in range(2000):
            plan = FaultPlan(seed=seed, hang_prob=0.5, hang_seconds=300.0)
            hangs = set(plan.hangs_for(keys))
            if 2 <= len(hangs) <= 4 and keys[0] not in hangs and keys[1] not in hangs:
                break
        else:  # pragma: no cover - seed search failed
            pytest.fail("no suitable hang plan found")

        cache = tmp_path / "cache"
        journal = cache / "journal" / f"{run_key_of(keys)[:16]}.jsonl"
        victim = _spawn_cli(
            SWEEP_ARGS
            + ["--cache-dir", str(cache), "--faults",
               f"hang=0.5,seed={seed},hang_seconds=300"],
            tmp_path,
        )
        try:
            # Wait until some (but not all) cells are journalled, i.e.
            # the run is genuinely mid-flight, then kill -9 the session.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if journal.exists():
                    done = len(journal.read_text().splitlines()) - 1  # - header
                    if done >= 2:
                        break
                if victim.poll() is not None:  # pragma: no cover
                    pytest.fail(f"sweep exited early: {victim.communicate()}")
                time.sleep(0.05)
            else:  # pragma: no cover - machine pathologically slow
                pytest.fail("sweep never reached mid-run state")
            os.killpg(victim.pid, signal.SIGKILL)
        finally:
            victim.wait(timeout=60)
            victim.stdout.close()
            victim.stderr.close()
        assert victim.returncode == -signal.SIGKILL

        partial = len(journal.read_text().splitlines()) - 1
        assert 0 < partial < len(jobs)  # killed mid-run, not before/after

        resumed = _run_cli(
            SWEEP_ARGS + ["--cache-dir", str(cache), "--resume"], tmp_path
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming:" in resumed.stdout

        reference = _run_cli(
            SWEEP_ARGS + ["--cache-dir", str(tmp_path / "fresh-cache")], tmp_path
        )
        assert reference.returncode == 0, reference.stderr
        assert _sweep_table(resumed.stdout) == _sweep_table(reference.stdout)

    def test_resume_without_cache_dir_is_an_error(self, tmp_path):
        from repro.cli import main

        assert main(["sweep", "--seeds", "1", "--resume"]) == 2

    def test_resume_refuses_a_different_grid(self, tmp_path):
        from repro.cli import main
        from repro.sim.parallel import RunJournal, run_key_of

        # Plant a journal for some other grid under this run's key path.
        keys = [j.content_hash() for j in _sweep_grid(horizon=240.0)]
        path = (
            tmp_path / "cache" / "journal" / f"{run_key_of(keys)[:16]}.jsonl"
        )
        RunJournal.attach(path, "deadbeef" * 8, 1).close()
        code = main(
            ["sweep", "--strategies", "immediate,etrain", "--seeds", "3",
             "--horizon", "240", "--quiet",
             "--cache-dir", str(tmp_path / "cache"), "--resume"]
        )
        assert code == 2


@pytest.mark.faults
class TestInjectedHangHitsTimeout:
    def test_cli_timeout_path(self, tmp_path, capsys):
        """ISSUE acceptance: an injected hang trips --job-timeout, the
        worker is killed, and the retried run still exits 0."""
        from repro.cli import main

        code = main(
            ["sweep", "--strategies", "immediate", "--seeds", "2",
             "--horizon", "240", "--workers", "2", "--quiet",
             "--faults", "hang=1,seed=0,hang_seconds=60",
             "--job-timeout", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "timeout(s)" in out and "survived" in out


@pytest.mark.faults
class TestRetryMetricsMatchInjection:
    def test_crash_counts_surface_in_metrics_out(self, tmp_path):
        """ISSUE acceptance: seeded crashes complete the sweep, and the
        metrics JSON reports exactly the injected failure count."""
        from repro.cli import main
        from repro.faults import FaultPlan

        jobs = _sweep_grid(horizon=240.0)
        keys = [j.content_hash() for j in jobs]
        for seed in range(2000):
            plan = FaultPlan(seed=seed, crash_prob=0.2)
            if len(plan.crashes_for(keys)) == 1:
                break
        else:  # pragma: no cover
            pytest.fail("no single-crash plan found")
        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["sweep", "--strategies", "immediate,etrain", "--seeds", "3",
             "--horizon", "240", "--workers", "2", "--quiet",
             "--faults", f"crash=0.2,seed={seed}",
             "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        # One injected crash == one pool break == one worker failure.
        assert metrics["executor.worker_failures"]["value"] == 1
        assert metrics["executor.retries"]["value"] >= 1
        assert metrics["executor.jobs"]["value"] == len(jobs)


@pytest.mark.faults
@pytest.mark.skipif(
    not Path("/dev/shm").is_dir(), reason="no /dev/shm on this platform"
)
class TestShmLeakAndSweep:
    def test_killed_fleet_run_leaks_then_cleanup_shm_sweeps(self, tmp_path):
        """ISSUE acceptance: a SIGKILLed fleet run orphans its etrain-*
        segments; ``etrain fleet --cleanup-shm`` removes them all.  Only
        an in-process run publishes its channel table, so the victim is
        a serial run long enough (seconds) to be caught mid-simulation."""
        from repro.sim.fleet.channel import SHM_DIR, SHM_PREFIX

        victim = _spawn_cli(
            ["fleet", "--devices", "2048", "--chunk-size", "512", "--quiet"],
            tmp_path,
        )
        mine = f"{SHM_PREFIX}{victim.pid}-"
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                leaked = [p.name for p in SHM_DIR.glob(mine + "*")]
                if leaked:
                    break
                if victim.poll() is not None:  # pragma: no cover
                    pytest.fail(f"fleet exited early: {victim.communicate()}")
                time.sleep(0.05)
            else:  # pragma: no cover
                pytest.fail("fleet never published its channel table")
            os.killpg(victim.pid, signal.SIGKILL)
        finally:
            victim.wait(timeout=60)
            victim.stdout.close()
            victim.stderr.close()

        # The kill orphaned the segments (nothing unlinked them)...
        assert [p.name for p in SHM_DIR.glob(mine + "*")] == leaked
        # ...and the cleanup command sweeps every one of them.
        swept = _run_cli(["fleet", "--cleanup-shm"], tmp_path)
        assert swept.returncode == 0
        for name in leaked:
            assert f"removed stale shm segment {name}" in swept.stdout
        assert list(SHM_DIR.glob(mine + "*")) == []


@pytest.mark.faults
class TestTornFiles:
    def _record_trace(self, tmp_path):
        from repro.cli import main

        trace = tmp_path / "run.jsonl"
        assert main(
            ["record", "--strategy", "immediate", "--horizon", "120",
             "--trace-out", str(trace)]
        ) == 0
        return trace

    def test_torn_trace_raises_truncated_error(self, tmp_path, capsys):
        from repro.faults import truncate_tail
        from repro.obs import TruncatedTraceError, read_jsonl

        trace = self._record_trace(tmp_path)
        capsys.readouterr()
        intact = read_jsonl(trace)
        truncate_tail(trace, 5)
        with pytest.raises(TruncatedTraceError) as exc_info:
            read_jsonl(trace)
        # The intact prefix is everything but the torn final event.
        assert exc_info.value.events == intact[:-1]
        assert exc_info.value.valid_lines == len(intact) - 1

    def test_stripped_final_newline_is_not_truncation(self, tmp_path, capsys):
        """Only the newline is gone: every event is intact, so the trace
        must still load (editors and external tools strip final newlines)."""
        from repro.faults import truncate_tail
        from repro.obs import read_jsonl

        trace = self._record_trace(tmp_path)
        capsys.readouterr()
        intact = read_jsonl(trace)
        truncate_tail(trace, 1)  # exactly the trailing "\n"
        assert read_jsonl(trace) == intact

    def test_trace_replay_reports_truncation_with_exit_3(self, tmp_path, capsys):
        from repro.cli import main
        from repro.faults import truncate_tail

        trace = self._record_trace(tmp_path)
        truncate_tail(trace, 5)
        capsys.readouterr()
        assert main(["trace-replay", str(trace)]) == 3
        err = capsys.readouterr().err
        assert "truncated trace" in err and "torn tail" in err

    def test_intact_trace_still_replays_clean(self, tmp_path, capsys):
        from repro.cli import main

        trace = self._record_trace(tmp_path)
        assert main(["trace-replay", str(trace)]) == 0

    def test_truncated_cache_entry_is_a_miss(self, tmp_path):
        from repro.faults import truncate_tail
        from repro.sim.parallel import ResultCache

        cache = ResultCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        cache.put(key, {"summary": {"x": 1.0}})
        truncate_tail(cache._path(key), 8)
        assert cache.get(key) is None  # torn entry reads as a miss


# ---------------------------------------------------------------------------
# Host-level failures (repro.sim.dist): lease worker *processes* die
# mid-chunk and the coordinator itself is SIGKILLed mid-journal-append.
# Recovery contract: requeue, retry accounting, resume byte-identity.
# ---------------------------------------------------------------------------



@pytest.mark.faults
@pytest.mark.dist
class TestDistWorkerDeathMidChunk:
    def test_injected_crash_kills_worker_host_then_respawn_is_bit_identical(
        self, tmp_path
    ):
        """An injected crash takes a whole worker *process* (host-death
        analogue: the TCP connection drops mid-lease).  The coordinator
        must revoke, respawn, retry — and the table must match a serial
        run byte for byte."""
        from repro.faults import FaultPlan

        jobs = _sweep_grid(horizon=240.0)
        keys = [j.content_hash() for j in jobs]
        for seed in range(2000):
            plan = FaultPlan(seed=seed, crash_prob=0.2)
            if len(plan.crashes_for(keys)) == 1:
                break
        else:  # pragma: no cover
            pytest.fail("no single-crash plan found")

        args = ["sweep", "--strategies", "immediate,etrain", "--seeds", "3",
                "--horizon", "240", "--quiet"]
        metrics_path = tmp_path / "metrics.json"
        crashed = _run_cli(
            args + ["--workers", "2",
                    "--faults", f"crash=0.2,seed={seed}",
                    "--metrics-out", str(metrics_path)],
            tmp_path,
        )
        assert crashed.returncode == 0, crashed.stderr
        reference = _run_cli(args, tmp_path)
        assert reference.returncode == 0, reference.stderr
        assert _sweep_table(crashed.stdout) == _sweep_table(reference.stdout)

        metrics = json.loads(metrics_path.read_text())
        # One crashed worker == one lost connection == one host failure,
        # one respawn, and at least the crashed job retried.
        assert metrics["executor.worker_failures"]["value"] >= 1
        assert metrics["executor.pool_rebuilds"]["value"] >= 1
        assert metrics["executor.retries"]["value"] >= 1
        assert metrics["executor.jobs"]["value"] == len(jobs)


@pytest.mark.faults
@pytest.mark.dist
class TestDistCoordinatorKillThenResume:
    def test_sigkill_coordinator_mid_run_then_resume_is_bit_identical(
        self, tmp_path
    ):
        """Kill -9 the *coordinator* (journal owner) mid-run, tear the
        journal's tail mid-append, then ``--resume --workers 2``:
        the table must be byte-identical to a never-killed serial run."""
        from repro.faults import FaultPlan, truncate_tail
        from repro.sim.parallel import run_key_of

        jobs = _sweep_grid()
        keys = [j.content_hash() for j in jobs]
        # Hangs wedge remote workers (they heartbeat through the hang,
        # so nothing times out) while the non-hung jobs complete and
        # journal — the run is then genuinely mid-flight forever.
        for seed in range(2000):
            plan = FaultPlan(seed=seed, hang_prob=0.5, hang_seconds=300.0)
            hangs = set(plan.hangs_for(keys))
            if 2 <= len(hangs) <= 4 and keys[0] not in hangs and keys[1] not in hangs:
                break
        else:  # pragma: no cover - seed search failed
            pytest.fail("no suitable hang plan found")

        cache = tmp_path / "cache"
        journal = cache / "journal" / f"{run_key_of(keys)[:16]}.jsonl"
        victim = _spawn_cli(
            SWEEP_ARGS
            + ["--cache-dir", str(cache), "--faults",
               f"hang=0.5,seed={seed},hang_seconds=300"],
            tmp_path,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if journal.exists():
                    done = len(journal.read_text().splitlines()) - 1  # - header
                    if done >= 2:
                        break
                if victim.poll() is not None:  # pragma: no cover
                    pytest.fail(f"sweep exited early: {victim.communicate()}")
                time.sleep(0.05)
            else:  # pragma: no cover - machine pathologically slow
                pytest.fail("sweep never reached mid-run state")
            # The whole process group: coordinator AND its spawned
            # workers (they inherit the session), like a host reboot.
            os.killpg(victim.pid, signal.SIGKILL)
        finally:
            victim.wait(timeout=60)
            victim.stdout.close()
            victim.stderr.close()
        assert victim.returncode == -signal.SIGKILL

        partial = len(journal.read_text().splitlines()) - 1
        assert 0 < partial < len(jobs)
        # Tear the last journal append in half — the kill landing
        # mid-write.  attach() must truncate the torn tail and resume.
        truncate_tail(journal, 5)

        resumed = _run_cli(
            SWEEP_ARGS + ["--cache-dir", str(cache), "--resume"], tmp_path
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming:" in resumed.stdout

        reference = _run_cli(
            SWEEP_ARGS + ["--cache-dir", str(tmp_path / "fresh-cache")], tmp_path
        )
        assert reference.returncode == 0, reference.stderr
        assert _sweep_table(resumed.stdout) == _sweep_table(reference.stdout)


@pytest.mark.dist
class TestBindComposesWithWorkers:
    def test_local_and_external_workers_share_one_coordinator(self, tmp_path):
        """``--workers 1 --bind ... --min-workers 2``: one forked local
        worker and one external ``etrain worker --connect`` both attach
        before any lease is granted; the table matches a serial run."""
        args = ["sweep", "--strategies", "immediate,etrain", "--seeds", "2",
                "--horizon", "240", "--quiet"]
        coordinator = _spawn_cli(
            args + ["--workers", "1", "--bind", "127.0.0.1:0",
                    "--min-workers", "2"],
            tmp_path,
        )
        try:
            line = coordinator.stdout.readline()
            assert line.startswith("coordinator: listening on "), line
            address = line.split()[3]
            worker = _run_cli(["worker", "--connect", address], tmp_path)
            out, err = coordinator.communicate(timeout=120)
        finally:
            if coordinator.poll() is None:  # pragma: no cover - wedged
                os.killpg(coordinator.pid, signal.SIGKILL)
                coordinator.communicate()
        assert worker.returncode == 0, worker.stderr
        assert coordinator.returncode == 0, err
        reference = _run_cli(args, tmp_path)
        assert reference.returncode == 0, reference.stderr
        assert _sweep_table(line + out) == _sweep_table(reference.stdout)
