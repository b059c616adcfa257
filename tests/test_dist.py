"""Distributed executor tests: wire fidelity and placement invariance.

The wire-protocol tests pin the job/result encoding (a spec must survive
a JSON round trip with its content hash intact — that hash is the cache
key, the journal key and the lease key, so any drift silently corrupts
all three).  The end-to-end tests boot a real coordinator with real
forked and external worker processes over localhost TCP and assert the
property the whole subsystem exists to preserve: results are
byte-identical to a serial in-process run, whatever the placement.

Host-failure scenarios (kill -9 of workers and of the coordinator) live
in ``tests/test_failure_injection.py`` with the other ``-m faults``
scenarios.
"""

import json

import pytest

from repro.sim.dist import (
    DIST_PROTOCOL_VERSION,
    DistConfig,
    DistExecutor,
    job_from_wire,
    job_to_wire,
    result_hash,
)
from repro.sim.parallel import ScenarioSpec, StrategySpec, seed_grid
from repro.sim.parallel.executor import ExperimentExecutor

pytestmark = pytest.mark.dist


def _wire_round_trip(spec):
    """Encode, push through real JSON bytes, rebuild."""
    wire = json.loads(json.dumps(job_to_wire(spec)))
    return job_from_wire(wire)


def _grid(horizon=240.0, seeds=(1, 2)):
    return seed_grid(
        [StrategySpec.make("immediate"), StrategySpec.make("etrain")],
        list(seeds),
        ScenarioSpec(horizon=horizon),
    )


class TestWireProtocol:
    def test_job_spec_survives_the_wire_hash_intact(self):
        for spec in _grid():
            rebuilt = _wire_round_trip(spec)
            assert rebuilt.content_hash() == spec.content_hash()
            assert rebuilt.to_dict() == spec.to_dict()

    def test_fleet_chunk_survives_the_wire_hash_intact(self):
        from repro.sim.fleet.spec import FleetSpec

        spec = FleetSpec.make(64, "etrain", chunk_size=16, horizon=600.0)
        for chunk in spec.chunk_specs(channel=object()):
            rebuilt = _wire_round_trip(chunk)
            assert rebuilt.content_hash() == chunk.content_hash()
            # Runtime plumbing never crosses the wire: the worker
            # rebuilds the channel table locally (placement invariance).
            assert rebuilt.channel is None
            assert rebuilt.tag == ""

    def test_version_skew_fails_loudly(self):
        job = job_to_wire(_grid()[0])
        job["version"] = -1
        with pytest.raises(ValueError, match="version skew"):
            job_from_wire(job)

        from repro.sim.fleet.spec import FleetSpec

        chunk = job_to_wire(FleetSpec.make(16).chunk_specs()[0])
        chunk["version"] = -1
        with pytest.raises(ValueError, match="version skew"):
            job_from_wire(chunk)

    def test_non_dict_wire_rejected(self):
        with pytest.raises(ValueError, match="must be a dict"):
            job_from_wire("not a job")

    def test_result_hash_covers_content_not_timing(self):
        summary = {"energy": 1.25, "delay": 3.0}
        metrics = {"executor.jobs": {"kind": "counter", "value": 1.0}}
        h = result_hash("k" * 64, summary, metrics)
        assert h == result_hash("k" * 64, dict(summary), dict(metrics))
        assert h != result_hash("j" * 64, summary, metrics)
        assert h != result_hash("k" * 64, {**summary, "energy": 1.26}, metrics)

    def test_protocol_version_is_pinned(self):
        # Bumping the version is a compatibility event: the worker hello
        # handshake rejects mismatches, so this must be deliberate.
        assert DIST_PROTOCOL_VERSION == 1


class TestPlacementInvariance:
    """Serial, single-worker and two-worker runs are interchangeable."""

    def test_sweep_matches_serial_bit_for_bit(self, tmp_path):
        jobs = _grid()
        serial = ExperimentExecutor(
            workers=None, cache_dir=tmp_path / "serial"
        ).run(jobs)
        executor = DistExecutor(
            spawn_workers=2,
            config=DistConfig(min_workers=2),
            cache_dir=tmp_path / "dist",
        )
        dist = executor.run(jobs)
        assert [r.summary for r in dist] == [r.summary for r in serial]
        assert executor.stats.jobs_total == len(jobs)
        assert executor.stats.worker_failures == 0
        assert executor.dispatch_wall > 0.0

    def test_fleet_merge_matches_serial_bit_for_bit(self, tmp_path):
        from repro.sim.fleet.runner import run_fleet
        from repro.sim.fleet.spec import FleetSpec

        spec = FleetSpec.make(64, "etrain", chunk_size=16, horizon=600.0)
        serial = run_fleet(spec, cache_dir=tmp_path / "serial")

        def make_executor(**common):
            return DistExecutor(
                spawn_workers=2, config=DistConfig(min_workers=2), **common
            )

        dist = run_fleet(
            spec, cache_dir=tmp_path / "dist", make_executor=make_executor
        )
        assert dist.summary.to_dict() == serial.summary.to_dict()
        assert dist.chunks == serial.chunks

    def test_external_worker_matches_serial(self):
        """One external worker process (a fresh interpreter, ``python -m
        repro.sim.dist.worker``) returns the serial summaries exactly."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        jobs = _grid()
        serial = [r.summary for r in ExperimentExecutor().run(jobs)]

        workers = []

        def attach(line):
            address = line.split()[3]
            workers.append(subprocess.Popen(
                [sys.executable, "-m", "repro.sim.dist.worker",
                 "--connect", address],
                env=env,
            ))

        external = DistExecutor(
            config=DistConfig(min_workers=1), announce=attach
        ).run(jobs)
        assert workers[0].wait(timeout=60) == 0
        assert [r.summary for r in external] == serial

    def test_second_run_is_all_cache_hits_no_workers(self, tmp_path):
        """A fully warmed cache resolves without opening a single port:
        the parent executor skips dispatch entirely on zero misses."""
        jobs = _grid(seeds=(1,))
        cache = tmp_path / "cache"
        first = DistExecutor(
            spawn_workers=1, config=DistConfig(min_workers=1), cache_dir=cache
        ).run(jobs)
        warm = DistExecutor(
            spawn_workers=1, config=DistConfig(min_workers=1), cache_dir=cache
        )
        second = warm.run(jobs)
        assert [r.summary for r in second] == [r.summary for r in first]
        assert all(r.cached for r in second)
        assert warm.stats.cache_hits == len(jobs)
        assert warm.dispatch_wall == 0.0
