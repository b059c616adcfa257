"""Distributed-executor floors — chunk scaling across worker hosts.

Each case fans one eTrain fleet's chunks through a
:class:`~repro.sim.dist.DistExecutor` with one spawned localhost worker
and with two, and asserts the *dispatch speedup*

    speedup = 1-worker dispatch_wall / 2-worker dispatch_wall

``dispatch_wall`` runs from the first lease grant to the last accepted
result, so each worker process's start-up (a fixed cost a real
deployment pays once per host) stays outside the timed region.  Every
run's merged fleet summary must be identical, whatever the worker count:
a scaling number from diverging results would mean nothing.

The 1.7x floor needs two usable CPUs; on one, two CPU-bound workers
timeshare and read ~1.0x by physics, so the floor there is 0.75x the
0.95x recorded on a 1-CPU host.  Runs are uncached, so both arms
recompute every chunk.  Eight equal chunks divide evenly across one and
two workers, so the scaled arm never idles on a ragged tail.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import run_once
from repro.sim.dist.coordinator import DistConfig, DistExecutor
from repro.sim.fleet.aggregate import FleetChunkSummary
from repro.sim.fleet.spec import FleetSpec


def _dispatch(workers: int, devices: int, chunk_size: int):
    """(dispatch wall, merged summary) of one uncached 1800 s fleet run."""
    spec = FleetSpec.make(
        devices, "etrain", chunk_size=chunk_size, horizon=1800.0, seed=0
    )
    executor = DistExecutor(
        spawn_workers=workers, config=DistConfig(min_workers=workers)
    )
    results = executor.run(spec.chunk_specs())
    merged = FleetChunkSummary.merge_all(
        [FleetChunkSummary.from_dict(r.summary) for r in results]
    )
    return executor.dispatch_wall, merged.to_dict()


def _scaling(devices: int, chunk_size: int, repeats: int):
    """{workers: [(dispatch wall, summary), ...]} for one and two workers."""
    return {
        workers: [_dispatch(workers, devices, chunk_size) for _ in range(repeats)]
        for workers in (1, 2)
    }


@pytest.mark.parametrize(
    "devices, chunk_size, repeats, one_cpu_floor",
    [
        pytest.param(2048, 256, 2, 0.71, marks=[pytest.mark.smoke, pytest.mark.dist]),
        pytest.param(4096, 512, 3, 0.0),
    ],
    ids=["etrain_dist_2x256x8", "etrain_dist_2x512x8"],
)
def test_two_workers_scale_and_agree(
    benchmark, report, devices, chunk_size, repeats, one_cpu_floor
):
    runs = run_once(benchmark, _scaling, devices, chunk_size, repeats)
    base = min(wall for wall, _ in runs[1])
    scaled = min(wall for wall, _ in runs[2])
    cpus = len(os.sched_getaffinity(0))
    floor = 1.7 if cpus >= 2 else one_cpu_floor
    report(
        f"Dist scaling [etrain, {devices} devices / {chunk_size}-device chunks]\n"
        f"  1 worker  {base:6.2f} s\n"
        f"  2 workers {scaled:6.2f} s\n"
        f"  speedup {base / scaled:.2f}x (floor {floor}x on {cpus} CPUs)"
    )
    summaries = [summary for arm in runs.values() for _, summary in arm]
    assert all(s == summaries[0] for s in summaries)
    assert base / scaled >= floor
