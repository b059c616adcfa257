"""One set-up of a workload's program path, up to its first job, then exit.

Usage: ``python3 layerbench/setup_probe.py <workload> <seed> <work-dir>``.
Runs the workload's real entry point (``run_fleet`` for fleet_*, the
2-worker ``ExperimentExecutor.run`` on the grid for sweep_pool_2h) with
``executor.run_job`` wrapped, and prints ``ready`` when the first job
starts: in this process for the fleet (channel published, first chunk
dispatched), in a forked pool worker for the sweep (pool up).  The run
then stops at its next synchronous point (at once in the fleet, at the
first finished job's progress report in the sweep) and unwinds through
the program's own clean-up, and the process exits 0.
``run.py`` times the interval from spawning this process to that line
(interpreter start and every import included) and keeps the median of
several probes as ``setup_s``.  The serve daemon's set-up is timed by
``run.py`` directly (spawn until it answers ``hello``).
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


class Ready(BaseException):
    """Stops the probe's run after the first job started; not an
    ``Exception``, so no retry or rescue path of the program swallows it."""


def _stop(message: str) -> None:
    raise Ready


def install_ready_hook() -> None:
    import repro.sim.parallel.executor as executor_mod

    run_job = executor_mod.run_job
    probe_pid = os.getpid()
    started = []  # per process: a forked worker starts with its own copy

    @functools.wraps(run_job)
    def first_job(spec):
        if not started:
            started.append(spec)
            os.write(1, b"ready\n")  # one write: two workers' lines never interleave
            if os.getpid() == probe_pid:
                raise Ready
        return run_job(spec)

    executor_mod.run_job = first_job


def main(argv) -> int:
    workload, seed, work = argv[0], int(argv[1]), Path(argv[2])
    import cases

    size = cases.SIZES["full"][workload]
    install_ready_hook()
    try:
        if workload.startswith("fleet_"):
            from repro.sim.fleet import run_fleet

            run_fleet(cases._fleet_specs(workload, seed, size)[0])
        elif workload == "sweep_pool_2h":
            jobs = cases._sweep_jobs(seed, size)
            cases._sweep_pass(jobs, size["workers"], work, progress=_stop)
        else:
            raise SystemExit(f"no set-up probe for {workload!r}")
    except Ready:
        return 0
    raise SystemExit("set-up probe: the first job never started")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
