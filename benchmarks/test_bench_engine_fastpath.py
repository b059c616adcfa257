"""Engine fast-path floors — the event-horizon loop vs the dense reference.

Both loops must produce bit-identical summaries, with the event loop
skipping the empty slots.  Only ``Simulation.run()`` is timed: dense and
event runs are interleaved with the collector held off (a mid-run GC
pass over the packet graph dwarfs a millisecond-scale signal), and each
side keeps its best of :data:`REPEATS` runs.  The dense/event ratio is
machine-independent to first order, so it is asserted against a fixed
floor: 0.75x the full-mode ratio recorded when the event engine landed
(1.91x, 5.53x and 12.84x).

All tests are ``smoke``-marked: they are part of the seconds-long CI
subset (``-m smoke`` / ``ETRAIN_BENCH_SMOKE=1``).
"""

from __future__ import annotations

import gc
import time
from functools import partial

import pytest

from benchmarks.conftest import run_once
from repro.baselines.fixed_batch import PeriodicBatchStrategy
from repro.baselines.immediate import ImmediateStrategy
from repro.sim.engine import Simulation
from repro.sim.runner import default_scenario

#: Best-of count per side; event runs take a few milliseconds, so the
#: minimum needs this many to shake off scheduler noise.
REPEATS = 10

#: name -> (seed, horizon, trains, strategy factory, speedup floor, the
#: event loop's iterations as a fraction of the dense slots, exclusive).
CASES = {
    "immediate_2h": (0, 7200.0, 3, ImmediateStrategy, 1.43, 1.0),
    "periodic300_2h": (
        0, 7200.0, 3, partial(PeriodicBatchStrategy, period=300.0), 4.15, 0.1
    ),
    "periodic600_day": (
        0, 86400.0, 1, partial(PeriodicBatchStrategy, period=600.0), 9.63, 0.01
    ),
}


def _timed_run(scenario, make_strategy, dense: bool):
    sim = Simulation(
        make_strategy(),
        scenario.train_generators,
        scenario.fresh_packets(),
        power_model=scenario.power_model,
        bandwidth=scenario.bandwidth,
        horizon=scenario.horizon,
        slot=scenario.slot,
        dense=dense,
    )
    gc.collect()
    t0 = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - t0, sim.loop_iterations, result.summary()


def _dense_vs_event(scenario, make_strategy):
    """{dense: (best seconds, iterations, summary)} over interleaved runs."""
    best = {True: (float("inf"), 0, {}), False: (float("inf"), 0, {})}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            for dense in (True, False):
                run = _timed_run(scenario, make_strategy, dense)
                if run[0] < best[dense][0]:
                    best[dense] = run
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


@pytest.mark.smoke
@pytest.mark.parametrize("name", list(CASES))
def test_event_engine_beats_dense(benchmark, report, name):
    seed, horizon, trains, make_strategy, floor, max_share = CASES[name]
    scenario = default_scenario(seed=seed, horizon=horizon, train_count=trains)
    best = run_once(benchmark, _dense_vs_event, scenario, make_strategy)
    (dense_s, dense_iters, dense_summary) = best[True]
    (event_s, event_iters, event_summary) = best[False]
    speedup = dense_s / event_s
    report(
        f"Engine fast path [{name}]\n"
        f"  dense {dense_s * 1e3:7.2f} ms over {dense_iters} slots\n"
        f"  event {event_s * 1e3:7.2f} ms over {event_iters} slots\n"
        f"  speedup {speedup:.2f}x (floor {floor:.2f}x)"
    )
    assert event_summary == dense_summary
    assert event_iters < dense_iters * max_share
    assert speedup >= floor
