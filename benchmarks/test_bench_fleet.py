"""Fleet engine floors — batched NumPy chunks vs the per-device loop.

Each case simulates ``devices`` devices through
:func:`~repro.sim.fleet.engine.simulate_fleet_chunk` (plus aggregation)
and a small population through the per-device scalar loop
(:func:`~repro.sim.fleet.reference.simulate_reference_chunk`), and
asserts the *throughput ratio*

    speedup = (devices / fleet_s) / (scalar_devices / scalar_s)

against a fixed floor.  Both sides run the same Python/NumPy stack on
the same machine, so the ratio is machine-independent to first order.
Workload synthesis and the channel table are built outside the timed
region: the comparison is engine against engine.

The floors are the larger of the acceptance bar (20x for eTrain, 10x
for the baseline kernels) and 0.75x the full-mode ratio recorded when
each kernel landed (63.5x for peres, 23.6x for etime).  Absolute
throughput and memory are measured by ``layerbench/``.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import bench_horizon, run_once
from repro.bandwidth.synth import wuhan_bandwidth_model
from repro.radio.power_model import GALAXY_S4_3G
from repro.sim.fleet.accounting import summarize_chunk
from repro.sim.fleet.channel import ChannelTable
from repro.sim.fleet.engine import simulate_fleet_chunk
from repro.sim.fleet.reference import simulate_reference_chunk
from repro.sim.fleet.workload import synthesize_fleet


def _fleet_vs_scalar(strategy, devices, scalar_devices, horizon, repeats=1):
    """Best-of-``repeats`` devices/s on both sides; returns a row dict."""
    bw = wuhan_bandwidth_model()
    table = ChannelTable.from_model(bw, horizon)
    fleet_w = synthesize_fleet(devices, horizon, 0)
    scalar_w = synthesize_fleet(scalar_devices, horizon, 0)

    fleet_s = scalar_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        summary = summarize_chunk(
            simulate_fleet_chunk(fleet_w, table, strategy=strategy), GALAXY_S4_3G
        )
        fleet_s = min(fleet_s, time.perf_counter() - t0)
    for _ in range(repeats):
        t0 = time.perf_counter()
        simulate_reference_chunk(scalar_w, bw, strategy=strategy)
        scalar_s = min(scalar_s, time.perf_counter() - t0)
    fleet_rate = devices / fleet_s
    scalar_rate = scalar_devices / scalar_s
    return {
        "fleet_rate": fleet_rate,
        "scalar_rate": scalar_rate,
        "speedup": fleet_rate / scalar_rate,
        "energy_per_device_j": summary.energy_total_j / summary.devices,
    }


def _check(
    benchmark, report, strategy, devices, scalar_devices, floor,
    horizon=7200.0, repeats=1,
):
    row = run_once(
        benchmark, _fleet_vs_scalar, strategy, devices, scalar_devices, horizon,
        repeats,
    )
    report(
        f"Fleet engine [{strategy}, {devices} devices x {horizon:g} s]\n"
        f"  fleet  {row['fleet_rate']:8.0f} dev/s\n"
        f"  scalar {row['scalar_rate']:8.1f} dev/s ({scalar_devices} devices)\n"
        f"  speedup {row['speedup']:.1f}x (floor {floor:g}x)"
    )
    assert row["energy_per_device_j"] > 0
    assert row["speedup"] >= floor


@pytest.mark.smoke
@pytest.mark.parametrize(
    "strategy, scalar_devices, floor",
    [("etrain", 4, 20.0), ("peres", 2, 47.6), ("etime", 2, 17.7)],
    ids=["etrain", "peres", "etime"],
)
def test_fleet_kernel_beats_scalar_loop(
    benchmark, report, strategy, scalar_devices, floor
):
    _check(benchmark, report, strategy, 4096, scalar_devices, floor)


def test_channel_aware_fleet_beats_scalar_loop(benchmark, report):
    _check(benchmark, report, "channel_aware", 2048, 2, 10.0, repeats=2)


@pytest.mark.smoke
def test_immediate_fleet_beats_scalar(benchmark, report):
    # No 20x floor here: the scalar immediate path is itself fast.  The
    # vectorized path must simply win clearly.
    _check(benchmark, report, "immediate", 8192, 4, 2.0, horizon=bench_horizon())
