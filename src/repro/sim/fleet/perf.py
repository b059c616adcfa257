"""Fleet-engine benchmarks: devices/second, vectorized vs scalar loop.

Mirrors :mod:`repro.sim.perf` (the dense-vs-event engine suite) for the
fleet path: each case simulates ``devices`` devices through
:func:`~repro.sim.fleet.engine.simulate_fleet_chunk` and a small
reference population through the per-device scalar loop
(:func:`~repro.sim.fleet.reference.simulate_reference_chunk`), and
records the *throughput ratio*

    speedup = (devices / fleet_s) / (scalar_devices / scalar_s)

which is machine-independent to first order — both paths run the same
Python/NumPy stack on the same machine.  ``BENCH_fleet.json`` commits the
ratios; CI re-runs the smoke subset and fails on >25% regression, plus a
hard floor of 20x for the eTrain case (the paper-default strategy the
``etrain fleet`` CLI runs).

Workload synthesis and channel-table construction happen outside the
timed region on both sides: the comparison is engine against engine.
Peak RSS is recorded per case for the memory-bound documentation in
``docs/performance.md``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.perf import BENCH_VERSION, check_results, load_baseline, write_results

__all__ = [
    "FLEET_SPEEDUP_FLOOR",
    "BASELINE_SPEEDUP_FLOOR",
    "FleetBenchCase",
    "FLEET_BENCH_CASES",
    "run_fleet_case",
    "run_fleet_benchmarks",
    "check_results",
    "load_baseline",
    "write_results",
]

#: Hard acceptance floor for the eTrain fleet case (ISSUE acceptance
#: criterion; the CI smoke test asserts it independently of baselines).
FLEET_SPEEDUP_FLOOR = 20.0

#: Floor for the newly vectorized baseline kernels (peres/etime): the
#: acceptance bar is >=10x over their scalar strategies.
BASELINE_SPEEDUP_FLOOR = 10.0


@dataclass(frozen=True)
class FleetBenchCase:
    """One fleet-vs-scalar throughput cell."""

    name: str
    strategy: str
    devices: int  # fleet population for the vectorized side
    scalar_devices: int  # reference population for the scalar side
    horizon: float = 7200.0
    seed: int = 0
    params: tuple = ()
    smoke: bool = False
    #: Assert speedup >= floor for this case.
    gate: bool = False
    #: Per-case absolute speedup floor (only checked when ``gate``).
    floor: float = FLEET_SPEEDUP_FLOOR


#: eTrain runs one loop round per device event (~1300 in 2 h), so its
#: vectorized side amortizes a fixed per-round cost — benchmark it at a
#: population large enough (4096) that the per-device signal dominates.  The loop-free strategies
#: scale near-linearly and run at larger populations.
FLEET_BENCH_CASES: List[FleetBenchCase] = [
    FleetBenchCase(
        "etrain_fleet_2h", "etrain", 4096, 4, smoke=True, gate=True
    ),
    # Full-mode only: the loop-free strategies' scalar sides are quick
    # but noisy at CI-sized populations, so a 25% gate on them would
    # flake; the gated etrain case alone rides the smoke subset.
    FleetBenchCase("immediate_fleet_2h", "immediate", 8192, 4),
    FleetBenchCase("periodic60_fleet_2h", "periodic", 8192, 4),
    FleetBenchCase("tailender_fleet_2h", "tailender", 4096, 4),
    # Newly vectorized baseline kernels (this is the registry payoff):
    # gated at the >=10x acceptance floor; their scalar sides are slow
    # (tens of devices/s), so two reference devices keep CI snappy.
    FleetBenchCase(
        "peres_fleet_2h",
        "peres",
        4096,
        2,
        smoke=True,
        gate=True,
        floor=BASELINE_SPEEDUP_FLOOR,
    ),
    FleetBenchCase(
        "etime_fleet_2h",
        "etime",
        4096,
        2,
        smoke=True,
        gate=True,
        floor=BASELINE_SPEEDUP_FLOOR,
    ),
    FleetBenchCase(
        "adaptive_fleet_2h",
        "adaptive",
        2048,
        2,
        params=(("target_delay", 30.0),),
    ),
    FleetBenchCase("fixed_batch_fleet_2h", "fixed_batch", 8192, 4),
    # channel_aware (ISSUE 8): the last strategy off the scalar fallback.
    # Same slot-loop engine as etrain plus the deferral buffers; gated
    # at the baseline-kernel floor (its scalar side is estimator-heavy).
    FleetBenchCase(
        "channel_aware_fleet_2h",
        "channel_aware",
        2048,
        2,
        gate=True,
        floor=BASELINE_SPEEDUP_FLOOR,
    ),
]


def run_fleet_case(case: FleetBenchCase, repeats: int = 2) -> Dict[str, object]:
    """Benchmark one case; simulation only is timed (best of ``repeats``).

    The row's ``"phases"`` table breaks the pipeline into workload
    synthesis, channel-table construction, fleet simulation, aggregation
    and the scalar reference run (wall/CPU, accumulated over repeats);
    the baseline comparator ignores it, so the field is additive.
    """
    from repro.bandwidth.synth import wuhan_bandwidth_model
    from repro.obs.profiling import PhaseProfiler
    from repro.radio.power_model import GALAXY_S4_3G
    from repro.sim.fleet.accounting import summarize_chunk
    from repro.sim.fleet.channel import ChannelTable
    from repro.sim.fleet.engine import simulate_fleet_chunk
    from repro.sim.fleet.reference import simulate_reference_chunk
    from repro.sim.fleet.runner import peak_rss_bytes
    from repro.sim.fleet.workload import synthesize_fleet

    profiler = PhaseProfiler()
    bw = wuhan_bandwidth_model()
    rss_before = peak_rss_bytes(include_children=False)
    with profiler.phase("channel_table"):
        table = ChannelTable.from_model(bw, case.horizon)
    with profiler.phase("workload_synthesis"):
        fleet_w = synthesize_fleet(case.devices, case.horizon, case.seed)
        scalar_w = synthesize_fleet(case.scalar_devices, case.horizon, case.seed)
    params = dict(case.params)

    fleet_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        with profiler.phase("fleet_sim"):
            raw = simulate_fleet_chunk(
                fleet_w, table, strategy=case.strategy, params=dict(params)
            )
        with profiler.phase("aggregation"):
            summary = summarize_chunk(raw, GALAXY_S4_3G)
        fleet_s = min(fleet_s, time.perf_counter() - t0)

    scalar_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        with profiler.phase("scalar_sim"):
            simulate_reference_chunk(
                scalar_w, bw, strategy=case.strategy, params=dict(params)
            )
        scalar_s = min(scalar_s, time.perf_counter() - t0)

    fleet_rate = case.devices / fleet_s
    scalar_rate = case.scalar_devices / scalar_s
    return {
        "name": case.name,
        "strategy": case.strategy,
        "devices": case.devices,
        "scalar_devices": case.scalar_devices,
        "horizon": case.horizon,
        "seed": case.seed,
        "smoke": case.smoke,
        "gate": case.gate,
        "floor": case.floor,
        "fleet_s": fleet_s,
        "scalar_s": scalar_s,
        "fleet_devices_per_s": fleet_rate,
        "scalar_devices_per_s": scalar_rate,
        "speedup": fleet_rate / scalar_rate if scalar_rate > 0 else float("inf"),
        "energy_per_device_j": summary.energy_total_j / max(summary.devices, 1),
        "peak_rss_bytes": peak_rss_bytes(include_children=False),
        # How much this case *grew* the process peak (ru_maxrss is
        # monotone, so per-case absolutes mostly echo the biggest
        # earlier case; the delta is what this case itself added).
        "peak_rss_delta_bytes": max(
            0, peak_rss_bytes(include_children=False) - rss_before
        ),
        "phases": profiler.as_dict(),
    }


def run_fleet_benchmarks(
    mode: str = "full",
    repeats: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run the fleet suite and return the benchmark document."""
    if mode not in ("full", "smoke"):
        raise ValueError(f"mode must be 'full' or 'smoke', got {mode!r}")
    if repeats is None:
        # Fleet runs are seconds each; a couple of repeats suffices.
        repeats = 2 if mode == "full" else 1
    cases = [c for c in FLEET_BENCH_CASES if mode == "full" or c.smoke]
    rows: List[Dict[str, object]] = []
    for case in cases:
        row = run_fleet_case(case, repeats=repeats)
        rows.append(row)
        if progress is not None:
            progress(
                f"{row['name']:20s} fleet {row['fleet_devices_per_s']:8.0f} dev/s  "
                f"scalar {row['scalar_devices_per_s']:6.1f} dev/s  "
                f"speedup {row['speedup']:7.1f}x  "
                f"(rss {row['peak_rss_bytes'] / 2**20:.0f} MiB)"
            )
    return {
        "version": BENCH_VERSION,
        "suite": "fleet",
        "mode": mode,
        "repeats": repeats,
        "python": sys.version.split()[0],
        "cases": rows,
    }


def check_floor(results: Dict[str, object]) -> List[str]:
    """Gated cases must clear their absolute speedup floor."""
    failures = []
    for row in results["cases"]:
        floor = float(row.get("floor", FLEET_SPEEDUP_FLOOR))
        if row.get("gate") and row["speedup"] < floor:
            failures.append(
                f"{row['name']}: speedup {row['speedup']:.1f}x below the "
                f"{floor:.0f}x acceptance floor"
            )
    return failures


if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(["bench", "--suite", "fleet"] + sys.argv[1:]))
