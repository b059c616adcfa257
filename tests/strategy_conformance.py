"""Shared conformance fixtures: one table, every registered strategy.

Historically each equivalence suite kept its own copy of the strategy
list and its own run helpers; adding a baseline meant touching three
test files and hoping none was forgotten.  This module centralizes the
machinery:

* :data:`FIXTURES` — one :class:`StrategyFixture` row per
  ``STRATEGY_BUILDERS`` entry, carrying the parameter sets each
  certification exercises.  ``tests/test_strategy_conformance.py``
  asserts the table covers the registry exactly, so a new baseline that
  forgets to add a row fails loudly.
* run helpers (:func:`run_both`, :func:`assert_bit_identical`,
  :func:`run_scenario`, fingerprints, :func:`conformance_scenarios`)
  imported by ``test_strategy_conformance.py``, ``test_engine_fastpath.py``
  and ``test_obs_equivalence.py`` instead of per-file copies.

The four certifications a strategy earns by having a row (all run by
``tests/test_strategy_conformance.py``):

1. dense-vs-event bit-identity (the event-horizon fast path skips
   slots, never changes results);
2. instrumented == uninstrumented (observability is free);
3. trace replay exactness (the JSONL trace alone reproduces the run's
   summary, including ``aoi_s``);
4. fleet-vs-scalar agreement (the chunked fleet pipeline — vectorized
   kernel or scalar fallback — matches per-device scalar simulation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import ListRecorder, metrics_scope
from repro.obs.events import app_cost_table
from repro.radio.power_model import GALAXY_S4_3G
from repro.sim.engine import Simulation
from repro.sim.fleet.aggregate import FleetChunkSummary
from repro.sim.fleet.reference import simulate_reference_chunk
from repro.sim.fleet.spec import FleetSpec
from repro.sim.parallel.specs import STRATEGY_BUILDERS
from repro.sim.runner import Scenario, default_scenario, run_strategy

__all__ = [
    "ALL_STRATEGIES",
    "FIXTURES",
    "FIXTURE_BY_NAME",
    "INVALID_PARAMS",
    "StrategyFixture",
    "assert_bit_identical",
    "assert_fleet_summaries_match",
    "build_strategy",
    "conformance_scenarios",
    "fleet_vs_scalar",
    "record_fingerprint",
    "run_both",
    "run_scenario",
    "schedule_fingerprint",
]

#: Every registered baseline, in registry-sorted order.  The conformance
#: suite (and the engine/observability suites that import this) sweep
#: this list, so registering a strategy automatically enrolls it.
ALL_STRATEGIES = sorted(STRATEGY_BUILDERS)


@dataclass(frozen=True)
class StrategyFixture:
    """One strategy's row in the conformance table.

    ``params`` is the primary (non-default where interesting) parameter
    set every certification runs; ``variants`` are extra parameter sets
    the dense-vs-event certification additionally sweeps — edge-case
    knobs (tiny rounds, zero-harvest batteries) that have historically
    been where fast-path bugs hide.
    """

    name: str
    params: Tuple[Tuple[str, object], ...] = ()
    variants: Tuple[Tuple[Tuple[str, object], ...], ...] = ()

    @property
    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def variant_dicts(self) -> List[Dict[str, object]]:
        """Primary params first, then each extra variant."""
        return [dict(self.params)] + [dict(v) for v in self.variants]


def _p(**kw) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(kw.items()))


FIXTURES: Tuple[StrategyFixture, ...] = (
    StrategyFixture("adaptive", _p(target_delay=30.0)),
    StrategyFixture(
        "aoi_download",
        _p(threshold_s=120.0),
        variants=(_p(threshold_s=1.0), _p(threshold_s=600.0)),
    ),
    StrategyFixture("channel_aware", _p(theta=0.2)),
    StrategyFixture(
        "common_deadline",
        _p(round_s=300.0),
        variants=(_p(round_s=7.0), _p(round_s=900.0)),
    ),
    StrategyFixture("etime", _p(v=200_000.0)),
    StrategyFixture("etrain", _p(theta=0.2), variants=(_p(theta=0.0),)),
    StrategyFixture("fixed_batch", _p(period=60.0)),
    StrategyFixture(
        "harvest_lazy",
        _p(watermark=0.85),
        variants=(
            # Starved store, nothing ever harvested: every standalone
            # burst is held until flush — the battery-gating edge case.
            _p(initial_j=0.0, harvest_rate_max=0.0),
            # Overflowing store with a low watermark: fires constantly.
            _p(watermark=0.2, harvest_rate_max=0.5, battery_seed=3),
        ),
    ),
    StrategyFixture("immediate"),
    StrategyFixture(
        "lazy_circuit",
        _p(target_batch_bytes=60_000),
        variants=(_p(target_batch_bytes=500), _p(default_deadline=5.0)),
    ),
    StrategyFixture("periodic", _p(period=300.0)),
    StrategyFixture("peres", _p(omega=0.5)),
    # The tailender kernel does not take ``default_deadline`` (it reads
    # deadlines from the profile table), so this variant runs the scalar
    # engine at fleet scale.
    StrategyFixture("tailender", variants=(_p(default_deadline=30.0),)),
)

FIXTURE_BY_NAME: Dict[str, StrategyFixture] = {f.name: f for f in FIXTURES}

#: Params every path must reject, per strategy: the scalar build, the
#: fleet spec and serve ``batch`` alike.  Out-of-range values come from
#: the strategy constructors' own checks.
INVALID_PARAMS: Dict[str, Tuple[Tuple[Tuple[str, object], ...], ...]] = {
    "adaptive": (_p(target_delay=0.0), _p(window=0), _p(theta_init=-1.0)),
    "aoi_download": (_p(threshold_s=0.0),),
    "channel_aware": (_p(quality_threshold=0.0), _p(max_defer=-1.0)),
    "common_deadline": (_p(round_s=0.0),),
    "etime": (_p(v=-1.0), _p(lag=-1.0)),
    "etrain": (_p(theta=-1.0), _p(k=0), _p(slot=0.0), _p(bogus=1)),
    "fixed_batch": (_p(period=0),),
    "harvest_lazy": (_p(watermark=0.0), _p(capacity_j=0.0)),
    "immediate": (_p(bogus=1),),
    "lazy_circuit": (_p(target_batch_bytes=0), _p(default_deadline=0.0)),
    "periodic": (_p(period=0), _p(period=-5.0)),
    "peres": (_p(omega=-1.0), _p(v_init=0.0), _p(noise=-1.0)),
    "tailender": (_p(slack=-1.0), _p(default_deadline=0.0)),
}


def build_strategy(
    name: str, scenario: Scenario, params: Optional[Dict] = None
):
    return STRATEGY_BUILDERS[name](scenario, **(params or {}))


def run_both(name: str, scenario: Scenario, params: Optional[Dict] = None):
    """Same scenario through the dense reference loop and the fast path."""
    dense = run_strategy(
        build_strategy(name, scenario, params), scenario, dense=True
    )
    event = run_strategy(
        build_strategy(name, scenario, params), scenario, dense=False
    )
    return dense, event


def assert_bit_identical(dense, event) -> None:
    """Every observable output must match exactly — no tolerances."""
    assert event.summary() == dense.summary()
    assert event.decisions == dense.decisions
    assert event.flushed_packets == dense.flushed_packets
    assert event.energy == dense.energy
    assert len(event.records) == len(dense.records)
    for rd, re_ in zip(dense.records, event.records):
        assert re_ == rd
    assert len(event.packets) == len(dense.packets)
    for pd, pe in zip(dense.packets, event.packets):
        assert pe.packet_id == pd.packet_id
        assert pe.scheduled_time == pd.scheduled_time
        assert pe.completion_time == pd.completion_time


def conformance_scenarios(count: int) -> List[Scenario]:
    """Deterministic battery of varied scenarios (incl. odd slot grids)."""
    rng = random.Random(20150629)
    scenarios = []
    for i in range(count):
        scenario = default_scenario(
            seed=rng.randrange(10_000),
            horizon=float(rng.randrange(400, 2400)),
            train_count=rng.choice([1, 2, 3]),
        )
        if i % 5 == 4:
            # Non-dyadic slots: ceil-division grids and inexact float
            # multiples, forcing the non-exact-grid engine paths.
            scenario.slot = rng.choice([0.3, 0.7, 2.5])
        elif i % 5 == 2:
            scenario.slot = 0.5
        scenarios.append(scenario)
    return scenarios


def run_scenario(
    name: str,
    *,
    instrument: bool,
    horizon: float = 7200.0,
    seed: int = 0,
    params: Optional[Dict] = None,
):
    """One full default-scenario run; returns (result, events or None)."""
    scenario = default_scenario(seed=seed, horizon=horizon)
    strategy = build_strategy(name, scenario, params)
    recorder = ListRecorder() if instrument else None
    sim = Simulation(
        strategy,
        scenario.train_generators,
        scenario.fresh_packets(),
        power_model=scenario.power_model,
        bandwidth=scenario.bandwidth,
        horizon=scenario.horizon,
        slot=scenario.slot,
        recorder=recorder,
        trace_app_costs=app_cost_table(scenario.profiles) if instrument else None,
    )
    if instrument:
        with metrics_scope() as registry:
            result = sim.run()
        assert registry.counter("engine.runs").value == 1
        return result, list(recorder.events)
    return sim.run(), None


def record_fingerprint(result):
    """Everything a burst record carries, as comparable plain data."""
    return [
        (r.start, r.duration, r.size_bytes, r.kind, tuple(r.packet_ids))
        for r in result.records
    ]


def schedule_fingerprint(result):
    return sorted(
        (p.packet_id, p.arrival_time, p.size_bytes, p.scheduled_time)
        for p in result.packets
    )


def fleet_vs_scalar(
    name: str,
    params: Optional[Dict] = None,
    *,
    devices: int = 6,
    chunk_size: int = 3,
    horizon: float = 450.0,
    seed: int = 11,
):
    """Run one small fleet through the chunked pipeline and per-device.

    Returns ``(fleet_summary, scalar_summary, vectorized)``: the merged
    chunk summaries from :meth:`FleetChunkSpec.run_in_worker` (the exact
    code the executor pool runs — vectorized kernel when registered,
    scalar fallback otherwise) and the unchunked per-device scalar
    reference over the same synthesized workload.
    """
    from repro.sim.fleet.workload import synthesize_fleet

    spec = FleetSpec.make(
        devices,
        name,
        params=dict(params or {}),
        horizon=horizon,
        seed=seed,
        chunk_size=chunk_size,
    )
    chunked = FleetChunkSummary.merge_all(
        [
            FleetChunkSummary.from_dict(c.run_in_worker())
            for c in spec.chunk_specs()
        ]
    )
    workload = synthesize_fleet(
        devices, horizon, seed, profiles=spec.profiles()
    )
    scalar = simulate_reference_chunk(
        workload,
        spec.bandwidth_model(),
        strategy=name,
        params=dict(params or {}),
        power_model=GALAXY_S4_3G,
        profiles=spec.profiles(),
    )
    return chunked, scalar, spec.vectorized


def assert_fleet_summaries_match(fleet, scalar, rtol: float = 1e-6) -> None:
    """Chunked-vs-reference comparison at the fleet suite's tolerance.

    Counts must match exactly; energy/delay sums may differ by float
    re-association (chunk merge adds partial sums in a different order
    than the sequential per-device fold).
    """
    assert fleet.devices == scalar.devices
    assert fleet.packets == scalar.packets
    assert fleet.bursts == scalar.bursts
    assert fleet.heartbeats == scalar.heartbeats
    assert fleet.piggyback_hits == scalar.piggyback_hits
    assert fleet.violations == scalar.violations
    for attr in (
        "delay_sum",
        "delay_cost_sum",
        "energy_total_j",
        "energy_tail_j",
        "energy_tx_j",
    ):
        a, b = getattr(fleet, attr), getattr(scalar, attr)
        assert abs(a - b) <= rtol * max(abs(a), abs(b), 1.0), (
            f"{attr}: fleet {a!r} vs scalar {b!r}"
        )
    assert list(fleet.energy_hist) == list(scalar.energy_hist)
    assert list(fleet.delay_hist) == list(scalar.delay_hist)
