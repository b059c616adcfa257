"""The conformance harness: every registered strategy earns four stamps.

Driven entirely by the fixture table in ``tests/strategy_conformance.py``
— one row per ``STRATEGY_BUILDERS`` entry.  Registering a new baseline
without adding a row (or vice versa) fails ``test_fixture_table_complete``,
and a row automatically enrolls the strategy in:

1. **dense-vs-event bit-identity** — the event-horizon fast path must
   produce exactly the dense reference loop's outputs, for the primary
   parameter set and every edge-case variant the row declares;
2. **instrumentation is free** — an instrumented run equals an
   uninstrumented one, bit for bit;
3. **trace replay exactness** — the JSONL event stream alone reproduces
   the run's summary metrics (including ``aoi_s``);
4. **fleet-vs-scalar agreement** — the chunked fleet pipeline
   (vectorized kernel when registered, scalar fallback otherwise)
   matches unchunked per-device scalar simulation, for every variant.

Plus the production-path pin: with the dense loop made to raise, a
batch run, a serve session and the fleet scalar reference still
complete for every strategy, so certification 1 compares two loops.

Plus param validation: the scalar build, the fleet spec and serve
``batch`` accept every fixture variant and reject every row of
``INVALID_PARAMS`` alike.

Plus the last-slot regression class: a ``decision_horizon`` that stops
promising quiet (returns a time at or before ``now``, e.g. ``0.0``) at
the final decision slot must force the event loop dense — the last
slot's decision can never be skipped away.
"""

from __future__ import annotations

import math
from typing import List

import pytest

from repro.bandwidth.synth import wuhan_bandwidth_model
from repro.baselines.base import TransmissionStrategy
from repro.core.packet import Packet, reset_packet_ids
from repro.obs import verify_trace
from repro.serve.loadgen import device_frames
from repro.serve.server import ServeApp, ServeConfig
from repro.sim.engine import Simulation
from repro.sim.fleet.reference import simulate_reference_chunk
from repro.sim.fleet.spec import FleetSpec
from repro.sim.fleet.workload import synthesize_fleet
from repro.sim.parallel.specs import STRATEGY_BUILDERS, StrategySpec
from repro.sim.runner import default_scenario, run_strategy

from tests.strategy_conformance import (
    ALL_STRATEGIES,
    FIXTURE_BY_NAME,
    FIXTURES,
    INVALID_PARAMS,
    assert_bit_identical,
    assert_fleet_summaries_match,
    build_strategy,
    fleet_vs_scalar,
    record_fingerprint,
    run_both,
    run_scenario,
    schedule_fingerprint,
)

pytestmark = pytest.mark.strategies


def test_fixture_table_complete():
    """The table and the registry must mirror each other exactly."""
    table = sorted(f.name for f in FIXTURES)
    assert table == sorted(set(table)), "duplicate fixture rows"
    assert table == ALL_STRATEGIES, (
        "conformance table out of sync with STRATEGY_BUILDERS: "
        f"missing rows {sorted(set(ALL_STRATEGIES) - set(table))}, "
        f"stale rows {sorted(set(table) - set(ALL_STRATEGIES))}"
    )


def test_fixture_params_are_accepted():
    """Every declared parameter set must build against its strategy."""
    scenario = default_scenario(seed=0, horizon=60.0)
    for fixture in FIXTURES:
        for params in fixture.variant_dicts():
            strategy = build_strategy(fixture.name, scenario, params)
            assert isinstance(strategy, TransmissionStrategy)


class TestDenseVsEvent:
    """Certification 1: the fast path changes nothing, ever."""

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_golden_scenario_all_variants(self, name):
        fixture = FIXTURE_BY_NAME[name]
        for params in fixture.variant_dicts():
            scenario = default_scenario(seed=0)
            dense, event = run_both(name, scenario, params)
            try:
                assert_bit_identical(dense, event)
            except AssertionError:  # pragma: no cover - diagnostic context
                raise AssertionError(
                    f"{name} diverged with params {params}"
                ) from None

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_non_dyadic_slot_grid(self, name):
        """Inexact grids disable the engine's exact-arithmetic shortcuts."""
        fixture = FIXTURE_BY_NAME[name]
        scenario = default_scenario(seed=5, horizon=601.0, train_count=2)
        scenario.slot = 0.7
        dense, event = run_both(name, scenario, fixture.param_dict)
        assert_bit_identical(dense, event)


@pytest.mark.parametrize("name", sorted(STRATEGY_BUILDERS))
def test_no_production_path_reaches_the_dense_loop(name, monkeypatch):
    """The dense loop is only the oracle: a batch run, a serve session
    and the fleet scalar reference all run the event loop."""

    def dense_loop(self, stop):
        raise AssertionError(f"{name} reached the dense loop")

    monkeypatch.setattr(Simulation, "_advance_dense", dense_loop)
    scenario = default_scenario(seed=0, horizon=600.0)
    run_strategy(STRATEGY_BUILDERS[name](scenario), scenario)

    workload = synthesize_fleet(1, 450.0, seed=7)
    app = ServeApp(ServeConfig())
    for frame in device_frames(workload, 0, strategy=name):
        response = app.handle(frame)
        assert response["ok"], response
    simulate_reference_chunk(workload, wuhan_bandwidth_model(), strategy=name)


class TestObservabilityIsFree:
    """Certifications 2 and 3, with each row's primary parameters."""

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_instrumented_run_is_bit_identical(self, name):
        params = FIXTURE_BY_NAME[name].param_dict
        plain, _ = run_scenario(
            name, instrument=False, horizon=2400.0, params=params
        )
        traced, events = run_scenario(
            name, instrument=True, horizon=2400.0, params=params
        )
        assert traced.summary() == plain.summary()
        assert record_fingerprint(traced) == record_fingerprint(plain)
        assert schedule_fingerprint(traced) == schedule_fingerprint(plain)
        assert events, "instrumented run must have produced a trace"

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_trace_replay_is_exact(self, name):
        params = FIXTURE_BY_NAME[name].param_dict
        _, events = run_scenario(
            name, instrument=True, horizon=2400.0, params=params
        )
        ok, replayed, recorded, mismatches = verify_trace(events)
        assert ok, f"{name}: replay mismatches: {mismatches}"
        assert "aoi_s" in recorded, "run_end summary must carry freshness"
        for key, value in replayed.items():
            assert recorded[key] == value


class TestFleetMatchesScalar:
    """Certification 4: chunking/merging preserves scalar semantics."""

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_chunked_fleet_matches_per_device_scalar(self, name):
        for params in FIXTURE_BY_NAME[name].variant_dicts():
            fleet, scalar, vectorized = fleet_vs_scalar(name, params)
            # Scalar fallback chunks run the very engine the reference
            # does, so only merge-order float re-association may differ;
            # vectorized kernels get the fleet suite's standing tolerance.
            assert_fleet_summaries_match(
                fleet, scalar, rtol=1e-6 if vectorized else 1e-12
            )


def _rejections(name, params):
    """Whether the scalar build, the fleet spec and serve ``batch`` each
    reject ``params`` (``scalar_only`` is a refusal, not a rejection)."""
    try:
        StrategySpec.make(name, **params).build(default_scenario(horizon=60.0))
        scalar = False
    except ValueError:
        scalar = True
    try:
        FleetSpec.make(4, name, params=params)
        fleet = False
    except ValueError:
        fleet = True
    response = ServeApp(ServeConfig()).handle(
        {"op": "batch", "strategy": name, "params": params, "devices": 1,
         "horizon": 60.0}
    )
    serve = not response["ok"] and response["error"]["code"] != "scalar_only"
    return scalar, fleet, serve


_VALIDATION_CASES = [
    (name, dict(params), True)
    for name, rows in sorted(INVALID_PARAMS.items())
    for params in rows
] + [
    (fixture.name, params, False)
    for fixture in FIXTURES
    for params in fixture.variant_dicts()
]


class TestParamValidation:
    """One check of user params: every path accepts or rejects alike."""

    def test_table_covers_the_registry(self):
        assert sorted(INVALID_PARAMS) == ALL_STRATEGIES

    @pytest.mark.parametrize(
        "name,params,invalid",
        _VALIDATION_CASES,
        ids=[f"{n}-{p}" for n, p, _ in _VALIDATION_CASES],
    )
    def test_scalar_fleet_and_serve_agree(self, name, params, invalid):
        assert _rejections(name, params) == (invalid, invalid, invalid)


class LastSlotZeroHorizon(TransmissionStrategy):
    """Fires only at the last decision slot; ``decision_horizon`` is 0.

    ``decision_horizon() <= now`` promises nothing, so the event loop
    must behave densely — in particular it must still visit the final
    decision slot, where this strategy's only release happens.
    """

    def __init__(self, fire_at: float, granularity: float) -> None:
        self.slot = granularity
        self.name = "last-slot-zero-horizon"
        self.fire_at = fire_at
        self._queue: List[Packet] = []
        self.decide_times: List[float] = []

    def on_arrival(self, packet: Packet, now: float) -> None:
        self._queue.append(packet)

    @property
    def waiting_count(self) -> int:
        return len(self._queue)

    def decide(self, now: float, heartbeat_present: bool) -> List[Packet]:
        self.decide_times.append(now)
        if now >= self.fire_at and self._queue:
            released, self._queue = self._queue, []
            return released
        return []

    def flush(self, now: float) -> List[Packet]:
        released, self._queue = self._queue, []
        return released

    @property
    def is_idle(self) -> bool:
        return False

    def decision_horizon(self, now: float) -> float:
        return 0.0

    def on_decisions_skipped(self, window) -> None:  # pragma: no cover
        raise AssertionError(
            "no decisions may be skipped when decision_horizon promises "
            f"nothing (window of {window.count})"
        )


def _simulate(strategy, scenario, dense):
    sim = Simulation(
        strategy,
        scenario.train_generators,
        scenario.fresh_packets(),
        power_model=scenario.power_model,
        bandwidth=scenario.bandwidth,
        horizon=scenario.horizon,
        slot=scenario.slot,
        dense=dense,
    )
    return sim, sim.run()


class TestLastSlotNeverSkipped:
    """Regression: a 0-returning decision_horizon at the final slot."""

    @pytest.mark.parametrize(
        "horizon,slot,granularity",
        [
            (100.0, 1.0, 1.0),
            (100.0, 1.0, 7.0),  # final granule not slot-aligned
            (100.0, 0.7, 2.1),  # inexact grid
            (99.4, 0.7, 0.7),
            (101.0, 1.0, 10.0),
        ],
    )
    def test_zero_horizon_strategy_fires_at_last_decision_slot(
        self, horizon, slot, granularity
    ):
        n_slots = int(math.ceil(horizon / slot))
        last_t = (n_slots - 1) * slot
        for fire_at in (last_t, last_t - slot):
            scenario = default_scenario(seed=5, horizon=horizon, train_count=1)
            scenario.slot = slot
            dense_strat = LastSlotZeroHorizon(fire_at, granularity)
            event_strat = LastSlotZeroHorizon(fire_at, granularity)
            _, dense = _simulate(dense_strat, scenario, dense=True)
            sim, event = _simulate(event_strat, scenario, dense=False)
            assert_bit_identical(dense, event)
            # The strategy-visible decision clock must be identical and
            # must include the final decision slot.
            assert event_strat.decide_times == dense_strat.decide_times
            assert event_strat.decide_times, "no decisions were offered"
            last_decision = event_strat.decide_times[-1]
            assert last_decision + granularity > last_t, (
                f"final decision slot skipped: last decide at "
                f"{last_decision}, last engine slot at {last_t}"
            )
            # A release armed only at the very end must still happen
            # inside the run, not be deferred to flush.
            assert event.flushed_packets == dense.flushed_packets

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_horizon_edge_arrivals_are_decided(self, name):
        """Arrivals landing in the final slots get the same treatment
        under both loops — no registered strategy may lose its last
        decision window to slot-skipping."""
        params = FIXTURE_BY_NAME[name].param_dict
        horizon, slot = 120.0, 1.0
        scenario = default_scenario(seed=9, horizon=horizon, train_count=1)
        scenario.slot = slot
        reset_packet_ids()
        late = [
            Packet(app_id="weibo", arrival_time=a, size_bytes=4000, deadline=5.0)
            for a in (horizon - 6.0, horizon - 2.5, horizon - 1.2)
        ]
        results = []
        for dense in (True, False):
            reset_packet_ids()
            packets = [
                Packet(
                    app_id=p.app_id,
                    arrival_time=p.arrival_time,
                    size_bytes=p.size_bytes,
                    deadline=p.deadline,
                )
                for p in late
            ]
            strategy = build_strategy(name, scenario, params)
            sim = Simulation(
                strategy,
                scenario.train_generators,
                packets,
                power_model=scenario.power_model,
                bandwidth=scenario.bandwidth,
                horizon=horizon,
                slot=slot,
                dense=dense,
            )
            results.append(sim.run())
        dense_res, event_res = results
        assert_bit_identical(dense_res, event_res)
        assert all(p.is_scheduled for p in event_res.packets), (
            f"{name}: a horizon-edge arrival was never transmitted"
        )
