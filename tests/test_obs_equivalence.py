"""Observability is free: instrumentation must never change results.

The tracer derives the event stream from the finished
:class:`~repro.sim.results.SimulationResult` rather than hooking the
decision loop, so an instrumented run and an uninstrumented run of the
same scenario must be *bit-identical* — same summaries, same burst
records, same packet schedule.  These tests pin that for every
registered strategy, and pin the companion claim: replaying the trace
alone (:func:`repro.obs.replay.replay_events`) reproduces the run's
summary metrics exactly, including after a JSONL round-trip.

The strategy list and the run/fingerprint helpers come from the shared
conformance table (``tests/strategy_conformance.py``); this file keeps
the full-length (2h-horizon, default-parameter) sweep while the
conformance suite covers each row's declared parameter sets.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bandwidth.synth import wuhan_bandwidth_model
from repro.core.packet import Packet, reset_packet_ids
from repro.core.profiles import weibo_profile
from repro.obs import (
    JsonlRecorder,
    ListRecorder,
    metrics_scope,
    read_jsonl,
    replay_events,
    verify_trace,
)
from repro.obs.events import app_cost_table
from repro.obs.tracer import emit_simulation_trace
from repro.sim.engine import Simulation
from repro.sim.fleet.channel import ChannelTable
from repro.sim.fleet.engine import simulate_fleet_chunk
from repro.sim.fleet.workload import synthesize_fleet
from repro.sim.parallel.specs import StrategySpec
from repro.sim.runner import default_scenario

from tests.strategy_conformance import (
    ALL_STRATEGIES,
    record_fingerprint,
    run_scenario,
    schedule_fingerprint,
)

pytestmark = pytest.mark.obs

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestInstrumentedRunsAreBitIdentical:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_summary_records_and_schedule_match(self, name):
        plain, _ = run_scenario(name, instrument=False)
        traced, events = run_scenario(name, instrument=True)
        assert traced.summary() == plain.summary()
        assert record_fingerprint(traced) == record_fingerprint(plain)
        assert schedule_fingerprint(traced) == schedule_fingerprint(plain)
        assert events, "instrumented run must have produced a trace"

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_trace_replay_is_exact(self, name):
        _, events = run_scenario(name, instrument=True)
        ok, replayed, recorded, mismatches = verify_trace(events)
        assert ok, f"{name}: replay mismatches: {mismatches}"
        # Exact equality, not approx: same keys, same doubles.
        for key, value in replayed.items():
            assert recorded[key] == value


class TestJsonlRoundTrip:
    @pytest.mark.parametrize("name", ["etrain", "immediate"])
    def test_replay_exact_after_file_round_trip(self, name, tmp_path):
        _, events = run_scenario(name, instrument=True)
        path = tmp_path / "run.jsonl"
        with JsonlRecorder(path) as recorder:
            for event in events:
                recorder.emit(event)
        ok, _, _, mismatches = verify_trace(read_jsonl(path))
        assert ok, f"{name}: mismatches after JSONL round trip: {mismatches}"

    def test_identical_runs_write_identical_bytes(self, tmp_path):
        paths = []
        for i in range(2):
            _, events = run_scenario("etrain", instrument=True)
            path = tmp_path / f"run{i}.jsonl"
            with JsonlRecorder(path) as recorder:
                for event in events:
                    recorder.emit(event)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


workloads = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=600.0),  # arrival
        st.integers(min_value=100, max_value=50_000),  # size
    ),
    min_size=1,
    max_size=25,
)


def build_packets(spec):
    reset_packet_ids()
    return [
        Packet(app_id="weibo", arrival_time=a, size_bytes=s, deadline=30.0)
        for a, s in sorted(spec)
    ]


def small_sim(spec, instrument):
    from repro.baselines.etrain import ETrainStrategy
    from repro.core.scheduler import SchedulerConfig
    from repro.heartbeat.apps import make_generator

    recorder = ListRecorder() if instrument else None
    sim = Simulation(
        ETrainStrategy([weibo_profile()], SchedulerConfig(theta=0.5)),
        [make_generator("qq")],
        build_packets(spec),
        horizon=700.0,
        recorder=recorder,
        trace_app_costs=app_cost_table([weibo_profile()]) if instrument else None,
    )
    return sim.run(), recorder


class TestPropertyEquivalence:
    @SETTINGS
    @given(spec=workloads)
    def test_random_workloads_unchanged_and_replayable(self, spec):
        plain, _ = small_sim(spec, instrument=False)
        traced, recorder = small_sim(spec, instrument=True)
        assert traced.summary() == plain.summary()
        assert record_fingerprint(traced) == record_fingerprint(plain)
        ok, _, _, mismatches = verify_trace(recorder.events)
        assert ok, f"replay mismatches: {mismatches}"

    @SETTINGS
    @given(spec=workloads)
    def test_replay_summary_matches_result(self, spec):
        """Replay agrees with the result object itself, not just the
        run_end event the tracer wrote."""
        result, recorder = small_sim(spec, instrument=True)
        replayed = replay_events(recorder.events)
        summary = result.summary()
        for key in (
            "total_energy_j",
            "tail_energy_j",
            "transmission_energy_j",
            "normalized_delay_s",
            "deadline_violation_ratio",
            "piggyback_ratio",
            "bursts",
            "packets",
        ):
            assert replayed[key] == summary[key]


class TestTracerIsPostRun:
    def test_trace_emission_is_repeatable(self):
        """The tracer reads the result without consuming it: emitting
        twice yields the same events twice."""
        scenario = default_scenario(seed=0, horizon=3600.0)
        sim = Simulation(
            StrategySpec.make("etrain").build(scenario),
            scenario.train_generators,
            scenario.fresh_packets(),
            power_model=scenario.power_model,
            bandwidth=scenario.bandwidth,
            horizon=scenario.horizon,
            slot=scenario.slot,
        )
        result = sim.run()
        first, second = ListRecorder(), ListRecorder()
        costs = app_cost_table(scenario.profiles)
        for rec in (first, second):
            emit_simulation_trace(
                rec,
                result,
                power_model=scenario.power_model,
                slot=scenario.slot,
                app_costs=costs,
            )
        assert first.events == second.events


class TestFleetSubPhases:
    """The eTrain-family kernels time their sub-phases into the active
    registry, and the timing leaves the chunk's raw arrays untouched."""

    SUB_PHASES = ("setup", "queue_updates", "decision", "heartbeats", "finalize")

    @pytest.mark.parametrize("strategy", ["etrain", "adaptive", "channel_aware"])
    def test_sub_phases_recorded_and_raw_unchanged(self, strategy):
        table = ChannelTable.from_model(wuhan_bandwidth_model(), 1800.0)
        workload = synthesize_fleet(4, 1800.0, 7, phase_mode="random")
        plain = simulate_fleet_chunk(workload, table, strategy=strategy)
        with metrics_scope() as registry:
            timed = simulate_fleet_chunk(workload, table, strategy=strategy)
        metrics = registry.to_dict()
        for phase in self.SUB_PHASES:
            hist = metrics[f"fleet.phase.etrain.{phase}_s"]
            assert hist["count"] == 1
            assert hist["sum"] >= 0.0
        assert metrics["fleet.phase.etrain.rounds"]["value"] > 0
        for f in dataclasses.fields(plain):
            assert np.array_equal(getattr(timed, f.name), getattr(plain, f.name)), f.name

    def test_peres_rounds_counted_and_raw_unchanged(self):
        """The PerES kernel counts its rounds, one per device event of
        the busiest device: more than none, fewer than the 7 200 slots."""
        table = ChannelTable.from_model(wuhan_bandwidth_model(), 7200.0)
        workload = synthesize_fleet(4, 7200.0, 7, phase_mode="random")
        plain = simulate_fleet_chunk(workload, table, strategy="peres")
        with metrics_scope() as registry:
            counted = simulate_fleet_chunk(workload, table, strategy="peres")
        rounds = registry.to_dict()["fleet.phase.peres.rounds"]["value"]
        assert 0 < rounds < 7200
        for f in dataclasses.fields(plain):
            assert np.array_equal(getattr(counted, f.name), getattr(plain, f.name)), f.name
