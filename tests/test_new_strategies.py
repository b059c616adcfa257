"""Property suites for the literature-derived strategy families.

Each new baseline's *defining* invariant, checked over randomized
workloads (hypothesis) and both engine paths:

* ``harvest_lazy`` — the harvesting battery never goes negative: every
  standalone burst the engine emitted was affordable at its slot, the
  drained total reconciles exactly with the burst records, and energy
  is conserved (you cannot spend charge that was never harvested).
* ``common_deadline`` — no packet's burst starts after its assigned
  common deadline (round boundary), whenever that deadline falls inside
  the simulated horizon.
* ``aoi_download`` — delivering resets the age: ``last_generation``
  tracks the freshest released arrival, and the run's ``aoi`` column
  equals an independent recomputation of the sawtooth integral from the
  delivery schedule.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.aoi_download import AoiDownloadStrategy
from repro.baselines.common_deadline import CommonDeadlineStrategy
from repro.baselines.harvest_lazy import HarvestLazyStrategy
from repro.baselines.lazy_circuit import LazyCircuitStrategy
from repro.core.packet import Packet, reset_packet_ids
from repro.core.profiles import weibo_profile
from repro.heartbeat.apps import make_generator
from repro.sim.battery import HarvestingBattery
from repro.sim.engine import Simulation
from repro.sim.results import compute_aoi

pytestmark = pytest.mark.strategies

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

HORIZON = 700.0

workloads = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=600.0),  # arrival
        st.integers(min_value=100, max_value=50_000),  # size
        st.sampled_from([None, 10.0, 30.0, 120.0]),  # deadline
    ),
    min_size=1,
    max_size=25,
)


def build_packets(spec) -> List[Packet]:
    reset_packet_ids()
    return [
        Packet(app_id="weibo", arrival_time=a, size_bytes=s, deadline=d)
        for a, s, d in sorted(spec, key=lambda x: (x[0], x[1]))
    ]


def run_sim(strategy, spec, *, dense: bool = False, horizon: float = HORIZON):
    sim = Simulation(
        strategy,
        [make_generator("qq")],
        build_packets(spec),
        horizon=horizon,
        dense=dense,
    )
    return sim.run()


def unbounded_crossing(battery, target, t0):
    """The charge crossing by a plain window walk on a fresh battery of
    the same seed and state: the reference for the bounded search."""
    ref = HarvestingBattery(
        capacity_j=battery.capacity_j,
        initial_j=battery.stored_at(0.0),
        harvest_window_s=battery.harvest_window_s,
        harvest_rate_max=battery.harvest_rate_max,
        seed=battery.seed,
    )
    if target > ref.capacity_j:
        return None
    if ref.stored_at(t0) >= target:
        return t0
    w = ref.harvest_window_s
    need = target - ref.stored_at(0.0)
    for k in range(int(math.floor(t0 / w)), 2_000):
        ref.harvested((k + 1) * w)
        if ref._cum[k + 1] >= need and ref._rates[k] > 0.0:
            return max(t0, k * w + (need - ref._cum[k]) / ref._rates[k])
    return None


class TestHarvestingBatteryCrossingSearch:
    def test_zero_harvest_answers_without_walking_windows(self):
        battery = HarvestingBattery(initial_j=1.0, harvest_rate_max=0.0)
        assert battery.when_stored_at_least(5.0, 10.0, until=1e9) is None
        assert len(battery._rates) <= 1
        assert battery.when_stored_at_least(0.5, 10.0, until=1e9) == 10.0

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=999),
        rate=st.sampled_from([0.001, 0.01, 0.05]),
        target=st.floats(min_value=0.0, max_value=45.0),
        starts=st.lists(st.floats(min_value=0.0, max_value=3000.0), min_size=1, max_size=6),
        span=st.floats(min_value=0.0, max_value=3000.0),
    )
    def test_bounded_search_matches_an_unbounded_walk(
        self, seed, rate, target, starts, span
    ):
        """Repeated queries between drains (rising ``now``, as the event
        engine asks) find exactly the unbounded walk's crossing whenever
        it lies by ``until``, never build windows past ``until``'s, and
        the windows they rule out are remembered, not rescanned."""
        battery = HarvestingBattery(initial_j=0.0, harvest_rate_max=rate, seed=seed)
        w = battery.harvest_window_s
        for t0 in sorted(starts):
            until = t0 + span
            got = battery.when_stored_at_least(target, t0, until=until)
            want = unbounded_crossing(battery, target, t0)
            if want is not None and want <= until:
                assert got == want
            else:
                assert got is None or got == want
            assert len(battery._rates) <= max(t0, until) // w + 2
            if got is None and battery.stored_at(t0) < target <= battery.capacity_j:
                assert battery._ruled_out[2] == math.floor(until / w) + 1

class TestHarvestLazyBatteryInvariant:
    @SETTINGS
    @given(
        spec=workloads,
        seed=st.integers(min_value=0, max_value=999),
        initial=st.sampled_from([0.0, 1.0, 20.0]),
        rate=st.sampled_from([0.0, 0.01, 0.05, 0.5]),
    )
    def test_battery_never_negative_and_reconciles(
        self, spec, seed, initial, rate
    ):
        battery = HarvestingBattery(
            initial_j=initial, harvest_rate_max=rate, seed=seed
        )
        strategy = HarvestLazyStrategy(
            [weibo_profile()], watermark=0.85, battery=battery
        )
        result = run_sim(strategy, spec)
        # Never negative, at any probe time including the horizon.
        assert battery.stored_at(HORIZON) >= 0.0
        # Exactly the standalone data bursts drained the store, and the
        # drained total reconciles with the records (same fold order).
        data = [r for r in result.records if r.kind == "data"]
        assert battery.drains == len(data)
        assert battery.drained_j == sum(
            battery.tx_cost(r.size_bytes) for r in data
        )
        # Energy conservation: can't spend what was never available.
        assert (
            battery.drained_j
            <= battery.harvested(HORIZON) + initial + 1e-9
        )

    @SETTINGS
    @given(spec=workloads, seed=st.integers(min_value=0, max_value=99))
    def test_starved_battery_still_delivers_via_heartbeats(self, spec, seed):
        """With zero harvest and zero charge, standalone bursts are
        impossible — every delivery must ride a heartbeat or the flush,
        and the store stays at exactly zero."""
        battery = HarvestingBattery(
            initial_j=0.0, harvest_rate_max=0.0, seed=seed
        )
        strategy = HarvestLazyStrategy([weibo_profile()], battery=battery)
        result = run_sim(strategy, spec)
        assert battery.drains == 0
        assert battery.stored_at(HORIZON) == 0.0
        assert all(r.kind != "data" for r in result.records)

    @SETTINGS
    @given(spec=workloads, seed=st.integers(min_value=0, max_value=99))
    def test_dense_and_event_paths_agree(self, spec, seed):
        def make():
            return HarvestLazyStrategy(
                [weibo_profile()],
                battery=HarvestingBattery(harvest_rate_max=0.5, seed=seed),
            )

        dense = run_sim(make(), spec, dense=True)
        event = run_sim(make(), spec, dense=False)
        assert event.summary() == dense.summary()
        assert event.decisions == dense.decisions


class TestCommonDeadlineInvariant:
    @SETTINGS
    @given(spec=workloads, round_s=st.sampled_from([20.0, 60.0, 300.0]))
    def test_never_transmits_after_assigned_deadline(self, spec, round_s):
        strategy = CommonDeadlineStrategy(round_s=round_s)
        result = run_sim(strategy, spec)
        starts = {}
        for r in result.records:
            for pid in r.packet_ids:
                starts[pid] = r.start
        for p in result.packets:
            if not p.is_scheduled:
                continue
            due = strategy.assigned[p.packet_id]
            if due > HORIZON:
                # Round boundary past the horizon: the end-of-run flush
                # may legally release it early.
                continue
            assert starts[p.packet_id] <= due + 1e-9, (
                f"packet {p.packet_id} (arrived {p.arrival_time}) started "
                f"at {starts[p.packet_id]} after its common deadline {due}"
            )

    @SETTINGS
    @given(spec=workloads, round_s=st.sampled_from([20.0, 60.0, 300.0]))
    def test_deadlines_are_round_boundaries_with_lead(self, spec, round_s):
        strategy = CommonDeadlineStrategy(round_s=round_s)
        run_sim(strategy, spec)
        lead = CommonDeadlineStrategy.LEAD_SLOTS * strategy.slot
        packets = {p.packet_id: p for p in build_packets(spec)}
        assert set(strategy.assigned) == set(packets)
        for pid, due in strategy.assigned.items():
            k = due / round_s
            assert abs(k - round(k)) < 1e-9, f"{due} is not a round boundary"
            assert due >= packets[pid].arrival_time + lead - 1e-9


def naive_aoi(deliveries: List[Tuple[float, float]], horizon: float) -> float:
    """O(n) trapezoid recomputation of the AoI sawtooth average."""
    if horizon <= 0:
        return 0.0
    points = sorted((min(d, horizon), g) for d, g in deliveries)
    area = 0.0
    t, u = 0.0, 0.0
    for d, g in points:
        if d > t:
            area += (d - t) * ((t - u) + (d - u)) / 2.0
            t = d
        u = max(u, g)
    area += (horizon - t) * ((t - u) + (horizon - u)) / 2.0
    return area / horizon


class TestAoiDownloadInvariant:
    @SETTINGS
    @given(spec=workloads, threshold=st.sampled_from([5.0, 60.0, 200.0]))
    def test_age_resets_at_delivery(self, spec, threshold):
        strategy = AoiDownloadStrategy(threshold_s=threshold)
        result = run_sim(strategy, spec)
        # Every packet is delivered eventually (flush releases the rest),
        # and the tracked generation is the freshest delivered arrival.
        delivered = [p for p in result.packets if p.is_scheduled]
        assert len(delivered) == len(result.packets)
        assert strategy.last_generation == max(
            p.arrival_time for p in delivered
        )
        # The strategy's own queue is empty: the age clock has reset.
        assert strategy.waiting_count == 0

    @SETTINGS
    @given(spec=workloads, threshold=st.sampled_from([5.0, 60.0, 200.0]))
    def test_aoi_column_matches_independent_recompute(self, spec, threshold):
        result = run_sim(AoiDownloadStrategy(threshold_s=threshold), spec)
        deliveries = [
            (p.scheduled_time, p.arrival_time)
            for p in result.packets
            if p.is_scheduled
        ]
        expected = naive_aoi(deliveries, HORIZON)
        assert math.isclose(result.aoi, expected, rel_tol=1e-9, abs_tol=1e-9)
        assert result.summary()["aoi_s"] == result.aoi

    def test_compute_aoi_is_order_independent(self):
        pairs = [(30.0, 10.0), (12.0, 3.0), (50.0, 49.0), (75.0, 20.0)]
        forward = compute_aoi(pairs, 100.0)
        assert compute_aoi(list(reversed(pairs)), 100.0) == forward
        assert math.isclose(forward, naive_aoi(pairs, 100.0), rel_tol=1e-12)

    def test_no_deliveries_age_grows_linearly(self):
        # Age ramps 0 → horizon, averaging horizon/2.
        assert compute_aoi([], 200.0) == 100.0


class TestLazyCircuitTrigger:
    def test_byte_knee_releases_without_deadline_pressure(self):
        strategy = LazyCircuitStrategy(
            [weibo_profile()], target_batch_bytes=10_000, default_deadline=600.0
        )
        reset_packet_ids()
        strategy.on_arrival(
            Packet(app_id="weibo", arrival_time=0.0, size_bytes=6_000), 0.0
        )
        assert strategy.decide(1.0, False) == []
        assert strategy.decision_horizon(1.0) > 1.0
        strategy.on_arrival(
            Packet(app_id="weibo", arrival_time=2.0, size_bytes=6_000), 2.0
        )
        # Knee crossed: the horizon collapses and the next decide fires.
        assert strategy.decision_horizon(2.0) == 2.0
        released = strategy.decide(3.0, False)
        assert len(released) == 2
        assert strategy.waiting_count == 0
