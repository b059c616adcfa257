"""Unit tests for every comparator strategy."""

import random
import struct
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.bandwidth.models import ConstantBandwidth, TraceBandwidth
from repro.baselines import base
from repro.baselines.base import BandwidthEstimator
from repro.baselines.etime import ETimeStrategy
from repro.baselines.fixed_batch import PeriodicBatchStrategy
from repro.baselines.immediate import ImmediateStrategy
from repro.baselines.peres import PerESStrategy
from repro.baselines.tailender import TailEnderStrategy
from repro.core.profiles import mail_profile, weibo_profile
from repro.sim.engine import DecisionWindow

from tests.conftest import make_packet


def estimator(rate=100_000.0, noise=0.0, lag=0.0):
    return BandwidthEstimator(ConstantBandwidth(rate), noise=noise, lag=lag)


class TestBandwidthEstimator:
    def test_perfect_estimate(self):
        est = estimator(rate=5_000.0)
        assert est.estimate(10.0) == 5_000.0

    def test_lag_reads_past_rate(self):
        bw = TraceBandwidth([100.0, 200.0, 300.0])
        est = BandwidthEstimator(bw, lag=1.0, noise=0.0)
        assert est.estimate(2.5) == 200.0

    def test_noise_bounded_and_deterministic(self):
        est1 = BandwidthEstimator(ConstantBandwidth(1_000.0), noise=0.3, seed=1)
        est2 = BandwidthEstimator(ConstantBandwidth(1_000.0), noise=0.3, seed=1)
        for t in range(20):
            e = est1.estimate(float(t))
            assert 700.0 - 1e-6 <= e <= 1300.0 + 1e-6
            assert e == est2.estimate(float(t))

    @given(
        seed=st.integers(min_value=0, max_value=40),
        noise=st.sampled_from([0.05, 0.3, 0.5, 1.0]),
        lag=st.sampled_from([0.0, 1.0, 2.0, 2.5]),
        times=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                st.floats(min_value=0.0, max_value=2500.0),
                st.integers(min_value=0, max_value=2500).map(float),
                st.sampled_from([-1.5, float(base._NOISE_SECONDS_MAX) + 3.25]),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimate_matches_direct_draw_bitwise(self, seed, noise, lag, times):
        """The shared per-second factor table reproduces the direct
        ``random.Random(hash((seed, second)))`` draw bit for bit, over
        sub-second, fractional, past-the-first-block, negative and
        beyond-the-table times, in any query order."""
        bw = TraceBandwidth([float(1_000 + 37 * i) for i in range(64)], wrap=True)
        est = BandwidthEstimator(bw, lag=lag, noise=noise, seed=seed)
        for now in times + [-1.5, 1500.25]:
            true = bw.rate_at(max(0.0, now - lag))
            rng = random.Random((seed, int(now)).__hash__())
            expected = max(0.0, true * (1.0 + rng.uniform(-noise, noise)))
            got = est.estimate(now)
            assert struct.pack("<d", got) == struct.pack("<d", expected), now

    def test_shared_table_grown_from_threads(self, monkeypatch):
        """Estimators on several threads growing one fresh shared table
        all still read the direct draw of every second."""
        monkeypatch.setattr(base, "_NOISE_TABLES", {})
        errors = []

        def worker(first):
            est = BandwidthEstimator(ConstantBandwidth(1_000.0), noise=0.3, seed=99)
            for sec in range(first, 3 * base._NOISE_BLOCK, 5):
                expected = max(0.0, 1_000.0 * base._noise_factor(99, 0.3, sec))
                if est.estimate(float(sec)) != expected:
                    errors.append(sec)

        before = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(before)
        assert errors == []

    def test_noise_tables_stay_bounded(self, monkeypatch):
        """The shared tables hold at most ``_NOISE_KEYS_MAX`` keys, grow in
        whole blocks up to ``_NOISE_SECONDS_MAX`` seconds, and seconds past
        that cap are drawn directly without growing any table."""
        monkeypatch.setattr(base, "_NOISE_TABLES", {})
        bw = ConstantBandwidth(1_000.0)
        for seed in range(base._NOISE_KEYS_MAX + 3):
            BandwidthEstimator(bw, noise=0.2, seed=seed).estimate(5.0)
            assert 1 <= len(base._NOISE_TABLES) <= base._NOISE_KEYS_MAX
        assert all(len(t) == base._NOISE_BLOCK for t in base._NOISE_TABLES.values())

        est = BandwidthEstimator(bw, noise=0.2, seed="far")
        far = float(base._NOISE_SECONDS_MAX + 10)
        assert est.estimate(far) == 1_000.0 * base._noise_factor("far", 0.2, int(far))
        assert ("far", 0.2) not in base._NOISE_TABLES
        last = float(base._NOISE_SECONDS_MAX - 1)
        assert est.estimate(last) == 1_000.0 * base._noise_factor("far", 0.2, int(last))
        assert len(base._NOISE_TABLES[("far", 0.2)]) == base._NOISE_SECONDS_MAX

    def test_history_stays_bounded_over_a_2h_peres_run(self):
        """A 2 h PerES run keeps only the estimates the running average
        can read, and every average equals the mean over an unbounded
        log of the same estimates, bit for bit."""
        from repro.bandwidth.synth import wuhan_bandwidth_model

        est = BandwidthEstimator(wuhan_bandwidth_model(), noise=0.3, seed=5)
        s = PerESStrategy([weibo_profile(), mail_profile()], est)
        log = []
        for i in range(7200):
            now = float(i)
            if i % 9 == 0:
                s.on_arrival(make_packet(app_id="weibo", arrival=now), now)
            s.decide(now, False)
            log.append(est.estimate(now))
            tail = log[-BandwidthEstimator.HISTORY:]
            assert est.running_average() == sum(tail) / len(tail)
            assert len(est._history) <= BandwidthEstimator.HISTORY
        assert est.running_average(7) == sum(log[-7:]) / 7
        with pytest.raises(ValueError):
            est.running_average(BandwidthEstimator.HISTORY + 1)

    def test_running_average(self):
        est = estimator(rate=1_000.0)
        assert est.running_average() is None
        est.record(0.0)
        est.record(1.0)
        assert est.running_average() == pytest.approx(1_000.0)

    def test_record_returns_the_recorded_estimate(self):
        bw = TraceBandwidth([float(100 + 7 * i) for i in range(50)])
        est = BandwidthEstimator(bw, noise=0.3, seed=3)
        for t in (0.0, 2.5, 17.0):
            assert est.record(t) == est.estimate(t) == est._history[-1]

    @pytest.mark.parametrize(
        "window",
        [
            DecisionWindow.from_grid(1.0, 1.0, 1e-9, 10, 10, 15),
            DecisionWindow.from_grid(1.0, 1.0, 1e-9, 10, 10, 400),
            DecisionWindow.from_grid(0.5, 3.0, 3e-9, 4, 0, 200),
            DecisionWindow.from_times([0.7 * k for k in range(3, 300)]),
        ],
        ids=["grid-short", "grid-long", "grid-coarse", "times"],
    )
    def test_record_skipped_equals_recording_each_time(self, window):
        bw = TraceBandwidth([float(100 + 7 * i) for i in range(900)])
        each = BandwidthEstimator(bw, noise=0.3, seed=3)
        skipped = BandwidthEstimator(bw, noise=0.3, seed=3)
        for est in (each, skipped):
            est.record(0.0)
        for t in window.times():
            each.record(t)
        skipped.record_skipped(window)
        assert list(skipped._history) == list(each._history)
        assert window.last(7) == window.times()[-7:]

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthEstimator(ConstantBandwidth(1.0), lag=-1.0)
        with pytest.raises(ValueError):
            BandwidthEstimator(ConstantBandwidth(1.0), noise=-0.1)


class TestImmediate:
    def test_releases_everything_next_decide(self):
        s = ImmediateStrategy()
        p = make_packet()
        s.on_arrival(p, 0.0)
        assert s.waiting_count == 1
        assert s.decide(1.0, False) == [p]
        assert s.waiting_count == 0

    def test_flush(self):
        s = ImmediateStrategy()
        p = make_packet()
        s.on_arrival(p, 0.0)
        assert s.flush(10.0) == [p]


class TestETime:
    def test_holds_until_backlog_score(self):
        s = ETimeStrategy(estimator(), v=1_000_000.0)
        s.on_arrival(make_packet(size=1_000), 0.0)
        assert s.decide(0.0, False) == []
        assert s.waiting_count == 1

    def test_releases_on_large_backlog(self):
        s = ETimeStrategy(estimator(), v=10_000.0)
        for _ in range(20):
            s.on_arrival(make_packet(size=1_000), 0.0)
        released = s.decide(60.0, False)
        assert len(released) == 20

    def test_ignores_heartbeats(self):
        s = ETimeStrategy(estimator(), v=1e12)
        s.on_arrival(make_packet(size=100), 0.0)
        assert s.decide(0.0, True) == []

    def test_channel_quality_modulates(self):
        """A good channel (relative to average) triggers release sooner."""
        bw = TraceBandwidth([100.0] * 100 + [1_000.0] * 100)
        est = BandwidthEstimator(bw, lag=0.0, noise=0.0)
        s = ETimeStrategy(est, v=15_000.0, slot=60.0)
        s.on_arrival(make_packet(size=2_000), 0.0)
        assert s.decide(0.0, False) == []  # quality 1.0: 2000 < 15000
        assert s.decide(60.0, False) == []
        released = s.decide(120.0, False)  # rate jumps 10x vs average
        assert released == [] or len(released) == 1  # quality-gated

    def test_validation(self):
        with pytest.raises(ValueError):
            ETimeStrategy(estimator(), v=-1.0)
        with pytest.raises(ValueError):
            ETimeStrategy(estimator(), slot=0.0)

    def test_backlog_bytes(self):
        s = ETimeStrategy(estimator())
        s.on_arrival(make_packet(size=500), 0.0)
        s.on_arrival(make_packet(size=700), 0.0)
        assert s.backlog_bytes == 1_200


class TestPerES:
    def profiles(self):
        return [weibo_profile(), mail_profile()]

    def test_deadline_pressure_forces_full_release(self):
        s = PerESStrategy(self.profiles(), estimator(), omega=0.5, v_init=1e9)
        a = make_packet(app_id="weibo", arrival=0.0, deadline=30.0)
        b = make_packet(app_id="weibo", arrival=20.0, deadline=30.0)
        s.on_arrival(a, 0.0)
        s.on_arrival(b, 20.0)
        assert s.decide(25.0, False) == []
        released = s.decide(29.5, False)
        assert set(released) == {a, b}

    def test_v_adapts_down_when_costly(self):
        s = PerESStrategy(self.profiles(), estimator(), omega=0.01, v_init=100.0)
        p = make_packet(app_id="weibo", arrival=0.0, deadline=30.0)
        s.on_arrival(p, 0.0)
        s.decide(29.5, False)  # forced release with high cost
        assert s.v < 100.0

    def test_v_adapts_up_when_cheap(self):
        s = PerESStrategy(self.profiles(), estimator(), omega=10.0, v_init=0.001)
        p = make_packet(app_id="weibo", arrival=0.0, deadline=30.0)
        s.on_arrival(p, 0.0)
        s.decide(1.0, False)  # cheap release (cost ~0.03)
        assert s.v > 0.001

    def test_unknown_app_rejected(self):
        s = PerESStrategy(self.profiles(), estimator())
        with pytest.raises(KeyError):
            s.on_arrival(make_packet(app_id="nope"), 0.0)

    def test_instantaneous_cost(self):
        s = PerESStrategy(self.profiles(), estimator())
        s.on_arrival(make_packet(app_id="weibo", arrival=0.0), 0.0)
        assert s.instantaneous_cost(15.0) == pytest.approx(0.5)

    def test_released_cost_history_stays_bounded_over_a_2h_run(self):
        """``_adapt_v`` reads only the last ``_V_WINDOW`` costs, so a 2 h
        run (hundreds of releases) keeps no more than that."""
        from repro.baselines.peres import _V_WINDOW
        from repro.sim.parallel.specs import ScenarioSpec, StrategySpec
        from repro.sim.runner import run_strategy

        scenario = ScenarioSpec(seed=3).build()
        s = StrategySpec.make("peres").build(scenario)
        result = run_strategy(s, scenario)
        assert len(result.packets) > _V_WINDOW
        assert len(s._released_costs) == _V_WINDOW == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            PerESStrategy(self.profiles(), estimator(), omega=-1.0)
        with pytest.raises(ValueError):
            PerESStrategy(self.profiles(), estimator(), v_init=0.0)


#: PerES configurations for the no-late-release invariant.  With
#: ``v_init=1e5`` V starts far above any P·quality, so deadline pressure
#: makes the releases, each on the last slot before a deadline passes.
NEVER_LATE_PARAMS = [
    {},
    {"v_init": 1e5},
    {"omega": 0.1},
    {"omega": 2.0, "v_init": 5.0},
    {"lag": 0.0, "noise": 0.0},
]


@pytest.mark.parametrize("params", NEVER_LATE_PARAMS, ids=repr)
class TestPerESNeverReleasesLate:
    """No PerES decision releases a packet already past its app's deadline.

    Deadline pressure at slot ``t − 1`` runs the packet's own ``(t −
    arrival) > deadline`` test on the oldest queued packet of its app
    and releases the whole queue, so no queued packet ever reaches its
    deadline transition.  The fleet kernel relies on this to keep only
    pre-deadline cost aggregates.  Packets flushed at the horizon never
    met a decision and are exempt.
    """

    def test_scalar_strategy(self, params):
        from repro.sim.parallel.specs import ScenarioSpec, StrategySpec
        from repro.sim.runner import run_strategy

        scenario = ScenarioSpec(seed=3).build()
        s = StrategySpec.make("peres", **params).build(scenario)
        decide = s.decide
        slack = []  # deadline − delay of each released packet

        def checked(now, heartbeat_present):
            released = decide(now, heartbeat_present)
            slack.extend(s.deadlines[p.app_id] - p.delay_at(now) for p in released)
            return released

        s.decide = checked
        run_strategy(s, scenario)
        assert slack and min(slack) >= 0.0
        if params.get("v_init") == 1e5:  # pressure releases just in time
            assert min(slack) < 1.0

    def test_fleet_kernel_release_slots(self, params, monkeypatch):
        from repro.bandwidth.synth import wuhan_bandwidth_model
        from repro.sim.fleet import engine
        from repro.sim.fleet.channel import ChannelTable
        from repro.sim.fleet.workload import synthesize_fleet

        build = engine._build_loopfree
        seen = {}

        def capture(w, table, release, *rest):
            seen["release"] = release
            return build(w, table, release, *rest)

        monkeypatch.setattr(engine, "_build_loopfree", capture)
        horizon = 7200.0
        table = ChannelTable.from_model(wuhan_bandwidth_model(), horizon)
        w = synthesize_fleet(37, horizon, 7, phase_mode="random")
        raw = engine.simulate_fleet_chunk(w, table, strategy="peres", params=params)
        release = seen["release"]
        decided = release < engine.fleet_slot_count(horizon)  # not flushed
        slack = raw.deadlines[raw.pk_app] - (release - raw.pk_arr)
        assert decided.sum() > 0
        assert slack[decided].min() >= 0.0
        if params.get("v_init") == 1e5:
            assert slack[decided].min() < 1.0


class TestTailEnder:
    def test_waits_until_earliest_deadline(self):
        s = TailEnderStrategy([weibo_profile()])
        a = make_packet(arrival=0.0, deadline=30.0)
        b = make_packet(arrival=10.0, deadline=30.0)
        s.on_arrival(a, 0.0)
        s.on_arrival(b, 10.0)
        assert s.decide(20.0, False) == []
        released = s.decide(29.5, False)
        assert set(released) == {a, b}

    def test_earliest_due(self):
        s = TailEnderStrategy()
        assert s.earliest_due() is None
        s.on_arrival(make_packet(arrival=5.0, deadline=30.0), 5.0)
        assert s.earliest_due() == pytest.approx(35.0)

    def test_default_deadline_for_unprofiled(self):
        s = TailEnderStrategy(default_deadline=40.0)
        p = make_packet(deadline=None)
        p.deadline = None
        s.on_arrival(p, 0.0)
        assert s.earliest_due() == pytest.approx(40.0)

    def test_slack_fires_early(self):
        s = TailEnderStrategy(slack=5.0)
        s.on_arrival(make_packet(arrival=0.0, deadline=30.0), 0.0)
        released = s.decide(25.0, False)
        assert len(released) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TailEnderStrategy(default_deadline=0.0)
        with pytest.raises(ValueError):
            TailEnderStrategy(slack=-1.0)


class TestPeriodicBatch:
    def test_fires_on_period(self):
        s = PeriodicBatchStrategy(period=60.0)
        p = make_packet()
        s.on_arrival(p, 0.0)
        assert s.decide(30.0, False) == []
        assert s.decide(60.0, False) == [p]

    def test_empty_period_fires_nothing(self):
        s = PeriodicBatchStrategy(period=10.0)
        assert s.decide(10.0, False) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicBatchStrategy(period=0.0)


class TestCommonInterface:
    @pytest.mark.parametrize(
        "factory",
        [
            ImmediateStrategy,
            lambda: ETimeStrategy(estimator()),
            lambda: PerESStrategy([weibo_profile()], estimator()),
            lambda: TailEnderStrategy([weibo_profile()]),
            lambda: PeriodicBatchStrategy(),
        ],
    )
    def test_flush_empties(self, factory):
        s = factory()
        s.on_arrival(make_packet(app_id="weibo"), 0.0)
        flushed = s.flush(1e6)
        assert len(flushed) == 1
        assert s.waiting_count == 0
