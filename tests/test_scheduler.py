"""Unit tests for Algorithm 1 (the eTrain online scheduler)."""

import pytest

from repro.core.profiles import mail_profile, weibo_profile
from repro.core.scheduler import ETrainScheduler, SchedulerConfig

from tests.conftest import make_packet


def scheduler(theta=0.2, k=None, profiles=None):
    if profiles is None:
        profiles = [weibo_profile(), mail_profile()]
    return ETrainScheduler(profiles, SchedulerConfig(theta=theta, k=k))


class TestConfig:
    def test_defaults(self):
        cfg = SchedulerConfig()
        assert cfg.theta == 0.2
        assert cfg.k is None
        assert cfg.slot == 1.0

    def test_rejects_negative_theta(self):
        with pytest.raises(ValueError):
            SchedulerConfig(theta=-0.1)

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError):
            SchedulerConfig(k=0)

    def test_rejects_zero_slot(self):
        with pytest.raises(ValueError):
            SchedulerConfig(slot=0.0)


class TestRegistration:
    def test_register_duplicate_rejected(self):
        s = scheduler()
        with pytest.raises(ValueError):
            s.register_app(weibo_profile())

    def test_unregister_returns_leftovers(self):
        s = scheduler()
        p = make_packet(app_id="weibo")
        s.on_packet_arrival(p)
        leftovers = s.unregister_app("weibo")
        assert leftovers == [p]
        with pytest.raises(KeyError):
            s.unregister_app("weibo")

    def test_arrival_for_unknown_app_rejected(self):
        s = scheduler()
        with pytest.raises(KeyError):
            s.on_packet_arrival(make_packet(app_id="nope"))


class TestDecide:
    def test_below_threshold_no_heartbeat_does_nothing(self):
        s = scheduler(theta=5.0)
        s.on_packet_arrival(make_packet(app_id="weibo", arrival=0.0))
        decision = s.decide(1.0, heartbeat_present=False)
        assert decision.selected == ()
        assert decision.budget == 0
        assert s.waiting_count == 1

    def test_heartbeat_drains_everything_with_k_none(self):
        s = scheduler(theta=5.0, k=None)
        for i in range(4):
            s.on_packet_arrival(make_packet(app_id="weibo", arrival=float(i)))
        decision = s.decide(10.0, heartbeat_present=True)
        assert len(decision.selected) == 4
        assert s.waiting_count == 0
        assert len(s.tx_queue) == 4

    def test_heartbeat_respects_k(self):
        s = scheduler(theta=5.0, k=2)
        for i in range(4):
            s.on_packet_arrival(make_packet(app_id="weibo", arrival=float(i)))
        decision = s.decide(10.0, heartbeat_present=True)
        assert len(decision.selected) == 2
        assert s.waiting_count == 2

    def test_threshold_crossing_selects_one(self):
        s = scheduler(theta=0.2)
        s.on_packet_arrival(make_packet(app_id="weibo", arrival=0.0))
        # Weibo cost reaches 0.2 at t = 6 (deadline 30).
        decision = s.decide(7.0, heartbeat_present=False)
        assert len(decision.selected) == 1
        assert decision.budget == 1

    def test_zero_cost_packets_wait_for_heartbeats(self):
        """Mail has zero cost before its deadline: it must not be sent on
        a non-heartbeat slot even when another app trips the threshold."""
        s = scheduler(theta=0.1)
        mail = make_packet(app_id="mail", arrival=0.0, deadline=60.0)
        weibo = make_packet(app_id="weibo", arrival=0.0)
        s.on_packet_arrival(mail)
        s.on_packet_arrival(weibo)
        decision = s.decide(10.0, heartbeat_present=False)
        assert decision.selected == (weibo,)
        assert s.queues["mail"].head() is mail

    def test_mail_rides_heartbeat_as_free_rider(self):
        s = scheduler(theta=10.0)
        mail = make_packet(app_id="mail", arrival=0.0, deadline=60.0)
        s.on_packet_arrival(mail)
        decision = s.decide(5.0, heartbeat_present=True)
        assert decision.selected == (mail,)

    def test_instantaneous_cost_sums_queues(self):
        s = scheduler()
        s.on_packet_arrival(make_packet(app_id="weibo", arrival=0.0))
        s.on_packet_arrival(make_packet(app_id="weibo", arrival=0.0))
        assert s.instantaneous_cost(15.0) == pytest.approx(1.0)

    def test_decide_returns_its_decision(self):
        s = scheduler()
        quiet = s.decide(0.0, heartbeat_present=False)
        beat = s.decide(1.0, heartbeat_present=True)
        assert (quiet.time, quiet.heartbeat_slot, quiet.budget) == (0.0, False, 0)
        assert (beat.time, beat.heartbeat_slot) == (1.0, True)
        assert not hasattr(s, "decisions")  # no per-decide log kept

    def test_selected_packets_move_to_tx_queue(self):
        s = scheduler(theta=0.0)
        p = make_packet(app_id="weibo", arrival=0.0)
        s.on_packet_arrival(p)
        s.decide(5.0, heartbeat_present=False)
        assert s.tx_queue.drain() == [p]

    def test_empty_queue_heartbeat_selects_nothing(self):
        s = scheduler()
        decision = s.decide(0.0, heartbeat_present=True)
        assert decision.selected == ()


class TestFlush:
    def test_flush_drains_all_queues(self):
        s = scheduler(theta=100.0)
        for app in ("weibo", "mail"):
            s.on_packet_arrival(make_packet(app_id=app, arrival=0.0))
        flushed = s.flush(1000.0)
        assert len(flushed) == 2
        assert s.waiting_count == 0
        assert len(s.tx_queue) == 2

    def test_flush_empty_is_noop(self):
        assert scheduler().flush(0.0) == []


class TestCausality:
    def test_packets_never_scheduled_before_arrival(self):
        """decide() at time t only sees packets with t_a <= t (the caller
        delivers arrivals first), so tx_queue times respect causality."""
        s = scheduler(theta=0.0)
        p = make_packet(app_id="weibo", arrival=5.0)
        s.on_packet_arrival(p)
        decision = s.decide(6.0, heartbeat_present=True)
        assert p in decision.selected
        assert decision.time >= p.arrival_time
