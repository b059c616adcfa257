"""Session store and admission control under adversarial interleavings.

Hypothesis drives random interleavings of open/event/close/evict across
large device-id spaces and checks the store's contract:

* lookup is a single dict probe (O(1) per device) and always returns
  the session registered under exactly that id — no cross-device
  leakage of packets, heartbeats or decision state;
* LRU eviction never drops a session with pending cargo, and reports
  ``sessions_exhausted`` (retryable) when every resident session owes
  packets;
* the inbox sheds deterministically at the watermark — same offered
  sequence, same accepted/shed split, every time — and its
  ``retry_after`` hint is a pure function of the backlog.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bandwidth.models import ConstantBandwidth
from repro.serve.batcher import Inbox
from repro.serve.protocol import ProtocolError
from repro.serve.sessions import DeviceSession, SessionStore

pytestmark = pytest.mark.serve

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_BW = ConstantBandwidth(100_000.0)


def make_session(device):
    return DeviceSession(
        device, strategy="etrain", horizon=120.0, slot=1.0, bandwidth=_BW
    )


class TestSessionIsolation:
    @given(
        n_devices=st.integers(min_value=2, max_value=12),
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),  # device index
                st.sampled_from(["cargo", "hb"]),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    @SETTINGS
    def test_no_cross_device_leakage(self, n_devices, ops):
        """Interleaved events land only in their own device's session."""
        store = SessionStore(capacity=4096)
        clocks = {}
        sent = {}
        for d in range(n_devices):
            dev = f"dev-{d}"
            store.put(dev, make_session(dev))
            clocks[dev] = 0.0
            sent[dev] = 0
        for device_index, kind in ops:
            dev = f"dev-{device_index % n_devices}"
            session = store.get(dev)
            t = clocks[dev]
            if kind == "cargo":
                session.on_cargo(t, "mail", 500, deadline=30.0)
                sent[dev] += 1
            else:
                session.on_heartbeat(t, "qq", 0, 120)
            clocks[dev] = t + 1.0
        for d in range(n_devices):
            dev = f"dev-{d}"
            session = store.get(dev)
            assert session.device == dev
            assert len(session.packets) == sent[dev]
            # Packet ids are session-local and gapless: proof no packet
            # crossed sessions in either direction.
            assert [p.packet_id for p in session.packets] == list(
                range(sent[dev])
            )
            assert all(p.app_id == "mail" for p in session.packets)

    def test_lookup_is_single_dict_probe(self):
        """get() cost does not depend on the population size."""
        store = SessionStore(capacity=5000)
        for d in range(3000):
            store.put(f"dev-{d}", make_session(f"dev-{d}"))
        # A store-wide scan would be O(n); the contract is one hash probe
        # plus an O(1) LRU move. Count dict operations via a tracing dict
        # stand-in for the timing assertion (timings flake in CI).
        probes = []
        real = store._sessions

        class Tracing(dict):
            def __getitem__(self, key):
                probes.append(key)
                return real[key]

        tracing = Tracing()
        store._sessions = tracing
        try:
            with pytest.raises(ProtocolError):
                store.get("absent")
        finally:
            store._sessions = real
        assert probes == ["absent"]

    @given(ops=st.lists(st.integers(min_value=0, max_value=9999), max_size=40))
    @SETTINGS
    def test_open_close_interleaving_keeps_store_consistent(self, ops):
        """Random open/close/touch traffic never corrupts membership."""
        store = SessionStore(capacity=64)
        alive = set()
        for op in ops:
            dev = f"dev-{op % 20}"
            action = op % 3
            if action == 0 and dev not in alive:
                store.put(dev, make_session(dev))
                alive.add(dev)
            elif action == 1 and dev in alive:
                store.pop(dev)
                alive.discard(dev)
            elif dev in alive:
                assert store.get(dev).device == dev
        assert set(store.devices()) == alive
        assert len(store) == len(alive)


class TestEviction:
    def test_eviction_prefers_lru_idle_session(self):
        store = SessionStore(capacity=2)
        store.put("a", make_session("a"))
        store.put("b", make_session("b"))
        store.get("a")  # b becomes least-recently-used
        evicted = store.put("c", make_session("c"))
        assert evicted == "b"
        assert set(store.devices()) == {"a", "c"}
        assert store.evictions == 1

    def test_eviction_never_drops_pending_cargo(self):
        store = SessionStore(capacity=2)
        loaded = make_session("loaded")
        # Cargo with no heartbeat yet: eTrain parks it in its queue.
        loaded.on_cargo(0.0, "mail", 500, deadline=30.0)
        assert loaded.pending_cargo > 0
        store.put("loaded", loaded)
        store.put("idle", make_session("idle"))
        store.get("loaded")  # "idle" is now LRU *and* safe to drop
        store.get("idle")  # ...no: re-touch makes "loaded" LRU again
        evicted = store.put("new", make_session("new"))
        # LRU order alone would pick "loaded"; the cargo guard skips it.
        assert evicted == "idle"
        assert "loaded" in store

    def test_all_sessions_loaded_is_retryable_exhaustion(self):
        store = SessionStore(capacity=2)
        for dev in ("a", "b"):
            session = make_session(dev)
            session.on_cargo(0.0, "mail", 500, deadline=30.0)
            store.put(dev, session)
        with pytest.raises(ProtocolError) as excinfo:
            store.put("c", make_session("c"))
        assert excinfo.value.code == "sessions_exhausted"
        assert excinfo.value.retryable
        # The failed put must not have half-registered the new session.
        assert set(store.devices()) == {"a", "b"}

    @given(
        capacity=st.integers(min_value=1, max_value=8),
        loaded_mask=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    @SETTINGS
    def test_thousands_of_opens_never_lose_cargo(self, capacity, loaded_mask):
        """Churning device ids through a tiny store: cargo survives."""
        store = SessionStore(capacity=capacity)
        cargo_holders = set()
        for i, loaded in enumerate(loaded_mask):
            dev = f"dev-{i}"
            session = make_session(dev)
            if loaded:
                session.on_cargo(0.0, "mail", 500, deadline=30.0)
            try:
                store.put(dev, session)
            except ProtocolError as exc:
                assert exc.code == "sessions_exhausted"
                continue
            if loaded:
                cargo_holders.add(dev)
        # Every cargo-holding session that was admitted is still there.
        resident = set(store.devices())
        assert cargo_holders <= resident
        for dev in cargo_holders:
            assert store.get(dev).pending_cargo > 0


class TestSessionOrdering:
    def test_out_of_order_event_rejected(self):
        session = make_session("d")
        session.on_heartbeat(10.0, "qq", 0, 120)
        with pytest.raises(ProtocolError) as excinfo:
            session.on_cargo(9.0, "mail", 500)
        assert excinfo.value.code == "out_of_order"

    def test_same_time_heartbeats_keep_merge_order(self):
        """Equal-time heartbeats must come in (app, seq) order, the
        order the batch run merges them in."""
        session = make_session("d")
        session.on_heartbeat(10.0, "qq", 1, 120)
        session.on_heartbeat(10.0, "wechat", 0, 120)
        with pytest.raises(ProtocolError) as excinfo:
            session.on_heartbeat(10.0, "qq", 0, 120)
        assert excinfo.value.code == "out_of_order"
        # The rejected heartbeat left the session usable.
        session.on_heartbeat(11.0, "qq", 2, 120)

    def test_nan_event_time_rejected(self):
        session = make_session("d")
        with pytest.raises(ProtocolError) as excinfo:
            session.on_cargo(float("nan"), "mail", 500)
        assert excinfo.value.code == "bad_event"
        assert session.packets == []

    def test_event_past_horizon_rejected(self):
        session = make_session("d")
        with pytest.raises(ProtocolError) as excinfo:
            session.on_heartbeat(120.0, "qq", 0, 120)
        assert excinfo.value.code == "past_horizon"

    def test_close_is_terminal(self):
        session = make_session("d")
        session.close()
        with pytest.raises(ProtocolError) as excinfo:
            session.on_heartbeat(1.0, "qq", 0, 120)
        assert excinfo.value.code == "session_closed"
        with pytest.raises(ProtocolError):
            session.close()

    @pytest.mark.parametrize("params", [{"theta": -1.0}, {"bogus": 1}])
    def test_bad_strategy_params_are_a_protocol_error(self, params):
        with pytest.raises(ProtocolError) as excinfo:
            DeviceSession("d", strategy="etrain", params=params)
        assert excinfo.value.code == "bad_params"

    def test_unknown_app_rejected_without_state_change(self):
        session = make_session("d")
        with pytest.raises(ProtocolError):
            session.on_cargo(0.0, "no-such-app", 500)
        assert session.packets == []
        assert session.pending_cargo == 0


class TestInboxShedding:
    @given(
        capacity=st.integers(min_value=1, max_value=32),
        offers=st.integers(min_value=0, max_value=120),
        drains=st.lists(
            st.integers(min_value=1, max_value=16), max_size=8
        ),
    )
    @SETTINGS
    def test_deterministic_watermark_shedding(self, capacity, offers, drains):
        """Two inboxes fed the same sequence shed the same frames."""

        def run():
            inbox = Inbox(capacity=capacity)
            accepted = []
            drain_iter = iter(drains + [0] * offers)
            for i in range(offers):
                if inbox.offer(i):
                    accepted.append(i)
                if i % 7 == 3:  # interleave some drains, deterministically
                    inbox.drain(next(drain_iter) or 1)
            return accepted, inbox.accepted, inbox.shed, len(inbox)

        assert run() == run()
        accepted, n_accepted, n_shed, backlog = run()
        assert n_accepted + n_shed == offers
        assert backlog <= capacity

    def test_watermark_below_capacity_sheds_early(self):
        inbox = Inbox(capacity=10, watermark=3)
        results = [inbox.offer(i) for i in range(5)]
        assert results == [True, True, True, False, False]
        assert inbox.shed == 2
        assert len(inbox) == 3

    def test_retry_after_is_pure_function_of_backlog(self):
        inbox = Inbox(capacity=10, watermark=3, retry_cost_s=0.001)
        for i in range(3):
            inbox.offer(i)
        assert inbox.retry_after() == inbox.retry_after() == 0.003
        inbox.drain(2)
        assert inbox.retry_after() == 0.001

    def test_drain_is_fifo(self):
        inbox = Inbox(capacity=10)
        for i in range(6):
            inbox.offer(i)
        assert inbox.drain(4) == [0, 1, 2, 3]
        assert inbox.drain(4) == [4, 5]
        assert inbox.drain(4) == []


def test_wuhan_opens_share_one_trace(monkeypatch):
    """Distinct client specs of the Wuhan channel reuse the process's one
    model: 100 opens synthesize the trace once (its two regimes), and
    the daemon keeps no per-spec copy."""
    from repro.bandwidth import synth
    from repro.serve.server import ServeApp, ServeConfig

    synth._shared_wuhan_model.cache_clear()
    real = synth.synthesize_regime
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(synth, "synthesize_regime", counting)
    app = ServeApp(ServeConfig())
    for i in range(100):
        response = app.handle(
            {
                "op": "open",
                "device": f"d{i}",
                "strategy": "etrain",
                "bandwidth": {"kind": "wuhan", "pad": i},
            }
        )
        assert response["ok"], response
    assert len(calls) == 2


def test_bandwidth_specs_resolve_per_open():
    """Each open resolves its own spec: constant rates are built from the
    request, a bad rate is rejected, and Wuhan specs get the shared model."""
    from repro.bandwidth.synth import wuhan_bandwidth_model
    from repro.serve.server import ServeApp, ServeConfig

    app = ServeApp(ServeConfig())
    for rate in (250.0, 5_000.0, 250.0):
        model = app._bandwidth({"kind": "constant", "rate": rate})
        assert isinstance(model, ConstantBandwidth)
        assert model.rate_at(0.0) == rate
    assert app._bandwidth({"kind": "wuhan"}) is wuhan_bandwidth_model()
    assert app._bandwidth({"kind": "wuhan", "pad": 3}) is wuhan_bandwidth_model()
    for spec in ({"kind": "constant", "rate": 0}, {"kind": "lte"}):
        response = app.handle(
            {"op": "open", "device": "bad", "strategy": "etrain", "bandwidth": spec}
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
    assert len(app.store) == 0


def test_batch_channel_tables_keyed_by_resolved_model(monkeypatch):
    """Batch requests that spell the same channel differently share one
    entry of the process's channel-table memo: 20 Wuhan specs with
    distinct padding build it once, and a constant rate keys by its
    value (``2000`` and ``2000.0`` alike)."""
    from repro.serve.server import ServeApp, ServeConfig
    from repro.sim.fleet.channel import ChannelTable, channel_table

    channel_table.cache_clear()
    real = ChannelTable.from_model.__func__
    built = []

    def counting(cls, model, horizon):
        built.append(model)
        return real(cls, model, horizon)

    monkeypatch.setattr(ChannelTable, "from_model", classmethod(counting))
    app = ServeApp(ServeConfig())
    request = {"op": "batch", "strategy": "etrain", "devices": 1, "horizon": 60.0}
    for i in range(20):
        response = app.handle(dict(request, bandwidth={"kind": "wuhan", "pad": i}))
        assert response["ok"], response
    assert len(built) == 1
    for i, rate in enumerate((2_000, 2_000.0, 2_000)):
        bandwidth = {"kind": "constant", "rate": rate, "pad": i}
        assert app.handle(dict(request, bandwidth=bandwidth))["ok"]
    assert len(built) == 2
    assert channel_table.cache_info().currsize == 2


def test_batch_creates_no_shared_memory(monkeypatch):
    """A ``batch`` answer reads the memo, never shared memory, and its
    summary is the one recorded when serve kept a private table cache."""
    import hashlib
    from multiprocessing import shared_memory

    from repro.serve.server import ServeApp, ServeConfig

    def refuse(*args, **kwargs):
        raise AssertionError("serve created shared memory")

    monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
    response = ServeApp(ServeConfig()).handle(
        {"op": "batch", "strategy": "etrain", "devices": 3,
         "device_offset": 2, "horizon": 300.0, "seed": 1}
    )
    assert response["ok"], response
    canonical = json.dumps(response["fleet"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == (
        "6a7014f0a0942c4677880e8a2375f060d4a20f6b019f8de35d9b560719181408"
    )
