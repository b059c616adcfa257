"""ChannelTable, its per-process memo, and SharedChannel.

The prefix-sum table must reproduce ``BandwidthModel.transfer_duration``
for arbitrary (possibly fractional) start times, including starts past
the simulated horizon (bursts serialized into the guard band); the memo
must hand out one read-only table per key; and the shared-memory
wrapper must round-trip the table bit-exactly while honouring the
publish/attach/close/unlink lifecycle.
"""

import numpy as np
import pytest

from repro.bandwidth.models import ConstantBandwidth
from repro.bandwidth.synth import wuhan_bandwidth_model
from repro.sim.fleet.channel import ChannelTable, SharedChannel, channel_table


@pytest.fixture(scope="module")
def wuhan():
    return wuhan_bandwidth_model()


@pytest.fixture(scope="module")
def table(wuhan):
    return ChannelTable.from_model(wuhan, 600.0)


def test_durations_match_model_integer_starts(wuhan, table):
    starts = np.arange(0.0, 500.0, 13.0)
    sizes = np.full(starts.shape, 50_000.0)
    got = table.durations(starts, sizes)
    want = np.array(
        [wuhan.transfer_duration(s, 50_000.0) for s in starts]
    )
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_durations_match_model_fractional_starts(wuhan, table):
    rng = np.random.default_rng(42)
    starts = rng.uniform(0.0, 590.0, size=64)
    sizes = rng.uniform(100.0, 500_000.0, size=64)
    got = table.durations(starts, sizes)
    want = np.array(
        [wuhan.transfer_duration(s, b) for s, b in zip(starts, sizes)]
    )
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_durations_past_horizon_still_match(wuhan, table):
    """Serialized bursts can start after the horizon; the guard band in
    the table must cover them exactly like the live model does."""
    starts = np.array([600.0, 601.5, 750.25, 3600.0])
    sizes = np.array([10_000.0, 120_000.0, 50_000.0, 80_000.0])
    got = table.durations(starts, sizes)
    want = np.array(
        [wuhan.transfer_duration(s, b) for s, b in zip(starts, sizes)]
    )
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_constant_bandwidth_table():
    bw = ConstantBandwidth(rate=1_000_000.0)
    table = ChannelTable.from_model(bw, 300.0)
    starts = np.array([0.0, 10.5, 299.0])
    sizes = np.array([125_000.0, 125_000.0, 250_000.0])
    got = table.durations(starts, sizes)
    want = np.array(
        [bw.transfer_duration(s, b) for s, b in zip(starts, sizes)]
    )
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_zero_size_zero_duration(table):
    got = table.durations(np.array([5.0, 100.3]), np.array([0.0, 0.0]))
    np.testing.assert_allclose(got, np.zeros(2), atol=1e-12)


def test_shared_channel_roundtrip(table):
    shared = SharedChannel.publish(table)
    try:
        view = SharedChannel.attach(shared.handle)
        try:
            np.testing.assert_array_equal(view.table.samples, table.samples)
            np.testing.assert_array_equal(view.table.prefix, table.prefix)
            starts = np.array([1.25, 42.0, 599.9])
            sizes = np.array([5_000.0, 80_000.0, 12_345.0])
            np.testing.assert_allclose(
                view.table.durations(starts, sizes),
                table.durations(starts, sizes),
                rtol=1e-12,
            )
        finally:
            view.close()
        # double-close is safe
        view.close()
        # attachers never unlink
        with pytest.raises(RuntimeError):
            view.unlink()
    finally:
        shared.close()
        shared.unlink()


def test_shared_channel_handle_is_plain_data(table):
    import pickle

    shared = SharedChannel.publish(table)
    try:
        handle = pickle.loads(pickle.dumps(shared.handle))
        view = SharedChannel.attach(handle)
        try:
            assert view.table.prefix.shape == table.prefix.shape
        finally:
            view.close()
    finally:
        shared.close()
        shared.unlink()


class TestShmLifecycle:
    """Context managers: publishers unlink, attachers only close."""

    def test_publisher_context_manager_unlinks(self, table):
        with SharedChannel.publish(table) as shared:
            handle = shared.handle
        # Blocks are gone: attaching by name must now fail.
        with pytest.raises(FileNotFoundError):
            SharedChannel.attach(handle)

    def test_attacher_context_manager_only_closes(self, table):
        with SharedChannel.publish(table) as shared:
            with SharedChannel.attach(shared.handle) as view:
                assert view.table.n_seconds == table.n_seconds
            # The attacher exiting must NOT free the publisher's blocks.
            with SharedChannel.attach(shared.handle) as again:
                np.testing.assert_array_equal(again.table.samples, table.samples)


class TestChannelMemo:
    """One read-only table per (bandwidth, rate, horizon) per process."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        channel_table.cache_clear()
        yield
        channel_table.cache_clear()

    def test_memo_returns_one_table_per_key(self, wuhan):
        a = channel_table("wuhan", None, 600.0)
        assert channel_table("wuhan", None, 600) is a
        assert channel_table("wuhan", None, 300.0) is not a
        assert channel_table("constant", 2000, 600.0) is channel_table(
            "constant", 2000.0, 600.0
        )
        assert channel_table.cache_info().currsize == 3
        want = ChannelTable.from_model(wuhan, 600.0)
        np.testing.assert_array_equal(a.samples, want.samples)
        np.testing.assert_array_equal(a.prefix, want.prefix)

    def test_memo_tables_are_read_only(self):
        table = channel_table("wuhan", None, 600.0)
        with pytest.raises(ValueError):
            table.samples[0] = 0.0
        with pytest.raises(ValueError):
            table.prefix[-1] = 0.0

    def test_memo_keeps_eight_evicting_least_recently_used(self):
        first = channel_table("constant", 1.0, 60.0)
        for rate in range(2, 9):
            channel_table("constant", float(rate), 60.0)
        assert channel_table("constant", 1.0, 60.0) is first  # now most recent
        channel_table("constant", 9.0, 60.0)  # evicts rate 2.0
        assert channel_table.cache_info().currsize == 8
        assert channel_table("constant", 1.0, 60.0) is first
        misses = channel_table.cache_info().misses
        channel_table("constant", 2.0, 60.0)
        assert channel_table.cache_info().misses == misses + 1
