"""Unit + property tests for bandwidth models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bandwidth.models import (
    BandwidthModel,
    ConstantBandwidth,
    MarkovBandwidth,
    TraceBandwidth,
)


class TestConstant:
    def test_duration(self):
        bw = ConstantBandwidth(1_000.0)
        assert bw.transfer_duration(0.0, 2_500) == pytest.approx(2.5)

    def test_zero_bytes(self):
        assert ConstantBandwidth(1_000.0).transfer_duration(0.0, 0) == 0.0

    def test_zero_rate_raises(self):
        with pytest.raises(RuntimeError):
            ConstantBandwidth(0.0).transfer_duration(0.0, 1)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ConstantBandwidth(-1.0)

    def test_max_duration_guard(self):
        with pytest.raises(RuntimeError):
            ConstantBandwidth(1.0).transfer_duration(0.0, 10**9, max_duration=10.0)


class TestTrace:
    def test_piecewise_lookup(self):
        bw = TraceBandwidth([100.0, 200.0, 300.0])
        assert bw.rate_at(0.5) == 100.0
        assert bw.rate_at(1.0) == 200.0
        assert bw.rate_at(2.9) == 300.0

    def test_clamping_outside_range(self):
        bw = TraceBandwidth([100.0, 200.0])
        assert bw.rate_at(-5.0) == 100.0
        assert bw.rate_at(100.0) == 200.0

    def test_wrap(self):
        bw = TraceBandwidth([100.0, 200.0], wrap=True)
        assert bw.rate_at(2.0) == 100.0
        assert bw.rate_at(3.0) == 200.0

    def test_transfer_spans_samples(self):
        bw = TraceBandwidth([100.0, 100.0, 200.0])
        # 250 bytes from t=0: 100 in [0,1), 100 in [1,2), 50 at 200 B/s.
        assert bw.transfer_duration(0.0, 250) == pytest.approx(2.25)

    def test_transfer_mid_second_start(self):
        bw = TraceBandwidth([100.0, 200.0])
        # Start at 0.5: 50 bytes in [0.5,1), then 200 B/s.
        assert bw.transfer_duration(0.5, 150) == pytest.approx(1.0)

    def test_zero_interval_skipped(self):
        bw = TraceBandwidth([0.0, 100.0])
        assert bw.transfer_duration(0.0, 100) == pytest.approx(2.0)

    def test_all_zero_trace_raises(self):
        bw = TraceBandwidth([0.0])
        with pytest.raises(RuntimeError):
            bw.transfer_duration(0.0, 1, max_duration=100.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceBandwidth([])

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            TraceBandwidth([100.0, -1.0])

    def test_mean_rate(self):
        bw = TraceBandwidth([100.0, 300.0])
        assert bw.mean_rate(0.0, 2.0) == pytest.approx(200.0)


class TestMarkov:
    def test_deterministic_per_seed(self):
        a = MarkovBandwidth(1000.0, 100.0, seed=3)
        b = MarkovBandwidth(1000.0, 100.0, seed=3)
        assert [a.rate_at(t) for t in range(50)] == [
            b.rate_at(t) for t in range(50)
        ]

    def test_rates_are_two_levels(self):
        bw = MarkovBandwidth(1000.0, 100.0, seed=1)
        rates = {bw.rate_at(t) for t in range(200)}
        assert rates <= {1000.0, 100.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovBandwidth(100.0, 1000.0)
        with pytest.raises(ValueError):
            MarkovBandwidth(1000.0, 100.0, p_stay_good=1.5)

    def test_starts_good(self):
        bw = MarkovBandwidth(1000.0, 100.0, seed=0)
        assert bw.rate_at(0.0) == 1000.0


@given(
    samples=st.lists(
        st.floats(min_value=10.0, max_value=1e6), min_size=1, max_size=20
    ),
    size=st.integers(min_value=1, max_value=100_000),
    start=st.floats(min_value=0.0, max_value=15.0),
)
@settings(max_examples=80, deadline=None)
def test_transfer_duration_moves_exactly_size_bytes(samples, size, start):
    """Integrating the rate over the returned duration yields the size."""
    import math

    bw = TraceBandwidth(samples)
    duration = bw.transfer_duration(start, size)
    # Exact piecewise-constant integration over 1-second sample boundaries.
    moved = 0.0
    t = start
    end = start + duration
    while t < end - 1e-12:
        boundary = min(end, math.floor(t) + 1.0)
        if boundary <= t:
            boundary = min(end, t + 1.0)
        moved += bw.rate_at(t) * (boundary - t)
        t = boundary
    assert moved == pytest.approx(size, rel=1e-6, abs=1e-6)


@given(size=st.integers(min_value=0, max_value=10**6))
def test_constant_bandwidth_linear(size):
    bw = ConstantBandwidth(50_000.0)
    assert bw.transfer_duration(0.0, size) == pytest.approx(size / 50_000.0)


class TestMeanRateValidation:
    def test_step_zero_rejected(self):
        bw = ConstantBandwidth(1000.0)
        with pytest.raises(ValueError, match="step must be > 0"):
            bw.mean_rate(0.0, 10.0, step=0.0)

    def test_step_negative_rejected(self):
        bw = TraceBandwidth([1000.0])
        with pytest.raises(ValueError, match="step must be > 0"):
            bw.mean_rate(0.0, 10.0, step=-1.0)

    def test_empty_interval_still_rejected(self):
        bw = ConstantBandwidth(1000.0)
        with pytest.raises(ValueError, match="end must be after start"):
            bw.mean_rate(5.0, 5.0)


class TestTraceFastPaths:
    """The prefix-sum shortcuts must reproduce the generic integrators."""

    def _traces(self):
        import random

        rng = random.Random(7)
        for _ in range(12):
            n = rng.randint(1, 25)
            samples = [rng.choice([0.0, rng.uniform(1.0, 5e4)]) for _ in range(n)]
            if not any(samples):
                samples[0] = 1000.0
            yield TraceBandwidth(
                samples,
                start_time=float(rng.choice([0, 0, 3])),
                wrap=rng.random() < 0.5,
            )

    def test_transfer_duration_matches_generic(self):
        import random

        rng = random.Random(11)
        for bw in self._traces():
            for _ in range(20):
                start = float(int(bw.start_time) + rng.randint(0, 60))
                size = rng.uniform(1.0, 2e5)
                direction = rng.choice(["up", "down"])
                fast = bw.transfer_duration(start, size, direction=direction)
                slow = BandwidthModel.transfer_duration(
                    bw, start, size, direction=direction
                )
                assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)

    def test_mean_rate_matches_generic(self):
        import random

        rng = random.Random(13)
        for bw in self._traces():
            for _ in range(10):
                start = float(int(bw.start_time) + rng.randint(0, 40))
                end = start + rng.randint(1, 40)
                assert bw.mean_rate(start, end) == pytest.approx(
                    BandwidthModel.mean_rate(bw, start, end), rel=1e-9
                )

    def test_fractional_geometry_delegates(self):
        bw = TraceBandwidth([1000.0, 2000.0, 500.0], start_time=0.5)
        assert bw.transfer_duration(1.25, 1234.0) == pytest.approx(
            BandwidthModel.transfer_duration(bw, 1.25, 1234.0)
        )
        assert bw.mean_rate(1.25, 4.25) == pytest.approx(
            BandwidthModel.mean_rate(bw, 1.25, 4.25)
        )

    def test_deadline_error_matches_generic(self):
        bw = TraceBandwidth([0.0, 0.0, 5.0], wrap=True)
        with pytest.raises(RuntimeError) as fast:
            bw.transfer_duration(0.0, 1e9, max_duration=10.0)
        with pytest.raises(RuntimeError) as slow:
            BandwidthModel.transfer_duration(bw, 0.0, 1e9, max_duration=10.0)
        assert str(fast.value) == str(slow.value)

    def test_long_wrap_transfer(self):
        """A transfer spanning many trace cycles stays exact."""
        bw = TraceBandwidth([100.0, 0.0, 50.0], wrap=True)
        size = 150.0 * 1000 + 75.0  # 1000 full cycles + half of a 50-step
        duration = bw.transfer_duration(0.0, size)
        slow = BandwidthModel.transfer_duration(bw, 0.0, size)
        assert duration == pytest.approx(slow, rel=1e-12)

    def test_clamped_extension_uses_last_sample(self):
        bw = TraceBandwidth([1000.0, 10.0], wrap=False)
        # 1010 bytes drain the trace; the rest rides the clamped 10 B/s.
        assert bw.transfer_duration(0.0, 1110.0) == pytest.approx(12.0)

    def test_prefix_sums_are_the_running_sum_bitwise(self):
        """The packed prefix array holds exactly the left-to-right running
        sum of the samples, which are frozen as a tuple of floats."""
        import struct

        for bw in self._traces():
            assert isinstance(bw.samples, tuple)
            assert all(type(s) is float for s in bw.samples)
            prefix = bw._prefix_sums()
            assert bw._prefix_sums() is prefix
            acc, expected = 0.0, [0.0]
            for s in bw.samples:
                acc += s
                expected.append(acc)
            assert len(prefix) == len(expected)
            for got, want in zip(prefix, expected):
                assert struct.pack("<d", got) == struct.pack("<d", want)
        ints = TraceBandwidth(range(1, 6))
        assert ints.samples == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert ints.mean_rate(0.0, 5.0) == 3.0


class TestMarkovMemoryBound:
    def test_window_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(MarkovBandwidth, "STATE_WINDOW", 64)
        monkeypatch.setattr(MarkovBandwidth, "CHECKPOINT_EVERY", 64)
        bw = MarkovBandwidth(1000.0, 100.0, seed=3)
        for sec in range(5000):
            bw.rate_at(float(sec))
        assert len(bw._states) < 2 * 64

    def test_backward_queries_replay_deterministically(self, monkeypatch):
        monkeypatch.setattr(MarkovBandwidth, "STATE_WINDOW", 64)
        monkeypatch.setattr(MarkovBandwidth, "CHECKPOINT_EVERY", 64)
        reference = MarkovBandwidth(1000.0, 100.0, seed=9)
        forward = [reference.rate_at(float(s)) for s in range(2000)]
        probe = MarkovBandwidth(1000.0, 100.0, seed=9)
        probe.rate_at(1999.0)  # window now covers only the tail
        for sec in [0, 1, 63, 64, 65, 500, 1234, 1998]:
            assert probe.rate_at(float(sec)) == forward[sec]

    def test_query_order_independent(self, monkeypatch):
        monkeypatch.setattr(MarkovBandwidth, "STATE_WINDOW", 32)
        monkeypatch.setattr(MarkovBandwidth, "CHECKPOINT_EVERY", 32)
        seconds = [700, 3, 699, 0, 64, 31, 32, 500, 1]
        a = MarkovBandwidth(1000.0, 100.0, seed=5)
        b = MarkovBandwidth(1000.0, 100.0, seed=5)
        rates_a = {s: a.rate_at(float(s)) for s in seconds}
        rates_b = {s: b.rate_at(float(s)) for s in sorted(seconds)}
        assert rates_a == rates_b
