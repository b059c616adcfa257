"""Unit tests for the bandwidth trace container and the synthetic trace."""

import pytest

from repro.bandwidth.synth import synthesize_regime, wuhan_bandwidth_model, wuhan_trace
from repro.bandwidth.trace import BandwidthTrace

import random


class TestBandwidthTrace:
    def test_stats(self):
        t = BandwidthTrace([100.0, 200.0, 300.0])
        assert t.mean == pytest.approx(200.0)
        assert t.median == pytest.approx(200.0)
        assert t.stdev == pytest.approx(100.0)
        assert t.duration == 3.0

    def test_single_sample_stdev(self):
        assert BandwidthTrace([100.0]).stdev == 0.0

    def test_cv(self):
        flat = BandwidthTrace([100.0, 100.0])
        assert flat.coefficient_of_variation == 0.0

    def test_outage_fraction(self):
        t = BandwidthTrace([500.0, 2000.0, 100.0, 3000.0])
        assert t.outage_fraction(threshold=1000.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthTrace([])
        with pytest.raises(ValueError):
            BandwidthTrace([-1.0])

    def test_csv_roundtrip(self, tmp_path):
        t = BandwidthTrace([123.456, 789.0], description="test")
        path = tmp_path / "bw.csv"
        t.save_csv(path)
        loaded = BandwidthTrace.load_csv(path)
        assert loaded.samples == pytest.approx(t.samples, abs=1e-3)

    def test_load_empty_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            BandwidthTrace.load_csv(path)

    def test_to_model(self):
        t = BandwidthTrace([100.0, 200.0])
        model = t.to_model()
        assert model.rate_at(1.5) == 200.0


class TestSynthRegime:
    def test_length(self):
        rng = random.Random(0)
        samples = synthesize_regime(
            rng, 100, median_rate=1e5, sigma=0.5, fade_prob=0.01,
            fade_depth=0.1, fade_duration_mean=5.0,
        )
        assert len(samples) == 100
        assert all(s >= 0 for s in samples)

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            synthesize_regime(
                rng, -1, median_rate=1e5, sigma=0.5, fade_prob=0.01,
                fade_depth=0.1, fade_duration_mean=5.0,
            )
        with pytest.raises(ValueError):
            synthesize_regime(
                rng, 10, median_rate=1e5, sigma=0.5, fade_prob=0.01,
                fade_depth=0.0, fade_duration_mean=5.0,
            )


class TestWuhanTrace:
    def test_paper_duration(self):
        trace = wuhan_trace()
        assert len(trace) == 7200

    def test_deterministic_per_seed(self):
        assert wuhan_trace(seed=1).samples == wuhan_trace(seed=1).samples
        assert wuhan_trace(seed=1).samples != wuhan_trace(seed=2).samples

    def test_two_regime_structure(self):
        """The campus half is steadier and faster than the bus half."""
        trace = wuhan_trace()
        bus = trace.samples[: int(7200 * 0.46)]
        campus = trace.samples[int(7200 * 0.46):]
        import statistics

        assert statistics.median(campus) > statistics.median(bus)
        bus_cv = statistics.stdev(bus) / statistics.fmean(bus)
        campus_cv = statistics.stdev(campus) / statistics.fmean(campus)
        assert campus_cv < bus_cv

    def test_realistic_3g_range(self):
        """Mean uplink in tens-to-hundreds of KB/s, with real variance."""
        trace = wuhan_trace()
        assert 30_000 < trace.mean < 500_000
        assert trace.coefficient_of_variation > 0.3

    def test_model_wraps(self):
        model = wuhan_bandwidth_model(duration=100, wrap=True)
        assert model.rate_at(0.0) == model.rate_at(100.0)

    def test_model_is_built_once_and_read_only(self):
        model = wuhan_bandwidth_model()
        assert wuhan_bandwidth_model() is model
        assert wuhan_bandwidth_model(20141208, duration=7200, wrap=True) is model
        assert wuhan_bandwidth_model(wrap=False) is not model
        assert model.samples == tuple(wuhan_trace().samples)
        with pytest.raises(TypeError):
            model.samples[0] = 0.0

    def test_distinct_arguments_build_distinct_models(self):
        """The memo keys on every argument: another seed or duration is
        its own trace, and each shared model equals a fresh build."""
        for seed, duration in ((20141208, 7200), (7, 7200), (20141208, 600)):
            model = wuhan_bandwidth_model(seed, duration=duration)
            fresh = wuhan_trace(seed, duration=duration).to_model()
            assert model is not fresh
            assert model.samples == fresh.samples
        assert wuhan_bandwidth_model(7).samples != wuhan_bandwidth_model().samples
        assert len(wuhan_bandwidth_model(duration=600).samples) == 600

    def test_validation(self):
        with pytest.raises(ValueError):
            wuhan_trace(duration=0)
        with pytest.raises(ValueError):
            wuhan_trace(bus_fraction=1.5)
