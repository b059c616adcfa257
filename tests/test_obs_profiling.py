"""Unit tests for :class:`repro.obs.profiling.PhaseProfiler`."""

import pytest

from repro.obs import PhaseProfiler


class TestPhaseProfiler:
    def test_phase_accumulates_wall_cpu_and_calls(self):
        prof = PhaseProfiler()
        for _ in range(3):
            with prof.phase("simulate"):
                sum(range(1000))
        table = prof.as_dict()
        assert list(table) == ["simulate"]
        slot = table["simulate"]
        assert slot["calls"] == 3
        assert slot["wall_s"] >= 0.0
        assert slot["cpu_s"] >= 0.0

    def test_add_accumulates_onto_a_timed_phase(self):
        prof = PhaseProfiler()
        with prof.phase("kernel"):
            pass
        before = prof.as_dict()["kernel"]
        prof.add("kernel", wall_s=0.5, cpu_s=0.25, calls=4)
        after = prof.as_dict()["kernel"]
        assert after["calls"] == before["calls"] + 4
        assert after["wall_s"] == pytest.approx(before["wall_s"] + 0.5)
        assert after["cpu_s"] == pytest.approx(before["cpu_s"] + 0.25)

    def test_add_defaults_to_one_call_and_no_cpu(self):
        prof = PhaseProfiler()
        prof.add("sweep", 1.5)
        assert prof.as_dict() == {
            "sweep": {"wall_s": 1.5, "cpu_s": 0.0, "calls": 1}
        }

    def test_as_dict_keeps_pipeline_order_and_returns_copies(self):
        prof = PhaseProfiler()
        for name in ("channel_publish", "simulate", "aggregate"):
            prof.add(name, 0.1)
        prof.add("channel_publish", 0.1)
        table = prof.as_dict()
        assert list(table) == ["channel_publish", "simulate", "aggregate"]
        table["simulate"]["calls"] = 99
        del table["aggregate"]
        fresh = prof.as_dict()
        assert fresh["simulate"]["calls"] == 1
        assert "aggregate" in fresh
        assert fresh["channel_publish"]["calls"] == 2

    def test_phase_is_recorded_when_the_block_raises(self):
        prof = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with prof.phase("publish"):
                raise RuntimeError("boom")
        assert prof.as_dict()["publish"]["calls"] == 1
