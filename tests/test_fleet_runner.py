"""FleetSpec / FleetChunkSpec / run_fleet: executor integration.

Fleet chunks ride the generic experiment executor as just another job
type (duck-typed ``run_in_worker``), so everything the executor promises
— caching keyed on content hashes, worker-pool equivalence, progress —
must hold for them too.  Plus the transparent scalar fallback for
strategies the vectorized engine does not cover (peres etc.).
"""

import dataclasses
import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.sim.fleet.aggregate import FleetChunkSummary
from repro.sim.fleet.channel import ChannelTable, SharedChannel
from repro.sim.fleet.runner import (
    FleetRunResult,
    _phase,
    peak_rss_bytes,
    run_fleet,
)
from repro.sim.fleet.spec import FleetChunkSpec, FleetSpec, fleet_supports
from repro.sim.parallel.executor import ExperimentExecutor
from repro.sim.parallel.specs import run_job

SMALL = dict(horizon=300.0, seed=0)


def small_spec(devices=6, chunk_size=3, strategy="etrain", **kw):
    return FleetSpec.make(
        devices, strategy, chunk_size=chunk_size, **{**SMALL, **kw}
    )


# ---------------------------------------------------------------------------
# fleet_supports
# ---------------------------------------------------------------------------


def test_fleet_supports_matrix():
    assert fleet_supports("etrain")
    assert fleet_supports("immediate")
    assert fleet_supports("periodic", {"period": 30.0})
    assert fleet_supports("tailender")
    # registry-vectorized baselines (ISSUE 7)
    assert fleet_supports("peres")
    assert fleet_supports("etime")
    assert fleet_supports("adaptive", {"target_delay": 30.0})
    assert fleet_supports("fixed_batch")
    # the last scalar-only strategy gained a kernel (ISSUE 8)
    assert fleet_supports("channel_aware")
    assert fleet_supports("channel_aware", {"quality_threshold": 1.5})
    # engine assumptions
    assert not fleet_supports("etrain", {"k": 3})
    assert not fleet_supports("etrain", {"slot": 0.5})
    assert not fleet_supports("etrain", power_model="galaxy_s4_fast_dormancy")
    assert not fleet_supports("etrain", bandwidth="nope")


# ---------------------------------------------------------------------------
# Spec hashing / shape
# ---------------------------------------------------------------------------


def test_chunk_specs_cover_fleet_exactly():
    spec = small_spec(devices=10, chunk_size=4)
    chunks = spec.chunk_specs()
    assert spec.n_chunks == 3
    assert [c.n_devices for c in chunks] == [4, 4, 2]
    assert [c.device_offset for c in chunks] == [0, 4, 8]
    assert all(c.strategy == "etrain" for c in chunks)
    assert chunks[0].tag == "etrain fleet chunk 1/3"


def test_chunk_hash_ignores_tag_and_channel():
    spec = small_spec()
    a = spec.chunk_specs()[0]
    b = dataclasses.replace(a, tag="renamed")
    table = ChannelTable.from_model(spec.bandwidth_model(), spec.horizon)
    shared = SharedChannel.publish(table)
    try:
        c = dataclasses.replace(a, channel=shared.handle)
        assert a.content_hash() == b.content_hash() == c.content_hash()
    finally:
        shared.close()
        shared.unlink()


def test_chunk_hash_sensitive_to_scenario():
    base = small_spec().chunk_specs()[0]
    for change in (
        {"seed": 1},
        {"horizon": 600.0},
        {"device_offset": 3},
        {"n_devices": 5},
        {"strategy": "immediate"},
        {"params": (("theta", 0.5),)},
        {"phase_mode": "random"},
    ):
        assert base.content_hash() != dataclasses.replace(
            base, **change
        ).content_hash(), change


def test_chunk_to_dict_is_json_safe_and_excludes_channel():
    chunk = small_spec().chunk_specs()[0]
    doc = json.loads(json.dumps(chunk.to_dict()))
    assert "channel" not in doc
    assert doc["n_devices"] == chunk.n_devices


def test_spec_validation():
    with pytest.raises(ValueError):
        FleetSpec.make(0)
    with pytest.raises(ValueError):
        FleetSpec.make(4, chunk_size=0)
    with pytest.raises(KeyError):
        FleetSpec.make(4, "not_a_strategy")
    with pytest.raises(ValueError):
        FleetSpec.make(4, phase_mode="sideways")


# ---------------------------------------------------------------------------
# run_fleet end to end
# ---------------------------------------------------------------------------


def test_run_fleet_serial_vectorized():
    result = run_fleet(small_spec())
    assert isinstance(result, FleetRunResult)
    assert result.vectorized
    assert result.chunks == 2
    assert result.summary.devices == 6
    assert result.summary.energy_total_j > 0
    assert result.devices_per_sec > 0
    assert "vectorized" in result.describe()


def test_run_fleet_chunking_invariant():
    whole = run_fleet(small_spec(devices=6, chunk_size=6)).summary
    split = run_fleet(small_spec(devices=6, chunk_size=2)).summary
    assert whole.devices == split.devices
    assert whole.packets == split.packets
    assert whole.energy_total_j == pytest.approx(
        split.energy_total_j, rel=1e-9
    )


def test_run_fleet_workers_match_serial():
    spec = small_spec(devices=4, chunk_size=2)
    serial = run_fleet(spec).summary
    pooled = run_fleet(spec, workers=2).summary
    assert pooled.devices == serial.devices
    assert pooled.energy_total_j == pytest.approx(serial.energy_total_j, rel=1e-12)
    assert pooled.delay_cost_sum == pytest.approx(serial.delay_cost_sum, rel=1e-12)


def test_run_fleet_publishes_the_channel_only_for_in_process_chunks(monkeypatch):
    # Lease workers get chunks over the wire without the shared-memory
    # handle, so a parallel run has no reader for a published table.
    published = []
    publish = SharedChannel.publish

    def counting_publish(table):
        published.append(table)
        return publish(table)

    monkeypatch.setattr(SharedChannel, "publish", counting_publish)
    spec = small_spec(devices=4, chunk_size=2)
    serial = run_fleet(spec)
    assert len(published) == 1
    parallel = run_fleet(spec, workers=2)
    assert len(published) == 1
    assert parallel.summary.to_dict() == serial.summary.to_dict()


def test_run_fleet_caches_chunks(tmp_path):
    spec = small_spec()
    cold = run_fleet(spec, cache_dir=tmp_path / "cache")
    warm = run_fleet(spec, cache_dir=tmp_path / "cache")
    assert cold.cached_chunks == 0
    assert warm.cached_chunks == warm.chunks == 2
    assert warm.summary.energy_total_j == pytest.approx(
        cold.summary.energy_total_j, rel=1e-12
    )


# ---------------------------------------------------------------------------
# phase timings: fleet.phase.* histograms in the executor's registry
# ---------------------------------------------------------------------------


def test_phase_observes_wall_and_cpu_and_accumulates_calls():
    registry = MetricsRegistry()
    for _ in range(3):
        with _phase(registry, "simulate"):
            sum(range(1000))
    metrics = registry.to_dict()
    assert set(metrics) == {"fleet.phase.simulate_s", "fleet.phase.simulate_cpu_s"}
    for name in metrics:
        assert metrics[name]["count"] == 3
        assert metrics[name]["sum"] >= 0.0


def test_phase_is_recorded_when_the_block_raises():
    registry = MetricsRegistry()
    with pytest.raises(RuntimeError):
        with _phase(registry, "channel_publish"):
            raise RuntimeError("boom")
    metrics = registry.to_dict()
    assert metrics["fleet.phase.channel_publish_s"]["count"] == 1
    assert metrics["fleet.phase.channel_publish_cpu_s"]["count"] == 1


def test_run_fleet_phases_are_a_view_of_the_phase_histograms():
    result = run_fleet(small_spec())
    table = result.phases
    assert list(table) == ["channel_publish", "simulate", "aggregate"]
    for name, slot in table.items():
        assert slot == {
            "wall_s": result.metrics[f"fleet.phase.{name}_s"]["sum"],
            "cpu_s": result.metrics[f"fleet.phase.{name}_cpu_s"]["sum"],
            "calls": 1,
        }
    # Each access builds a fresh table: mutating one leaves the run intact.
    table["simulate"]["calls"] = 99
    del table["aggregate"]
    assert result.phases["simulate"]["calls"] == 1
    assert "aggregate" in result.phases


def test_run_fleet_sub_phases_count_chunks_cold_and_warm(tmp_path):
    # The kernel's sub-phases are per-chunk job metrics, so a warm cache
    # replays them; the orchestration phases are observed once per run.
    spec = small_spec()
    cold = run_fleet(spec, cache_dir=tmp_path / "cache")
    warm = run_fleet(spec, cache_dir=tmp_path / "cache")
    assert warm.cached_chunks == warm.chunks == 2
    for result in (cold, warm):
        for sub in ("setup", "queue_updates", "decision", "heartbeats", "finalize"):
            assert result.metrics[f"fleet.phase.etrain.{sub}_s"]["count"] == 2
        assert all(slot["calls"] == 1 for slot in result.phases.values())
    rounds = "fleet.phase.etrain.rounds"
    assert cold.metrics[rounds]["value"] > 0
    assert warm.metrics[rounds] == cold.metrics[rounds]


def test_run_fleet_peres_vectorized():
    """peres moved off the scalar fallback when it gained a kernel."""
    result = run_fleet(small_spec(devices=2, chunk_size=2, strategy="peres"))
    assert result.vectorized
    assert result.summary.devices == 2
    assert result.summary.energy_total_j > 0


def test_run_fleet_channel_aware_vectorized():
    """channel_aware moved off the scalar fallback when it gained a
    kernel (ISSUE 8) — the last scalar-only strategy."""
    result = run_fleet(small_spec(devices=2, chunk_size=2, strategy="channel_aware"))
    assert result.vectorized
    assert result.summary.devices == 2
    assert result.summary.energy_total_j > 0


def test_run_fleet_scalar_fallback_visibility():
    """Configurations the engine can't cover (etrain with a k-limited
    drain) still run — and announce themselves via the
    fleet.scalar_fallback counter and a fleet_fallback trace event."""

    class Recorder:
        def __init__(self):
            self.events = []

        def emit(self, event):
            self.events.append(dict(event))

    recorder = Recorder()
    result = run_fleet(
        small_spec(devices=2, chunk_size=2, strategy="etrain", params={"k": 2}),
        recorder=recorder,
    )
    assert not result.vectorized
    assert result.summary.devices == 2
    assert result.metrics["fleet.scalar_fallback"]["value"] == result.chunks
    fallback = [e for e in recorder.events if e["ev"] == "fleet_fallback"]
    assert len(fallback) == 1
    assert fallback[0]["strategy"] == "etrain"
    assert fallback[0]["chunks"] == result.chunks


def test_chunk_spec_through_generic_run_job():
    """`run_job` dispatches any spec carrying run_in_worker — the hook the
    executor uses — without importing the fleet package itself."""
    chunk = small_spec(devices=2, chunk_size=2).chunk_specs()[0]
    summary = run_job(chunk)
    merged = FleetChunkSummary.from_dict(summary)
    assert merged.devices == 2


def test_executor_runs_fleet_chunks_directly():
    chunks = small_spec(devices=4, chunk_size=2).chunk_specs()
    results = ExperimentExecutor().run(chunks)
    assert len(results) == 2
    total = FleetChunkSummary.merge_all(
        [FleetChunkSummary.from_dict(r.summary) for r in results]
    )
    assert total.devices == 4


def test_peak_rss_positive():
    assert peak_rss_bytes() > 0
    assert peak_rss_bytes(include_children=False) > 0
