"""FleetSpec / FleetChunkSpec / run_fleet: executor integration.

Fleet chunks ride the generic experiment executor as just another job
type (duck-typed ``run_in_worker``), so everything the executor promises
— caching keyed on content hashes, worker-pool equivalence, progress —
must hold for them too.  Plus the transparent scalar fallback for
strategies the vectorized engine does not cover (peres etc.).
"""

import dataclasses
import hashlib
import json
import multiprocessing
import os
from multiprocessing import shared_memory

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.sim.fleet.aggregate import FleetChunkSummary
from repro.sim.fleet.channel import ChannelTable, SharedChannel, channel_table
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


def test_chunk_ignores_its_channel_handle(monkeypatch):
    chunk = small_spec().chunk_specs()[0]

    def refuse(handle):
        raise AssertionError("a chunk attached its channel handle")

    monkeypatch.setattr(SharedChannel, "attach", staticmethod(refuse))
    handled = dataclasses.replace(chunk, channel=object())
    assert handled.run_in_worker() == chunk.run_in_worker()


def test_content_hashes_are_pinned():
    """Journal run keys and ``--resume`` are built from these hashes, so
    the spec documents they digest must not drift."""
    specs = [
        FleetSpec.make(1024, "etrain", chunk_size=256, horizon=600.0, seed=3),
        FleetSpec.make(
            64, "periodic", params={"period": 30.0}, chunk_size=64, seed=0,
            rate=2.0, phase_mode="random", bandwidth="constant",
            bandwidth_rate=125000.0,
        ),
        FleetChunkSpec(
            strategy="etrain", params=(("theta", 0.5),), seed=7, horizon=1200.0,
            rate=1.5, n_devices=128, device_offset=256,
        ),
    ]
    assert [s.content_hash() for s in specs] == [
        "b8b7cab9fca208a69c29c0b9f865014a48bf124f378eed9e62f200f005f9c9a2",
        "ed81989f9fbf9921254b30113e3fc5a37dd5c820e4d6151e79e39008a0e681bc",
        "297a2e12fa7089643940c789a1a3f6da0f1ee35f8176a0b9f2384617203190db",
    ]


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


#: Canonical-JSON SHA-256 of ``run_fleet(FOUR_CHUNKS).summary.to_dict()``,
#: recorded when in-process runs still read a shared-memory table.
FOUR_CHUNKS = small_spec(devices=8, chunk_size=2)
FOUR_CHUNKS_SUMMARY = "95373aadc6fb73d4f8770a34d940c30689beaaf2c4b2b0b3b290d66cfbf8fc83"


def summary_digest(doc):
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.fixture
def no_shared_memory(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a production path created shared memory")

    monkeypatch.setattr(shared_memory, "SharedMemory", refuse)


@pytest.mark.parametrize("workers", [None, 2])
def test_run_fleet_creates_no_shared_memory(no_shared_memory, workers):
    result = run_fleet(FOUR_CHUNKS, workers=workers)
    assert result.chunks == 4
    assert summary_digest(result.summary.to_dict()) == FOUR_CHUNKS_SUMMARY


def test_run_fleet_builds_the_channel_table_once_per_process(monkeypatch):
    channel_table.cache_clear()
    real = ChannelTable.from_model.__func__
    built = []

    def counting(cls, model, horizon):
        built.append(horizon)
        return real(cls, model, horizon)

    monkeypatch.setattr(ChannelTable, "from_model", classmethod(counting))
    first = run_fleet(FOUR_CHUNKS)
    again = run_fleet(dataclasses.replace(FOUR_CHUNKS, devices=4, seed=1))
    assert first.chunks == 4 and again.chunks == 2
    assert built == [FOUR_CHUNKS.horizon]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="lease workers inherit the memo only when forked",
)
def test_forked_workers_inherit_the_warm_channel_table(monkeypatch):
    serial = run_fleet(FOUR_CHUNKS)  # warms this process's memo

    def refuse(cls, model, horizon):
        raise AssertionError("a forked worker rebuilt the channel table")

    monkeypatch.setattr(ChannelTable, "from_model", classmethod(refuse))
    forked = run_fleet(FOUR_CHUNKS, workers=2)
    assert forked.summary.to_dict() == serial.summary.to_dict()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="lease workers inherit the memo only when forked",
)
def test_cold_run_fleet_warms_the_table_before_forking(monkeypatch, tmp_path):
    serial = run_fleet(FOUR_CHUNKS)
    channel_table.cache_clear()
    log = tmp_path / "builds"
    real = ChannelTable.from_model.__func__

    def logging(cls, model, horizon):
        # Workers run in other processes, so every build is logged to a
        # file the parent reads back.
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real(cls, model, horizon)

    monkeypatch.setattr(ChannelTable, "from_model", classmethod(logging))
    forked = run_fleet(FOUR_CHUNKS, workers=2)
    assert forked.summary.to_dict() == serial.summary.to_dict()
    assert log.read_text().split() == [str(os.getpid())]


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
        with _phase(registry, "channel"):
            raise RuntimeError("boom")
    metrics = registry.to_dict()
    assert metrics["fleet.phase.channel_s"]["count"] == 1
    assert metrics["fleet.phase.channel_cpu_s"]["count"] == 1


def test_run_fleet_phases_are_a_view_of_the_phase_histograms():
    result = run_fleet(small_spec())
    table = result.phases
    assert list(table) == ["channel", "simulate", "aggregate"]
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
