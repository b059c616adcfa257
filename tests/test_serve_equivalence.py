"""Server-vs-batch equivalence: the tentpole oracle of `repro.serve`.

Replaying a fleet workload's per-device event streams through the
serving stack must be *bit-identical* to the batch run of the same
arrays — same burst sequence (starts, durations, sizes, kinds, packet
ids), same decision counts, same per-device fleet aggregates — because
each session drives the batch engine's own resumable
:class:`~repro.sim.engine.Simulation`.  Checked three ways:

* in-process :class:`~repro.serve.server.ServeApp` replay vs the scalar
  batch engine for every registered strategy — exact equality,
  survives a JSON round-trip (canonical wire encoding);
* the merged serve aggregates vs the *vectorized* fleet engine at the
  fleet suite's own tolerance (rtol 1e-6), closing the triangle
  serve == scalar == vectorized;
* one strategy over real TCP against a live :class:`EtrainServer`,
  certifying that framing, admission control and micro-batching do not
  perturb the numbers.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.bandwidth.synth import wuhan_bandwidth_model
from repro.radio.power_model import GALAXY_S4_3G
from repro.serve.loadgen import device_frames
from repro.serve.server import EtrainServer, ServeApp, ServeConfig
from repro.sim.fleet.aggregate import FleetChunkSummary
from repro.sim.fleet.reference import (
    _device_scenario,
    reference_profiles,
    summarize_scalar_result,
)
from repro.sim.fleet.workload import synthesize_fleet
from repro.sim.parallel.specs import POWER_MODELS, STRATEGY_BUILDERS
from repro.sim.runner import run_strategy

pytestmark = pytest.mark.serve

#: Strategies certified bit-identical through per-device sessions: the
#: whole registry.  Sessions always run the scalar engine, so this
#: includes the event loop's skip accounting for strategies that decide
#: on a coarse grid (etime, 60 s) or ignore arrival wake-ups
#: (fixed_batch), and harvest_lazy's battery gating.
STRATEGIES = sorted(STRATEGY_BUILDERS)

_BW = wuhan_bandwidth_model()
_WORKLOAD = synthesize_fleet(3, 450.0, seed=7)
_PROFILES = reference_profiles(_WORKLOAD)


def batch_device_run(workload, device, strategy):
    """Ground truth: one device through the scalar batch engine."""
    scenario = _device_scenario(workload, device, _PROFILES, _BW, GALAXY_S4_3G)
    strat = STRATEGY_BUILDERS[strategy](scenario)
    return run_strategy(strat, scenario)


def tx_key(record):
    return (
        record.start,
        record.duration,
        record.size_bytes,
        record.kind,
        tuple(record.app_ids),
        tuple(record.packet_ids),
    )


def wire_tx_key(tx):
    return (
        tx["start"],
        tx["duration"],
        tx["size"],
        tx["kind"],
        tuple(tx["apps"]),
        tuple(tx["packet_ids"]),
    )


def replay_device(app, workload, device, strategy):
    """Drive one device's stream through a ServeApp; collect tx + close."""
    streamed = []
    close = None
    for frame in device_frames(workload, device, strategy=strategy):
        # Round-trip through the wire encoding: what a TCP client sees.
        response = json.loads(json.dumps(app.handle(frame)))
        assert response["ok"], response
        streamed.extend(wire_tx_key(tx) for tx in response.get("tx", []))
        if response["op"] == "close":
            close = response
    assert close is not None
    return streamed, close


class TestServeMatchesBatchScalar:
    def test_covers_the_registry(self):
        """Every strategy with a conformance row is served and checked."""
        from tests.strategy_conformance import FIXTURES

        assert STRATEGIES == sorted(f.name for f in FIXTURES)

    @pytest.mark.strategies
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_bit_identical_per_device(self, strategy):
        app = ServeApp(ServeConfig())
        merged = FleetChunkSummary()
        for device in range(_WORKLOAD.n_devices):
            batch = batch_device_run(_WORKLOAD, device, strategy)
            streamed, close = replay_device(app, _WORKLOAD, device, strategy)
            # Burst-for-burst: starts, durations, sizes, kinds, packet ids.
            assert streamed == [tx_key(r) for r in batch.records]
            assert close["decisions"] == batch.decisions
            assert close["summary"] == batch.summary()
            batch_fleet = summarize_scalar_result(batch, _PROFILES)
            assert close["fleet"] == json.loads(
                json.dumps(batch_fleet.to_dict())
            )
            merged = merged.merge(FleetChunkSummary.from_dict(close["fleet"]))
        # The store drained: every session was closed and removed.
        assert len(app.store) == 0
        assert merged.devices == _WORKLOAD.n_devices

    @pytest.mark.parametrize("strategy", ["etrain", "immediate"])
    def test_merged_aggregates_match_vectorized_fleet(self, strategy):
        from repro.sim.fleet.accounting import summarize_chunk
        from repro.sim.fleet.channel import ChannelTable
        from repro.sim.fleet.engine import simulate_fleet_chunk

        app = ServeApp(ServeConfig())
        merged = FleetChunkSummary()
        for device in range(_WORKLOAD.n_devices):
            _, close = replay_device(app, _WORKLOAD, device, strategy)
            merged = merged.merge(FleetChunkSummary.from_dict(close["fleet"]))
        table = ChannelTable.from_model(_BW, _WORKLOAD.horizon)
        raw = simulate_fleet_chunk(_WORKLOAD, table, strategy=strategy)
        vec = summarize_chunk(raw, GALAXY_S4_3G).summary()
        srv = merged.summary()
        for key in ("total_energy_j", "piggyback_ratio", "packets", "bursts"):
            np.testing.assert_allclose(srv[key], vec[key], rtol=1e-6)


class TestBatchOp:
    """The bulk decision path: ``batch`` frames vs the fleet engine.

    ISSUE 7 satellite: serve-vs-batch parity for the batched path —
    one ``batch`` request must return (modulo JSON round-trip) exactly
    the vectorized engine's chunk summary, coalesced ranges must answer
    bit-identically to serving each range alone, and the merged bulk
    aggregates must meet the scalar-session replay at the fleet suite's
    tolerance.
    """

    HORIZON = 450.0
    SEED = 7

    @staticmethod
    def _engine_summary(devices, strategy, device_offset=0):
        from repro.bandwidth.synth import wuhan_bandwidth_model as bw_model
        from repro.sim.fleet.accounting import summarize_chunk
        from repro.sim.fleet.channel import ChannelTable
        from repro.sim.fleet.engine import simulate_fleet_chunk

        w = synthesize_fleet(
            devices, TestBatchOp.HORIZON, TestBatchOp.SEED,
            device_offset=device_offset,
        )
        table = ChannelTable.from_model(bw_model(), TestBatchOp.HORIZON)
        raw = simulate_fleet_chunk(w, table, strategy=strategy)
        return summarize_chunk(raw, GALAXY_S4_3G)

    def _batch_frame(self, devices, offset=0, strategy="etrain"):
        return {
            "op": "batch",
            "strategy": strategy,
            "devices": devices,
            "device_offset": offset,
            "horizon": self.HORIZON,
            "seed": self.SEED,
        }

    def test_batch_matches_fleet_engine_exactly(self):
        app = ServeApp(ServeConfig())
        response = json.loads(
            json.dumps(app.handle(self._batch_frame(5)))
        )
        assert response["ok"], response
        assert response["coalesced"] == 1
        engine = self._engine_summary(5, "etrain")
        assert response["fleet"] == json.loads(json.dumps(engine.to_dict()))
        assert response["packets"] == engine.packets
        assert response["bursts"] == engine.bursts

    def test_coalesced_ranges_bit_identical_to_lone_requests(self):
        app = ServeApp(ServeConfig())
        split = [self._batch_frame(3, 0), self._batch_frame(2, 3)]
        fused = app.handle_batch([dict(f) for f in split])
        assert [r["coalesced"] for r in fused] == [2, 2]
        lone = [app.handle(dict(f)) for f in split]
        for f, l in zip(fused, lone):
            assert f["fleet"] == l["fleet"]
        # And each lone range is itself the engine run of that range.
        for f, (n, off) in zip(fused, ((3, 0), (2, 3))):
            assert f["fleet"] == self._engine_summary(n, "etrain", off).to_dict()
        # Merging the slices == merging standalone chunk runs (exact);
        # vs the unsplit 5-device chunk only the merge's association
        # order differs, so floats agree to round-off.
        merged = FleetChunkSummary.from_dict(fused[0]["fleet"]).merge(
            FleetChunkSummary.from_dict(fused[1]["fleet"])
        )
        standalone = self._engine_summary(3, "etrain", 0).merge(
            self._engine_summary(2, "etrain", 3)
        )
        assert merged.to_dict() == standalone.to_dict()
        whole = self._engine_summary(5, "etrain")
        assert merged.packets == whole.packets
        assert merged.bursts == whole.bursts
        assert merged.delay_sum == pytest.approx(whole.delay_sum, rel=1e-9)
        assert merged.energy_total_j == pytest.approx(
            whole.energy_total_j, rel=1e-9
        )

    @pytest.mark.parametrize(
        "first,second",
        [
            ({"params": {}}, {"params": {"theta": 0.2}}),
            ({}, {"power_model": "galaxy_s4_3g"}),
            (
                {"bandwidth": {"kind": "constant", "rate": 100000}},
                {"bandwidth": {"kind": "constant", "rate": 100000.0}},
            ),
        ],
        ids=["default-params", "default-power-model", "equal-channel"],
    )
    def test_equal_configurations_coalesce(self, first, second):
        """Fusion keys on the bound configuration, not its spelling:
        an omitted default and the same default spelled out fuse, and so
        do two spellings of one resolved channel."""
        app = ServeApp(ServeConfig())
        split = [
            dict(self._batch_frame(3, 0), **first),
            dict(self._batch_frame(2, 3), **second),
        ]
        fused = app.handle_batch([dict(f) for f in split])
        assert [r["coalesced"] for r in fused] == [2, 2]
        for f, frame in zip(fused, split):
            lone = app.handle(dict(frame))
            assert lone["coalesced"] == 1
            assert {k: v for k, v in f.items() if k != "coalesced"} == {
                k: v for k, v in lone.items() if k != "coalesced"
            }

    def test_batch_meets_scalar_sessions(self):
        """Close the triangle: bulk == engine == per-device sessions."""
        app = ServeApp(ServeConfig())
        bulk = app.handle(
            {
                "op": "batch",
                "strategy": "etrain",
                "devices": _WORKLOAD.n_devices,
                "horizon": _WORKLOAD.horizon,
                "seed": 7,
            }
        )
        merged = FleetChunkSummary()
        for device in range(_WORKLOAD.n_devices):
            _, close = replay_device(app, _WORKLOAD, device, "etrain")
            merged = merged.merge(FleetChunkSummary.from_dict(close["fleet"]))
        srv = merged.summary()
        blk = FleetChunkSummary.from_dict(bulk["fleet"]).summary()
        for key in ("total_energy_j", "piggyback_ratio", "packets", "bursts"):
            np.testing.assert_allclose(blk[key], srv[key], rtol=1e-6)

    def test_batch_runs_channel_aware(self):
        """channel_aware gained a fleet kernel (ISSUE 8), so the bulk
        path now serves it like any other vectorized strategy."""
        app = ServeApp(ServeConfig())
        response = app.handle(self._batch_frame(2, strategy="channel_aware"))
        assert response["ok"], response
        engine = self._engine_summary(2, "channel_aware")
        assert response["fleet"] == json.loads(json.dumps(engine.to_dict()))

    @pytest.mark.strategies
    @pytest.mark.parametrize("power_model", sorted(POWER_MODELS))
    def test_batch_runs_the_requested_power_model(self, power_model):
        """The kernel runs the radio the request names, so ``batch``
        equals ``run_fleet``; a promotion radio, which no kernel models,
        is refused as ``run_fleet`` would fall back."""
        from repro.sim.fleet import FleetSpec, run_fleet

        pm = POWER_MODELS[power_model]
        promotion = bool(pm.promotion_delay or pm.promotion_energy)
        assert promotion == (power_model == "galaxy_s4_fast_dormancy")
        app = ServeApp(ServeConfig())
        response = app.handle(dict(self._batch_frame(4), power_model=power_model))
        if promotion:
            assert response["error"]["code"] == "scalar_only"
            return
        assert response["ok"], response
        spec = FleetSpec.make(
            4, "etrain", horizon=self.HORIZON, seed=self.SEED,
            power_model=power_model, chunk_size=4,
        )
        fleet = run_fleet(spec).summary.to_dict()
        assert response["fleet"] == json.loads(json.dumps(fleet))

    @pytest.mark.strategies
    def test_batch_refuses_params_outside_the_kernel(self):
        app = ServeApp(ServeConfig())
        frame = dict(
            self._batch_frame(2, strategy="tailender"),
            params={"default_deadline": 30.0},
        )
        assert app.handle(frame)["error"]["code"] == "scalar_only"

    def test_batch_rejects_scalar_only_strategy(self):
        """A strategy without a fleet kernel is refused, never run
        through a hidden per-device loop."""
        app = ServeApp(ServeConfig())
        response = app.handle(self._batch_frame(2, strategy="lazy_circuit"))
        assert not response["ok"]
        assert response["error"]["code"] == "scalar_only"

    def test_mixed_micro_batch_answers_everything_in_order(self):
        app = ServeApp(ServeConfig())
        frames = [
            dict(self._batch_frame(2, 0), id=0),
            {"op": "hello", "id": 1},
            dict(self._batch_frame(2, 2), id=2),
        ]
        responses = app.handle_batch(frames)
        assert [r["id"] for r in responses] == [0, 1, 2]
        assert all(r["ok"] for r in responses)
        # The hello broke contiguity: no fusion across it.
        assert responses[0]["coalesced"] == 1
        assert responses[2]["coalesced"] == 1

    def test_bulk_loadgen_over_tcp(self):
        """Bulk frames through the live stack coalesce and aggregate."""
        from repro.serve.loadgen import LoadgenConfig, run_loadgen
        from repro.serve.server import EtrainServer

        async def _run():
            server = EtrainServer(ServeConfig())
            await server.start()
            try:
                return await run_loadgen(
                    LoadgenConfig(
                        port=server.port,
                        devices=4,
                        horizon=self.HORIZON,
                        seed=self.SEED,
                        bulk=True,
                        bulk_ranges=2,
                    )
                )
            finally:
                await server.stop()

        report = asyncio.run(_run())
        engine = self._engine_summary(4, "etrain")
        assert report["packets"] == engine.packets
        assert report["bursts"] == engine.bursts
        assert report["requests"] == 2


class TestServeOverTcp:
    def test_live_server_bit_identical(self):
        """The full stack — sockets, framing, inbox, batcher — changes nothing."""
        strategy = "etrain"

        async def replay_over_tcp():
            server = EtrainServer(ServeConfig())
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                out = {}
                for device in range(_WORKLOAD.n_devices):
                    frames = device_frames(_WORKLOAD, device, strategy=strategy)
                    for frame in frames:
                        writer.write(
                            (json.dumps(frame) + "\n").encode("utf-8")
                        )
                    await writer.drain()
                    streamed, close = [], None
                    buf = b""
                    got = 0
                    while got < len(frames):
                        data = await reader.read(65536)
                        assert data, "server closed early"
                        buf += data
                        *lines, buf = buf.split(b"\n")
                        for line in lines:
                            response = json.loads(line)
                            assert response["ok"], response
                            got += 1
                            streamed.extend(
                                wire_tx_key(tx)
                                for tx in response.get("tx", [])
                            )
                            if response["op"] == "close":
                                close = response
                    out[device] = (streamed, close)
                writer.close()
                await writer.wait_closed()
                return out
            finally:
                await server.stop()

        by_device = asyncio.run(replay_over_tcp())
        for device in range(_WORKLOAD.n_devices):
            batch = batch_device_run(_WORKLOAD, device, strategy)
            streamed, close = by_device[device]
            assert streamed == [tx_key(r) for r in batch.records]
            assert close["decisions"] == batch.decisions
            assert close["summary"] == json.loads(
                json.dumps(batch.summary())
            )


    def test_half_close_gets_every_response_in_order(self):
        """A client that sends a bulk batch plus session events and then
        half-closes still reads every response, in request order, before
        the server closes its side."""
        batch = {"op": "batch", "strategy": "etrain", "devices": 256,
                 "horizon": 450.0, "seed": 7, "id": 0}
        frames = [batch] + [
            dict(frame, id=i)
            for i, frame in enumerate(
                device_frames(_WORKLOAD, 0, strategy="etrain"), start=1
            )
        ]

        async def _run():
            server = EtrainServer(ServeConfig())
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b"".join((json.dumps(f) + "\n").encode("utf-8") for f in frames)
                )
                await writer.drain()
                writer.write_eof()
                raw = await asyncio.wait_for(reader.read(), timeout=60.0)
                writer.close()
                await writer.wait_closed()
                return [json.loads(line) for line in raw.splitlines()]
            finally:
                await server.stop()

        responses = asyncio.run(_run())
        assert [r.get("id") for r in responses] == list(range(len(frames)))
        assert all(r["ok"] for r in responses), responses
        alone = ServeApp(ServeConfig()).handle(dict(batch))
        assert responses[0]["fleet"] == json.loads(json.dumps(alone["fleet"]))


class TestMetricsEndpoint:
    """The ``--metrics-port`` introspection listener (plain HTTP GET)."""

    def test_snapshot_reflects_served_traffic(self):
        from repro.obs.metrics import MetricsRegistry, metrics_scope

        async def _run():
            server = EtrainServer(ServeConfig(metrics_port=0))
            await server.start()
            try:
                assert server.metrics_port not in (None, 0)
                # Serve one frame so the counters have something to say.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b'{"op": "hello"}\n')
                await writer.drain()
                assert json.loads(await reader.readline())["ok"]
                writer.close()
                await writer.wait_closed()

                # A GET from a plain socket speaking minimal HTTP/1.1.
                mr, mw = await asyncio.open_connection(
                    "127.0.0.1", server.metrics_port
                )
                mw.write(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
                await mw.drain()
                raw = await mr.read()
                mw.close()
                await mw.wait_closed()

                # And a non-GET is refused without a snapshot.
                pr, pw = await asyncio.open_connection(
                    "127.0.0.1", server.metrics_port
                )
                pw.write(b"POST / HTTP/1.1\r\nHost: x\r\n\r\n")
                await pw.drain()
                refused = await pr.read()
                pw.close()
                await pw.wait_closed()
                return raw, refused
            finally:
                await server.stop()

        with metrics_scope(MetricsRegistry()):
            raw, refused = asyncio.run(_run())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"Content-Type: application/json" in head
        snapshot = json.loads(body)
        assert snapshot["requests"] == 1
        assert snapshot["errors"] == 0
        assert snapshot["sessions"] == 0
        assert snapshot["inbox"]["accepted"] == 1
        assert snapshot["inbox"]["shed"] == 0
        assert snapshot["inbox"]["backlog"] == 0
        assert snapshot["metrics"]["serve.frames"]["value"] == 1.0
        assert refused.startswith(b"HTTP/1.1 405")

    def test_disabled_by_default(self):
        async def _run():
            server = EtrainServer(ServeConfig())
            await server.start()
            try:
                return server.metrics_port
            finally:
                await server.stop()

        assert asyncio.run(_run()) is None

    def test_cli_flag_reaches_the_config(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(["--metrics-port", "9100"])
        assert args.metrics_port == 9100
        assert build_serve_parser().parse_args([]).metrics_port is None
