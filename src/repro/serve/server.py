"""The ``etrain serve`` daemon: NDJSON TCP, sessions, micro-batching.

Three layers, separable for testing:

* :class:`ServeApp` — transport-free request handling.  ``handle(dict)
  -> dict`` owns the op dispatch (hello/open/event/close/batch), the
  session store, and the error mapping; the equivalence and golden
  tests drive it directly, so protocol behaviour is pinned without
  sockets.  ``handle_batch`` additionally *coalesces* adjacent ``batch``
  requests with the same configuration and contiguous device ranges
  into one vectorized fleet-kernel call (see docs/serving.md), then
  answers each request with its own device slice.
* :class:`EtrainServer` — the asyncio shell.  Each connection feeds an
  incremental NDJSON decoder (:class:`repro.workload.trace_io
  .NdjsonDecoder`, shared with the trace reader, so a frame split
  across TCP reads can never mis-parse); decoded frames pass admission
  control (:class:`repro.serve.batcher.Inbox`) and are drained by a
  single processor task in micro-batches, which keeps per-frame
  event-loop overhead amortised under concurrent load.  Shed frames
  are answered immediately with a retryable ``overloaded`` error.
* :func:`run_serve` — the blocking CLI entry.

Ordering guarantees: frames from one connection are processed in the
order received (single FIFO inbox, single processor), so a client that
streams a device's events down one connection observes the engine's
exact slot ordering.  Responses to one connection are written in
processing order; shed responses may overtake queued ones — they carry
``retry_after`` precisely so the client can tell.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.serve.batcher import Inbox
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    SERVER_NAME,
    ProtocolError,
    encode_frame,
    error_response,
    tx_to_wire,
)
from repro.serve.sessions import DeviceSession, SessionStore, profiles_from_specs

__all__ = ["ServeConfig", "ServeApp", "EtrainServer", "run_serve"]

#: Bandwidth model of requests that name none.
DEFAULT_BANDWIDTH = "wuhan"
#: Bytes per socket read.
READ_CHUNK = 65536
#: Per-``batch``-request device cap (bounds one kernel call's memory).
BATCH_DEVICES_MAX = 16384


@dataclass
class ServeConfig:
    """Tunables for one server instance (defaults suit tests and CI)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, resolved after start()
    max_sessions: int = 4096
    inbox_capacity: int = 8192
    inbox_watermark: Optional[int] = None  # None = no soft limit below capacity
    batch_max: int = 256
    #: When set, a second listener serves ``GET /`` with a JSON metrics
    #: snapshot (0 = ephemeral).  ``None`` disables introspection.
    metrics_port: Optional[int] = None


class ServeApp:
    """Transport-independent request handler over a session store."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.store = SessionStore(self.config.max_sessions)
        self._table_cache: Dict[Tuple[object, float], object] = {}
        self.requests = 0
        self.errors = 0

    # -- op dispatch ---------------------------------------------------

    def handle(self, request: object) -> Dict:
        """One request frame in, one response frame out.  Never raises."""
        self.requests += 1
        if not isinstance(request, dict):
            self.errors += 1
            return error_response(
                None,
                ProtocolError("bad_frame", "request frame must be a JSON object"),
                {},
            )
        op = request.get("op")
        try:
            if op == "hello":
                response = self._hello()
            elif op == "open":
                response = self._open(request)
            elif op == "event":
                response = self._event(request)
            elif op == "close":
                response = self._close(request)
            elif op == "batch":
                response = self._run_batch_group([self._parse_batch(request)])[0]
            else:
                raise ProtocolError("unknown_op", f"unknown op {op!r}")
        except ProtocolError as exc:
            self.errors += 1
            return error_response(op if isinstance(op, str) else None, exc, request)
        if "id" in request:
            response["id"] = request["id"]
        return response

    def handle_batch(self, requests: List[object]) -> List[Dict]:
        """Handle one micro-batch, preserving request order.

        Adjacent ``batch`` requests that share a configuration (strategy,
        params, horizon, seed, bandwidth, power model) and cover
        *contiguous* device ranges are fused into one vectorized kernel
        call; each request is then answered with its own device slice —
        bit-identical to serving it alone, because the fleet engine's
        devices never interact and the workload RNG is keyed by absolute
        device index.  Everything else goes through :meth:`handle`
        one frame at a time.
        """
        responses: List[Optional[Dict]] = [None] * len(requests)
        i = 0
        while i < len(requests):
            request = requests[i]
            if not (isinstance(request, dict) and request.get("op") == "batch"):
                responses[i] = self.handle(request)
                i += 1
                continue
            self.requests += 1
            try:
                parsed = [self._parse_batch(request)]
            except ProtocolError as exc:
                self.errors += 1
                responses[i] = error_response("batch", exc, request)
                i += 1
                continue
            j = i + 1
            while j < len(requests):
                nxt = requests[j]
                if not (isinstance(nxt, dict) and nxt.get("op") == "batch"):
                    break
                try:
                    candidate = self._parse_batch(nxt)
                except ProtocolError:
                    break  # let the per-frame path report it
                prev = parsed[-1]
                if candidate["key"] != prev["key"] or candidate[
                    "offset"
                ] != prev["offset"] + prev["devices"]:
                    break
                parsed.append(candidate)
                self.requests += 1
                j += 1
            try:
                group = self._run_batch_group(parsed)
            except ProtocolError as exc:
                self.errors += len(parsed)
                group = [
                    error_response("batch", exc, p["request"]) for p in parsed
                ]
            for k, response in zip(range(i, j), group):
                if "id" in requests[k]:
                    response["id"] = requests[k]["id"]
                responses[k] = response
            i = j
        return responses

    # -- ops -----------------------------------------------------------

    def _hello(self) -> Dict:
        from repro.sim.parallel.specs import STRATEGY_BUILDERS, vector_strategies

        return {
            "ok": True,
            "op": "hello",
            "proto": PROTOCOL_VERSION,
            "server": SERVER_NAME,
            "strategies": sorted(STRATEGY_BUILDERS),
            "scalar_fallback": sorted(
                set(STRATEGY_BUILDERS) - set(vector_strategies())
            ),
            "sessions": len(self.store),
        }

    def _open(self, request: Dict) -> Dict:
        device = self._device(request)
        strategy = request.get("strategy", "etrain")
        if not isinstance(strategy, str):
            raise ProtocolError("bad_request", f"strategy must be a string, got {strategy!r}")
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise ProtocolError("bad_request", f"params must be an object, got {params!r}")
        apps = request.get("apps")
        profiles = None
        if apps is not None:
            if not isinstance(apps, list):
                raise ProtocolError("bad_request", "apps must be a list of app specs")
            profiles = profiles_from_specs(apps)
        session = DeviceSession(
            device,
            strategy=strategy,
            params=params,
            horizon=self._number(request, "horizon", 7200.0),
            slot=self._number(request, "slot", 1.0),
            power_model=self._power_model(request.get("power_model")),
            bandwidth=self._bandwidth(request.get("bandwidth")),
            profiles=profiles,
        )
        evicted = self.store.put(device, session)
        response = {
            "ok": True,
            "op": "open",
            "device": device,
            "strategy": strategy,
            "horizon": session.horizon,
            "slot": session.slot,
            "n_slots": session.sim.n_slots,
        }
        if evicted is not None:
            response["evicted"] = evicted
        return response

    def _event(self, request: Dict) -> Dict:
        device = self._device(request)
        session = self.store.get(device)
        kind = request.get("kind")
        t = request.get("t")
        if kind == "cargo":
            txs, decisions = session.on_cargo(
                t,
                request.get("app"),
                request.get("size", 0),
                deadline=request.get("deadline"),
                direction=request.get("direction", "up"),
            )
        elif kind == "hb":
            txs, decisions = session.on_heartbeat(
                t,
                request.get("app"),
                request.get("seq", 0),
                request.get("size", 0),
            )
        else:
            raise ProtocolError(
                "bad_event", f"event kind must be 'cargo' or 'hb', got {kind!r}"
            )
        return {
            "ok": True,
            "op": "event",
            "device": device,
            "t": session._watermark,
            "decisions": decisions,
            "tx": [tx_to_wire(r) for r in txs],
            "held": len(session.sim.held),
        }

    def _close(self, request: Dict) -> Dict:
        from repro.sim.fleet.reference import summarize_scalar_result

        device = self._device(request)
        session = self.store.get(device)  # surfaces unknown_device before pop
        result, txs, _ = session.close()
        self.store.pop(device)
        return {
            "ok": True,
            "op": "close",
            "device": device,
            "decisions": result.decisions,
            "tx": [tx_to_wire(r) for r in txs],
            "flushed": result.flushed_packets,
            "summary": result.summary(),
            "fleet": summarize_scalar_result(result, session.profiles).to_dict(),
        }

    # -- the bulk op: whole device ranges through the fleet kernel ------

    def _parse_batch(self, request: Dict) -> Dict:
        """Validate one ``batch`` request into a normalized group entry.

        ``key`` is the coalescing identity: two parsed requests with
        equal keys and contiguous device ranges may be fused into one
        kernel call.
        """
        from repro.sim.fleet.spec import fleet_supports
        from repro.sim.parallel.specs import STRATEGY_BUILDERS, bind_strategy_params

        strategy = request.get("strategy", "etrain")
        if not isinstance(strategy, str) or strategy not in STRATEGY_BUILDERS:
            raise ProtocolError(
                "bad_request",
                f"unknown strategy {strategy!r}; known: {sorted(STRATEGY_BUILDERS)}",
            )
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise ProtocolError(
                "bad_request", f"params must be an object, got {params!r}"
            )
        power_name = request.get("power_model") or "galaxy_s4_3g"
        self._power_model(power_name)  # validates the name
        bw_spec = request.get("bandwidth")
        if bw_spec is None:
            bw_spec = {"kind": DEFAULT_BANDWIDTH}
        channel = self._channel_ident(self._bandwidth(bw_spec))  # validates
        try:
            # Bound over the defaults, so equal configurations spelled
            # differently share a key and coalesce.
            params = bind_strategy_params(strategy, params)
            vectorized = fleet_supports(
                strategy, params, power_model=power_name, bandwidth=bw_spec["kind"]
            )
        except ValueError as exc:
            raise ProtocolError("bad_params", str(exc))
        if not vectorized:
            raise ProtocolError(
                "scalar_only",
                f"strategy {strategy!r} with these params and power model "
                "has no vectorized fleet kernel; open per-device sessions instead",
            )
        devices = self._int(request, "devices", None, minimum=1)
        if devices > BATCH_DEVICES_MAX:
            raise ProtocolError(
                "bad_request",
                f"devices {devices} above the per-request cap "
                f"{BATCH_DEVICES_MAX}; split into ranges "
                "(contiguous ranges coalesce server-side)",
            )
        offset = self._int(request, "device_offset", 0, minimum=0)
        horizon = self._number(request, "horizon", 7200.0)
        if horizon <= 0:
            raise ProtocolError("bad_request", f"horizon must be > 0, got {horizon}")
        seed = self._int(request, "seed", 0, minimum=0)
        params_key = tuple(sorted(params.items()))
        return {
            "request": request,
            "key": (strategy, params_key, horizon, seed, channel, power_name),
            "strategy": strategy,
            "params": params,
            "devices": devices,
            "offset": offset,
            "horizon": horizon,
            "seed": seed,
            "bw_spec": bw_spec,
            "power_model": power_name,
        }

    @staticmethod
    def _channel_ident(model):
        """The resolved channel a bandwidth spec names, as a dict key.

        Not the client's spelling of it: named models are shared per
        process, so the object itself (held by the key, so its identity
        stays unique) names the channel.
        """
        from repro.bandwidth.models import ConstantBandwidth

        if isinstance(model, ConstantBandwidth):
            return ("constant", model.rate)
        return model

    def _channel_table(self, bw_spec: Dict, horizon: float):
        from repro.sim.fleet.channel import ChannelTable

        model = self._bandwidth(bw_spec)
        key = (self._channel_ident(model), float(horizon))
        table = self._table_cache.get(key)
        if table is None:
            if len(self._table_cache) >= 8:
                self._table_cache.clear()
            table = ChannelTable.from_model(model, horizon)
            self._table_cache[key] = table
        return table

    def _run_batch_group(self, parsed: List[Dict]) -> List[Dict]:
        """One fused kernel call over a coalesced run of batch requests.

        ``parsed`` entries share a config key and cover contiguous device
        ranges; responses come back in request order, each summarizing
        its own range (ids are attached by the caller).
        """
        from repro.sim.fleet.accounting import summarize_chunk
        from repro.sim.fleet.engine import simulate_fleet_chunk, slice_chunk_raw
        from repro.sim.fleet.workload import synthesize_fleet

        base = parsed[0]
        total = sum(p["devices"] for p in parsed)
        workload = synthesize_fleet(
            total,
            base["horizon"],
            seed=base["seed"],
            device_offset=base["offset"],
        )
        table = self._channel_table(base["bw_spec"], base["horizon"])
        pm = self._power_model(base["power_model"])
        raw = simulate_fleet_chunk(
            workload,
            table,
            strategy=base["strategy"],
            params=base["params"],
            power_model=pm,
        )
        responses: List[Dict] = []
        lo = 0
        for p in parsed:
            hi = lo + p["devices"]
            summary = summarize_chunk(slice_chunk_raw(raw, lo, hi), pm)
            responses.append(
                {
                    "ok": True,
                    "op": "batch",
                    "strategy": p["strategy"],
                    "devices": p["devices"],
                    "device_offset": p["offset"],
                    "horizon": p["horizon"],
                    "seed": p["seed"],
                    "coalesced": len(parsed),
                    "packets": summary.packets,
                    "bursts": summary.bursts,
                    "fleet": summary.to_dict(),
                }
            )
            lo = hi
        self._count_batch(total, len(parsed))
        return responses

    @staticmethod
    def _count_batch(devices: int, coalesced: int) -> None:
        from repro.obs.metrics import current_registry

        registry = current_registry()
        if registry is None:
            return
        registry.counter("serve.batch_devices").inc(devices)
        registry.counter("serve.batch_requests").inc(coalesced)
        if coalesced > 1:
            registry.counter("serve.batch_coalesced").inc(coalesced)

    # -- request parsing helpers ---------------------------------------

    @staticmethod
    def _device(request: Dict) -> str:
        device = request.get("device")
        if not isinstance(device, str) or not device:
            raise ProtocolError(
                "bad_request", f"device must be a non-empty string, got {device!r}"
            )
        return device

    @staticmethod
    def _number(request: Dict, field: str, default: float) -> float:
        value = request.get(field, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError(
                "bad_request", f"{field} must be a number, got {value!r}"
            )
        return float(value)

    @staticmethod
    def _int(
        request: Dict, field: str, default: Optional[int], *, minimum: int
    ) -> int:
        value = request.get(field, default)
        if value is None:
            raise ProtocolError("bad_request", f"{field} is required")
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(
                "bad_request", f"{field} must be an integer, got {value!r}"
            )
        if value < minimum:
            raise ProtocolError(
                "bad_request", f"{field} must be >= {minimum}, got {value}"
            )
        return value

    @staticmethod
    def _power_model(name: Optional[str]):
        if name is None:
            return None
        from repro.sim.parallel.specs import POWER_MODELS

        if name not in POWER_MODELS:
            raise ProtocolError(
                "bad_request",
                f"unknown power model {name!r}; known: {sorted(POWER_MODELS)}",
            )
        return POWER_MODELS[name]

    def _bandwidth(self, spec: Optional[Dict]):
        if spec is None:
            spec = {"kind": DEFAULT_BANDWIDTH}
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ProtocolError(
                "bad_request", f"bandwidth must be an object with 'kind', got {spec!r}"
            )
        kind = spec["kind"]
        if kind == "wuhan":
            from repro.bandwidth.synth import wuhan_bandwidth_model

            return wuhan_bandwidth_model()  # one shared model per process
        if kind == "constant":
            from repro.bandwidth.models import ConstantBandwidth

            rate = spec.get("rate")
            if isinstance(rate, bool) or not isinstance(rate, (int, float)) or rate <= 0:
                raise ProtocolError(
                    "bad_request", f"constant bandwidth needs rate > 0, got {rate!r}"
                )
            return ConstantBandwidth(float(rate))
        raise ProtocolError(
            "bad_request",
            f"unknown bandwidth kind {kind!r}; known: ['constant', 'wuhan']",
        )


class _Connection:
    """Per-connection bookkeeping: writer + frames still in flight."""

    __slots__ = ("writer", "outstanding", "closed")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.outstanding = 0
        self.closed = False

    def send(self, payload: bytes) -> None:
        if not self.closed:
            try:
                self.writer.write(payload)
            except (ConnectionError, RuntimeError):
                self.closed = True


class EtrainServer:
    """Asyncio NDJSON TCP front-end around a :class:`ServeApp`."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.app = ServeApp(self.config)
        self.inbox = Inbox(
            capacity=self.config.inbox_capacity,
            watermark=self.config.inbox_watermark,
        )
        self.host = self.config.host
        self.port = self.config.port
        self.metrics_port: Optional[int] = None  # resolved after start()
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._processor: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None

    async def start(self) -> None:
        """Bind, resolve the ephemeral port, and start the processor."""
        self._wake = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._on_metrics_connection,
                self.config.host,
                self.config.metrics_port,
            )
            self.metrics_port = self._metrics_server.sockets[0].getsockname()[1]
        self._processor = asyncio.create_task(self._process_loop())

    async def stop(self) -> None:
        if self._processor is not None:
            self._processor.cancel()
            try:
                await self._processor
            except asyncio.CancelledError:
                pass
            self._processor = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- connection handling -------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        from repro.workload.trace_io import NdjsonDecoder

        conn = _Connection(writer)
        decoder = NdjsonDecoder()
        try:
            while True:
                data = await reader.read(READ_CHUNK)
                if not data:
                    break
                self._ingest(conn, decoder.feed(data))
            # A final unterminated line is still a complete request once
            # the peer half-closes — flush and serve it.
            self._ingest(conn, decoder.flush())
            while conn.outstanding > 0:
                await asyncio.sleep(0)
            try:
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        finally:
            conn.closed = True
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    def _ingest(self, conn: _Connection, frames) -> None:
        """Admit decoded frames; answer shed/undecodable ones in place."""
        assert self._wake is not None
        for frame in frames:
            if frame.is_blank:
                continue
            if frame.error is not None or not isinstance(frame.obj, dict):
                detail = (
                    "frame is not valid JSON"
                    if frame.error is not None
                    else "request frame must be a JSON object"
                )
                conn.send(
                    encode_frame(
                        error_response(None, ProtocolError("bad_frame", detail), {})
                    )
                )
                continue
            if not self.inbox.offer((conn, frame.obj)):
                conn.send(
                    encode_frame(
                        error_response(
                            frame.obj.get("op")
                            if isinstance(frame.obj.get("op"), str)
                            else None,
                            ProtocolError(
                                "overloaded",
                                f"inbox at watermark ({self.inbox.watermark})",
                                retryable=True,
                                retry_after=self.inbox.retry_after(),
                            ),
                            frame.obj,
                        )
                    )
                )
                continue
            conn.outstanding += 1
            self._wake.set()

    # -- introspection: one-shot HTTP metrics snapshots -----------------

    def metrics_snapshot(self) -> Dict:
        """Point-in-time counters for the metrics endpoint (and tests)."""
        from repro.obs.metrics import current_registry

        registry = current_registry()
        return {
            "server": SERVER_NAME,
            "proto": PROTOCOL_VERSION,
            "sessions": len(self.app.store),
            "inbox": {
                "backlog": self.inbox.backlog,
                "capacity": self.inbox.capacity,
                "watermark": self.inbox.watermark,
                "accepted": self.inbox.accepted,
                "shed": self.inbox.shed,
            },
            "requests": self.app.requests,
            "errors": self.app.errors,
            "metrics": registry.to_dict() if registry is not None else {},
        }

    async def _on_metrics_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.1: any ``GET`` gets the JSON snapshot.

        Hand-rolled on purpose — the endpoint answers ``curl`` and
        dashboards without pulling an HTTP framework into the tree.  The
        request head is read to its blank line and discarded (no routing:
        every path returns the same document), the response closes the
        connection.
        """
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=5.0
            )
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                asyncio.TimeoutError, ConnectionError):
            writer.close()
            return
        method = head.split(b" ", 1)[0].upper()
        if method == b"GET":
            body = json.dumps(
                self.metrics_snapshot(), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            status = b"200 OK"
        else:
            body = b'{"error":"method not allowed; GET only"}'
            status = b"405 Method Not Allowed"
        try:
            writer.write(
                b"HTTP/1.1 " + status + b"\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    # -- the processor: micro-batched drain ----------------------------

    async def _process_loop(self) -> None:
        assert self._wake is not None
        metrics = self._metrics()
        while True:
            await self._wake.wait()
            self._wake.clear()
            while len(self.inbox) > 0:
                batch: List[Tuple[_Connection, Dict]] = self.inbox.drain(
                    self.config.batch_max
                )
                # One app call for the whole micro-batch: adjacent
                # same-config bulk requests fuse into single vectorized
                # kernel calls; responses come back in request order.
                # Coalesce each connection's responses into one write.
                responses = self.app.handle_batch([req for _, req in batch])
                per_conn: Dict[int, Tuple[_Connection, List[bytes]]] = {}
                for (conn, _), response in zip(batch, responses):
                    entry = per_conn.get(id(conn))
                    if entry is None:
                        entry = per_conn[id(conn)] = (conn, [])
                    entry[1].append(encode_frame(response))
                    conn.outstanding -= 1
                for conn, payloads in per_conn.values():
                    conn.send(b"".join(payloads))
                if metrics is not None:
                    metrics["frames"].inc(len(batch))
                    metrics["batches"].inc()
                # Yield so readers can refill the inbox — this is what
                # turns concurrent arrivals into the next micro-batch.
                await asyncio.sleep(0)

    @staticmethod
    def _metrics():
        from repro.obs.metrics import current_registry

        registry = current_registry()
        if registry is None:
            return None
        return {
            "frames": registry.counter("serve.frames"),
            "batches": registry.counter("serve.batches"),
        }


def run_serve(config: Optional[ServeConfig] = None) -> int:
    """Blocking entry point for ``etrain serve`` (Ctrl-C to stop)."""
    from repro.obs.metrics import metrics_scope

    config = config or ServeConfig()

    async def _main() -> None:
        server = EtrainServer(config)
        await server.start()
        print(
            f"{SERVER_NAME} proto={PROTOCOL_VERSION} "
            f"listening on {server.host}:{server.port}",
            flush=True,
        )
        if server.metrics_port is not None:
            print(
                f"{SERVER_NAME} metrics on "
                f"http://{server.host}:{server.metrics_port}/",
                flush=True,
            )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        # A live registry makes serve.frames / serve.batches exist for
        # the metrics endpoint even before the first snapshot request.
        with metrics_scope():
            asyncio.run(_main())
    except KeyboardInterrupt:
        print(f"{SERVER_NAME}: shutting down", flush=True)
    return 0
