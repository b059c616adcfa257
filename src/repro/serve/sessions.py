"""Per-device scheduling sessions and the O(1) session store.

A :class:`DeviceSession` is a thin protocol wrapper around one
resumable :class:`repro.sim.engine.Simulation` — the loop the batch run
of the same strategy uses.  The session checks each observation (closed
session, non-decreasing time, horizon, declared apps), feeds it to the
engine and finalizes every slot whose end is at or before the event
time: a later event cannot land in such a slot.  Closing the session
runs the engine's own finish step, so the finished session's
:class:`~repro.sim.results.SimulationResult` is the batch run's, bit for
bit.  Heartbeats sharing a timestamp must arrive in ``(app, seq)``
order, as the batch run merges them (``out_of_order`` otherwise).

Packet ids are session-local and sequential in arrival order, matching
the fleet reference path (``_device_scenario`` resets the global
counter per device), so burst ``packet_ids`` on the wire line up with
the batch run's.

The :class:`SessionStore` maps device id → session with O(1) lookup
(plain ordered dict) and LRU eviction that *never* drops a session
still owing cargo — a device with queued packets keeps its seat until
the packets are transmitted or the client closes it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bandwidth.models import BandwidthModel
from repro.core.packet import Heartbeat, Packet, TransmissionRecord
from repro.core.profiles import CargoAppProfile
from repro.radio.power_model import GALAXY_S4_3G, PowerModel
from repro.serve.protocol import ProtocolError
from repro.sim.engine import Simulation
from repro.sim.fleet.workload import COST_KINDS
from repro.sim.results import SimulationResult

__all__ = ["DeviceSession", "SessionStore", "profiles_from_specs"]

#: int cost-kind → cost-function class (inverse of the fleet mapping, so
#: wire specs and fleet workload arrays agree by construction).
COST_CLASSES = {kind: cls for cls, kind in COST_KINDS.items()}


def profiles_from_specs(apps: Sequence[Dict]) -> List[CargoAppProfile]:
    """Cargo profiles from wire app specs, fleet-reference semantics.

    Mirrors ``repro.sim.fleet.reference.reference_profiles``: cost shape
    and deadline round-trip exactly; size/interarrival means are
    nominal (the event stream already realizes them).
    """
    out = []
    for spec in apps:
        try:
            app_id = spec["app_id"]
            kind = int(spec["cost_kind"])
            deadline = float(spec["deadline"])
            cost_cls = COST_CLASSES[kind]
        except (KeyError, TypeError, ValueError):
            raise ProtocolError(
                "bad_app_spec",
                f"app spec must carry app_id/cost_kind/deadline, got {spec!r}",
            )
        out.append(
            CargoAppProfile(
                app_id=app_id,
                cost_function=cost_cls(deadline),
                mean_size_bytes=1000,
                min_size_bytes=1,
                deadline=deadline,
                mean_interarrival=60.0,
            )
        )
    return out


class DeviceSession:
    """One device's online scheduler: event stream in, decisions out."""

    def __init__(
        self,
        device: str,
        *,
        strategy: str = "etrain",
        params: Optional[Dict] = None,
        horizon: float = 7200.0,
        slot: float = 1.0,
        power_model: Optional[PowerModel] = None,
        bandwidth: Optional[BandwidthModel] = None,
        profiles: Optional[Sequence[CargoAppProfile]] = None,
    ) -> None:
        from repro.sim.parallel.specs import STRATEGY_BUILDERS, BuildScenario

        if horizon <= 0:
            raise ProtocolError("bad_request", f"horizon must be > 0, got {horizon}")
        if slot <= 0:
            raise ProtocolError("bad_request", f"slot must be > 0, got {slot}")
        if strategy not in STRATEGY_BUILDERS:
            raise ProtocolError(
                "unknown_strategy",
                f"unknown strategy {strategy!r}; known: {sorted(STRATEGY_BUILDERS)}",
            )
        if profiles is None:
            from repro.core.profiles import DEFAULT_CARGO_PROFILES

            profiles = DEFAULT_CARGO_PROFILES()
        self.device = device
        self.profiles = list(profiles)
        self.horizon = float(horizon)
        self.slot = float(slot)
        scenario = BuildScenario(self.profiles, bandwidth)
        try:
            strategy_obj = STRATEGY_BUILDERS[strategy](scenario, **(params or {}))
        except (TypeError, ValueError) as exc:
            raise ProtocolError("bad_params", f"{strategy}: {exc}")
        self.sim = Simulation(
            strategy_obj,
            (),
            (),
            power_model=power_model if power_model is not None else GALAXY_S4_3G,
            bandwidth=bandwidth,
            horizon=self.horizon,
            slot=self.slot,
        )
        self.closed = False
        self._app_ids = {p.app_id for p in self.profiles}
        self._next_packet_id = 0
        self._watermark = 0.0  # highest event time observed

    @property
    def packets(self) -> List[Packet]:
        """Cargo observed so far, in arrival order."""
        return self.sim.packets

    @property
    def pending_cargo(self) -> int:
        """Cargo the session still owes the radio (buffered + queued + Q_TX)."""
        return self.sim.pending_cargo

    # -- event intake --------------------------------------------------

    def _check_event(self, t: float) -> float:
        if self.closed:
            raise ProtocolError("session_closed", f"{self.device} already closed")
        try:
            t = float(t)
        except (TypeError, ValueError):
            raise ProtocolError("bad_event", f"event time must be a number, got {t!r}")
        if math.isnan(t):
            raise ProtocolError("bad_event", "event time must not be NaN")
        if t < self._watermark:
            raise ProtocolError(
                "out_of_order",
                f"event at t={t} behind session watermark {self._watermark}",
            )
        if t >= self.horizon:
            raise ProtocolError(
                "past_horizon", f"event at t={t} >= horizon {self.horizon}"
            )
        self._watermark = t
        return t

    def on_cargo(
        self,
        t: float,
        app: str,
        size: int,
        deadline: Optional[float] = None,
        direction: str = "up",
    ) -> Tuple[List[TransmissionRecord], int]:
        """A cargo packet arrived; returns (finalized bursts, decisions)."""
        t = self._check_event(t)
        if app not in self._app_ids:
            raise ProtocolError(
                "unknown_app", f"app {app!r} not declared in this session"
            )
        try:
            packet = Packet(
                app_id=app,
                arrival_time=t,
                size_bytes=int(size),
                deadline=None if deadline is None else float(deadline),
                packet_id=self._next_packet_id,
                direction=direction,
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError("bad_event", str(exc))
        self._next_packet_id += 1
        self.sim.feed_packets((packet,))
        return self._advance_until(t)

    def on_heartbeat(
        self, t: float, app: str, seq: int, size: int
    ) -> Tuple[List[TransmissionRecord], int]:
        """A heartbeat was observed; returns (finalized bursts, decisions)."""
        t = self._check_event(t)
        try:
            hb = Heartbeat(app_id=app, seq=int(seq), time=t, size_bytes=int(size))
        except (TypeError, ValueError) as exc:
            raise ProtocolError("bad_event", str(exc))
        try:
            self.sim.feed_heartbeats((hb,))
        except TypeError as exc:  # an app id that does not order
            raise ProtocolError("bad_event", str(exc))
        except ValueError as exc:  # same time, smaller (app, seq)
            raise ProtocolError("out_of_order", str(exc))
        return self._advance_until(t)

    def _advance_until(self, limit: float) -> Tuple[List[TransmissionRecord], int]:
        """Finalize every slot whose end is at or before ``limit``.

        Sound because event times never decrease: any later input has
        ``t >= limit``, so it lands in a slot the engine has not
        finalized yet.
        """
        sim = self.sim
        n0, d0 = len(sim.radio.records), sim.decisions
        sim.advance(limit)
        return sim.radio.records[n0:], sim.decisions - d0

    # -- end of session ------------------------------------------------

    def close(self) -> Tuple[SimulationResult, List[TransmissionRecord], int]:
        """Run out the horizon and force-flush, exactly like the engine.

        Returns the finished result plus the bursts and decision count
        this close finalized.
        """
        if self.closed:
            raise ProtocolError("session_closed", f"{self.device} already closed")
        sim = self.sim
        n0, d0 = len(sim.radio.records), sim.decisions
        result = sim.finish()
        self.closed = True
        return result, sim.radio.records[n0:], result.decisions - d0


class SessionStore:
    """Device id → session, O(1) lookup, pending-cargo-safe LRU eviction."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._sessions: "OrderedDict[str, DeviceSession]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, device: str) -> bool:
        return device in self._sessions

    def devices(self) -> List[str]:
        """Device ids, least-recently-used first."""
        return list(self._sessions)

    def get(self, device: str) -> DeviceSession:
        """Look up a session (and mark it most-recently-used)."""
        try:
            session = self._sessions[device]
        except KeyError:
            raise ProtocolError(
                "unknown_device", f"no open session for device {device!r}"
            )
        self._sessions.move_to_end(device)
        return session

    def put(self, device: str, session: DeviceSession) -> Optional[str]:
        """Register a new session; returns the evicted device id, if any."""
        if device in self._sessions:
            raise ProtocolError(
                "device_exists", f"device {device!r} already has an open session"
            )
        evicted = None
        if len(self._sessions) >= self.capacity:
            evicted = self._evict_one()
        self._sessions[device] = session
        return evicted

    def pop(self, device: str) -> DeviceSession:
        """Remove and return a session (for close)."""
        try:
            return self._sessions.pop(device)
        except KeyError:
            raise ProtocolError(
                "unknown_device", f"no open session for device {device!r}"
            )

    def _evict_one(self) -> str:
        """Drop the least-recently-used session that owes no cargo.

        Sessions still holding cargo (buffered arrivals, strategy queue
        or Q_TX) are never evicted; when every resident session owes
        cargo the store is genuinely full and the open is shed as
        retryable overload instead.
        """
        victim = None
        for dev, session in self._sessions.items():  # LRU order
            if session.pending_cargo == 0:
                victim = dev
                break
        if victim is None:
            raise ProtocolError(
                "sessions_exhausted",
                f"all {len(self._sessions)} sessions hold pending cargo",
                retryable=True,
            )
        del self._sessions[victim]
        self.evictions += 1
        return victim
