"""Finite-horizon lazy scheduling with energy harvesting (arXiv:1312.4798).

Bacinoglu & Uysal-Biyikoglu study online lazy transmission scheduling
when the transmitter runs off a finite battery fed by an energy-
harvesting process.  Two forces shape the optimal policy:

* **laziness** — defer transmissions as long as deadlines allow (the
  classic lazy-scheduling result), because waiting costs nothing and
  the channel/energy situation can only be learned; but
* **overflow avoidance** — a full battery wastes every joule harvested
  while it is full, so stored energy near capacity should be *spent*,
  pulling transmissions earlier.

Slotted reduction: a TailEnder-style deadline-lazy batcher that owns a
:class:`~repro.sim.battery.HarvestingBattery` and adds one rule — when
the stored charge climbs past ``watermark`` of capacity with work
queued, it releases early (harvest about to be clamped is free energy).
The battery also *constrains* it: the engine threads ``self.battery``
into the slot step, so a standalone burst the store cannot afford waits,
charge accrues per slot, and the whole trajectory is deterministic given
the battery seed.  Heartbeat piggybacks stay free, which makes riding
the heartbeat the harvesting scheduler's best move — exactly the
paper's wasted-energy-made-useful thesis restated in harvesting terms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.baselines.base import TransmissionStrategy
from repro.core.packet import Packet
from repro.core.profiles import CargoAppProfile
from repro.sim.battery import HarvestingBattery

__all__ = ["HarvestLazyStrategy"]


class HarvestLazyStrategy(TransmissionStrategy):
    """Deadline-lazy batching driven (and gated) by a harvesting battery."""

    slot = 1.0

    def __init__(
        self,
        profiles: Sequence[CargoAppProfile] = (),
        default_deadline: float = 60.0,
        watermark: float = 0.85,
        battery: Optional[HarvestingBattery] = None,
    ) -> None:
        """
        Parameters
        ----------
        profiles:
            Per-app fallback deadlines for packets that carry none.
        default_deadline:
            Deadline for packets of apps without a profile.
        watermark:
            Fraction of battery capacity above which queued work is
            released early (stored energy about to hit the capacity
            clamp would otherwise be harvested for nothing).
        battery:
            The energy store; a default-parameter
            :class:`~repro.sim.battery.HarvestingBattery` when omitted.
            Exposed as :attr:`battery` so the engine, the serve layer
            and the fleet scalar fallback all gate on the same store.
        """
        if default_deadline <= 0:
            raise ValueError("default_deadline must be > 0")
        if not 0.0 < watermark <= 1.0:
            raise ValueError(f"watermark must be in (0, 1], got {watermark}")
        self.deadlines: Dict[str, float] = {p.app_id: p.deadline for p in profiles}
        self.default_deadline = default_deadline
        self.watermark = float(watermark)
        self.battery = battery if battery is not None else HarvestingBattery()
        self.name = "HarvestLazy"
        self._queue: List[Packet] = []

    @property
    def watermark_j(self) -> float:
        return self.watermark * self.battery.capacity_j

    def _due_time(self, packet: Packet) -> float:
        deadline = packet.deadline
        if deadline is None:
            deadline = self.deadlines.get(packet.app_id, self.default_deadline)
        return packet.arrival_time + deadline

    def on_arrival(self, packet: Packet, now: float) -> None:
        self._queue.append(packet)

    def on_arrivals(self, packets: Sequence[Packet], now: float) -> None:
        self._queue.extend(packets)

    @property
    def waiting_count(self) -> int:
        return len(self._queue)

    def earliest_due(self) -> Optional[float]:
        if not self._queue:
            return None
        return min(self._due_time(p) for p in self._queue)

    def decide(self, now: float, heartbeat_present: bool) -> List[Packet]:
        if not self._queue:
            return []
        if heartbeat_present:
            # Piggybacking is battery-free: always worth it.
            released, self._queue = self._queue, []
            return released
        due = self.earliest_due()
        deadline_pressure = due is not None and due <= now + self.slot
        surplus = self.battery.stored_at(now) >= self.watermark_j
        if deadline_pressure or surplus:
            released, self._queue = self._queue, []
            return released
        return []

    @property
    def is_idle(self) -> bool:
        """Idle when nothing is queued — :meth:`decide` is then pure."""
        return not self._queue

    def decision_horizon(self, now: float) -> float:
        """Quiet until a deadline nears or the charge hits the watermark.

        Both firing conditions are monotone in time between engine
        wakes: the earliest due time only moves at arrivals, and stored
        charge only rises between drains (drains happen at
        transmissions, which are always visited slots).  The watermark
        crossing comes from the battery's closed-form charge curve.
        """
        due = self.earliest_due()
        if due is None:
            return now
        margin = 1e-6 * max(1.0, self.slot)
        horizon = due - self.slot - margin
        crossing = self.battery.when_stored_at_least(
            self.watermark_j, now, until=horizon
        )
        if crossing is not None and crossing - margin < horizon:
            horizon = crossing - margin
        return horizon

    def flush(self, now: float) -> List[Packet]:
        released, self._queue = self._queue, []
        return released
