"""Naive periodic batching — the simplest aggregation comparator.

Transmit everything queued every ``period`` seconds regardless of
channel, deadlines or heartbeats.  Useful as an ablation point between
the immediate baseline and eTrain: shows how much of eTrain's win comes
from *aggregation itself* versus *aligning the batch with heartbeat
tails*.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.baselines.base import TransmissionStrategy
from repro.core.packet import Packet

__all__ = ["PeriodicBatchStrategy"]


class PeriodicBatchStrategy(TransmissionStrategy):
    """Release the backlog at fixed wall-clock multiples of ``period``."""

    def __init__(self, period: float = 60.0, slot: float = 1.0) -> None:
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        if slot <= 0:
            raise ValueError(f"slot must be > 0, got {slot}")
        self.period = period
        self.slot = slot
        self.name = f"periodic({period:g}s)"
        self._queue: List[Packet] = []
        self._last_fire = 0.0

    def on_arrival(self, packet: Packet, now: float) -> None:
        self._queue.append(packet)

    def on_arrivals(self, packets: Sequence[Packet], now: float) -> None:
        self._queue.extend(packets)

    @property
    def waiting_count(self) -> int:
        return len(self._queue)

    def decide(self, now: float, heartbeat_present: bool) -> List[Packet]:
        if now - self._last_fire + 1e-9 < self.period:
            return []
        self._last_fire = now
        released, self._queue = self._queue, []
        return released

    def flush(self, now: float) -> List[Packet]:
        released, self._queue = self._queue, []
        return released

    #: The fire clock is pure wall-clock — arrivals never move a fire
    #: earlier, and on_arrival ignores its timestamp — so the engine may
    #: deliver arrivals in bulk right before the fire (or heartbeat) slot
    #: that first observes them.
    arrival_wakes = False

    # Never idle (as arrival_wakes=False requires): the fire clock ticks
    # on *every* fire slot, queued packets or not — decide() advances
    # _last_fire even when it releases nothing — so the engine must wake
    # at each fire.  decision_horizon keeps everything in between
    # skippable.

    def decision_horizon(self, now: float) -> float:
        """Quiet until just below the next time the fire predicate holds.

        :meth:`decide` fires at ``t`` iff ``t - _last_fire + 1e-9 >=
        period``; the extra margin absorbs engine-side slot-arithmetic
        rounding so no qualifying decision time is ever promised away.
        """
        return self._last_fire + self.period - 1e-9 - 1e-6 * max(self.period, 1.0)
