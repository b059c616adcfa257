"""The eTrain online transmission strategy — Algorithm 1 (Sec. IV).

Each slot ``t`` the scheduler:

1. computes the instantaneous total delay cost ``P(t)`` over all waiting
   queues;
2. does nothing unless ``P(t) ≥ Θ`` **or** a heartbeat departs this slot
   (heartbeats are transmission opportunities regardless of cost);
3. sets the selection budget ``K(t) = k`` on heartbeat slots (many
   carriages available to piggyback) and ``K(t) = 1`` otherwise;
4. greedily moves up to ``K(t)`` packets from the waiting queues into the
   FIFO transmission queue, each pick maximising the marginal
   negative-Lyapunov-drift gain of Eq. (9).

``k = None`` (the paper's ``k ← ∞`` production setting) lets a heartbeat
slot drain as many packets as are queued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.lyapunov import build_drift_states, greedy_select
from repro.core.packet import Packet
from repro.core.profiles import CargoAppProfile
from repro.core.queues import TransmissionQueue, WaitingQueue

__all__ = ["SchedulerConfig", "SchedulerDecision", "ETrainScheduler"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of the online strategy.

    Attributes
    ----------
    theta:
        Θ — the instantaneous-cost threshold below which (absent a
        heartbeat) no packet is scheduled.  Larger Θ trades delay for
        energy (Fig. 7a / Fig. 10b).
    k:
        Maximum packets injected on a heartbeat slot.  ``None`` means
        unbounded (the paper's final choice).
    slot:
        Slot length in seconds (the paper uses 1 s for eTrain).
    """

    theta: float = 0.2
    k: Optional[int] = None
    slot: float = 1.0

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1 or None, got {self.k}")
        if self.slot <= 0:
            raise ValueError(f"slot must be > 0, got {self.slot}")


@dataclass(frozen=True)
class SchedulerDecision:
    """Outcome of one slot's scheduling pass.

    Attributes
    ----------
    time:
        Slot start time.
    selected:
        Packets moved into the transmission queue this slot, in pick
        order (Q*(t)).
    instantaneous_cost:
        P(t) at decision time.
    budget:
        K(t) used this slot (0 when the threshold gated scheduling off).
    heartbeat_slot:
        Whether a heartbeat departed at this slot.
    """

    time: float
    selected: tuple
    instantaneous_cost: float
    budget: int
    heartbeat_slot: bool


class ETrainScheduler:
    """Stateful implementation of the eTrain online strategy.

    The scheduler owns the per-app waiting queues and the transmission
    queue; the surrounding simulator (or the Android-layer service)
    forwards packet arrivals and calls :meth:`decide` each slot, then
    drains :attr:`tx_queue` onto the radio.
    """

    def __init__(
        self,
        profiles: Sequence[CargoAppProfile],
        config: Optional[SchedulerConfig] = None,
    ) -> None:
        self.config = config if config is not None else SchedulerConfig()
        self.queues: Dict[str, WaitingQueue] = {}
        self.profiles: Dict[str, CargoAppProfile] = {}
        for profile in profiles:
            self.register_app(profile)
        self.tx_queue = TransmissionQueue()

    def register_app(self, profile: CargoAppProfile) -> None:
        """Register a cargo app (creates its waiting queue Q_i)."""
        if profile.app_id in self.queues:
            raise ValueError(f"app {profile.app_id!r} already registered")
        self.profiles[profile.app_id] = profile
        self.queues[profile.app_id] = WaitingQueue(
            profile.app_id, profile.cost_function
        )

    def unregister_app(self, app_id: str) -> List[Packet]:
        """Remove an app; returns (and forgets) its still-waiting packets."""
        if app_id not in self.queues:
            raise KeyError(f"app {app_id!r} not registered")
        leftover = self.queues[app_id].packets
        del self.queues[app_id]
        del self.profiles[app_id]
        return leftover

    def on_packet_arrival(self, packet: Packet) -> None:
        """Enqueue a newly arrived cargo packet onto its waiting queue."""
        queue = self.queues.get(packet.app_id)
        if queue is None:
            raise KeyError(
                f"packet from unregistered app {packet.app_id!r}; cargo apps "
                "must register a profile before submitting requests"
            )
        queue.enqueue(packet)

    @property
    def waiting_count(self) -> int:
        """Total packets across all waiting queues."""
        return sum(len(q) for q in self.queues.values())

    def instantaneous_cost(self, now: float) -> float:
        """P(t) = Σ_i P_i(t) over all registered apps."""
        # An empty queue's P_i is the int 0, which leaves either float
        # sum() (the left fold, or the compensated one of Python 3.12+)
        # bit for bit unchanged, so it is left out.
        return sum([q.instantaneous_cost(now) for q in self.queues.values() if q])

    def decide(self, now: float, heartbeat_present: bool) -> SchedulerDecision:
        """Run Algorithm 1 for the slot starting at ``now``.

        Selected packets are moved from their waiting queues into
        :attr:`tx_queue`; the caller transmits them immediately.
        """
        cost = self.instantaneous_cost(now)
        budget = 0
        selected: List[Packet] = []

        if cost >= self.config.theta or heartbeat_present:
            if heartbeat_present:
                budget = (
                    self.waiting_count if self.config.k is None else self.config.k
                )
            else:
                budget = 1
            states = build_drift_states(self.queues, now, self.config.slot)
            for app_id, packet in greedy_select(
                states, budget, include_free_riders=heartbeat_present
            ):
                self.queues[app_id].remove(packet)
                self.tx_queue.push(packet)
                selected.append(packet)

        return SchedulerDecision(
            time=now,
            selected=tuple(selected),
            instantaneous_cost=cost,
            budget=budget,
            heartbeat_slot=heartbeat_present,
        )

    def flush(self, now: float) -> List[Packet]:
        """Force-drain every waiting queue (end-of-run cleanup).

        Used when the simulation horizon is reached so that trailing
        packets are accounted for rather than silently dropped.
        """
        flushed: List[Packet] = []
        for queue in self.queues.values():
            for packet in queue.packets:
                queue.remove(packet)
                self.tx_queue.push(packet)
                flushed.append(packet)
        return flushed
