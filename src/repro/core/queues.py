"""Waiting queues Q_i and the FIFO transmission queue Q_TX (Sec. IV).

eTrain keeps one waiting queue per registered cargo app; arriving packets
are enqueued there and stay until the online strategy selects them, at
which point they move to the single FIFO transmission queue and are sent
as soon as the radio is free.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from typing import Deque, Iterable, Iterator, List, Optional, Tuple

from repro.core.cost_functions import DelayCostFunction
from repro.core.packet import Packet

__all__ = ["WaitingQueue", "TransmissionQueue"]


class WaitingQueue:
    """Per-app waiting queue ``Q_i``, ordered by arrival time.

    Supports O(1) enqueue/front and O(n) removal by identity (the greedy
    selection may pick any queued packet, not just the head — in practice
    the head has the highest speculative cost for non-decreasing cost
    functions, but the structure does not assume it).
    """

    def __init__(self, app_id: str, cost_function: DelayCostFunction) -> None:
        self.app_id = app_id
        self.cost_function = cost_function
        self._packets: List[Packet] = []
        #: Arrival times of ``_packets``, in the same order.
        self._arrivals: List[float] = []

    def __len__(self) -> int:
        return len(self._packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._packets)

    def __contains__(self, packet: Packet) -> bool:
        return any(p.packet_id == packet.packet_id for p in self._packets)

    @property
    def packets(self) -> List[Packet]:
        """Copy of the queued packets in arrival order."""
        return list(self._packets)

    def enqueue(self, packet: Packet) -> None:
        """Add an arriving packet; must belong to this queue's app."""
        if packet.app_id != self.app_id:
            raise ValueError(
                f"packet for app {packet.app_id!r} enqueued on queue "
                f"{self.app_id!r}"
            )
        if self._packets and packet.arrival_time < self._packets[-1].arrival_time:
            raise ValueError("packets must be enqueued in arrival order")
        self._packets.append(packet)
        self._arrivals.append(packet.arrival_time)

    def remove(self, packet: Packet) -> None:
        """Remove a specific packet (after the scheduler selects it)."""
        for i, p in enumerate(self._packets):
            if p.packet_id == packet.packet_id:
                del self._packets[i]
                del self._arrivals[i]
                return
        raise KeyError(f"packet {packet.packet_id} not in queue {self.app_id!r}")

    def head(self) -> Optional[Packet]:
        """Oldest queued packet, or None if empty."""
        return self._packets[0] if self._packets else None

    def instantaneous_cost(self, now: float) -> float:
        """P_i(t) = Σ_{u ∈ Q_i} φ_u(now − t_a(u))."""
        phi = self.cost_function
        # Packet.delay_at inlined: the delay clamps at zero.
        return sum([phi(now - a if a < now else 0.0) for a in self._arrivals])

    def linear_piece(self, now: float) -> Optional[Tuple[float, float]]:
        """``(slope, end)`` of P_i just after ``now``, from the cost pieces.

        ``slope`` sums each queued packet's current piece slope; ``end``
        is the earliest time one of those pieces ends (``inf`` if none
        does).  Both are a guess's inputs, not exact: a packet within
        rounding of its kink may be put on either side.  None when the
        cost function declares no pieces.
        """
        pieces = self.cost_function.pieces
        if pieces is None:
            return None
        kink, before, after = pieces
        arrivals = self._arrivals
        n = len(arrivals)
        # Packets that arrived by now - kink are past their kink after now.
        past = bisect_right(arrivals, now - kink)
        slope = past * after + (n - past) * before
        end = arrivals[past] + kink if past < n else math.inf
        return slope, end

    def speculative_cost(self, packet: Packet, now: float, slot: float = 1.0) -> float:
        """φ̂_u(t) — the packet's cost one slot later if left unscheduled."""
        return self.cost_function(packet.delay_at(now + slot))


class TransmissionQueue:
    """FIFO queue ``Q_TX`` of packets committed for immediate transmission."""

    def __init__(self) -> None:
        self._queue: Deque[Packet] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._queue)

    @property
    def is_empty(self) -> bool:
        return not self._queue

    def push(self, packet: Packet) -> None:
        """Append a packet at the back of the FIFO."""
        self._queue.append(packet)

    def push_all(self, packets: Iterable[Packet]) -> None:
        """Append several packets, preserving their order."""
        for p in packets:
            self.push(p)

    def pop(self) -> Packet:
        """Remove and return the head-of-line packet."""
        if not self._queue:
            raise IndexError("pop from empty transmission queue")
        return self._queue.popleft()

    def drain(self) -> List[Packet]:
        """Remove and return all queued packets in FIFO order."""
        out = list(self._queue)
        self._queue.clear()
        return out

    def peek(self) -> Optional[Packet]:
        """Head-of-line packet without removing it, or None."""
        return self._queue[0] if self._queue else None
