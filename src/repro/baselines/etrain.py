"""eTrain adapted to the common strategy interface.

Thin wrapper around :class:`repro.core.scheduler.ETrainScheduler` so that
the comparison experiments can run eTrain, PerES, eTime and the baseline
through one simulator.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.baselines.base import TransmissionStrategy
from repro.core.packet import Packet
from repro.core.profiles import CargoAppProfile
from repro.core.scheduler import ETrainScheduler, SchedulerConfig

__all__ = ["ETrainStrategy"]

#: The horizon only accepts a time whose exact P is below Θ·(1 − margin).
#: The left-fold float ``sum()`` of Python <= 3.11 is monotone in every
#: term, so P(t) <= P(T) for t <= T; the compensated ``sum()`` of 3.12+
#: is only faithful, and may put P(t) a few ulps above P(T).  The margin
#: is far wider than that, so P(t) < Θ holds under both.
_MARGIN = 1e-12
#: "Never", kept finite as the horizon protocol requires.
_FAR = 1e18


class ETrainStrategy(TransmissionStrategy):
    """The paper's online strategy (Algorithm 1) behind the common API."""

    requires_warm_radio = True

    def __init__(
        self,
        profiles: Sequence[CargoAppProfile],
        config: Optional[SchedulerConfig] = None,
        *,
        warm_gate: bool = True,
    ) -> None:
        self.scheduler = ETrainScheduler(profiles, config)
        cfg = self.scheduler.config
        self.name = f"eTrain(theta={cfg.theta}, k={'inf' if cfg.k is None else cfg.k})"
        self.slot = cfg.slot
        self.requires_warm_radio = warm_gate

    def on_arrival(self, packet: Packet, now: float) -> None:
        self.scheduler.on_packet_arrival(packet)

    def decide(self, now: float, heartbeat_present: bool) -> List[Packet]:
        self.scheduler.decide(now, heartbeat_present)
        return self.scheduler.tx_queue.drain()

    def decision_horizon(self, now: float) -> float:
        """Just past a time T whose exact P(T) was checked below Θ.

        With the queues fixed, P is non-decreasing in t (each shipped
        cost class is, in float arithmetic, and so is the delay
        ``t − arrival``), so no decision at or before T can reach Θ:
        each is a no-op on any slot grid.  T is guessed in closed form
        from the queued packets' linear cost pieces (the linear crossing
        of Θ, capped at the earliest piece end) and checked with the
        exact P; a guess that fails its check steps back once.  A cost
        class without declared pieces gets no promise.
        """
        sched = self.scheduler
        bound = sched.config.theta * (1.0 - _MARGIN)
        p = sched.instantaneous_cost(now)
        if p >= bound:
            return now
        slope, guess = 0.0, _FAR
        for queue in sched.queues.values():
            if queue:
                piece = queue.linear_piece(now)
                if piece is None:
                    return now
                slope += piece[0]
                guess = min(guess, piece[1])
        if slope > 0.0:
            # Aim just short of the linear crossing, so that rounding
            # rarely puts the check on the wrong side of it.
            guess = min(guess, now + (bound - p) / slope * (1.0 - 1e-9))
        if guess <= now:
            return now
        if sched.instantaneous_cost(guess) >= bound:
            # A jump at the piece end, or rounding at the crossing.
            guess = now + (guess - now) * (1.0 - 1e-9)
            if guess <= now or sched.instantaneous_cost(guess) >= bound:
                return now
        return math.nextafter(guess, math.inf)

    def flush(self, now: float) -> List[Packet]:
        self.scheduler.flush(now)
        return self.scheduler.tx_queue.drain()

    @property
    def waiting_count(self) -> int:
        return self.scheduler.waiting_count

    @property
    def is_idle(self) -> bool:
        """Idle when every waiting queue and Q_TX are empty.

        In that state ``ETrainScheduler.decide`` computes P(t) = 0 and —
        whatever Θ — selects nothing from empty queues and changes no
        state.
        """
        return (
            self.scheduler.waiting_count == 0
            and len(self.scheduler.tx_queue) == 0
        )
