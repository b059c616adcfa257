"""Common interface all transmission strategies implement.

The simulator drives a strategy one slot at a time: it forwards packet
arrivals, announces heartbeat slots, and transmits whatever the strategy
releases.  eTrain, the immediate-send baseline, PerES and eTime all sit
behind this interface, so every experiment can swap them freely.

Strategies only make decisions for *cargo* packets — heartbeats are
always transmitted at their departure times, by the simulator, exactly
as the paper prescribes ("all three scheduling algorithms ... do not
interfere original heartbeat transmission").
"""

from __future__ import annotations

import abc
import random
import threading
from array import array
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.packet import Packet

__all__ = ["TransmissionStrategy", "BandwidthEstimator"]

#: Noise factors per ``(seed, noise)``, indexed by whole second and
#: shared by every estimator of the process.  Bounded: at most
#: ``_NOISE_KEYS_MAX`` keys (the dict is cleared past that) of at most
#: ``_NOISE_SECONDS_MAX`` packed doubles (1 MiB) each.
_NOISE_TABLES: Dict[Tuple[object, float], array] = {}
_NOISE_KEYS_MAX = 16
_NOISE_SECONDS_MAX = 1 << 17
#: Tables grow in whole blocks of this many seconds.
_NOISE_BLOCK = 1024
_NOISE_LOCK = threading.Lock()


def _noise_factor(seed, noise: float, sec: int) -> float:
    """The deterministic multiplicative noise of whole second ``sec``."""
    return 1.0 + random.Random(hash((seed, sec))).uniform(-noise, noise)


def _noise_table(seed, noise: float, stop: int) -> array:
    """The shared factor table of ``(seed, noise)``, filled to ``stop``.

    Tables only ever grow, so a reader holding one may index anything
    below its current length without the lock.
    """
    with _NOISE_LOCK:
        key = (seed, noise)
        table = _NOISE_TABLES.get(key)
        if table is None:
            if len(_NOISE_TABLES) >= _NOISE_KEYS_MAX:
                _NOISE_TABLES.clear()
            table = _NOISE_TABLES[key] = array("d")
        if len(table) < stop:
            stop = min(-(-stop // _NOISE_BLOCK) * _NOISE_BLOCK, _NOISE_SECONDS_MAX)
            table.extend(
                _noise_factor(seed, noise, sec) for sec in range(len(table), stop)
            )
        return table


class BandwidthEstimator:
    """Noisy, lagged view of the channel for bandwidth-aware strategies.

    PerES and eTime "heavily rely on accurate estimation of instantaneous
    wireless bandwidth" (Sec. VI-A), which the paper argues is unreliable
    in practice.  This estimator models that unreliability: it reports
    the true rate ``lag`` seconds ago, scaled by deterministic
    multiplicative noise, so experiments can dial estimation quality from
    perfect (lag=0, noise=0) to poor.
    """

    #: Recorded estimates kept: the longest running-average window.
    HISTORY = 120

    def __init__(
        self,
        bandwidth,
        *,
        lag: float = 2.0,
        noise: float = 0.3,
        seed: int = 0,
    ) -> None:
        if lag < 0:
            raise ValueError(f"lag must be >= 0, got {lag}")
        if noise < 0:
            raise ValueError(f"noise must be >= 0, got {noise}")
        self.bandwidth = bandwidth
        self.lag = lag
        self.noise = noise
        self.seed = seed
        #: The estimates ``running_average`` can still read.
        self._history: Deque[float] = deque(maxlen=self.HISTORY)
        self._factors: Sequence[float] = ()

    def estimate(self, now: float) -> float:
        """Estimated instantaneous rate at ``now`` (bytes/second)."""
        true = self.bandwidth.rate_at(max(0.0, now - self.lag))
        if self.noise == 0:
            return true
        # Deterministic per-second noise so runs are reproducible: a
        # pure function of (seed, noise, second), read from the shared
        # table where it covers the second.
        sec = int(now)
        if not 0 <= sec < len(self._factors):
            if not 0 <= sec < _NOISE_SECONDS_MAX:
                return max(0.0, true * _noise_factor(self.seed, self.noise, sec))
            self._factors = _noise_table(self.seed, self.noise, sec + 1)
        return max(0.0, true * self._factors[sec])

    def record(self, now: float) -> float:
        """Log the estimate at ``now`` and return it.

        Strategies tracking running averages call this once per decide
        and use the returned value as that decide's estimate.
        """
        estimate = self.estimate(now)
        self._history.append(estimate)
        return estimate

    def record_skipped(self, window) -> None:
        """Record the decides a :class:`~repro.sim.engine.DecisionWindow`
        skipped, as :meth:`record` at each of its times would have.

        Only the last :attr:`HISTORY` samples can stay in the history,
        so only those are drawn.
        """
        for now in window.last(self.HISTORY):
            self._history.append(self.estimate(now))

    def running_average(self, window: int = HISTORY) -> Optional[float]:
        """Mean of the last ``window`` recorded estimates (None if empty)."""
        if not 1 <= window <= self.HISTORY:
            raise ValueError(f"window must be in [1, {self.HISTORY}], got {window}")
        history = self._history
        if not history:
            return None
        tail = history if window >= len(history) else list(history)[-window:]
        return sum(tail) / len(tail)


class TransmissionStrategy(abc.ABC):
    """A slot-driven cargo-packet scheduling policy."""

    #: Human-readable strategy name (used in experiment tables).
    name: str = "strategy"

    #: Decision granularity in seconds.  The engine steps at its own slot
    #: but only calls :meth:`decide` at multiples of this value.
    slot: float = 1.0

    #: Whether a packet arrival must wake the event-driven engine at the
    #: arrival's own slot.  The conservative default True delivers every
    #: arrival exactly when the dense loop would.  A strategy may set
    #: False when (a) :meth:`on_arrival` ignores its ``now`` argument and
    #: (b) no arrival can move the strategy's next acting decision
    #: earlier (its decision schedule is arrival-independent — e.g. a
    #: fixed-period batcher or a fixed-cadence Lyapunov scheduler).  The
    #: engine then delivers queued arrivals in bulk, in order, right
    #: before the next decision or heartbeat slot that could observe
    #: them, which is indistinguishable to the strategy.  A strategy
    #: setting this False must report :attr:`is_idle` as False (its
    #: decision schedule, not idleness, drives the engine's wake-ups).
    arrival_wakes: bool = True

    #: eTrain's Q_TX semantics (Sec. IV): released packets transmit "as
    #: soon as possible ... whenever there is radio resource available".
    #: When True, the simulator transmits a non-heartbeat release
    #: immediately only if the radio is still in its high-power tail;
    #: otherwise the release waits in Q_TX for the next heartbeat (the
    #: next radio promotion).  Channel-timing strategies (PerES, eTime)
    #: and the baseline promote the radio on demand and leave this False.
    requires_warm_radio: bool = False

    @abc.abstractmethod
    def on_arrival(self, packet: Packet, now: float) -> None:
        """A cargo packet arrived and is available from the next slot."""

    def on_arrivals(self, packets: Sequence[Packet], now: float) -> None:
        """Deliver a chronological batch of arrivals due at ``now``.

        Semantically identical to calling :meth:`on_arrival` once per
        packet (the default does exactly that); queue-append strategies
        override this with a single ``list.extend`` so the event engine
        can deliver bulked-up arrivals cheaply.
        """
        for packet in packets:
            self.on_arrival(packet, now)

    @abc.abstractmethod
    def decide(self, now: float, heartbeat_present: bool) -> List[Packet]:
        """Packets to transmit in the slot starting at ``now``.

        ``heartbeat_present`` is True when one or more heartbeats depart
        within this slot (piggyback opportunity).
        """

    def flush(self, now: float) -> List[Packet]:
        """Release every still-held packet (end of simulation).

        Default: nothing held.  Strategies with internal queues override.
        """
        return []

    @property
    def waiting_count(self) -> int:
        """Packets currently held back by the strategy."""
        return 0

    @property
    def pending_count(self) -> int:
        """Conservative count of packets the strategy may still release.

        The event-driven engine only uses this for reporting; correctness
        hinges on :attr:`is_idle`.  Defaults to :attr:`waiting_count`.
        """
        return self.waiting_count

    @property
    def is_idle(self) -> bool:
        """Whether :meth:`decide` is *guaranteed* to be an output-affecting
        no-op until the next :meth:`on_arrival` or heartbeat slot.

        Contract: while this returns True, ``decide(t, False)`` must
        return ``[]`` and must not mutate any state that influences a
        future decision's outcome.  Time-keeping state that *does* evolve
        with skipped decision slots (e.g. a periodic fire clock) must be
        replayed in :meth:`on_decisions_skipped` instead.

        The event-driven engine skips decision slots only while a
        strategy reports idle; the conservative default ``False`` keeps
        dense slot-by-slot behaviour for strategies that do not opt in.
        """
        return False

    def decision_horizon(self, now: float) -> float:
        """Earliest future time at which :meth:`decide` may act.

        Contract: for every decision time ``t`` with ``now < t`` and
        ``t < decision_horizon(now)``, ``decide(t, False)`` would return
        ``[]`` and would not mutate output-affecting state — *assuming no
        intervening arrival or heartbeat* (either of those wakes the
        engine anyway and re-queries the horizon).  Implementations
        should subtract a small float-safety margin so rounding in the
        engine's slot arithmetic can never land a skipped decision at or
        past the promised horizon.

        Unlike :attr:`is_idle`, this lets a strategy with pending work
        declare a quiet stretch (a periodic batcher between fires, a
        deadline scheduler far from its earliest due time).  The default
        ``now`` promises nothing and keeps dense behaviour.  The return
        value must be a finite float (use a large sentinel such as the
        simulation horizon rather than ``inf``).
        """
        return now

    def on_decisions_skipped(self, window) -> None:
        """The engine skipped the decision slots described by ``window``.

        ``window`` is a :class:`repro.sim.engine.DecisionWindow`: the
        decision times the dense loop would have passed to
        :meth:`decide` while this strategy reported :attr:`is_idle`.
        Strategies whose internal clock advances even on empty decisions
        (e.g. periodic batching) replay it here; the default is a no-op.
        """
        return None
