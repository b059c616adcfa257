"""Channel-aware eTrain — the paper's future-work extension, realised.

Sec. IV closes: "Finding efficient ways for accurate channel prediction
and making use of it is part of our future work."  This strategy layers
a channel gate on top of Algorithm 1: heartbeat slots behave exactly as
eTrain (the tail is paid regardless of rate), but threshold-triggered
dribbles between heartbeats are additionally deferred — up to a bounded
patience — until the estimated rate looks good relative to its running
average, shortening their DCH time.

The ablation benchmark quantifies how much this buys over plain eTrain;
with tails dominating transmission energy the answer is "little", which
is itself a reproduction-relevant finding supporting the paper's choice
of channel obliviousness.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.baselines.base import BandwidthEstimator
from repro.baselines.etrain import ETrainStrategy
from repro.core.packet import Packet
from repro.core.profiles import CargoAppProfile
from repro.core.scheduler import SchedulerConfig

__all__ = ["ChannelAwareETrainStrategy", "channel_aware_fleet_kernel"]


class ChannelAwareETrainStrategy(ETrainStrategy):
    """eTrain plus good-channel timing of non-heartbeat dribbles."""

    def __init__(
        self,
        profiles: Sequence[CargoAppProfile],
        estimator: BandwidthEstimator,
        config: Optional[SchedulerConfig] = None,
        *,
        quality_threshold: float = 1.0,
        max_defer: float = 20.0,
        warm_gate: bool = True,
    ) -> None:
        """
        Parameters
        ----------
        estimator:
            Source of (imperfect) instantaneous-rate estimates.
        quality_threshold:
            Release a deferred dribble once estimate / running-average
            reaches this ratio (1.0 = at least average).
        max_defer:
            Bound on the extra deferral (seconds) so a persistently bad
            channel cannot starve the dribble.
        """
        super().__init__(profiles, config, warm_gate=warm_gate)
        if quality_threshold <= 0:
            raise ValueError("quality_threshold must be > 0")
        if max_defer < 0:
            raise ValueError("max_defer must be >= 0")
        self.estimator = estimator
        self.quality_threshold = quality_threshold
        self.max_defer = max_defer
        self.name = f"eTrain+channel(theta={self.scheduler.config.theta})"
        self._deferred: List[Packet] = []
        self._defer_started: Optional[float] = None

    def decide(self, now: float, heartbeat_present: bool) -> List[Packet]:
        estimate = self.estimator.record(now)
        released = super().decide(now, heartbeat_present)

        if heartbeat_present:
            # Heartbeat slots flush everything, deferred dribbles included.
            out = self._deferred + released
            self._deferred = []
            self._defer_started = None
            return out

        if released:
            self._deferred.extend(released)
            if self._defer_started is None:
                self._defer_started = now

        if not self._deferred:
            return []

        average = self.estimator.running_average() or estimate
        quality = estimate / average if average > 0 else 1.0
        patience_over = (
            self._defer_started is not None
            and now - self._defer_started >= self.max_defer
        )
        if quality >= self.quality_threshold or patience_over:
            out, self._deferred = self._deferred, []
            self._defer_started = None
            return out
        return []

    def flush(self, now: float) -> List[Packet]:
        out = self._deferred + super().flush(now)
        self._deferred = []
        self._defer_started = None
        return out

    @property
    def waiting_count(self) -> int:
        return super().waiting_count + len(self._deferred)

    @property
    def is_idle(self) -> bool:
        """Idle when eTrain is and no dribble is deferred.

        A decide then only records a channel sample, which
        :meth:`on_decisions_skipped` replays.
        """
        return not self._deferred and super().is_idle

    def decision_horizon(self, now: float) -> float:
        """eTrain's horizon while nothing is deferred; an open deferral
        may release at any decide, so it promises nothing."""
        if self._deferred:
            return now
        return super().decision_horizon(now)

    def on_decisions_skipped(self, window) -> None:
        # A skipped decide records its sample and, with nothing deferred
        # and P below Θ, does nothing else.
        self.estimator.record_skipped(window)


# ---------------------------------------------------------------------------
# vectorized fleet kernel (named in repro.sim.parallel.specs.STRATEGIES)
# ---------------------------------------------------------------------------


def channel_aware_fleet_kernel(
    workload,
    table,
    power_model,
    *,
    theta,
    quality_threshold,
    max_defer,
    lag,
    noise,
    est_seed,
):
    """Vectorized channel-aware eTrain over one fleet chunk.

    The strategy is eTrain plus a release gate, and both halves reduce
    to things the fleet engine already computes:

    * the Θ trigger, greedy pick and heartbeat drain are byte-for-byte
      the eTrain kernel (``_simulate_etrain``);
    * the channel gate is **device-independent**: every decide records
      an estimator sample each 1 s slot regardless of queue content (the
      scalar engine replays the samples of the decides it skips), so the
      ``quality >= threshold`` verdict is one shared boolean per slot,
      precomputed bit-exactly by
      :func:`repro.sim.fleet.estimator.quality_series`;
    * what remains per device is the deferral buffer — bytes, count and
      the ``_defer_started`` patience clock — which the engine carries
      in its ``defer`` mode and drains onto heartbeat carriers exactly
      like the scalar ``_deferred`` list.
    """
    import numpy as np

    from repro.sim.fleet.engine import (
        _flat_packets,
        _simulate_etrain,
        fleet_slot_count,
    )
    from repro.sim.fleet.estimator import quality_series

    theta, quality_threshold = float(theta), float(quality_threshold)
    max_defer, lag, noise = float(max_defer), float(lag), float(noise)
    if np.any(workload.deadlines < 2.0):
        raise ValueError("fleet channel_aware requires all deadlines >= 2 s")

    n_slots = fleet_slot_count(workload.horizon)
    pk_app, pk_dev, pk_arr, pk_size, base = _flat_packets(workload)

    # One shared sample per 1 s slot (heartbeat slots included — the
    # scalar decide records there too, feeding the running average).
    q = quality_series(
        table,
        np.arange(n_slots, dtype=np.float64),
        lag=lag,
        noise=noise,
        seed=int(est_seed),
    )
    release_ok = q >= quality_threshold

    return _simulate_etrain(
        workload,
        table,
        pk_app,
        pk_dev,
        pk_arr,
        pk_size,
        base,
        n_slots,
        theta,
        True,  # the scalar builder always leaves warm_gate on
        power_model,
        defer=(release_ok, max_defer),
    )
