"""Adaptive-Θ eTrain: closing the control loop the paper leaves open.

Fig. 7(a)/10(b) show Θ trading energy for delay, but picking Θ is left
to the user ("a more patient user ... can set a larger Θ").  This
extension turns Θ into a feedback controller: the user states a target
normalized delay, and Θ adapts multiplicatively — the same mechanism
PerES uses for its dynamic V — so the realised mean delay converges to
the target without manual tuning.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.baselines.etrain import ETrainStrategy
from repro.core.packet import Packet
from repro.core.profiles import CargoAppProfile
from repro.core.scheduler import SchedulerConfig

__all__ = ["AdaptiveThetaETrainStrategy", "adaptive_fleet_kernel"]


class AdaptiveThetaETrainStrategy(ETrainStrategy):
    """eTrain with Θ driven toward a target mean delay.

    The controller observes *selection* delay (arrival → Q_TX entry);
    under the radio-resource gate the realised transmission delay runs
    slightly higher, so treat ``target_delay`` as a selection-delay
    target — the energy-delay trade it exposes is the same.
    """

    #: Multiplicative adaptation step per adjustment.
    ETA = 0.1
    #: Θ clamp range.
    THETA_MIN, THETA_MAX = 1e-3, 100.0

    def __init__(
        self,
        profiles: Sequence[CargoAppProfile],
        target_delay: float,
        *,
        theta_init: float = 0.5,
        window: int = 40,
        config: Optional[SchedulerConfig] = None,
        warm_gate: bool = True,
    ) -> None:
        """
        Parameters
        ----------
        target_delay:
            Desired long-run mean queueing delay (seconds).
        theta_init:
            Starting Θ (adapted from there).
        window:
            Number of recent deliveries averaged per adjustment.
        """
        if target_delay <= 0:
            raise ValueError(f"target_delay must be > 0, got {target_delay}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        base = config if config is not None else SchedulerConfig()
        super().__init__(
            profiles,
            SchedulerConfig(theta=theta_init, k=base.k, slot=base.slot),
            warm_gate=warm_gate,
        )
        self.target_delay = target_delay
        self.window = window
        self.name = f"eTrain-adaptive(target={target_delay:g}s)"
        self._delays: List[float] = []

    @property
    def theta(self) -> float:
        """The controller's current Θ."""
        return self.scheduler.config.theta

    def _set_theta(self, value: float) -> None:
        clamped = min(max(value, self.THETA_MIN), self.THETA_MAX)
        self.scheduler.config = SchedulerConfig(
            theta=clamped,
            k=self.scheduler.config.k,
            slot=self.scheduler.config.slot,
        )

    # is_idle and decision_horizon are inherited from ETrainStrategy
    # unchanged: the controller only mutates state (delay samples, Θ)
    # when a decide() releases packets, which cannot happen while the
    # queues are empty or P stays below the current Θ.

    def decide(self, now: float, heartbeat_present: bool) -> List[Packet]:
        released = super().decide(now, heartbeat_present)
        if released:
            self._delays.extend(max(0.0, now - p.arrival_time) for p in released)
            if len(self._delays) >= self.window:
                recent = self._delays[-self.window:]
                mean_delay = sum(recent) / len(recent)
                if mean_delay > self.target_delay:
                    # Too slow: lower Θ, schedule more eagerly.
                    self._set_theta(self.theta * (1.0 - self.ETA))
                else:
                    # Under budget: raise Θ, save more energy.
                    self._set_theta(self.theta * (1.0 + self.ETA))
                self._delays = self._delays[-self.window:]
        return released


# ---------------------------------------------------------------------------
# vectorized fleet kernel (named in repro.sim.parallel.specs.STRATEGIES)
# ---------------------------------------------------------------------------


def adaptive_fleet_kernel(
    workload,
    table,
    power_model,
    *,
    target_delay,
    theta_init,
    window,
    warm_gate,
):
    """Batched adaptive-Θ eTrain over the device axis of one fleet chunk.

    The slot dynamics are exactly the shared eTrain kernel with Θ as a
    per-device vector (the threshold check broadcasts).  The feedback
    controller itself stays Python: it runs off the engine's
    ``on_release`` hook, which fires once per engine round with each
    device's selection-time releases and their slots.  Non-heartbeat
    fires pick exactly one packet per device, so their delays arrive
    precomputed; heartbeat drains arrive as frozen queue bounds and the
    callback replays the scalar greedy pick order (per-app heads compete
    on marginal gain, then FIFO free riders) because the *order* of
    delay samples decides which ones sit in the controller's trailing
    window.  A device's adapted Θ only matters from its next slot on,
    and the engine's next round reads it from there.  All controller
    arithmetic — speculative costs, p-bar left-folds, window means,
    multiplicative Θ steps — mirrors the scalar operations verbatim so
    the adapted Θ trajectory matches bit-for-bit.
    """
    import numpy as np

    from repro.sim.fleet.engine import (
        _flat_packets,
        _simulate_etrain,
        fleet_slot_count,
    )

    target_delay, theta_init = float(target_delay), float(theta_init)
    window, warm_gate = int(window), bool(warm_gate)
    if np.any(workload.deadlines < 2.0):
        raise ValueError("fleet adaptive requires all deadlines >= 2 s")

    n_slots = fleet_slot_count(workload.horizon)
    pk_app, pk_dev, pk_arr, pk_size, base = _flat_packets(workload)

    A, D = workload.n_apps, workload.n_devices
    kinds = [int(k) for k in workload.cost_kinds]
    dls = [float(d) for d in workload.deadlines]
    eta_down = 1.0 - AdaptiveThetaETrainStrategy.ETA
    eta_up = 1.0 + AdaptiveThetaETrainStrategy.ETA
    th_min = AdaptiveThetaETrainStrategy.THETA_MIN
    th_max = AdaptiveThetaETrainStrategy.THETA_MAX

    theta = np.full(D, theta_init, dtype=np.float64)
    delays: List[List[float]] = [[] for _ in range(D)]

    def adapt(d: int, released: List[float]) -> None:
        buf = delays[d]
        buf.extend(released)
        if len(buf) >= window:
            recent = buf[-window:]
            mean_delay = sum(recent) / len(recent)
            scale = eta_down if mean_delay > target_delay else eta_up
            theta[d] = min(max(theta[d] * scale, th_min), th_max)
            delays[d] = buf[-window:]

    def phi(kind: int, dl: float, d):
        # The scalar cost functions' exact branch arithmetic.
        if kind == 0:
            return 0.0 if d <= dl else d / dl - 1.0
        if kind == 1:
            return d / dl if d <= dl else 2.0
        return d / dl if d <= dl else 3.0 * d / dl - 2.0

    def on_release(pick_dev, pick_slot, pick_delay, hbq, hbq_slot, hb_lo, hb_hi):
        for j in range(len(pick_dev)):
            adapt(int(pick_dev[j]), [float(pick_delay[j])])
        for j in range(len(hbq)):
            t = float(hbq_slot[j])
            u = t + 1.0
            arrs = [pk_arr[hb_lo[a, j] : hb_hi[a, j]] for a in range(A)]
            specs = [
                [phi(kinds[a], dls[a], u - ar) for ar in arrs[a]] for a in range(A)
            ]
            # P-bar per app: the scalar's left-fold over queue order.
            pbar = [sum(s) for s in specs]
            selc = [0.0] * A
            ptr = [0] * A
            out: List[float] = []
            # Greedy picks: within an app the head always wins (specs are
            # nonincreasing along the queue and the gain is increasing in
            # spec over the feasible range), so each round compares the A
            # heads; first-scanned wins ties, gains must be > 0.
            while True:
                best_gain = 0.0
                best = -1
                for a in range(A):
                    if ptr[a] < len(specs[a]):
                        sp = specs[a][ptr[a]]
                        gain = (pbar[a] - selc[a]) * sp - sp**2 / 2.0
                        if gain > best_gain:
                            best_gain = gain
                            best = a
                if best < 0:
                    break
                selc[best] += specs[best][ptr[best]]
                out.append(max(0.0, t - arrs[best][ptr[best]]))
                ptr[best] += 1
            # Free riders: remaining packets FIFO, apps in order.
            for a in range(A):
                while ptr[a] < len(specs[a]):
                    out.append(max(0.0, t - arrs[a][ptr[a]]))
                    ptr[a] += 1
            adapt(int(hbq[j]), out)

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
        warm_gate,
        power_model,
        on_release=on_release,
    )
