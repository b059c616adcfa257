"""PerES-style comparator (Sec. VI-A benchmark, ref. [15]).

PerES schedules smartphone transfers under the Lyapunov framework with a
*dynamic* control parameter ``V`` that converges so the user's long-run
delay-cost stays under a bound ``Ω``; unlike eTime it is deadline-aware.
Structural properties preserved from the paper's description:

* 1-second decision slots;
* relies on *estimated* instantaneous bandwidth and times transmissions
  to relatively good channel;
* deadline-aware — a packet about to violate its deadline forces a
  release regardless of channel, and the whole backlog rides along
  (the radio is awake anyway; PerES aggregates per decision);
* ``V`` adapts multiplicatively toward the performance bound ``Ω``
  ("PerES is designed with a dynamic V which would converge dynamically
  according to users' performance cost bound Ω");
* heartbeat-oblivious — its bursts pay their own tails.

Decision rule each slot: release the backlog iff

    P(t) · (b̂(t) / b̄) ≥ V(t)

or any queued packet would violate its deadline by the next slot.  ``V``
then updates: if the recent per-packet cost runs above Ω, V shrinks
(favouring performance); below, V grows (favouring energy).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Mapping, Sequence

from repro.baselines.base import BandwidthEstimator, TransmissionStrategy
from repro.core.cost_functions import DelayCostFunction
from repro.core.packet import Packet
from repro.core.profiles import CargoAppProfile

__all__ = ["PerESStrategy", "peres_fleet_kernel"]

#: Window of the dynamic-V adaptation: ``_adapt_v`` averages the costs
#: of the last this-many released packets, scalar and kernel alike.
_V_WINDOW = 50


class PerESStrategy(TransmissionStrategy):
    """Deadline-aware, channel-aware Lyapunov scheduling with dynamic V."""

    #: Multiplicative step of the V adaptation.
    ETA = 0.05
    #: Clamp range for V.
    V_MIN, V_MAX = 1e-3, 1e6

    def __init__(
        self,
        profiles: Sequence[CargoAppProfile],
        estimator: BandwidthEstimator,
        omega: float = 0.5,
        v_init: float = 1.0,
        slot: float = 1.0,
    ) -> None:
        if omega < 0:
            raise ValueError(f"omega must be >= 0, got {omega}")
        if v_init <= 0:
            raise ValueError(f"v_init must be > 0, got {v_init}")
        self.cost_functions: Dict[str, DelayCostFunction] = {
            p.app_id: p.cost_function for p in profiles
        }
        self.deadlines: Dict[str, float] = {p.app_id: p.deadline for p in profiles}
        self.estimator = estimator
        self.omega = omega
        self.v = v_init
        self.slot = slot
        self.name = f"PerES(omega={omega:g})"
        self._queue: List[Packet] = []
        #: Costs of the last :data:`_V_WINDOW` released packets.
        self._released_costs: Deque[float] = deque(maxlen=_V_WINDOW)

    def on_arrival(self, packet: Packet, now: float) -> None:
        if packet.app_id not in self.cost_functions:
            raise KeyError(f"no profile registered for app {packet.app_id!r}")
        self._queue.append(packet)

    @property
    def waiting_count(self) -> int:
        return len(self._queue)

    def instantaneous_cost(self, now: float) -> float:
        """P(t) over the internal queue."""
        return sum(
            self.cost_functions[p.app_id](p.delay_at(now)) for p in self._queue
        )

    def _deadline_pressure(self, now: float) -> bool:
        """Whether any queued packet is about to violate its deadline."""
        for p in self._queue:
            deadline = p.deadline
            if deadline is None:
                deadline = self.deadlines.get(p.app_id)
            if deadline is not None and p.delay_at(now + self.slot) > deadline:
                return True
        return False

    def _adapt_v(self) -> None:
        """Drive V so the running per-packet cost converges to Ω."""
        if not self._released_costs:
            return
        average = sum(self._released_costs) / len(self._released_costs)
        if average > self.omega:
            self.v *= 1.0 - self.ETA  # too costly: favour performance
        else:
            self.v *= 1.0 + self.ETA  # within budget: favour energy
        self.v = min(max(self.v, self.V_MIN), self.V_MAX)

    def decide(self, now: float, heartbeat_present: bool) -> List[Packet]:
        estimate = self.estimator.record(now)
        if not self._queue:
            return []
        average = self.estimator.running_average() or estimate
        quality = estimate / average if average > 0 else 1.0
        cost = self.instantaneous_cost(now)

        if cost * quality < self.v and not self._deadline_pressure(now):
            return []
        released, self._queue = self._queue, []
        self._released_costs.extend(
            self.cost_functions[p.app_id](p.delay_at(now)) for p in released
        )
        self._adapt_v()
        return released

    def flush(self, now: float) -> List[Packet]:
        released, self._queue = self._queue, []
        return released


# ---------------------------------------------------------------------------
# vectorized fleet kernel (named in repro.sim.parallel.specs.STRATEGIES)
# ---------------------------------------------------------------------------


def peres_fleet_kernel(
    workload, table, power_model, *, omega, v_init, lag, noise, est_seed
):
    """Batched PerES over the device axis of one fleet chunk.

    Per slot the kernel evaluates ``P(t) · quality >= V`` and the
    deadline-pressure override for every device at once:

    * ``P(t)`` comes from the same closed-form pre/post-deadline
      aggregates the eTrain kernel maintains (sums round differently
      from the scalar sequential additions by ~1e-13, reset to exact
      zero at every whole-queue release);
    * the quality ratio is the shared per-chunk estimator series;
    * deadline pressure reduces to the per-app queue *heads* (the oldest
      packet maximises delay, and the cost deadline is per-app), an
      exact reduction of the scalar any-packet scan;
    * the dynamic per-device ``V`` adapts on releases from a (D, 50)
      left-aligned window of recent released costs, accumulated
      column-sequentially so the mean matches Python's left-fold sum.

    Releases are whole-queue, so each device's backlog stays a
    contiguous range of its arrival-ordered packets and the release
    slots feed the shared loop-free burst builder
    (``requires_warm_radio=False``).
    """
    import numpy as np

    from repro.sim.fleet.engine import (
        _build_loopfree,
        _cost_aggregate,
        _csr_expand,
        _delivery_slots,
        _flat_packets,
        _head_spec,
        _transition_slots,
        fleet_slot_count,
    )
    from repro.sim.fleet.estimator import quality_series

    omega, v_init, est_seed = float(omega), float(v_init), int(est_seed)
    lag, noise = float(lag), float(noise)
    if np.any(workload.deadlines < 2.0):
        raise ValueError("fleet peres requires all deadlines >= 2 s")

    A, D = workload.n_apps, workload.n_devices
    n_slots = fleet_slot_count(workload.horizon)
    pk_app, pk_dev, pk_arr, pk_size, _ = _flat_packets(workload)
    kinds = [int(k) for k in workload.cost_kinds]
    dls = [float(d) for d in workload.deadlines]

    # PerES decides every 1 s slot; one shared quality sample per slot.
    q = quality_series(
        table,
        np.arange(n_slots, dtype=np.float64),
        lag=lag,
        noise=noise,
        seed=est_seed,
    )

    garr = [workload.arrivals[a] for a in range(A)]
    gdev = [
        np.repeat(
            np.arange(D, dtype=np.int64), np.diff(workload.offsets[a])
        )
        for a in range(A)
    ]

    # Per-slot buckets: deliveries by k_d, pre->post transitions by k_p.
    dorder, dbnd, torder, tbnd = [], [], [], []
    for a in range(A):
        kd_a = _delivery_slots(garr[a], n_slots)
        o = np.argsort(kd_a, kind="stable")
        dorder.append(o)
        dbnd.append(np.searchsorted(kd_a[o], np.arange(n_slots + 1)))
        kc = np.minimum(_transition_slots(garr[a], dls[a]), n_slots + 2)
        o2 = np.argsort(kc, kind="stable")
        torder.append(o2)
        tbnd.append(np.searchsorted(kc[o2], np.arange(n_slots + 3)))

    # Queue-ordered flat packet view (delivery order: arrival, then the
    # packet-id tie-break — alphabetical app, then app-major position).
    alpha = np.argsort(np.argsort(np.asarray(workload.app_ids)))
    perm = np.lexsort(
        (np.arange(pk_arr.size, dtype=np.int64), alpha[pk_app], pk_arr, pk_dev)
    )
    app_s = pk_app[perm]
    arr_s = pk_arr[perm]
    dev_s = pk_dev[perm]
    seg = np.searchsorted(dev_s, np.arange(D + 1, dtype=np.int64))
    qhead = seg[:-1].copy()
    qtail = seg[:-1].copy()
    r_s = np.full(dev_s.size, n_slots, dtype=np.int64)

    # State: in-set cost aggregates, per-app queue pointers, dynamic V.
    pre_n = np.zeros((A, D))
    pre_s = np.zeros((A, D))
    post_n = np.zeros((A, D))
    post_s = np.zeros((A, D))
    head = [workload.offsets[a][:-1].copy() for a in range(A)]
    tail = [workload.offsets[a][:-1].copy() for a in range(A)]
    v = np.full(D, v_init)
    win = np.zeros((D, _V_WINDOW))
    wlen = np.zeros(D, dtype=np.int64)
    # Same expressions the scalar _adapt_v computes from ETA.
    v_down = 1.0 - PerESStrategy.ETA
    v_up = 1.0 + PerESStrategy.ETA
    v_min, v_max = PerESStrategy.V_MIN, PerESStrategy.V_MAX
    cols = np.arange(_V_WINDOW)

    for i in range(n_slots):
        t = float(i)
        u = t + 1.0
        # 1. deliveries (arrival <= t): always pre-deadline on entry.
        for a in range(A):
            sl = dorder[a][dbnd[a][i] : dbnd[a][i + 1]]
            if sl.size:
                dv = gdev[a][sl]
                np.add.at(pre_n[a], dv, 1.0)
                np.add.at(pre_s[a], dv, garr[a][sl])
                np.add.at(tail[a], dv, 1)
                np.add.at(qtail, dv, 1)
        # 2. pre->post transitions for still-queued packets.
        for a in range(A):
            sl = torder[a][tbnd[a][i] : tbnd[a][i + 1]]
            if sl.size:
                dv = gdev[a][sl]
                act = sl >= head[a][dv]
                if act.any():
                    g = sl[act]
                    dv = dv[act]
                    ar = garr[a][g]
                    np.add.at(pre_n[a], dv, -1.0)
                    np.add.at(pre_s[a], dv, -ar)
                    np.add.at(post_n[a], dv, 1.0)
                    np.add.at(post_s[a], dv, ar)
        # 3. decision: P(t)·quality >= V, or deadline pressure.
        has_q = qtail > qhead
        if not has_q.any():
            continue
        P = np.zeros(D)
        pressure = np.zeros(D, dtype=bool)
        for a in range(A):
            P += _cost_aggregate(
                kinds[a], dls[a], t, pre_n[a], pre_s[a], post_n[a], post_s[a]
            )
            h = head[a]
            has = h < tail[a]
            if has.any():  # guards the gather when app a has no packets
                ar_h = garr[a][np.minimum(h, garr[a].size - 1)]
                pressure |= has & ((u - ar_h) > dls[a])
        fired = np.nonzero(has_q & ((P * q[i] >= v) | pressure))[0]
        if not fired.size:
            continue
        # 4. whole-queue release at slot i; record costs at ``now``.
        lo, hi = qhead[fired], qtail[fired]
        idx, lens = _csr_expand(lo, hi)
        r_s[idx] = i
        costs = np.empty(idx.size)
        rel_app = app_s[idx]
        rel_d = t - arr_s[idx]
        for a in range(A):
            m = rel_app == a
            if m.any():
                costs[m] = _head_spec(kinds[a], dls[a], rel_d[m])
        # 5. slide the (D, 50) released-cost windows and adapt V.
        F = fired.size
        k = lens
        m_new = np.minimum(k, _V_WINDOW)
        o_old = np.minimum(wlen[fired], _V_WINDOW - m_new)
        newlen = o_old + m_new
        off = np.concatenate(([0], np.cumsum(k)[:-1]))
        take_old = cols[None, :] < o_old[:, None]
        take_new = ~take_old & (cols[None, :] < newlen[:, None])
        old_pos = (wlen[fired] - o_old)[:, None] + cols[None, :]
        new_pos = (off + k - m_new - o_old)[:, None] + cols[None, :]
        old_g = win[fired[:, None], np.clip(old_pos, 0, _V_WINDOW - 1)]
        new_g = costs[np.clip(new_pos, 0, max(costs.size - 1, 0))]
        fresh = np.where(take_old, old_g, np.where(take_new, new_g, 0.0))
        win[fired] = fresh
        wlen[fired] = newlen
        # Column-sequential accumulation == Python's left-fold sum.
        acc = np.zeros(F)
        for c in range(_V_WINDOW):
            acc = acc + np.where(c < newlen, fresh[:, c], 0.0)
        mean = acc / newlen
        vf = np.where(mean > omega, v[fired] * v_down, v[fired] * v_up)
        v[fired] = np.minimum(np.maximum(vf, v_min), v_max)
        # 6. exact queue reset (mirrors the scalar queue emptying).
        qhead[fired] = qtail[fired]
        for a in range(A):
            head[a][fired] = tail[a][fired]
            pre_n[a][fired] = 0.0
            pre_s[a][fired] = 0.0
            post_n[a][fired] = 0.0
            post_s[a][fired] = 0.0

    release = np.empty(dev_s.size, dtype=np.int64)
    release[perm] = r_s
    return _build_loopfree(
        workload, table, release, pk_app, pk_dev, pk_arr, pk_size, n_slots
    )
