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

#: Most slots one round of the fleet kernel tests per device.
_BLOCK = 16


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
    """Batched PerES over a fleet chunk, one round per device event.

    Between two deliveries a device's queue only waits, so its state
    changes at deliveries and releases alone.  Each round moves every
    live device at once: a device at a delivery slot first takes that
    slot's packets, then every device tests the slots from its cursor
    up to its next delivery (at most :data:`_BLOCK` of them, as one
    (devices, slots) array) and releases at the first that fires, or
    moves its cursor to the end of the block.  A released device jumps
    to its next delivery, since an empty queue never fires.  The loop
    so runs once per event of the busiest device, not once per slot.

    A slot fires when ``P(t) · quality >= V`` or under deadline
    pressure, with the scalar rule's exact floats:

    * no queued packet is ever past its deadline: the pressure test of
      slot ``t − 1`` is the packet's own ``(t − arrival) > deadline``
      test run on the oldest packet of its app, and it releases the
      whole queue.  So ``P(t)`` is the pre-deadline part of the eTrain
      kernel's closed form alone, ``(n·t − s)/deadline`` per app over
      the running count and arrival sum (exactly 0 for mail), folded
      in app order;
    * the quality ratio is the shared per-chunk estimator series;
    * deadline pressure first holds one slot before the transition slot
      of the oldest packet of some app (the oldest packet maximises
      delay, and the cost deadline is per-app), an exact reduction of
      the scalar any-packet scan;
    * the dynamic per-device ``V`` adapts on each release from the
      costs of the device's last 50 released packets, which end its
      released prefix of the queue order.  They are gathered into a
      right-aligned (devices, 50) array and summed column by column,
      so the mean matches Python's left-fold sum (the leading zero
      padding adds exactly nothing).

    Releases are whole-queue, so each device's backlog stays a
    contiguous range of its arrival-ordered packets and the release
    slots feed the shared loop-free burst builder
    (``requires_warm_radio=False``).  Inside a
    :func:`~repro.obs.metrics.metrics_scope` the round count is added to
    ``fleet.phase.peres.rounds``.
    """
    import numpy as np

    from repro.obs.metrics import current_registry
    from repro.sim.fleet.engine import (
        _build_loopfree,
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
    pk_app, pk_dev, pk_arr, pk_size, base = _flat_packets(workload)
    kinds = [int(k) for k in workload.cost_kinds]
    dls = [float(d) for d in workload.deadlines]

    # PerES decides every 1 s slot; one shared quality sample per slot,
    # padded with zeros (never >= V) for the slots a block runs past.
    q = quality_series(
        table,
        np.arange(n_slots, dtype=np.float64),
        lag=lag,
        noise=noise,
        seed=est_seed,
    )
    q = np.append(q, np.zeros(_BLOCK))

    # Queue-ordered packets (delivery order: arrival, then the packet-id
    # tie-break — alphabetical app, then app-major position).  A stable
    # sort of the alphabetical app blocks by (device, delivery slot)
    # merges A sorted runs; only events that hold packets of two apps
    # then need their arrivals sorted.  Each distinct (device, delivery
    # slot) key is one delivery event, the last of a device possibly at
    # ``n_slots`` (never delivered).
    key_mod = n_slots + 1
    pkey = pk_dev * key_mod + _delivery_slots(pk_arr, n_slots)
    by_name = np.argsort(np.asarray(workload.app_ids), kind="stable")
    perm = np.concatenate([np.arange(base[a], base[a + 1]) for a in by_name])
    perm = perm[np.argsort(pkey[perm], kind="stable")]
    skey = pkey[perm]
    first = np.diff(skey, prepend=-1) != 0
    ekey = skey[first]
    e_of = np.cumsum(first) - 1
    counts = np.bincount(
        e_of * A + pk_app[perm], minlength=ekey.size * A
    ).reshape(-1, A)
    mixed = ((counts > 0).sum(axis=1) > 1)[e_of]
    if mixed.any():
        sub = perm[mixed]
        perm[mixed] = sub[np.lexsort((pk_arr[sub], e_of[mixed]))]
    app_s = pk_app[perm]
    arr_s = pk_arr[perm]
    # One row per event: its queue range in ``perm``, the first slot its
    # packets put the queue under deadline pressure, the device's next
    # delivery slot after it, and its packet count per app.
    e_dev, e_slot = np.divmod(ekey, key_mod)
    q_bnd = np.append(0, np.cumsum(counts.sum(axis=1)))
    press_s = _transition_slots(arr_s, workload.deadlines[app_s]) - 1
    last = np.diff(e_dev, append=D) != 0
    ev_tab = np.empty((ekey.size, 4 + A), dtype=np.int64)
    ev_tab[:, 0], ev_tab[:, 1] = q_bnd[:-1], q_bnd[1:]
    ev_tab[:, 2] = np.minimum.reduceat(press_s, q_bnd[:-1])
    ev_tab[:, 3] = np.where(last, n_slots, np.roll(e_slot, -1))
    ev_tab[:, 4:] = counts
    dev_bnd = np.searchsorted(e_dev, np.arange(D + 1))
    ev = dev_bnd[:-1].copy()  # each device's next event
    r_s = np.full(perm.size, n_slots, dtype=np.int64)
    cost_s = np.zeros(perm.size)  # released packets' costs, queue order

    # State: pre-deadline cost aggregates per (device, app), queue range
    # in ``perm``, pressure slot, dynamic V, next delivery, slot cursor.
    pre_n = np.zeros((D, A))
    pre_s = np.zeros((D, A))
    q_first = q_bnd[ev]
    qhead = q_first.copy()
    qtail = q_first.copy()
    press = np.full(D, n_slots, dtype=np.int64)
    v = np.full(D, v_init)
    # Same expressions the scalar _adapt_v computes from ETA.
    v_down = 1.0 - PerESStrategy.ETA
    v_up = 1.0 + PerESStrategy.ETA
    v_min, v_max = PerESStrategy.V_MIN, PerESStrategy.V_MAX
    cols = np.arange(_V_WINDOW)
    cost_apps = [a for a in range(A) if kinds[a] != 0]
    nxt = np.where(ev < dev_bnd[1:], np.append(e_slot, n_slots)[ev], n_slots)
    cur = nxt.copy()

    rounds = 0
    live = np.flatnonzero(cur < n_slots)
    while live.size:
        rounds += 1
        c = cur[live]
        # 1. deliveries at the cursor (arrival <= t): always pre-deadline
        dv = live[nxt[live] == c]
        if dv.size:
            de = ev[dv]
            row = ev_tab[de]
            idx, lens = _csr_expand(row[:, 0], row[:, 1])
            cells = np.repeat(dv * A, lens) + app_s[idx]
            np.add.at(pre_s.reshape(-1), cells, arr_s[idx])
            pre_n[dv] += row[:, 4:]
            qtail[dv] = row[:, 1]
            press[dv] = np.minimum(press[dv], row[:, 2])
            nxt[dv] = row[:, 3]
            ev[dv] = de + 1
        # 2. decision block [c, end): P(t)·quality >= V, or pressure
        n_l, s_l, p_l = pre_n[live], pre_s[live], press[live]
        x_l = nxt[live]
        end = np.minimum(np.minimum(x_l, c + _BLOCK), p_l + 1)
        ts = c[:, None] + np.arange(int((end - c).max()))
        tf = ts.astype(np.float64)
        P = np.zeros(ts.shape)
        for a in cost_apps:
            P += (n_l[:, a, None] * tf - s_l[:, a, None]) / dls[a]
        fire = (P * q[ts] >= v[live][:, None]) & (ts < end[:, None])
        at = fire.argmax(axis=1)
        f_slot = np.where(fire[np.arange(at.size), at], c + at, p_l)
        ok = f_slot < end
        cur[live] = np.where(ok, x_l, end)
        fired = live[ok]
        if fired.size:
            i_f = f_slot[ok]
            # 3. whole-queue release; record costs at the release slot
            idx, lens = _csr_expand(qhead[fired], qtail[fired])
            r_s[idx] = np.repeat(i_f, lens)
            rel_app = app_s[idx]
            rel_d = np.repeat(i_f.astype(np.float64), lens) - arr_s[idx]
            for a in range(A):
                m = rel_app == a
                if m.any():
                    cost_s[idx[m]] = _head_spec(kinds[a], dls[a], rel_d[m])
            # 4. adapt V on the mean cost of the device's last <= 50
            # released packets (a right-aligned window, zero-padded)
            hi = qtail[fired]
            pos = (hi - _V_WINDOW)[:, None] + cols
            lo = q_first[fired]
            window = np.where(pos >= lo[:, None], cost_s[np.maximum(pos, 0)], 0.0)
            total = np.add.accumulate(window, axis=1)[:, -1]
            mean = total / np.minimum(hi - lo, _V_WINDOW)
            vf = np.where(mean > omega, v[fired] * v_down, v[fired] * v_up)
            v[fired] = np.minimum(np.maximum(vf, v_min), v_max)
            # 5. exact queue reset (mirrors the scalar queue emptying).
            qhead[fired] = qtail[fired]
            pre_n[fired] = 0.0
            pre_s[fired] = 0.0
            press[fired] = n_slots
        live = live[cur[live] < n_slots]

    registry = current_registry()
    if registry is not None:
        registry.counter("fleet.phase.peres.rounds").inc(rounds)
    release = np.empty(perm.size, dtype=np.int64)
    release[perm] = r_s
    return _build_loopfree(
        workload, table, release, pk_app, pk_dev, pk_arr, pk_size, n_slots
    )
