"""eTime-style comparator (Sec. VI-A benchmark, ref. [16]).

eTime (INFOCOM'13) schedules delay-tolerant transfers between cloud and
mobile with a Lyapunov drift-plus-penalty rule: it accumulates data in a
queue and transmits when the (estimated) channel is good relative to its
recent average and/or the backlog has grown large, with a control
parameter ``V`` trading energy against delay.  Key structural properties
preserved here, per the paper's description:

* 60-second decision slots ("we set the length of a time slot in eTime
  to be 60 seconds as suggested in [16]");
* relies on *estimated* instantaneous bandwidth (imperfect in practice);
* **not** deadline-aware;
* tuning ``V`` traces out its energy-delay curve;
* oblivious to heartbeats — its transmissions pay their own tails.

Decision rule: transmit the whole backlog in slot ``t`` iff

    backlog_bytes · (b̂(t) / b̄) ≥ V

where ``b̂`` is the estimated rate, ``b̄`` its running average, and ``V``
the energy-delay knob (bigger V → longer waits → fewer, larger bursts).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.baselines.base import BandwidthEstimator, TransmissionStrategy
from repro.core.packet import Packet

__all__ = ["ETimeStrategy", "etime_fleet_kernel"]


class ETimeStrategy(TransmissionStrategy):
    """Channel-aware, deadline-unaware Lyapunov batching."""

    def __init__(
        self,
        estimator: BandwidthEstimator,
        v: float = 200_000.0,
        slot: float = 60.0,
    ) -> None:
        if v < 0:
            raise ValueError(f"v must be >= 0, got {v}")
        if slot <= 0:
            raise ValueError(f"slot must be > 0, got {slot}")
        self.estimator = estimator
        self.v = v
        self.slot = slot
        self.name = f"eTime(V={v:g})"
        self._queue: List[Packet] = []

    def on_arrival(self, packet: Packet, now: float) -> None:
        self._queue.append(packet)

    def on_arrivals(self, packets: Sequence[Packet], now: float) -> None:
        self._queue.extend(packets)

    #: eTime's decision cadence is its fixed 60 s Lyapunov slot — an
    #: arrival never moves a decision earlier, and on_arrival ignores its
    #: timestamp, so the engine may deliver arrivals in bulk right before
    #: the decision slot that first observes them.
    arrival_wakes = False

    @property
    def waiting_count(self) -> int:
        return len(self._queue)

    # eTime keeps the base never-idle protocol: every decide() records a
    # channel sample into the estimator, and the running average those
    # samples feed changes future release decisions, so no decision slot
    # may be skipped.  The event engine still skips the 59 non-decision
    # slots between its 60 s decision points.

    @property
    def backlog_bytes(self) -> int:
        """Total queued bytes."""
        return sum(p.size_bytes for p in self._queue)

    def decide(self, now: float, heartbeat_present: bool) -> List[Packet]:
        # eTime records channel history every slot regardless of action.
        estimate = self.estimator.record(now)
        if not self._queue:
            return []
        average = self.estimator.running_average() or estimate
        quality = estimate / average if average > 0 else 1.0
        score = self.backlog_bytes * quality
        if score >= self.v:
            released, self._queue = self._queue, []
            return released
        return []

    def flush(self, now: float) -> List[Packet]:
        released, self._queue = self._queue, []
        return released


# ---------------------------------------------------------------------------
# vectorized fleet kernel (named in repro.sim.parallel.specs.STRATEGIES)
# ---------------------------------------------------------------------------


def etime_fleet_kernel(
    workload, table, power_model, *, v, lag, noise, est_seed
):
    """Batched eTime over the device axis of one fleet chunk.

    The decision rule factorizes cleanly across devices: the quality
    ratio is a shared per-chunk series (see
    :mod:`repro.sim.fleet.estimator`), each device's backlog is a
    contiguous range of its delivery-ordered packets (whole-queue
    releases keep it contiguous), and byte backlogs are exact int64
    prefix-sum differences — the same integer sum the scalar
    ``backlog_bytes`` computes.  Release slots then feed the shared
    loop-free burst builder, valid because eTime never holds packets for
    radio warmth (``requires_warm_radio=False``).
    """
    import numpy as np

    from repro.sim.fleet.engine import (
        _build_loopfree,
        _csr_expand,
        _delivery_slots,
        _flat_packets,
        fleet_slot_count,
    )
    from repro.sim.fleet.estimator import decision_slot_indices, quality_series

    v, lag, noise, est_seed = float(v), float(lag), float(noise), int(est_seed)

    n_slots = fleet_slot_count(workload.horizon)
    pk_app, pk_dev, pk_arr, pk_size, _ = _flat_packets(workload)

    # eTime decides on its 60 s Lyapunov grid; the shared quality series
    # is sampled exactly there (record happens every decide, queue or not).
    dec = decision_slot_indices(n_slots, 60.0)
    q = quality_series(
        table, dec.astype(np.float64), lag=lag, noise=noise, seed=est_seed
    )

    # Delivery-ordered packet view with per-device queue pointers.
    kd = _delivery_slots(pk_arr, n_slots)
    perm = np.lexsort((np.arange(pk_arr.size, dtype=np.int64), kd, pk_dev))
    dev_s = pk_dev[perm]
    kd_s = kd[perm]
    byte_prefix = np.concatenate(
        ([0], np.cumsum(pk_size[perm].astype(np.int64)))
    )
    key_mod = np.int64(n_slots + 2)
    key = dev_s * key_mod + kd_s

    D = workload.n_devices
    seg = np.searchsorted(dev_s, np.arange(D + 1, dtype=np.int64))
    qhead = seg[:-1].copy()
    probe = np.arange(D, dtype=np.int64) * key_mod
    r_s = np.full(dev_s.size, n_slots, dtype=np.int64)

    for j in range(dec.size):
        i = int(dec[j])
        qtail = np.searchsorted(key, probe + i, side="right")
        backlog = byte_prefix[qtail] - byte_prefix[qhead]
        score = backlog.astype(np.float64) * q[j]
        fired = np.nonzero((qtail > qhead) & (score >= v))[0]
        if fired.size:
            idx, _ = _csr_expand(qhead[fired], qtail[fired])
            r_s[idx] = i
            qhead[fired] = qtail[fired]

    release = np.empty(dev_s.size, dtype=np.int64)
    release[perm] = r_s
    return _build_loopfree(
        workload, table, release, pk_app, pk_dev, pk_arr, pk_size, n_slots
    )
