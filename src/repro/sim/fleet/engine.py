"""Vectorized slot dynamics over device columns.

One :class:`~repro.sim.engine.Simulation` walks 7 200 one-second slots
per device with Python objects per packet.  This module restates the
same dense-loop semantics over NumPy arrays indexed by device, for the
strategies whose decision rules admit column form:

* **immediate** and **periodic** release on slots that are a pure
  function of arrival times (and the shared fire clock), so the whole
  run collapses to array arithmetic with no slot loop at all;
* **tailender** needs one cheap slot loop (its earliest-deadline fire
  clock resets on every release) but no channel access inside it;
* **etrain** runs Algorithm 1 itself — Θ-threshold checks, the
  Lyapunov greedy pick, warm-radio gating and heartbeat drains —
  vectorized across all devices of the chunk, with the delay-cost sums
  P_i(t) maintained as closed-form aggregates instead of per-packet
  scans (see below).  It visits only the slots where a device's state
  can change, one device-asynchronous round per event (see
  :func:`_simulate_etrain`).

Aggregate delay costs
---------------------
Every supported cost function is affine in the packet's arrival time on
each side of its deadline, so an app's queue cost at time ``u`` is a
function of four running sums — pre/post-deadline packet counts and
arrival-time sums::

    mail  (f1):  P = (n_post·u − s_post)/D − n_post
    weibo (f2):  P = (n_pre·u − s_pre)/D + 2·n_post
    cloud (f3):  P = (n_pre·u − s_pre)/D + 3·(n_post·u − s_post)/D − 2·n_post

The engine keeps *two* aggregate sets per (app, device): one classifying
packets at slot time ``t`` (the Θ check) and one at ``t+1`` (the
speculative costs the greedy gain uses).  A packet's pre→post transition
slot is precomputed with the same float comparison ``(k − arrival) > D``
the scalar branches on, so the split is bit-faithful; only the *sums*
round differently from the scalar sequential additions (~1e-13, reset to
exact zero at every heartbeat drain).

Equivalence to a per-device scalar loop is covered by
``tests/test_fleet_equivalence.py``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.radio.power_model import GALAXY_S4_3G, PowerModel
from repro.sim.fleet.channel import ChannelTable
from repro.sim.fleet.workload import FleetWorkload

__all__ = [
    "FleetChunkRaw",
    "simulate_fleet_chunk",
    "slice_chunk_raw",
    "fleet_slot_count",
]

#: Burst kinds, mirroring TransmissionRecord.kind.
KIND_HEARTBEAT, KIND_DATA, KIND_PIGGYBACK = 0, 1, 2

_SERIALIZE_MAX_ITER = 500
#: Bursts per serialisation fixed-point segment (device-aligned); bounds
#: the solver's per-iteration temporaries for bursty strategies.
_SERIALIZE_SEGMENT = 1 << 19


@dataclass
class FleetChunkRaw:
    """Raw simulation output of one chunk: bursts plus packet→burst map.

    Burst rows are ordered chronologically within each device (a stable
    sort by ``burst_dev`` yields each device's burst sequence).  Every
    packet is scheduled — end-of-horizon flushes transmit leftovers just
    like the scalar engine — so ``pk_burst`` is total.
    """

    n_devices: int
    horizon: float
    n_slots: int
    # bursts
    burst_dev: np.ndarray  # int64
    burst_start: np.ndarray  # float64
    burst_dur: np.ndarray  # float64
    burst_size: np.ndarray  # float64 (bytes)
    burst_kind: np.ndarray  # int8
    # packets (app-major flat order: app 0's CSR, then app 1's, ...)
    pk_app: np.ndarray  # int64
    pk_dev: np.ndarray  # int64
    pk_arr: np.ndarray  # float64
    pk_size: np.ndarray  # int64
    pk_burst: np.ndarray  # int64 row into burst arrays
    # per-app metadata (copied from the workload)
    cost_kinds: np.ndarray
    deadlines: np.ndarray


def slice_chunk_raw(raw: FleetChunkRaw, lo: int, hi: int) -> FleetChunkRaw:
    """Restrict a chunk's raw output to devices ``[lo, hi)``, re-based to 0.

    Devices are simulated independently, so the slice carries exactly the
    floats a standalone ``[lo, hi)`` chunk would produce — the serve
    layer's coalesced batch path leans on this to answer each request
    with its own device range after one fused kernel call.  Row order is
    preserved, so downstream reductions sum in the same order too.
    """
    if not 0 <= lo <= hi <= raw.n_devices:
        raise ValueError(
            f"device slice [{lo}, {hi}) outside chunk of {raw.n_devices}"
        )
    if lo == 0 and hi == raw.n_devices:
        return raw
    bm = (raw.burst_dev >= lo) & (raw.burst_dev < hi)
    pm = (raw.pk_dev >= lo) & (raw.pk_dev < hi)
    # New row index of each kept burst, for re-pointing pk_burst.
    remap = np.cumsum(bm, dtype=np.int64) - 1
    return FleetChunkRaw(
        n_devices=hi - lo,
        horizon=raw.horizon,
        n_slots=raw.n_slots,
        burst_dev=raw.burst_dev[bm] - lo,
        burst_start=raw.burst_start[bm],
        burst_dur=raw.burst_dur[bm],
        burst_size=raw.burst_size[bm],
        burst_kind=raw.burst_kind[bm],
        pk_app=raw.pk_app[pm],
        pk_dev=raw.pk_dev[pm] - lo,
        pk_arr=raw.pk_arr[pm],
        pk_size=raw.pk_size[pm],
        pk_burst=remap[raw.pk_burst[pm]],
        cost_kinds=raw.cost_kinds,
        deadlines=raw.deadlines,
    )


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _flat_packets(w: FleetWorkload):
    """App-major flat packet arrays + per-app flat base offsets."""
    devs, apps = [], []
    base = np.zeros(w.n_apps + 1, dtype=np.int64)
    for a in range(w.n_apps):
        counts = np.diff(w.offsets[a])
        devs.append(np.repeat(np.arange(w.n_devices, dtype=np.int64), counts))
        apps.append(np.full(w.arrivals[a].size, a, dtype=np.int64))
        base[a + 1] = base[a] + w.arrivals[a].size
    pk_app = np.concatenate(apps) if apps else np.empty(0, np.int64)
    pk_dev = np.concatenate(devs) if devs else np.empty(0, np.int64)
    pk_arr = np.concatenate(w.arrivals) if w.arrivals else np.empty(0, np.float64)
    pk_size = np.concatenate(w.sizes) if w.sizes else np.empty(0, np.int64)
    return pk_app, pk_dev, pk_arr, pk_size, base


def _delivery_slots(arr: np.ndarray, n_slots: int) -> np.ndarray:
    """First slot whose start time is >= the arrival (the dense loop
    delivers at step 1 of slot i when arrival <= i)."""
    kd = np.ceil(arr).astype(np.int64)
    return np.minimum(kd, n_slots)


def _transition_slots(arr: np.ndarray, deadline: float) -> np.ndarray:
    """Smallest integer k with ``(k − arrival) > deadline`` — evaluated
    with the same float64 subtraction the scalar cost branches use, so
    aggregate pre/post splits agree with per-packet comparisons exactly."""
    k = np.floor(arr + deadline).astype(np.int64) - 2
    for _ in range(6):
        post = (k.astype(np.float64) - arr) > deadline
        k = np.where(post, k, k + 1)
    return k


def _heartbeat_table(w: FleetWorkload, n_slots: int):
    """All heartbeats of the chunk as flat arrays.

    Returns (time, dev, train, slot, rank) sorted by (dev, slot, time,
    alphabetical app id) — rank 0 marks each (dev, slot) group's first
    heartbeat, the payload carrier, matching merge_heartbeats' tie-break.
    """
    D, T = w.n_devices, w.n_trains
    times, devs, trains = [], [], []
    for t in range(T):
        cycle = float(w.train_cycles[t])
        phases = w.train_phases[t]
        counts = np.ceil((w.horizon - phases) / cycle).astype(np.int64)
        np.maximum(counts, 0, out=counts)
        total = int(counts.sum())
        if total == 0:
            continue
        dev = np.repeat(np.arange(D, dtype=np.int64), counts)
        csum = np.concatenate(([0], np.cumsum(counts)[:-1]))
        seq = np.arange(total, dtype=np.int64) - np.repeat(csum, counts)
        tm = phases[dev] + seq.astype(np.float64) * cycle
        keep = tm < w.horizon
        times.append(tm[keep])
        devs.append(dev[keep])
        trains.append(np.full(int(keep.sum()), t, dtype=np.int64))
    if not times:
        z = np.empty(0, np.int64)
        return np.empty(0, np.float64), z, z, z, z
    time = np.concatenate(times)
    dev = np.concatenate(devs)
    train = np.concatenate(trains)
    slot = np.minimum(np.floor(time).astype(np.int64), n_slots - 1)
    alpha = np.argsort(np.argsort(np.asarray(w.train_ids)))  # alphabetical rank
    order = np.lexsort((alpha[train], time, slot, dev))
    time, dev, train, slot = time[order], dev[order], train[order], slot[order]
    newgrp = np.ones(time.size, dtype=bool)
    newgrp[1:] = (dev[1:] != dev[:-1]) | (slot[1:] != slot[:-1])
    grp = np.cumsum(newgrp) - 1
    starts = np.nonzero(newgrp)[0]  # first row of each (dev, slot) group
    rank = np.arange(time.size, dtype=np.int64) - starts[grp]
    return time, dev, train, slot, rank


def _csr_expand(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Expand [lo, hi) ranges to flat indices; also returns per-range
    repeat counts (for np.repeat of per-range payloads)."""
    lens = hi - lo
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, np.int64), lens
    csum = np.concatenate(([0], np.cumsum(lens)[:-1]))
    idx = np.repeat(lo, lens) + (np.arange(total, dtype=np.int64) - np.repeat(csum, lens))
    return idx, lens


class _GrowBuffer:
    """Geometrically grown tx-record buffer (amortized O(1) extend).

    Replaces append-then-concatenate lists for per-chunk burst records:
    peak memory stays bounded by ~2x the final record bytes (capacity
    doubling) instead of the piece list *plus* a full concatenation at
    finalize, and thousands of per-slot array objects collapse into one.
    """

    __slots__ = ("_data", "_n")

    def __init__(self, dtype, capacity: int = 1024) -> None:
        self._data = np.empty(capacity, dtype=dtype)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def extend(self, values: np.ndarray) -> None:
        need = self._n + values.size
        cap = self._data.size
        if need > cap:
            while cap < need:
                cap *= 2
            grown = np.empty(cap, dtype=self._data.dtype)
            grown[: self._n] = self._data[: self._n]
            self._data = grown
        self._data[self._n : need] = values
        self._n = need

    def view(self) -> np.ndarray:
        """The filled prefix (a view; copy if outliving the buffer)."""
        return self._data[: self._n]


def _serialize_segment(table, req_s, dev_s, size_s):
    """The monotone fixed point over one device-aligned burst segment."""
    seg_start = np.ones(req_s.size, dtype=bool)
    seg_start[1:] = dev_s[1:] != dev_s[:-1]
    starts = req_s.copy()
    for _ in range(_SERIALIZE_MAX_ITER):
        durs = table.durations(starts, size_s)
        ends = starts + durs
        prev_end = np.empty_like(ends)
        prev_end[0] = 0.0
        prev_end[1:] = ends[:-1]
        prev_end[seg_start] = 0.0
        new = np.maximum(req_s, prev_end)
        if np.array_equal(new, starts):
            return starts, durs
        starts = new
    raise RuntimeError("burst serialisation did not converge")


def _serialize(table, req, dev, size, tie):
    """Radio serialisation: start_k = max(req_k, end_{k-1}) per device.

    Solved as a monotone fixed point so the whole fleet's bursts go
    through batched channel solves; the least fixed point equals the
    scalar radio's sequential recurrence.  Returns (perm, starts, durs)
    with all inputs to be reindexed by ``perm`` (sorted by device, then
    requested time, then ``tie``).

    The fixed point runs over device-aligned segments of at most
    ``_SERIALIZE_SEGMENT`` bursts: devices are independent, so segment
    results are identical to one whole-array solve, while the solver's
    per-iteration temporaries stay segment-sized instead of fleet-sized
    (the peak-RSS spike for bursty strategies like ``immediate``).
    """
    perm = np.lexsort((tie, req, dev))
    req_s, dev_s, size_s = req[perm], dev[perm], size[perm]
    n = req_s.size
    starts = np.empty(n, dtype=np.float64)
    durs = np.empty(n, dtype=np.float64)
    lo = 0
    while lo < n:
        hi = min(lo + _SERIALIZE_SEGMENT, n)
        if hi < n:
            # never cut inside a device run: the recurrence chains
            # through a device's bursts
            hi = int(np.searchsorted(dev_s, dev_s[hi - 1], side="right"))
        s, d = _serialize_segment(
            table, req_s[lo:hi], dev_s[lo:hi], size_s[lo:hi]
        )
        starts[lo:hi] = s
        durs[lo:hi] = d
        lo = hi
    return perm, starts, durs


# ---------------------------------------------------------------------------
# loop-free release slots (immediate / periodic) + tailender's slot loop
# ---------------------------------------------------------------------------


def _periodic_fires(n_slots: int, period: float) -> np.ndarray:
    """Replay FixedBatchStrategy's fire clock over integer slots."""
    fires = []
    last = 0.0
    for i in range(n_slots):
        if i - last + 1e-9 >= period:
            fires.append(i)
            last = float(i)
    return np.asarray(fires, dtype=np.int64)


def _release_slots_tailender(
    w: FleetWorkload,
    pk_app,
    pk_dev,
    pk_arr,
    n_slots: int,
    slack: float,
) -> np.ndarray:
    """TailEnder's per-device fire clock, vectorized across devices.

    Fires at slot i iff the earliest queued due time is <= i + 1 and
    releases the whole queue; the queue is a contiguous range of the
    device's arrival-sorted packets, so each fire is one (lo, hi) event.
    """
    D = w.n_devices
    perm = np.lexsort((pk_arr, pk_dev))
    dev_s = pk_dev[perm]
    arr_s = pk_arr[perm]
    due_s = arr_s + w.deadlines[pk_app[perm]] - slack
    kd_s = _delivery_slots(arr_s, n_slots)
    border = np.argsort(kd_s, kind="stable")
    bnd = np.searchsorted(kd_s[border], np.arange(n_slots + 1))
    seg = np.searchsorted(dev_s, np.arange(D + 1))
    qhead = seg[:-1].copy()
    qtail = seg[:-1].copy()
    min_due = np.full(D, np.inf)
    ev_dev: List[np.ndarray] = []
    ev_slot: List[int] = []
    ev_lo: List[np.ndarray] = []
    ev_hi: List[np.ndarray] = []
    for i in range(n_slots):
        sl = border[bnd[i] : bnd[i + 1]]
        if sl.size:
            np.minimum.at(min_due, dev_s[sl], due_s[sl])
            np.add.at(qtail, dev_s[sl], 1)
        fired = np.nonzero(min_due <= i + 1.0)[0]
        if fired.size:
            ev_dev.append(fired)
            ev_slot.append(i)
            ev_lo.append(qhead[fired].copy())
            ev_hi.append(qtail[fired].copy())
            qhead[fired] = qtail[fired]
            min_due[fired] = np.inf
    r_s = np.full(dev_s.size, n_slots, dtype=np.int64)
    if ev_dev:
        lo = np.concatenate(ev_lo)
        hi = np.concatenate(ev_hi)
        slots = np.concatenate(
            [np.full(d.size, s, dtype=np.int64) for d, s in zip(ev_dev, ev_slot)]
        )
        idx, lens = _csr_expand(lo, hi)
        r_s[idx] = np.repeat(slots, lens)
    r = np.empty(dev_s.size, dtype=np.int64)
    r[perm] = r_s
    return r


def _build_loopfree(
    w: FleetWorkload,
    table: ChannelTable,
    release: np.ndarray,
    pk_app,
    pk_dev,
    pk_arr,
    pk_size,
    n_slots: int,
) -> FleetChunkRaw:
    """Turn per-packet release slots into serialized bursts.

    Valid only for strategies with ``requires_warm_radio=False``:
    released packets transmit in their release slot (piggybacked when
    that slot carries a heartbeat for the device, a data burst at the
    slot start otherwise), and nothing is ever held for warmth.
    """
    key_mod = n_slots + 1
    h_time, h_dev, h_train, h_slot, h_rank = _heartbeat_table(w, n_slots)
    carrier = h_rank == 0
    ckey = h_dev[carrier] * key_mod + h_slot[carrier]  # ascending by build order
    c_index = np.nonzero(carrier)[0]

    pkey = pk_dev * key_mod + release
    pos = np.searchsorted(ckey, pkey)
    pos_c = np.minimum(pos, max(ckey.size - 1, 0))
    matched = (
        (ckey.size > 0) & (pos < ckey.size) & (ckey[pos_c] == pkey)
        if ckey.size
        else np.zeros(pkey.size, dtype=bool)
    )
    if np.ndim(matched) == 0:
        matched = np.broadcast_to(matched, pkey.shape).copy()

    # heartbeat bursts (one per heartbeat; carriers absorb matched bytes)
    hb_size = w.train_sizes[h_train].astype(np.float64)
    payload = np.zeros(c_index.size, dtype=np.float64)
    pay_cnt = np.zeros(c_index.size, dtype=np.int64)
    if matched.any():
        ci = pos[matched]
        np.add.at(payload, ci, pk_size[matched].astype(np.float64))
        np.add.at(pay_cnt, ci, 1)
        ci = None
    hb_burst_size = hb_size.copy()
    hb_burst_size[c_index] += payload
    hb_kind = np.full(h_time.size, KIND_HEARTBEAT, dtype=np.int8)
    hb_kind[c_index[pay_cnt > 0]] = KIND_PIGGYBACK

    # data bursts: unmatched releases before the horizon, one per (dev, slot)
    um = ~matched & (release < n_slots)
    dkeys, dinv = np.unique(pkey[um], return_inverse=True)
    data_size = np.bincount(dinv, weights=pk_size[um], minlength=dkeys.size)
    data_dev = dkeys // key_mod
    data_req = (dkeys % key_mod).astype(np.float64)

    # flush bursts: whatever was never released transmits at the horizon
    fm = release >= n_slots
    fdevs, finv = np.unique(pk_dev[fm], return_inverse=True)
    flush_size = np.bincount(finv, weights=pk_size[fm], minlength=fdevs.size)

    req = np.concatenate((h_time, data_req, np.full(fdevs.size, w.horizon)))
    dev = np.concatenate((h_dev, data_dev, fdevs))
    size = np.concatenate((hb_burst_size, data_size, flush_size))
    kind = np.concatenate(
        (
            hb_kind,
            np.full(dkeys.size, KIND_DATA, dtype=np.int8),
            np.full(fdevs.size, KIND_DATA, dtype=np.int8),
        )
    )
    tie = np.concatenate(
        (h_rank, np.full(dkeys.size, 90, np.int64), np.full(fdevs.size, 99, np.int64))
    )

    # packet -> burst rows (pre-sort indices, remapped after serialization)
    pk_burst = np.empty(pkey.size, dtype=np.int64)
    if matched.any():
        pk_burst[matched] = c_index[pos[matched]]
    pk_burst[um] = h_time.size + dinv
    pk_burst[fm] = h_time.size + dkeys.size + finv
    # Packet-sized matching scratch is done; free it ahead of the
    # serialisation solve so the two peaks don't stack.
    del pkey, pos, pos_c, matched, um, fm, dinv, finv

    perm, starts, durs = _serialize(table, req, dev, size, tie)
    inv = np.empty(perm.size, dtype=np.int64)
    inv[perm] = np.arange(perm.size, dtype=np.int64)
    return FleetChunkRaw(
        n_devices=w.n_devices,
        horizon=w.horizon,
        n_slots=n_slots,
        burst_dev=dev[perm],
        burst_start=starts,
        burst_dur=durs,
        burst_size=size[perm],
        burst_kind=kind[perm],
        pk_app=pk_app,
        pk_dev=pk_dev,
        pk_arr=pk_arr,
        pk_size=pk_size,
        pk_burst=inv[pk_burst],
        cost_kinds=w.cost_kinds.copy(),
        deadlines=w.deadlines.copy(),
    )


# ---------------------------------------------------------------------------
# eTrain: Algorithm 1 in device-asynchronous rounds
# ---------------------------------------------------------------------------


def _cost_aggregate(kind: int, deadline: float, u: float, n_pre, s_pre, n_post, s_post):
    """Closed-form Σ φ(u − arrival) from the four running sums."""
    if kind == 0:  # mail: pre-deadline packets cost 0
        return (n_post * u - s_post) / deadline - n_post
    if kind == 1:  # weibo: post-deadline packets saturate at 2
        return (n_pre * u - s_pre) / deadline + 2.0 * n_post
    # cloud
    return (
        (n_pre * u - s_pre) / deadline
        + 3.0 * (n_post * u - s_post) / deadline
        - 2.0 * n_post
    )


def _head_spec_raw(kind: int, deadline: float, d: np.ndarray) -> np.ndarray:
    """φ(d) branch arithmetic without the errstate guard (hot loops
    enter ``np.errstate`` once around the whole loop instead)."""
    if kind == 0:
        return np.where(d <= deadline, 0.0, d / deadline - 1.0)
    if kind == 1:
        return np.where(d <= deadline, d / deadline, 2.0)
    return np.where(d <= deadline, d / deadline, 3.0 * d / deadline - 2.0)


def _head_spec(kind: int, deadline: float, d: np.ndarray) -> np.ndarray:
    """φ(d) with the exact scalar branch arithmetic, vectorized."""
    with np.errstate(invalid="ignore"):
        return _head_spec_raw(kind, deadline, d)


def _theta_step_for(kinds_arr: np.ndarray, dls_arr: np.ndarray) -> Callable:
    """The Θ-cost step bound to one chunk's app axis.

    ``step(u, n_pre, s_pre, n_post, s_post, out)`` writes P(t) per device
    into ``out``: the closed-form Σφ of each app, folded in app order
    (``out += C[a]``) to match the scalar ``instantaneous_cost``
    left-fold bit for bit.  ``u`` is a scalar or any array that
    broadcasts against one app's sums (each element is its own time).
    """
    per_app = [
        (int(kinds_arr[a]), float(dls_arr[a])) for a in range(kinds_arr.shape[0])
    ]

    def step(u, n_pre, s_pre, n_post, s_post, out):
        out[...] = 0.0
        for a, (kind, dl) in enumerate(per_app):
            out += _cost_aggregate(kind, dl, u, n_pre[a], s_pre[a], n_post[a], s_post[a])

    return step


#: Per cost kind, the (pre, post, count) coefficients of its closed form
#: ``P = (pre·(n_pre·u − s_pre) + post·(n_post·u − s_post))/D + count·n_post``.
_KIND_COEF = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 2.0], [1.0, 3.0, -2.0]])


def _theta_crossing_for(kinds_arr: np.ndarray, dls_arr: np.ndarray) -> Callable:
    """The Θ-crossing search bound to one chunk's app axis.

    ``cross(lo, hi, theta, sums)`` returns, per device column, the first
    slot ``t`` in ``[lo, hi)`` at which the Θ step gives ``P(t) >= theta``,
    or ``hi`` when there is none; ``sums`` stacks (n_pre, s_pre, n_post,
    s_post), each (apps, devices).  With the sums fixed every cost kind
    is non-decreasing in ``u``, and so is each IEEE operation of the
    step, so the float ``P`` is monotone in ``t``.  A closed-form guess
    of the linear crossing is therefore made exact by checking ``P`` at
    the guess and one slot before it, stepping until both checks hold.
    """
    step = _theta_step_for(kinds_arr, dls_arr)
    A = kinds_arr.shape[0]
    coef = _KIND_COEF[np.asarray(kinds_arr, dtype=np.int64)]
    c_pre, c_post, c_cnt = coef[:, 0] / dls_arr, coef[:, 1] / dls_arr, coef[:, 2]
    # (slope, intercept) of the linear P as one product with the sums
    lin = np.zeros((2, 4, A))
    lin[0, 0], lin[0, 2] = c_pre, c_post
    lin[1, 1], lin[1, 2], lin[1, 3] = -c_pre, c_cnt, -c_post
    lin = lin.reshape(2, 4 * A)

    def cross(lo, hi, theta, sums):
        lo = lo.astype(np.float64)
        hi = hi.astype(np.float64)
        theta = np.broadcast_to(theta, lo.shape)
        slope, icpt = lin @ sums.reshape(4 * A, -1)
        # A zero slope means a constant P: every u term is multiplied by
        # an exact zero count.
        rising = slope > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            guess = np.ceil((theta - icpt) / slope)
        g = np.clip(np.where(rising, guess, lo), lo, hi)
        cols = None  # every column on the first pass
        while True:
            if cols is None:
                gi, li, hi_i, th, sub = g, lo, hi, theta, sums
            else:
                gi, li, hi_i, th = g[cols], lo[cols], hi[cols], theta[cols]
                sub = sums[:, :, cols]
            # P at the guess and one slot before, in one step call
            u = np.empty((2, gi.size))
            u[0] = gi
            np.subtract(gi, 1.0, out=u[1])
            P = np.empty_like(u)
            step(u, sub[0], sub[1], sub[2], sub[3], P)
            at_or_after = (gi >= hi_i) | (P[0] >= th)
            up = np.flatnonzero(~at_or_after)
            down = np.flatnonzero(at_or_after & (gi > li) & (P[1] >= th))
            if not (up.size or down.size):
                return g.astype(np.int64)
            idx = np.arange(gi.size) if cols is None else cols
            if up.size:
                rise = rising[idx[up]]
                g[idx[up]] = np.where(rise, gi[up] + 1.0, hi_i[up])
                up = up[rise]  # a constant P that misses never crosses
            g[idx[down]] = gi[down] - 1.0
            cols = idx[np.concatenate((up, down))]
            if not cols.size:
                return g.astype(np.int64)

    return cross


def _run_ends(cell: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Per flat packet, one past the last packet of its (cell, key) run."""
    n = cell.size
    if n == 0:
        return np.empty(0, np.int64)
    new = np.ones(n, dtype=bool)
    new[1:] = (cell[1:] != cell[:-1]) | (key[1:] != key[:-1])
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], n)
    return ends[np.cumsum(new) - 1]


def _simulate_etrain(
    w: FleetWorkload,
    table: ChannelTable,
    pk_app,
    pk_dev,
    pk_arr,
    pk_size,
    base,
    n_slots: int,
    theta,
    warm_gate: bool,
    pm: PowerModel,
    *,
    on_release=None,
    defer=None,
) -> FleetChunkRaw:
    """Algorithm 1 over a chunk, one round per device event.

    A device's state only changes in slots where a packet is delivered,
    a queued packet crosses its deadline, a heartbeat departs, a deferred
    buffer may release, or P(t) reaches Θ.  Each round moves every device
    to its own next such slot (the Θ crossing comes from the monotone
    search of :func:`_theta_crossing_for`) and runs that slot's steps for
    all of them at once, so the loop runs once per event of the busiest
    device rather than once per slot.  Rows are emitted in round order
    and put back into per-slot order at the end: within a slot, Θ
    releases by app then device, deferred releases by device, heartbeat
    carriers by device, heartbeats of rank >= 1 by rank then device, and
    the final flush after the last slot.

    ``on_release(pick_dev, pick_slot, pick_delay, hb_dev, hb_slot, hb_lo,
    hb_hi)`` receives each round's selection-time releases: single Θ
    picks with their delays, and heartbeat drains as (apps, n) flat
    packet bounds of the queue frozen before the drain.

    Inside a :func:`~repro.obs.metrics.metrics_scope`, each sub-phase's
    chunk total is observed once as ``fleet.phase.etrain.<phase>_s``
    and the round count added to ``fleet.phase.etrain.rounds``.
    """
    from repro.obs.metrics import current_registry

    registry = current_registry()
    clk = time.perf_counter if registry is not None else None
    t_setup = clk() if clk else 0.0

    A, D = w.n_apps, w.n_devices
    AD = A * D
    tail_time = pm.tail_time
    horizon = w.horizon
    kinds = [int(k) for k in w.cost_kinds]
    dls = [float(d) for d in w.deadlines]
    kinds_arr = np.asarray(kinds, dtype=np.int64)
    dls_arr = np.asarray(dls, dtype=np.float64)
    theta_costs = _theta_step_for(kinds_arr, dls_arr)
    theta_cross = _theta_crossing_for(kinds_arr, dls_arr)
    theta_dev = np.broadcast_to(np.asarray(theta, dtype=np.float64), (D,))

    # Packets in the app-major flat order of ``pk_*``.  A cell is one
    # (app, device) queue, numbered ``app * D + device`` in the same order.
    N = pk_arr.size
    size_f = pk_size.astype(np.float64)
    cell = pk_app * D + pk_dev
    cell_lo = np.searchsorted(cell, np.arange(AD))
    kd = _delivery_slots(pk_arr, n_slots)
    kp = _transition_slots(pk_arr, dls_arr[pk_app])
    dl_end = _run_ends(cell, kd)
    tr_end = _run_ends(cell, kp)
    # Per-packet event slots, padded with one "none" (n_slots) after each
    # cell: pointer ``j`` of cell ``c`` reads position ``j + c``, and a
    # pointer at the cell's end reads its pad.
    pad = np.arange(N) + cell

    def padded(v):
        out = np.full(N + AD, n_slots, dtype=np.int64)
        out[pad] = np.minimum(v, n_slots)
        return out

    kd_p, kp_p, kpm_p = padded(kd), padded(kp), padded(kp - 1)

    # queue pointers per cell (flat packet indices): delivered below
    # ``tail``, selected below ``head``, in/spec-set transitions applied
    # below ``tin``/``tsp``
    head = cell_lo.copy()
    tail = cell_lo.copy()
    tin = cell_lo.copy()
    tsp = cell_lo.copy()
    aoff = (np.arange(A, dtype=np.int64) * D)[:, None]  # + device: (A, n) cells

    # heartbeats grouped per (device, slot); rank 0 is the carrier
    h_time, h_dev, h_train, h_slot, h_rank = _heartbeat_table(w, n_slots)
    g_first = np.flatnonzero(h_rank == 0)
    g_len = np.diff(np.append(g_first, h_rank.size))
    g_dev_end = np.searchsorted(h_dev[g_first], np.arange(D), side="right")
    hg_ptr = np.searchsorted(h_dev[g_first], np.arange(D))
    g_slot_x = np.append(h_slot[g_first], n_slots)
    n_groups = g_first.size
    h_sizes = w.train_sizes.astype(np.float64)
    max_rank = int(h_rank.max()) if h_rank.size else 0

    # Next slot of each scheduled event per device: rows [0, A) delivery,
    # [A, 2A) in-set transition, [2A, 3A) spec-set transition (one row
    # per app), then heartbeat and deferred release.
    NX = np.full((3 * A + 2, D), n_slots, dtype=np.int64)
    nd = NX[:A].reshape(-1)
    ni = NX[A : 2 * A].reshape(-1)
    ns = NX[2 * A : 3 * A].reshape(-1)
    nh = NX[3 * A]
    nf = NX[3 * A + 1]
    nd[:] = kd_p[tail + np.arange(AD)]
    ni[:] = kp_p[tin + np.arange(AD)]
    ns[:] = kpm_p[tsp + np.arange(AD)]
    nh[:] = g_slot_x[np.where(hg_ptr < g_dev_end, hg_ptr, n_groups)]

    # Running sums: Z[0] classifies packets at slot time t (the Θ check),
    # Z[1] at t + 1 (the speculative costs of the greedy gain); each
    # stacks (n_pre, s_pre, n_post, s_post) x (app, device).
    Z = np.zeros((2, 4, A, D), dtype=np.float64)
    IN = Z[0]
    in_rows = list(Z[0].reshape(4, AD))  # 1-D views per cell
    sp_rows = list(Z[1].reshape(4, AD))
    wait_f = np.zeros(AD, dtype=np.float64)  # queued bytes per cell
    qn = np.zeros(D, dtype=np.int64)  # queued packets per device
    held_bytes = np.zeros(D, dtype=np.float64)
    held_cnt = np.zeros(D, dtype=np.int64)
    # channel-aware deferral buffers (``defer=(release_ok, max_defer)``):
    # theta releases park here until the slot's shared channel quality
    # clears the gate or patience runs out; heartbeat slots always drain
    # them onto the carrier, exactly like the scalar strategy's
    # ``_deferred`` list.  ``def_start`` is the slot time the buffer last
    # turned non-empty (the scalar ``_defer_started``).
    if defer is not None:
        release_ok, max_defer = defer
        release_ok = np.asarray(release_ok, dtype=bool)
        # first slot >= i whose quality clears the gate
        ok_slots = np.append(np.flatnonzero(release_ok[:n_slots]), n_slots)
        next_ok = ok_slots[np.searchsorted(ok_slots, np.arange(n_slots + 1))]
        # over integer slot times, (t - start) >= max_defer holds from
        # start + ceil(max_defer) on (never for inf or nan)
        patience = (
            min(math.ceil(max_defer), n_slots) if math.isfinite(max_defer) else None
        )
        def_bytes = np.zeros(D, dtype=np.float64)
        def_cnt = np.zeros(D, dtype=np.int64)
        def_start = np.zeros(D, dtype=np.float64)
        def_flats: List[List[int]] = [[] for _ in range(D)]
    busy = np.zeros(D, dtype=np.float64)
    has_rec = np.zeros(D, dtype=bool)
    cur = np.zeros(D, dtype=np.int64)  # first slot not yet visited

    # outputs, in round order (geometric buffers: see _GrowBuffer); the
    # row key puts them back into per-slot order at the end
    b_dev = _GrowBuffer(np.int64)
    b_start = _GrowBuffer(np.float64)
    b_dur = _GrowBuffer(np.float64)
    b_size = _GrowBuffer(np.float64)
    b_kind = _GrowBuffer(np.int8)
    b_key = _GrowBuffer(np.int64)
    b_count = 0
    n_cat = 3 + max_rank  # Θ, deferred, carrier, ranks 1..max_rank
    dd_dev: List[np.ndarray] = []
    dd_slot: List[np.ndarray] = []
    dd_row: List[np.ndarray] = []
    dd_lo: List[np.ndarray] = []
    dd_hi: List[np.ndarray] = []
    pw_flat: List[np.ndarray] = []
    pw_row: List[np.ndarray] = []
    pc_flat: List[np.ndarray] = []
    pc_dev: List[np.ndarray] = []
    pc_slot: List[np.ndarray] = []

    def emit(devs, reqs, sizes, kinds_, keys):
        """Append bursts (each device at most once); returns their rows."""
        nonlocal b_count
        starts = np.maximum(reqs, busy[devs])
        durs = table.durations(starts, sizes)
        busy[devs] = starts + durs
        has_rec[devs] = True
        rows = np.arange(b_count, b_count + devs.size, dtype=np.int64)
        b_count += devs.size
        b_dev.extend(devs)
        b_start.extend(starts)
        b_dur.extend(durs)
        b_size.extend(sizes)
        b_kind.extend(kinds_)
        b_key.extend(keys)
        return rows

    pending = []  # this round's bursts, sent in one emit call

    def send(devs, reqs, sizes, kinds_, keys):
        """Queue bursts for the round's emit; returns their rows.  Each
        device sends at most one data burst or one carrier in a slot."""
        first = b_count + sum(p[0].size for p in pending)
        pending.append((devs, reqs, sizes, kinds_, keys))
        return np.arange(first, first + devs.size, dtype=np.int64)

    def row_key(slots, cat, sub, devs):
        return ((slots * n_cat + cat) * (A + 1) + sub) * D + devs

    def retarget(c):
        """Re-read the next transition slots of cells whose head moved."""
        h = head[c]
        ni[c] = kp_p[np.maximum(h, tin[c]) + c]
        ns[c] = kpm_p[np.maximum(h, tsp[c]) + c]

    def flats(devs):
        return np.asarray([f for d in devs for f in def_flats[d]], dtype=np.int64)

    if clk:
        setup_s = clk() - t_setup
        acc_q = acc_d = acc_h = 0.0

    never = np.full(D, np.inf)
    P = np.empty(D, dtype=np.float64)
    rounds = 0
    while True:
        if clk:
            ts = clk()
        # next event per device: the earliest scheduled one, or an earlier
        # Θ crossing while packets are queued
        es = NX.min(axis=0)
        es = theta_cross(cur, es, np.where(qn > 0, theta_dev, never), IN)
        live = es < n_slots
        ev = np.flatnonzero(live)
        if not ev.size:
            break
        rounds += 1
        if clk:  # finding the crossings is part of the Θ decision
            acc_d += clk() - ts
            ts = clk()
        e_cmp = np.where(live, es, -1)
        tf = es.astype(np.float64)
        picks = drains = None  # for on_release
        # 1. deliveries (arrival <= t): enter both aggregate sets as pre
        c = np.flatnonzero(NX[:A] == e_cmp)
        if c.size:
            lo = tail[c]
            hi = dl_end[lo]
            idx, lens = _csr_expand(lo, hi)
            lin = np.repeat(c, lens)
            ar = pk_arr[idx]
            for rows_ in (in_rows, sp_rows):
                rows_[0][c] += lens
                np.add.at(rows_[1], lin, ar)
            np.add.at(wait_f, lin, size_f[idx])
            tail[c] = hi
            nd[c] = kd_p[hi + c]
            np.add.at(qn, c % D, lens)
        # 2. pre->post transitions for still-queued packets
        for r0, ptr, rows_, nx, slots_p in (
            (A, tin, in_rows, ni, kp_p),
            (2 * A, tsp, sp_rows, ns, kpm_p),
        ):
            c = np.flatnonzero(NX[r0 : r0 + A] == e_cmp)
            if c.size:
                lo = np.maximum(head[c], ptr[c])
                hi = tr_end[lo]
                idx, lens = _csr_expand(lo, hi)
                lin = np.repeat(c, lens)
                ar = pk_arr[idx]
                rows_[0][c] -= lens
                np.add.at(rows_[1], lin, -ar)
                rows_[2][c] += lens
                np.add.at(rows_[3], lin, ar)
                ptr[c] = hi
                nx[c] = slots_p[hi + c]
        # 3. which devices see a heartbeat this slot
        hbm = nh == e_cmp
        if clk:
            acc_q += clk() - ts
            ts = clk()
        # 4. theta check on non-heartbeat devices with queued packets
        theta_costs(tf, IN[0], IN[1], IN[2], IN[3], P)
        fd = np.flatnonzero(live & ~hbm & (qn > 0) & (P >= theta_dev))
        # 5. single greedy pick per fired device: one masked reduction
        # over an (apps x fired) gain matrix
        if fd.size:
            ft, fs = tf[fd], es[fd]
            u = ft + 1.0
            cf = aoff + fd  # (A, F) cells
            h = head[cf]
            has = h < tail[cf]
            ar_h = pk_arr[np.minimum(h, N - 1)]
            S = [r[cf] for r in sp_rows]
            G = np.empty((A, fd.size))
            with np.errstate(invalid="ignore"):
                for a in range(A):
                    kind, dl = kinds[a], dls[a]
                    pb = _cost_aggregate(kind, dl, u, S[0][a], S[1][a], S[2][a], S[3][a])
                    s = _head_spec_raw(kind, dl, u - ar_h[a])
                    G[a] = np.where(has[a], pb * s - 0.5 * s * s, -np.inf)
            best = np.argmax(G, axis=0)  # first max wins, like the greedy scan
            picked = G[best, np.arange(fd.size)] > 0.0
            fd, ft, fs, best = fd[picked], ft[picked], fs[picked], best[picked]
        if fd.size:
            c = best * D + fd
            g = head[c]
            ar = pk_arr[g]
            sz = size_f[g]
            if on_release is not None:
                picks = (fd, fs, np.maximum(0.0, ft - ar))
            kg = kp[g]
            for post, rows_ in ((kg <= fs, in_rows), (kg <= fs + 1, sp_rows)):
                cp, ap = c[~post], ar[~post]
                rows_[0][cp] -= 1.0
                rows_[1][cp] -= ap
                cq, aq = c[post], ar[post]
                rows_[2][cq] -= 1.0
                rows_[3][cq] -= aq
            wait_f[c] -= sz
            head[c] = g + 1
            qn[fd] -= 1
            retarget(c)
            if defer is not None:
                # New releases join the buffer before this slot's
                # quality check (step 5b), like the scalar decide.
                fresh = def_cnt[fd] == 0
                def_start[fd[fresh]] = ft[fresh]
                def_bytes[fd] += sz
                def_cnt[fd] += 1
                for j, d in enumerate(fd):
                    def_flats[d].append(int(g[j]))
            else:
                warm = (
                    has_rec[fd] & (ft < busy[fd] + tail_time)
                    if warm_gate
                    else np.ones(fd.size, dtype=bool)
                )
                if not warm.all():
                    cold = ~warm
                    cd = fd[cold]
                    held_bytes[cd] += sz[cold]
                    held_cnt[cd] += 1
                    pc_flat.append(g[cold])
                    pc_dev.append(cd)
                    pc_slot.append(fs[cold])
                if warm.any():
                    wd = fd[warm]
                    pw_row.append(
                        send(
                            wd,
                            ft[warm],
                            sz[warm],
                            np.full(wd.size, KIND_DATA, dtype=np.int8),
                            row_key(fs[warm], 0, best[warm], wd),
                        )
                    )
                    pw_flat.append(g[warm])
        # 5b. channel-aware release: drain a device's deferred buffer when
        # the slot's quality clears the gate or patience has run out.
        # Heartbeat devices skip this — their buffer rides the carrier in
        # step 6, matching the scalar heartbeat branch.
        if defer is not None:
            rd = np.flatnonzero(live & ~hbm & (def_cnt > 0))
            rs, rt = es[rd], tf[rd]
            ok = release_ok[rs] | ((rt - def_start[rd]) >= max_defer)
            rd, rs, rt = rd[ok], rs[ok], rt[ok]
            if rd.size:
                warm = (
                    has_rec[rd] & (rt < busy[rd] + tail_time)
                    if warm_gate
                    else np.ones(rd.size, dtype=bool)
                )
                wd, cd = rd[warm], rd[~warm]
                if wd.size:
                    rows = send(
                        wd,
                        rt[warm],
                        def_bytes[wd],
                        np.full(wd.size, KIND_DATA, dtype=np.int8),
                        row_key(rs[warm], 1, 0, wd),
                    )
                    pw_row.append(np.repeat(rows, def_cnt[wd]))
                    pw_flat.append(flats(wd))
                if cd.size:
                    # Cold release: park with the held bytes; the packets
                    # ride the device's next heartbeat (or final flush).
                    held_bytes[cd] += def_bytes[cd]
                    held_cnt[cd] += def_cnt[cd]
                    pc_flat.append(flats(cd))
                    pc_dev.append(np.repeat(cd, def_cnt[cd]))
                    pc_slot.append(np.repeat(rs[~warm], def_cnt[cd]))
                def_bytes[rd] = 0.0
                def_cnt[rd] = 0
                for d in rd:
                    def_flats[d] = []
        if clk:
            acc_d += clk() - ts
            ts = clk()
        # 6. heartbeat slots: full drain rides the carrier, rest go bare
        hbd = np.flatnonzero(hbm)
        if hbd.size:
            hs = es[hbd]
            gi = hg_ptr[hbd]
            rows0 = g_first[gi]
            ch = aoff + hbd  # (A, H) cells
            q_cnt = qn[hbd]
            payload = held_bytes[hbd] + wait_f[ch].sum(axis=0)
            pay_cnt = held_cnt[hbd] + q_cnt
            if defer is not None:
                payload = payload + def_bytes[hbd]
                pay_cnt = pay_cnt + def_cnt[hbd]
            lo, hi = head[ch], tail[ch]
            if on_release is not None:
                # Queue bounds frozen before the drain resets them; only
                # devices whose scalar decide would release anything.
                qm = q_cnt > 0
                drains = (hbd[qm], hs[qm], lo[:, qm], hi[:, qm])
            rows = send(
                hbd,
                h_time[rows0],
                h_sizes[h_train[rows0]] + payload,
                np.where(pay_cnt > 0, KIND_PIGGYBACK, KIND_HEARTBEAT).astype(np.int8),
                row_key(hs, 2, 0, hbd),
            )
            if defer is not None:
                hd = def_cnt[hbd] > 0
                if hd.any():
                    hdev = hbd[hd]
                    pw_row.append(np.repeat(rows[hd], def_cnt[hdev]))
                    pw_flat.append(flats(hdev))
                    def_bytes[hdev] = 0.0
                    def_cnt[hdev] = 0
                    for d in hdev:
                        def_flats[d] = []
            dd_dev.append(hbd)
            dd_slot.append(hs)
            dd_row.append(rows)
            dd_lo.append(lo)
            dd_hi.append(hi)
            head[ch] = hi
            for r in in_rows + sp_rows:
                r[ch] = 0.0
            wait_f[ch] = 0.0
            held_bytes[hbd] = 0.0
            held_cnt[hbd] = 0
            qn[hbd] = 0
            retarget(ch)
        if pending:
            emit(*(np.concatenate(a) for a in zip(*pending)))
            pending.clear()
        if hbd.size:
            # the rest of a slot's heartbeats go bare, after the carrier
            for r in range(1, max_rank + 1):
                m = g_len[gi] > r
                if not m.any():
                    continue
                rr = rows0[m] + r
                emit(
                    hbd[m],
                    h_time[rr],
                    h_sizes[h_train[rr]],
                    np.full(rr.size, KIND_HEARTBEAT, dtype=np.int8),
                    row_key(hs[m], 2 + r, 0, hbd[m]),
                )
            gi = gi + 1
            hg_ptr[hbd] = gi
            nh[hbd] = g_slot_x[np.where(gi < g_dev_end[hbd], gi, n_groups)]
        # 7. controller hook: this round's selection-time releases
        # (single theta picks; heartbeat drains with pre-reset queue
        # bounds so the callback can replay pick order)
        if on_release is not None and (picks or (drains and drains[0].size)):
            empty = np.empty(0, np.int64)
            on_release(
                *(picks or (empty, empty, np.empty(0, np.float64))),
                *(drains or (empty, empty, None, None)),
            )
        np.add(es, 1, out=cur, where=live)
        if defer is not None:
            nf[ev] = n_slots
            wd = np.flatnonzero(live & (def_cnt > 0))
            if wd.size:
                nxt = next_ok[es[wd] + 1]
                if patience is not None:
                    nxt = np.minimum(nxt, def_start[wd].astype(np.int64) + patience)
                nf[wd] = np.minimum(nxt, n_slots)
        if clk:
            acc_h += clk() - ts

    if clk:
        t_fin = clk()

    # end-of-horizon flush: held + still-queued + never-delivered packets
    # (+ still-deferred ones; their pk_burst stays -1 and resolves via
    # the flush_row fallback below, like any other leftover packet)
    rem_cnt = held_cnt.copy()
    rem_bytes = held_bytes.copy()
    if defer is not None:
        rem_cnt += def_cnt
        rem_bytes += def_bytes
    for a in range(A):
        bp = np.concatenate(([0.0], np.cumsum(size_f[base[a] : base[a + 1]])))
        end = w.offsets[a][1:]
        h = head[a * D : (a + 1) * D] - base[a]
        rem_cnt += end - h
        rem_bytes += bp[end] - bp[h]
    fdevs = np.nonzero(rem_cnt > 0)[0]
    flush_row = np.full(D, -1, dtype=np.int64)
    if fdevs.size:
        flush_row[fdevs] = emit(
            fdevs,
            np.full(fdevs.size, horizon),
            rem_bytes[fdevs],
            np.full(fdevs.size, KIND_DATA, dtype=np.int8),
            row_key(n_slots, 0, 0, fdevs),
        )

    # packet -> burst resolution
    pk_burst = np.full(N, -1, dtype=np.int64)
    if dd_dev:
        ddev = np.concatenate(dd_dev)
        dslot = np.concatenate(dd_slot)
        drow = np.concatenate(dd_row)
        idx, lens = _csr_expand(
            np.concatenate(dd_lo, axis=1).reshape(-1),
            np.concatenate(dd_hi, axis=1).reshape(-1),
        )
        pk_burst[idx] = np.repeat(np.tile(drow, A), lens)
    if pw_flat:
        pk_burst[np.concatenate(pw_flat)] = np.concatenate(pw_row)
    if pc_flat:
        cflat = np.concatenate(pc_flat)
        cdev = np.concatenate(pc_dev)
        cslot = np.concatenate(pc_slot)
        if dd_dev:
            # a held packet rides its device's next heartbeat drain
            key_mod = n_slots + 2
            key = ddev * key_mod + dslot
            kord = np.argsort(key)
            key_s = key[kord]
            drow_s = drow[kord]
            q = cdev * key_mod + cslot + 1
            pos = np.searchsorted(key_s, q)
            pos_c = np.minimum(pos, key_s.size - 1)
            hit = (pos < key_s.size) & (key_s[pos_c] // key_mod == cdev)
            res = np.where(hit, drow_s[pos_c], flush_row[cdev])
        else:
            res = flush_row[cdev]
        pk_burst[cflat] = res
    left = pk_burst < 0
    if left.any():
        pk_burst[left] = flush_row[pk_dev[left]]
    if N and pk_burst.min() < 0:
        raise AssertionError("unresolved packet -> burst mapping")

    # round order -> per-slot order (the keys are unique)
    perm = np.argsort(b_key.view(), kind="stable")
    row_of = np.empty(perm.size, dtype=np.int64)
    row_of[perm] = np.arange(perm.size, dtype=np.int64)

    if clk:
        phases = dict(
            setup=setup_s,
            queue_updates=acc_q,
            decision=acc_d,
            heartbeats=acc_h,
            finalize=clk() - t_fin,
        )
        for name, secs in phases.items():
            registry.histogram(f"fleet.phase.etrain.{name}_s").observe(secs)
        registry.counter("fleet.phase.etrain.rounds").inc(rounds)

    return FleetChunkRaw(
        n_devices=D,
        horizon=horizon,
        n_slots=n_slots,
        burst_dev=b_dev.view()[perm],
        burst_start=b_start.view()[perm],
        burst_dur=b_dur.view()[perm],
        burst_size=b_size.view()[perm],
        burst_kind=b_kind.view()[perm],
        pk_app=pk_app,
        pk_dev=pk_dev,
        pk_arr=pk_arr,
        pk_size=pk_size,
        pk_burst=row_of[pk_burst],
        cost_kinds=w.cost_kinds.copy(),
        deadlines=w.deadlines.copy(),
    )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def simulate_fleet_chunk(
    workload: FleetWorkload,
    table: ChannelTable,
    *,
    strategy: str = "etrain",
    params: Optional[Dict] = None,
    power_model: PowerModel = GALAXY_S4_3G,
    recorder=None,
) -> FleetChunkRaw:
    """Simulate one chunk of devices under a vectorized strategy.

    The kernel and its arguments come from the strategy registry
    (:func:`repro.sim.parallel.specs.fleet_kernel`): ``params`` are the
    scalar builder's keyword arguments, checked and completed with the
    builder's defaults there.  A configuration that rule leaves to the
    scalar engine raises ``ValueError``.

    ``recorder`` optionally receives the chunk's event trace (one
    ``fleet_chunk`` summary plus a ``fleet_burst`` event per burst row)
    after simulation — see :mod:`repro.obs.tracer`.  Inside a
    :func:`~repro.obs.metrics.metrics_scope` the chunk's ``fleet.*``
    counters (and the eTrain family's ``fleet.phase.etrain.*``
    sub-phases) land in the active registry.  The simulation itself is
    identical with or without either.
    """
    from repro.sim.parallel.specs import STRATEGIES, fleet_kernel

    found = None
    if strategy in STRATEGIES:
        found = fleet_kernel(strategy, params, power_model=power_model)
    if found is None:
        raise ValueError(
            f"no vectorized path for strategy {strategy!r} with params "
            f"{params or {}} on this power model (use the scalar fallback)"
        )
    kernel, kwargs = found
    raw = kernel(workload, table, power_model, **kwargs)
    if recorder is not None:
        from repro.obs.tracer import emit_fleet_chunk_trace

        emit_fleet_chunk_trace(recorder, raw)
    from repro.obs.metrics import current_registry

    registry = current_registry()
    if registry is not None:
        registry.counter("fleet.chunks").inc()
        registry.counter("fleet.devices").inc(workload.n_devices)
        registry.counter("fleet.bursts").inc(int(raw.burst_start.size))
        registry.counter("fleet.packets").inc(int(raw.pk_arr.size))
    return raw


# ---------------------------------------------------------------------------
# the engine-owned kernels (the strategy registry names the others)
# ---------------------------------------------------------------------------


def fleet_slot_count(horizon: float) -> int:
    """Slot count of the fleet grid (1 s slots, the scalar default)."""
    return int(math.ceil(horizon / 1.0))


def _etrain_kernel(
    workload: FleetWorkload, table, power_model, *, theta, warm_gate
) -> FleetChunkRaw:
    if np.any(workload.deadlines < 2.0):
        raise ValueError("fleet etrain requires all deadlines >= 2 s")
    n_slots = fleet_slot_count(workload.horizon)
    pk_app, pk_dev, pk_arr, pk_size, base = _flat_packets(workload)
    return _simulate_etrain(
        workload,
        table,
        pk_app,
        pk_dev,
        pk_arr,
        pk_size,
        base,
        n_slots,
        float(theta),
        bool(warm_gate),
        power_model,
    )


def _immediate_kernel(
    workload: FleetWorkload, table, power_model
) -> FleetChunkRaw:
    n_slots = fleet_slot_count(workload.horizon)
    pk_app, pk_dev, pk_arr, pk_size, _ = _flat_packets(workload)
    release = _delivery_slots(pk_arr, n_slots)
    return _build_loopfree(
        workload, table, release, pk_app, pk_dev, pk_arr, pk_size, n_slots
    )


def _periodic_kernel(
    workload: FleetWorkload, table, power_model, *, period
) -> FleetChunkRaw:
    """Releases on the shared wall-clock fire clock of ``period`` seconds.

    The clock is the same for every device, so a packet's release slot
    is the first fire slot at or after its delivery slot.
    ``arrival_wakes=False`` plus whole-queue releases make the loop-free
    burst builder valid verbatim.
    """
    n_slots = fleet_slot_count(workload.horizon)
    pk_app, pk_dev, pk_arr, pk_size, _ = _flat_packets(workload)
    release = _periodic_release_slots(pk_arr, n_slots, float(period))
    return _build_loopfree(
        workload, table, release, pk_app, pk_dev, pk_arr, pk_size, n_slots
    )


def _periodic_release_slots(pk_arr, n_slots: int, period: float) -> np.ndarray:
    """Release slot per packet under the shared periodic fire clock:
    the first fire at or after delivery, else ``n_slots`` (the flush)."""
    fires = np.append(_periodic_fires(n_slots, period), n_slots)
    return fires[np.searchsorted(fires, _delivery_slots(pk_arr, n_slots))]


def _tailender_kernel(
    workload: FleetWorkload, table, power_model, *, slack
) -> FleetChunkRaw:
    n_slots = fleet_slot_count(workload.horizon)
    pk_app, pk_dev, pk_arr, pk_size, _ = _flat_packets(workload)
    release = _release_slots_tailender(
        workload, pk_app, pk_dev, pk_arr, n_slots, float(slack)
    )
    return _build_loopfree(
        workload, table, release, pk_app, pk_dev, pk_arr, pk_size, n_slots
    )

