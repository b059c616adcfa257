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
* **etrain** runs the real per-slot loop — Θ-threshold checks, the
  Lyapunov greedy pick, warm-radio gating and heartbeat drains — but
  vectorized across all devices of the chunk, with the delay-cost sums
  P_i(t) maintained as closed-form aggregates instead of per-packet
  scans (see below).

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
# eTrain: the real per-slot loop, vectorized across devices
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
    left-fold bit for bit.
    """
    per_app = [
        (int(kinds_arr[a]), float(dls_arr[a])) for a in range(kinds_arr.shape[0])
    ]

    def step(u, n_pre, s_pre, n_post, s_post, out):
        out[:] = 0.0
        for a, (kind, dl) in enumerate(per_app):
            out += _cost_aggregate(kind, dl, u, n_pre[a], s_pre[a], n_post[a], s_post[a])

    return step


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
    profiler=None,
    on_release=None,
    defer=None,
) -> FleetChunkRaw:
    clk = time.perf_counter if profiler is not None else None
    t_setup = clk() if clk else 0.0

    A, D = w.n_apps, w.n_devices
    tail_time = pm.tail_time
    horizon = w.horizon

    garr = [w.arrivals[a] for a in range(A)]
    gsize = [w.sizes[a].astype(np.float64) for a in range(A)]
    gdev = [
        np.repeat(np.arange(D, dtype=np.int64), np.diff(w.offsets[a])) for a in range(A)
    ]
    kinds = [int(k) for k in w.cost_kinds]
    dls = [float(d) for d in w.deadlines]
    kinds_arr = np.asarray(kinds, dtype=np.int64)
    dls_arr = np.asarray(dls, dtype=np.float64)
    theta_costs = _theta_step_for(kinds_arr, dls_arr)

    # App-major flat packet streams: one scatter per slot step instead of
    # one per (app, slot).  Concatenating app-major and sorting stably by
    # slot keeps every (app, device) cell's accumulation order identical
    # to the old per-app loops, so the running sums stay bit-for-bit.
    kp = [_transition_slots(garr[a], dls[a]) for a in range(A)]
    n_per_app = np.asarray([garr[a].size for a in range(A)], dtype=np.int64)
    empty_i64 = np.empty(0, np.int64)
    empty_f64 = np.empty(0, np.float64)
    fl_app = np.repeat(np.arange(A, dtype=np.int64), n_per_app)
    fl_idx = (
        np.concatenate([np.arange(n, dtype=np.int64) for n in n_per_app])
        if A
        else empty_i64
    )
    fl_dev = np.concatenate(gdev) if A else empty_i64
    fl_arr = np.concatenate(garr) if A else empty_f64
    fl_size = np.concatenate(gsize) if A else empty_f64
    fl_lin = fl_app * D + fl_dev

    kd_all = (
        np.concatenate([_delivery_slots(garr[a], n_slots) for a in range(A)])
        if A
        else empty_i64
    )
    do = np.argsort(kd_all, kind="stable")
    dl_lin, dl_arr, dl_size = fl_lin[do], fl_arr[do], fl_size[do]
    dbnd = np.searchsorted(kd_all[do], np.arange(n_slots + 1))
    has_del = dbnd[1:] > dbnd[:-1]

    kc_all = (
        np.concatenate([np.minimum(kp[a], n_slots + 2) for a in range(A)])
        if A
        else empty_i64
    )
    to = np.argsort(kc_all, kind="stable")
    tr_lin, tr_arr, tr_idx = fl_lin[to], fl_arr[to], fl_idx[to]
    tbnd = np.searchsorted(kc_all[to], np.arange(n_slots + 3))
    t_any = tbnd[1:] > tbnd[:-1]
    has_tr = t_any[:n_slots] | t_any[1 : n_slots + 1]

    # head-arrival gather tables for the vectorized greedy step
    abase = np.concatenate(([0], np.cumsum(n_per_app)))[:-1]
    aclip = np.maximum(n_per_app - 1, 0)
    n_total = int(n_per_app.sum()) if A else 0
    abase_col = abase[:, None]
    aclip_col = aclip[:, None]
    gi_max = max(n_total - 1, 0)
    G_buf = np.empty((A, D), dtype=np.float64)
    dev_ar = np.arange(D, dtype=np.int64)

    # heartbeat table bucketed by slot (within a slot: by device, rank)
    h_time, h_dev, h_train, h_slot, h_rank = _heartbeat_table(w, n_slots)
    horder = np.lexsort((h_rank, h_dev, h_slot))
    h_time, h_dev, h_train, h_slot, h_rank = (
        h_time[horder],
        h_dev[horder],
        h_train[horder],
        h_slot[horder],
        h_rank[horder],
    )
    hbnd = np.searchsorted(h_slot, np.arange(n_slots + 1))
    h_sizes = w.train_sizes.astype(np.float64)
    max_rank = int(h_rank.max()) if h_rank.size else 0

    # state
    zeros = lambda dt: np.zeros((A, D), dtype=dt)  # noqa: E731
    in_pre_n, in_pre_s = zeros(np.float64), zeros(np.float64)
    in_post_n, in_post_s = zeros(np.float64), zeros(np.float64)
    sp_pre_n, sp_pre_s = zeros(np.float64), zeros(np.float64)
    sp_post_n, sp_post_s = zeros(np.float64), zeros(np.float64)
    wait_bytes = zeros(np.float64)
    if A:
        head = np.stack([w.offsets[a][:-1] for a in range(A)]).astype(np.int64)
    else:
        head = np.zeros((0, D), dtype=np.int64)
    tail = head.copy()
    # flat views shared with the app-major scatter streams
    head_f, tail_f = head.reshape(-1), tail.reshape(-1)
    in_pre_n_f, in_pre_s_f = in_pre_n.reshape(-1), in_pre_s.reshape(-1)
    in_post_n_f, in_post_s_f = in_post_n.reshape(-1), in_post_s.reshape(-1)
    sp_pre_n_f, sp_pre_s_f = sp_pre_n.reshape(-1), sp_pre_s.reshape(-1)
    sp_post_n_f, sp_post_s_f = sp_post_n.reshape(-1), sp_post_s.reshape(-1)
    wait_bytes_f = wait_bytes.reshape(-1)
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
        def_bytes = np.zeros(D, dtype=np.float64)
        def_cnt = np.zeros(D, dtype=np.int64)
        def_start = np.zeros(D, dtype=np.float64)
        def_flats: List[List[int]] = [[] for _ in range(D)]
    busy = np.zeros(D, dtype=np.float64)
    has_rec = np.zeros(D, dtype=bool)
    P = np.zeros(D, dtype=np.float64)

    # outputs accumulated per slot (geometric buffers: see _GrowBuffer)
    b_dev = _GrowBuffer(np.int64)
    b_start = _GrowBuffer(np.float64)
    b_dur = _GrowBuffer(np.float64)
    b_size = _GrowBuffer(np.float64)
    b_kind = _GrowBuffer(np.int8)
    b_count = 0
    dd_dev: List[np.ndarray] = []
    dd_slot: List[np.ndarray] = []
    dd_row: List[np.ndarray] = []
    dd_lo: List[List[np.ndarray]] = [[] for _ in range(A)]
    dd_hi: List[List[np.ndarray]] = [[] for _ in range(A)]
    pw_flat: List[np.ndarray] = []
    pw_row: List[np.ndarray] = []
    pc_flat: List[np.ndarray] = []
    pc_dev: List[np.ndarray] = []
    pc_slot: List[np.ndarray] = []

    def emit(devs, reqs, sizes, kind):
        nonlocal b_count
        starts = np.maximum(reqs, busy[devs])
        durs = table.durations(starts, sizes)
        busy[devs] = starts + durs
        has_rec[devs] = True
        rows = b_count + np.arange(devs.size, dtype=np.int64)
        b_count += devs.size
        b_dev.extend(devs)
        b_start.extend(starts)
        b_dur.extend(durs)
        b_size.extend(sizes)
        b_kind.extend(np.full(devs.size, kind, dtype=np.int8))
        return rows

    agg_sets = (
        in_pre_n,
        in_pre_s,
        in_post_n,
        in_post_s,
        sp_pre_n,
        sp_pre_s,
        sp_post_n,
        sp_post_s,
    )

    if clk:
        profiler.add("etrain.setup", clk() - t_setup)
        acc_q = acc_d = acc_h = 0.0

    for i in range(n_slots):
        t = float(i)
        if clk:
            ts = clk()
        rel_dev: List[np.ndarray] = []
        rel_delay: List[np.ndarray] = []
        hbq = hb_lo = hb_hi = None
        # 1. deliveries (arrival <= t): enter both aggregate sets as pre
        if has_del[i]:
            sl = slice(dbnd[i], dbnd[i + 1])
            lin = dl_lin[sl]
            ar = dl_arr[sl]
            np.add.at(in_pre_n_f, lin, 1.0)
            np.add.at(in_pre_s_f, lin, ar)
            np.add.at(sp_pre_n_f, lin, 1.0)
            np.add.at(sp_pre_s_f, lin, ar)
            np.add.at(wait_bytes_f, lin, dl_size[sl])
            np.add.at(tail_f, lin, 1)
        # 2. pre->post transitions for still-queued packets
        if has_tr[i]:
            for bucket, (npre_f, spre_f, npost_f, spost_f) in (
                (i, (in_pre_n_f, in_pre_s_f, in_post_n_f, in_post_s_f)),
                (i + 1, (sp_pre_n_f, sp_pre_s_f, sp_post_n_f, sp_post_s_f)),
            ):
                if tbnd[bucket + 1] > tbnd[bucket]:
                    sl = slice(tbnd[bucket], tbnd[bucket + 1])
                    lin = tr_lin[sl]
                    act = tr_idx[sl] >= head_f[lin]
                    if act.any():
                        lin = lin[act]
                        ar = tr_arr[sl][act]
                        np.add.at(npre_f, lin, -1.0)
                        np.add.at(spre_f, lin, -ar)
                        np.add.at(npost_f, lin, 1.0)
                        np.add.at(spost_f, lin, ar)
        # 3. which devices see a heartbeat this slot
        hsl = slice(hbnd[i], hbnd[i + 1])
        hb_any = hbnd[i + 1] > hbnd[i]
        if hb_any:
            sl_rank = h_rank[hsl]
            hb_devs = h_dev[hsl][sl_rank == 0]  # unique, ascending
        if clk:
            acc_q += clk() - ts
            ts = clk()
        # 4. theta check on non-heartbeat devices
        theta_costs(t, in_pre_n, in_pre_s, in_post_n, in_post_s, P)
        fire = P >= theta
        if hb_any:
            fire[hb_devs] = False
        fd = np.nonzero(fire)[0]
        # 5. single greedy pick per fired device: one masked reduction
        # over an (apps x fired) gain matrix instead of per-device Python
        if fd.size:
            u = t + 1.0
            h = head[:, fd]  # (A, F)
            has = h < tail[:, fd]
            G = G_buf[:, : fd.size]
            G.fill(-np.inf)
            if has.any():
                gi = abase_col + np.minimum(h, aclip_col)
                ar_h = fl_arr[np.minimum(gi, gi_max)]
                with np.errstate(invalid="ignore"):
                    for a in range(A):
                        kind, dl = kinds[a], dls[a]
                        pb = _cost_aggregate(
                            kind,
                            dl,
                            u,
                            sp_pre_n[a, fd],
                            sp_pre_s[a, fd],
                            sp_post_n[a, fd],
                            sp_post_s[a, fd],
                        )
                        s = _head_spec_raw(kind, dl, u - ar_h[a])
                        G[a] = np.where(has[a], pb * s - 0.5 * s * s, -np.inf)
            best = np.argmax(G, axis=0)  # first max wins, like the greedy scan
            gmax = G[best, dev_ar[: fd.size]]
            picked = gmax > 0.0
            fd = fd[picked]
            best = best[picked]
            warm_devs: List[np.ndarray] = []
            warm_sizes: List[np.ndarray] = []
            warm_flats: List[np.ndarray] = []
            for a in range(A):
                da = fd[best == a]
                if not da.size:
                    continue
                g = head[a][da]
                ar = garr[a][g]
                sz = gsize[a][g]
                if on_release is not None:
                    rel_dev.append(da)
                    rel_delay.append(np.maximum(0.0, t - ar))
                post_i = kp[a][g] <= i
                post_s = kp[a][g] <= i + 1
                for post, (npre, spre, npost, spost) in (
                    (post_i, (in_pre_n[a], in_pre_s[a], in_post_n[a], in_post_s[a])),
                    (post_s, (sp_pre_n[a], sp_pre_s[a], sp_post_n[a], sp_post_s[a])),
                ):
                    dp, ap = da[~post], ar[~post]
                    npre[dp] -= 1.0
                    spre[dp] -= ap
                    dq, aq = da[post], ar[post]
                    npost[dq] -= 1.0
                    spost[dq] -= aq
                wait_bytes[a][da] -= sz
                head[a][da] += 1
                if defer is not None:
                    # New releases join the buffer before this slot's
                    # quality check (step 5b), like the scalar decide.
                    fresh = def_cnt[da] == 0
                    def_start[da[fresh]] = t
                    def_bytes[da] += sz
                    def_cnt[da] += 1
                    flat = base[a] + g
                    for j, d in enumerate(da):
                        def_flats[d].append(int(flat[j]))
                    continue
                warm = (
                    has_rec[da] & (t < busy[da] + tail_time)
                    if warm_gate
                    else np.ones(da.size, dtype=bool)
                )
                if not warm.all():
                    cold = ~warm
                    cd = da[cold]
                    held_bytes[cd] += sz[cold]
                    held_cnt[cd] += 1
                    pc_flat.append(base[a] + g[cold])
                    pc_dev.append(cd)
                    pc_slot.append(np.full(cd.size, i, dtype=np.int64))
                if warm.any():
                    warm_devs.append(da[warm])
                    warm_sizes.append(sz[warm])
                    warm_flats.append(base[a] + g[warm])
            if warm_devs:
                devs = np.concatenate(warm_devs)
                rows = emit(
                    devs,
                    np.full(devs.size, t),
                    np.concatenate(warm_sizes),
                    KIND_DATA,
                )
                pw_flat.append(np.concatenate(warm_flats))
                pw_row.append(rows)
        # 5b. channel-aware release: drain a device's deferred buffer when
        # the slot's quality clears the gate or patience has run out.
        # Heartbeat devices skip this — their buffer rides the carrier in
        # step 6, matching the scalar heartbeat branch.
        if defer is not None:
            rel = def_cnt > 0
            if hb_any:
                rel[hb_devs] = False
            if not release_ok[i]:
                rel &= (t - def_start) >= max_defer
            rd = np.nonzero(rel)[0]
            if rd.size:
                warm = (
                    has_rec[rd] & (t < busy[rd] + tail_time)
                    if warm_gate
                    else np.ones(rd.size, dtype=bool)
                )
                wd, cd = rd[warm], rd[~warm]
                if wd.size:
                    rows = emit(wd, np.full(wd.size, t), def_bytes[wd], KIND_DATA)
                    pw_flat.append(
                        np.asarray(
                            [f for d in wd for f in def_flats[d]], dtype=np.int64
                        )
                    )
                    pw_row.append(np.repeat(rows, def_cnt[wd]))
                if cd.size:
                    # Cold release: park with the held bytes; the packets
                    # ride the device's next heartbeat (or final flush).
                    held_bytes[cd] += def_bytes[cd]
                    held_cnt[cd] += def_cnt[cd]
                    pc_flat.append(
                        np.asarray(
                            [f for d in cd for f in def_flats[d]], dtype=np.int64
                        )
                    )
                    pc_dev.append(np.repeat(cd, def_cnt[cd]))
                    pc_slot.append(
                        np.full(int(def_cnt[cd].sum()), i, dtype=np.int64)
                    )
                def_bytes[rd] = 0.0
                def_cnt[rd] = 0
                for d in rd:
                    def_flats[d] = []
        if clk:
            acc_d += clk() - ts
            ts = clk()
        # 6. heartbeat slots: full drain rides the carrier, rest go bare
        if hb_any:
            sl_dev = h_dev[hsl]
            sl_time = h_time[hsl]
            sl_train = h_train[hsl]
            car = sl_rank == 0
            q_bytes = wait_bytes[:, hb_devs].sum(axis=0)
            q_cnt = (tail[:, hb_devs] - head[:, hb_devs]).sum(axis=0)
            payload = held_bytes[hb_devs] + q_bytes
            pay_cnt = held_cnt[hb_devs] + q_cnt
            if defer is not None:
                payload = payload + def_bytes[hb_devs]
                pay_cnt = pay_cnt + def_cnt[hb_devs]
            if on_release is not None:
                # Queue bounds frozen before the drain resets them; only
                # devices whose scalar decide would release anything.
                hbq = hb_devs[q_cnt > 0]
                hb_lo = [head[a][hbq].copy() for a in range(A)]
                hb_hi = [tail[a][hbq].copy() for a in range(A)]
            c_size = h_sizes[sl_train[car]] + payload
            rows = emit(hb_devs, sl_time[car], c_size, KIND_HEARTBEAT)
            # fix kinds for carriers that actually carried payload
            b_kind.view()[rows[pay_cnt > 0]] = KIND_PIGGYBACK
            dd_dev.append(hb_devs)
            dd_slot.append(np.full(hb_devs.size, i, dtype=np.int64))
            dd_row.append(rows)
            for a in range(A):
                dd_lo[a].append(head[a][hb_devs].copy())
                dd_hi[a].append(tail[a][hb_devs].copy())
            head[:, hb_devs] = tail[:, hb_devs]
            for arrs in agg_sets:
                arrs[:, hb_devs] = 0.0
            wait_bytes[:, hb_devs] = 0.0
            held_bytes[hb_devs] = 0.0
            held_cnt[hb_devs] = 0
            if defer is not None:
                hd = def_cnt[hb_devs] > 0
                if hd.any():
                    hdev = hb_devs[hd]
                    pw_flat.append(
                        np.asarray(
                            [f for d in hdev for f in def_flats[d]],
                            dtype=np.int64,
                        )
                    )
                    pw_row.append(np.repeat(rows[hd], def_cnt[hdev]))
                    def_bytes[hdev] = 0.0
                    def_cnt[hdev] = 0
                    for d in hdev:
                        def_flats[d] = []
            for r in range(1, max_rank + 1):
                m = sl_rank == r
                if not m.any():
                    continue
                emit(sl_dev[m], sl_time[m], h_sizes[sl_train[m]], KIND_HEARTBEAT)
        # 7. controller hook: this slot's selection-time releases, in the
        # scalar decide order (single theta picks; heartbeat drains with
        # pre-reset queue bounds so the callback can replay pick order)
        if on_release is not None and (
            rel_dev or (hbq is not None and hbq.size)
        ):
            on_release(
                i,
                np.concatenate(rel_dev) if rel_dev else np.empty(0, np.int64),
                np.concatenate(rel_delay) if rel_delay else np.empty(0, np.float64),
                hbq if hbq is not None else np.empty(0, np.int64),
                hb_lo,
                hb_hi,
            )
        if clk:
            acc_h += clk() - ts

    if clk:
        profiler.add("etrain.queue_updates", acc_q, calls=n_slots)
        profiler.add("etrain.decision", acc_d, calls=n_slots)
        profiler.add("etrain.heartbeats", acc_h, calls=n_slots)
        t_fin = clk()

    # end-of-horizon flush: held + still-queued + never-delivered packets
    # (+ still-deferred ones; their pk_burst stays -1 and resolves via
    # the flush_row fallback below, like any other leftover packet)
    rem_cnt = held_cnt.astype(np.int64).copy()
    rem_bytes = held_bytes.copy()
    if defer is not None:
        rem_cnt += def_cnt
        rem_bytes += def_bytes
    byte_prefix = []
    for a in range(A):
        bp = np.concatenate(([0.0], np.cumsum(gsize[a])))
        byte_prefix.append(bp)
        end = w.offsets[a][1:]
        rem_cnt += end - head[a]
        rem_bytes += bp[end] - bp[head[a]]
    fdevs = np.nonzero(rem_cnt > 0)[0]
    flush_row = np.full(D, -1, dtype=np.int64)
    if fdevs.size:
        rows = emit(
            fdevs, np.full(fdevs.size, horizon), rem_bytes[fdevs], KIND_DATA
        )
        flush_row[fdevs] = rows

    # packet -> burst resolution
    n_pk = pk_arr.size
    pk_burst = np.full(n_pk, -1, dtype=np.int64)
    if dd_dev:
        drow = np.concatenate(dd_row)
        for a in range(A):
            lo = np.concatenate(dd_lo[a])
            hi = np.concatenate(dd_hi[a])
            idx, lens = _csr_expand(lo, hi)
            pk_burst[base[a] + idx] = np.repeat(drow, lens)
    if pw_flat:
        pk_burst[np.concatenate(pw_flat)] = np.concatenate(pw_row)
    if pc_flat:
        cflat = np.concatenate(pc_flat)
        cdev = np.concatenate(pc_dev)
        cslot = np.concatenate(pc_slot)
        if dd_dev:
            ddev = np.concatenate(dd_dev)
            dslot = np.concatenate(dd_slot)
            drow = np.concatenate(dd_row)
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
    if n_pk and pk_burst.min() < 0:
        raise AssertionError("unresolved packet -> burst mapping")

    if clk:
        profiler.add("etrain.finalize", clk() - t_fin)

    return FleetChunkRaw(
        n_devices=D,
        horizon=horizon,
        n_slots=n_slots,
        burst_dev=b_dev.view(),
        burst_start=b_start.view(),
        burst_dur=b_dur.view(),
        burst_size=b_size.view(),
        burst_kind=b_kind.view(),
        pk_app=pk_app,
        pk_dev=pk_dev,
        pk_arr=pk_arr,
        pk_size=pk_size,
        pk_burst=pk_burst,
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
    profiler=None,
) -> FleetChunkRaw:
    """Simulate one chunk of devices under a vectorized strategy.

    The strategy name is resolved through the kernel registry
    (:mod:`repro.sim.fleet.registry`); ``params`` mirrors the scalar
    strategy builders' keyword arguments: ``etrain`` takes ``theta``
    (default 0.2) and ``warm_gate`` (default True); ``periodic`` and
    ``fixed_batch`` take ``period`` (default 60.0); ``tailender`` takes
    ``slack`` (default 0.0); ``peres`` takes ``omega``/``v_init`` plus
    the estimator knobs; ``etime`` takes ``v`` plus the estimator
    knobs; ``adaptive`` takes ``target_delay``/``theta_init``/
    ``window``/``warm_gate``; ``immediate`` takes none.

    ``recorder`` optionally receives the chunk's event trace (one
    ``fleet_chunk`` summary plus a ``fleet_burst`` event per burst row)
    after simulation — see :mod:`repro.obs.tracer`.  ``profiler``
    optionally accumulates kernel sub-phase timings
    (:class:`repro.obs.profiling.PhaseProfiler`).  The simulation
    itself is identical with or without either.
    """
    raw = _dispatch_fleet_chunk(workload, table, strategy, params, power_model, profiler)
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


def _dispatch_fleet_chunk(
    workload: FleetWorkload,
    table: ChannelTable,
    strategy: str,
    params: Optional[Dict],
    power_model: PowerModel,
    profiler=None,
) -> FleetChunkRaw:
    from repro.sim.fleet import registry

    try:
        kernel = registry.get_kernel(strategy)
    except KeyError:
        raise ValueError(
            f"no vectorized path for strategy {strategy!r}; "
            f"supported: {registry.vector_strategies()} (use the scalar fallback)"
        ) from None
    if power_model.promotion_delay != 0.0 or power_model.promotion_energy != 0.0:
        raise ValueError(
            "fleet path models promotion-free radios only "
            "(promotion_delay == promotion_energy == 0)"
        )
    return kernel(workload, table, dict(params or {}), power_model, profiler=profiler)


# ---------------------------------------------------------------------------
# the engine-owned kernels (see repro.sim.fleet.registry for the others)
# ---------------------------------------------------------------------------


def fleet_slot_count(horizon: float) -> int:
    """Slot count of the fleet grid (1 s slots, the scalar default)."""
    return int(math.ceil(horizon / 1.0))


def _etrain_kernel(
    workload: FleetWorkload, table, params: Dict, power_model, *, profiler=None
) -> FleetChunkRaw:
    theta = float(params.pop("theta", 0.2))
    warm_gate = bool(params.pop("warm_gate", True))
    if params.pop("k", None) is not None:
        raise ValueError("fleet etrain supports only k=None (full drain)")
    if float(params.pop("slot", 1.0)) != 1.0:
        raise ValueError("fleet etrain supports only slot=1.0")
    _reject_extra(params)
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
        theta,
        warm_gate,
        power_model,
        profiler=profiler,
    )


def _immediate_kernel(
    workload: FleetWorkload, table, params: Dict, power_model, *, profiler=None
) -> FleetChunkRaw:
    _reject_extra(params)
    n_slots = fleet_slot_count(workload.horizon)
    pk_app, pk_dev, pk_arr, pk_size, _ = _flat_packets(workload)
    release = _delivery_slots(pk_arr, n_slots)
    return _build_loopfree(
        workload, table, release, pk_app, pk_dev, pk_arr, pk_size, n_slots
    )


def _periodic_kernel(
    workload: FleetWorkload, table, params: Dict, power_model, *, profiler=None
) -> FleetChunkRaw:
    period = float(params.pop("period", 60.0))
    _reject_extra(params)
    n_slots = fleet_slot_count(workload.horizon)
    pk_app, pk_dev, pk_arr, pk_size, _ = _flat_packets(workload)
    release = _periodic_release_slots(pk_arr, n_slots, period)
    return _build_loopfree(
        workload, table, release, pk_app, pk_dev, pk_arr, pk_size, n_slots
    )


def _periodic_release_slots(pk_arr, n_slots: int, period: float) -> np.ndarray:
    """Release slot per packet under the shared periodic fire clock."""
    fires = _periodic_fires(n_slots, period)
    kd = _delivery_slots(pk_arr, n_slots)
    pos = np.searchsorted(fires, kd)
    return np.where(
        pos < fires.size, fires[np.minimum(pos, max(fires.size - 1, 0))], n_slots
    )


def _tailender_kernel(
    workload: FleetWorkload, table, params: Dict, power_model, *, profiler=None
) -> FleetChunkRaw:
    slack = float(params.pop("slack", 0.0))
    _reject_extra(params)
    n_slots = fleet_slot_count(workload.horizon)
    pk_app, pk_dev, pk_arr, pk_size, _ = _flat_packets(workload)
    release = _release_slots_tailender(
        workload, pk_app, pk_dev, pk_arr, n_slots, slack
    )
    return _build_loopfree(
        workload, table, release, pk_app, pk_dev, pk_arr, pk_size, n_slots
    )


def _reject_extra(params: Dict) -> None:
    if params:
        raise ValueError(f"unsupported fleet strategy params: {sorted(params)}")
