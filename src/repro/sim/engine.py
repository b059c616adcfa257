"""Slotted discrete-event simulator (Sec. IV's slotted time model).

The engine models time in fixed slots (1 s by default).  In each slot it:

1. delivers to the strategy every cargo packet that arrived by the slot
   boundary (the paper assumes packets generated within slot *t* arrive
   by the end of slot *t*);
2. invokes the strategy's decision — but only on multiples of the
   strategy's own decision granularity (eTime decides every 60 s);
3. transmits this slot's heartbeats at their exact departure times,
   piggybacking the strategy's released packets onto the first heartbeat
   of the slot when there is one, otherwise sending them as a standalone
   data burst at the slot start.

Heartbeats are never rescheduled; the radio serialises overlapping bursts
(constraint (3)).  At the horizon the strategy's leftover queue is force-
flushed so every packet is accounted for.

Every run goes through the **event-horizon** loop, which fast-forwards
between *interesting* slots: the earliest of the next packet arrival,
the next heartbeat, the next decision slot the strategy may act in (per
its :attr:`~repro.baselines.base.TransmissionStrategy.is_idle` /
:meth:`~repro.baselines.base.TransmissionStrategy.decision_horizon`
contract) and the warm-window safety check for held Q_TX packets.  A
strategy that keeps the base protocol and decides every slot is simply
stepped one slot at a time.  The **dense** loop
(``Simulation(..., dense=True)``) visits every slot in order, exactly as
the original implementation did; it is kept only as the reference that
the equivalence tests and the engine fast-path floor compare against,
and both loops produce bit-identical results.

Skipping a slot is sound because a slot with no arrivals, no heartbeats
and no (effective) decision is a no-op in the dense loop: held Q_TX
packets only accumulate while the radio is cold, and the radio can only
warm up at a transmission, which itself only happens at a wake slot.
Decision slots skipped while a strategy is quiet are still *counted*
(``SimulationResult.decisions`` matches the dense loop) and are offered
back to the strategy through
:meth:`~repro.baselines.base.TransmissionStrategy.on_decisions_skipped`
so clock-keeping state (e.g. a periodic fire timer) can be replayed
exactly.  See ``docs/performance.md``.

Both loops are resumable, and they are the only slot loops in the
package: :meth:`Simulation.advance` finalizes the slots no later input
can reach, so an online serve session feeds one device's events as
they come and ends with the same :meth:`Simulation.finish` step as a
batch :meth:`Simulation.run`.  The event loop never jumps past the
first non-final slot; revisiting a slot the dense loop also visits
cannot change the result.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

from repro.bandwidth.models import BandwidthModel
from repro.baselines.base import TransmissionStrategy
from repro.core.packet import Heartbeat, Packet
from repro.heartbeat.generators import HeartbeatGenerator, merge_heartbeats
from repro.radio.interface import RadioInterface
from repro.radio.power_model import PowerModel
from repro.sim.decision import is_decision_slot, slot_step
from repro.sim.results import SimulationResult

__all__ = ["Simulation", "DecisionWindow"]


class DecisionWindow:
    """Decision times the event loop skipped, queryable without materialising.

    Passed to :meth:`TransmissionStrategy.on_decisions_skipped`.  Two
    backings: an explicit sorted list of times, or (on exact slot grids)
    an arithmetic description — granularity multiples ``m_lo+1 .. m_hi``
    — whose individual times are derived on demand, so a day-long skip is
    O(1) to describe and ``last(n)`` costs O(n).
    """

    __slots__ = ("count", "_times", "_s", "_g", "_eps", "_lo", "_m_lo")

    def __init__(self) -> None:
        self.count = 0
        self._times: Optional[List[float]] = None
        self._s = self._g = self._eps = 0.0
        self._lo = 0
        self._m_lo = 0

    @classmethod
    def from_times(cls, times: List[float]) -> "DecisionWindow":
        win = cls()
        win._times = times
        win.count = len(times)
        return win

    @classmethod
    def from_grid(
        cls, slot: float, granularity: float, eps: float,
        lo_slot: int, m_lo: int, m_hi: int,
    ) -> "DecisionWindow":
        win = cls()
        win._s = slot
        win._g = granularity
        win._eps = eps
        win._lo = lo_slot
        win.count = m_hi - m_lo
        win._m_lo = m_lo
        return win

    def _slot_time(self, m: int) -> float:
        """Time of the decision slot serving granularity multiple ``m``."""
        s, g, eps = self._s, self._g, self._eps
        k = max(self._lo + 1, int((m * g - eps) / s) - 1)
        while math.floor((k * s + eps) / g) < m:
            k += 1
        return k * s

    def last(self, n: int) -> List[float]:
        """The last ``n`` skipped decision times (all when fewer), in order."""
        if self._times is not None:
            return self._times[max(0, self.count - n):]
        m_hi = self._m_lo + self.count
        ms = range(max(self._m_lo, m_hi - n) + 1, m_hi + 1)
        if self._g == self._s:
            return [m * self._s for m in ms]  # every slot decides: m is a slot
        return [self._slot_time(m) for m in ms]

    def times(self) -> List[float]:
        """All skipped decision times, materialised (O(count))."""
        if self._times is not None:
            return list(self._times)
        m_lo = self._m_lo
        return [self._slot_time(m) for m in range(m_lo + 1, m_lo + self.count + 1)]


class Simulation:
    """One run of a strategy against a workload, trains and a channel.

    :meth:`run` is the batch entry point.  The same loops can also be
    driven incrementally, as each online serve session does: feed inputs
    in order (:meth:`feed_packets`, :meth:`feed_heartbeats`), finalize
    the slots no later input can reach with :meth:`advance`, and end
    with :meth:`finish`.  Both loops keep their cursors on the instance,
    so the result does not depend on how the inputs were split.
    """

    def __init__(
        self,
        strategy: TransmissionStrategy,
        train_generators: Sequence[HeartbeatGenerator],
        packets: Sequence[Packet],
        *,
        power_model: Optional[PowerModel] = None,
        bandwidth: Optional[BandwidthModel] = None,
        horizon: float = 7200.0,
        slot: float = 1.0,
        flush_at_end: bool = True,
        dense: bool = False,
        recorder=None,
        trace_app_costs=None,
        battery=None,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        if slot <= 0:
            raise ValueError(f"slot must be > 0, got {slot}")
        self.strategy = strategy
        self.train_generators = list(train_generators)
        self._batch_packets = sorted(
            packets, key=lambda p: (p.arrival_time, p.packet_id)
        )
        self.power_model = power_model
        self.bandwidth = bandwidth
        self.horizon = float(horizon)
        self.slot = float(slot)
        self.flush_at_end = flush_at_end
        #: Optional :class:`repro.obs.recorder.Recorder` sink.  When None
        #: (the default) the run constructs no observability objects at
        #: all; when set, the full event trace is derived from the
        #: completed result after the slot loops finish, so the hot paths
        #: are identical either way (see ``repro.obs.tracer``).
        self.recorder = recorder
        #: Optional ``{app_id: {"cost_kind", "deadline"}}`` table for the
        #: trace's delay-cost accounting (``repro.obs.events.app_cost_table``).
        self.trace_app_costs = trace_app_costs
        #: Optional :class:`~repro.sim.battery.HarvestingBattery` gating
        #: standalone bursts.  When None, a battery the strategy *owns*
        #: (``strategy.battery``, e.g. harvest_lazy) is picked up, so
        #: batch runs, serve sessions and the fleet scalar fallback all
        #: apply the same energy constraint.
        self.battery = (
            battery if battery is not None else getattr(strategy, "battery", None)
        )
        self.radio = RadioInterface(power_model, bandwidth)
        self.n_slots = int(math.ceil(self.horizon / self.slot))
        # Whether ``k * slot`` is exact (and telescopes) for every slot k.
        # Every float is a dyadic rational; ``k * slot`` is computed exactly
        # whenever the numerator times the largest k fits the 53-bit
        # mantissa, which also guarantees ``k*slot - slot == (k-1)*slot``
        # bit-for-bit.  On such grids decision-slot counts and jump targets
        # have closed forms; otherwise the event loop falls back to linear
        # predicate scans (still skipping the *work*, not the arithmetic).
        # Fixed per run, so a serve session's per-event advance does not
        # rebuild the Fraction.
        self._exact_grid = (
            Fraction(self.slot).numerator * (self.n_slots + 1) <= 2 ** 53
        )
        #: Inputs fed so far, in order; the result reports them.
        self.packets: List[Packet] = []
        self.heartbeats: List[Heartbeat] = []
        #: Q_TX contents awaiting radio resource.
        self.held: List[Packet] = []
        #: Strategy decisions so far, skipped decision slots included.
        self.decisions = 0
        #: Slots actually visited so far (dense: every slot).
        self.loop_iterations = 0
        self._slot_idx = 0  # first slot not yet final
        self._arrival_idx = 0  # first packet not yet delivered
        self._hb_idx = 0  # first heartbeat not yet transmitted
        self._limit = -math.inf  # inputs may not precede the last limit
        self._last_packet = (-math.inf, -math.inf)
        self._last_hb = (-math.inf, "", -math.inf)
        self._finished = False
        self._event = not dense
        self._arrival_wakes = self._event and strategy.arrival_wakes
        # Event loop only: each input's wake slot, computed once at feed
        # with the exact float comparisons the dense loop makes.
        self._arrival_times: List[float] = []
        self._arr_wake: List[int] = []
        self._hb_wake: List[int] = []

    @property
    def _granularity(self) -> float:
        """Effective decision period (never finer than the engine slot)."""
        return max(self.strategy.slot, self.slot)

    @property
    def pending_cargo(self) -> int:
        """Packets not yet transmitted: undelivered, queued or in Q_TX."""
        return (
            len(self.packets) - self._arrival_idx
            + self.strategy.pending_count
            + len(self.held)
        )

    def _is_decision_slot(self, t: float, granularity: Optional[float] = None) -> bool:
        """Whether the strategy decides in the slot starting at ``t``.

        The strategy decides in the first slot whose start is at or after
        each multiple of its decision granularity.  This stays correct
        when the granularity is not an integer multiple of the engine
        slot (e.g. slot 0.25 s with a 0.3 s strategy) and is immune to
        accumulated float error in ``t``: the comparison happens in the
        time domain with a granularity-relative epsilon, not on a raw
        ratio.  Callers in a loop pass the hoisted ``granularity``.
        """
        if granularity is None:
            granularity = self._granularity
        return is_decision_slot(t, self.slot, granularity)

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    def feed_packets(self, packets: Iterable[Packet]) -> None:
        """Append cargo arrivals in ``(arrival_time, packet_id)`` order.

        Raises ``ValueError`` for a packet that breaks the order or
        arrives before the last :meth:`advance` limit.
        """
        if self._finished:
            raise ValueError("simulation already finished")
        s = self.slot
        limit = self._limit
        last = self._last_packet
        wakes = self._arr_wake if self._arrival_wakes else None
        times = self._arrival_times if self._event else None
        for p in packets:
            a = p.arrival_time
            key = (a, p.packet_id)
            if key < last or a < limit:
                raise ValueError(
                    f"packet {p.packet_id} at t={a} fed out of order "
                    f"(after {last}, limit {limit})"
                )
            last = key
            self.packets.append(p)
            if times is not None:
                times.append(a)
            if wakes is not None:
                # Dense delivers at the first slot starting at or after a.
                j = int(a / s)
                while j * s < a:
                    j += 1
                while j > 0 and (j - 1) * s >= a:
                    j -= 1
                wakes.append(j)
        self._last_packet = last

    def feed_heartbeats(self, heartbeats: Iterable[Heartbeat]) -> None:
        """Append heartbeats in ``(time, app_id, seq)`` order.

        Raises ``ValueError`` for a heartbeat that breaks the order or
        departs before the last :meth:`advance` limit.
        """
        if self._finished:
            raise ValueError("simulation already finished")
        s = self.slot
        horizon = self.horizon
        n_slots = self.n_slots
        limit = self._limit
        last = self._last_hb
        wakes = self._hb_wake if self._event else None
        for hb in heartbeats:
            h = hb.time
            key = (h, hb.app_id, hb.seq)
            if key < last or h < limit:
                raise ValueError(
                    f"heartbeat {hb.app_id}#{hb.seq} at t={h} fed out of "
                    f"order (after {last}, limit {limit})"
                )
            last = key
            self.heartbeats.append(hb)
            if wakes is not None:
                # Collected by the first slot whose clamped end exceeds h.
                j = int(h / s) - 1
                if j < 0:
                    j = 0
                while j < n_slots and h >= min(j * s + s, horizon):
                    j += 1
                wakes.append(j)  # n_slots when never collected
        self._last_hb = last

    # ------------------------------------------------------------------
    # Driving the loops
    # ------------------------------------------------------------------

    def advance(self, limit: float) -> None:
        """Finalize every slot whose end is at or before ``limit``.

        A final slot has made its decision and emitted its bursts.  Every
        input fed afterwards must have time ``>= limit``; its delivery
        slot is then at or after the first non-final slot, so finalizing
        early never changes the result.
        """
        if self._finished:
            raise ValueError("simulation already finished")
        s = self.slot
        if limit >= self.horizon:
            stop = self.n_slots
        else:
            # First slot whose end ``i * s + s`` exceeds the limit (the
            # horizon clamp cannot bind below it).
            stop = max(0, int(limit / s))
            while stop * s + s <= limit:
                stop += 1
            while stop > 0 and (stop - 1) * s + s > limit:
                stop -= 1
        if limit > self._limit:
            self._limit = limit
        if self._slot_idx < stop:
            if self._event:
                self._advance_event(stop)
            else:
                self._advance_dense(stop)

    def finish(self) -> SimulationResult:
        """Finalize every slot, flush at the horizon and build the result."""
        self.advance(math.inf)
        self._finished = True
        strategy = self.strategy
        radio = self.radio
        # Deliver any arrivals past the last slot boundary, then flush.
        if self.flush_at_end:
            for p in self.packets[self._arrival_idx:]:
                strategy.on_arrival(p, self.horizon)
            self._arrival_idx = len(self.packets)
            leftovers = self.held + strategy.flush(self.horizon)
            if leftovers:
                radio.transmit_packets(self.horizon, leftovers)
            self.held = []
            flushed = len(leftovers)
        else:
            flushed = len(self.held)
        return SimulationResult(
            strategy_name=strategy.name,
            horizon=self.horizon,
            records=list(radio.records),
            packets=list(self.packets),
            heartbeats=self.heartbeats,
            energy=radio.energy_breakdown(),
            flushed_packets=flushed,
            decisions=self.decisions,
        )

    def run(self) -> SimulationResult:
        """Execute the simulation and return the collected result."""
        from repro.obs.metrics import current_registry

        registry = current_registry()
        t0 = time.perf_counter() if registry is not None else 0.0
        self.feed_heartbeats(merge_heartbeats(self.train_generators, self.horizon))
        self.feed_packets(self._batch_packets)
        result = self.finish()
        radio = self.radio
        if registry is not None:
            registry.counter("engine.runs").inc()
            registry.counter("engine.slots_visited").inc(self.loop_iterations)
            registry.counter("engine.decisions").inc(result.decisions)
            registry.counter("engine.bursts").inc(len(result.records))
            registry.counter("engine.packets").inc(len(self.packets))
            registry.counter("engine.flushed_packets").inc(result.flushed_packets)
            registry.counter("engine.cold_starts").inc(radio.cold_starts)
            registry.histogram("engine.run_wall_s").observe(
                time.perf_counter() - t0
            )
        if self.recorder is not None:
            from repro.obs.tracer import emit_simulation_trace

            emit_simulation_trace(
                self.recorder,
                result,
                power_model=radio.power_model,
                slot=self.slot,
                app_costs=self.trace_app_costs,
            )
        return result

    # ------------------------------------------------------------------
    # Dense reference loop
    # ------------------------------------------------------------------

    def _advance_dense(self, stop: int) -> None:
        """Visit every slot in order up to ``stop`` (the original loop)."""
        strategy = self.strategy
        radio = self.radio
        battery = self.battery
        packets = self.packets
        heartbeats = self.heartbeats
        n_packets = len(packets)
        n_hbs = len(heartbeats)
        granularity = self._granularity

        arrival_idx = self._arrival_idx
        hb_idx = self._hb_idx
        decisions = self.decisions
        held = self.held
        # "Radio resource available" = the radio is still in its promoted
        # high-power tail (DCH or FACH).  Once fully demoted to IDLE a
        # new burst would buy a brand-new tail, so Q_TX waits for the
        # next heartbeat promotion instead.
        warm_window = radio.power_model.tail_time
        start = self._slot_idx

        for i in range(start, stop):
            t = i * self.slot
            slot_end = min(t + self.slot, self.horizon)

            # 1. Deliver arrivals visible by this slot boundary.
            while (
                arrival_idx < n_packets
                and packets[arrival_idx].arrival_time <= t
            ):
                strategy.on_arrival(packets[arrival_idx], t)
                arrival_idx += 1

            # 2. Collect this slot's heartbeats.
            slot_hbs: List[Heartbeat] = []
            while hb_idx < n_hbs and heartbeats[hb_idx].time < slot_end:
                slot_hbs.append(heartbeats[hb_idx])
                hb_idx += 1

            # 3+4. Strategy decision (on its own granularity) and
            #      transmission — the shared kernel in repro.sim.decision.
            decide_now = self._is_decision_slot(t, granularity)
            if decide_now:
                decisions += 1
            held = slot_step(
                strategy, radio, held, t, slot_hbs, decide_now, warm_window,
                battery=battery,
            )

        self._slot_idx = stop
        self._arrival_idx = arrival_idx
        self._hb_idx = hb_idx
        self.decisions = decisions
        self.held = held
        self.loop_iterations += stop - start

    # ------------------------------------------------------------------
    # Event-horizon loop
    # ------------------------------------------------------------------

    def _advance_event(self, stop: int) -> None:
        """Fast-forward between interesting slots; bit-identical to dense.

        Per-slot processing is kept in lockstep with :meth:`_advance_dense`
        (same expressions, same order) so both paths make identical float
        comparisons; only the iteration schedule differs.  A jump never
        passes ``stop``: the next call resumes by visiting that slot,
        which the dense loop visits too.
        """
        strategy = self.strategy
        radio = self.radio
        battery = self.battery
        s = self.slot
        horizon = self.horizon
        packets = self.packets
        heartbeats = self.heartbeats
        n_packets = len(packets)
        n_hbs = len(heartbeats)
        granularity = self._granularity
        eps = 1e-9 * granularity
        n_slots = self.n_slots
        exact_grid = self._exact_grid
        every_slot_decides = granularity <= s
        # On an exact grid with granularity == slot every slot decides,
        # so the per-wake predicate evaluation can be elided.
        always_decides = every_slot_decides and exact_grid
        base = TransmissionStrategy
        notify_skips = (
            type(strategy).on_decisions_skipped is not base.on_decisions_skipped
        )
        arrival_wakes = self._arrival_wakes
        arr_wake = self._arr_wake
        hb_wake = self._hb_wake
        on_arrivals = strategy.on_arrivals
        arrival_times = self._arrival_times
        floor = math.floor

        arrival_idx = self._arrival_idx
        hb_idx = self._hb_idx
        decisions = self.decisions
        held = self.held
        warm_window = radio.power_model.tail_time
        iterations = 0

        i = self._slot_idx
        while i < stop:
            iterations += 1
            t = i * s
            slot_end = t + s
            if slot_end > horizon:
                slot_end = horizon

            # ---- per-slot body: keep in lockstep with _advance_dense ----
            # Bulk equivalent of dense's one-at-a-time delivery loop:
            # on_arrivals is contractually identical to repeated
            # on_arrival calls at the same ``now``.
            if arrival_idx < n_packets and arrival_times[arrival_idx] <= t:
                j = bisect_right(arrival_times, t, arrival_idx)
                on_arrivals(packets[arrival_idx:j], t)
                arrival_idx = j

            slot_hbs: List[Heartbeat] = []
            while hb_idx < n_hbs and heartbeats[hb_idx].time < slot_end:
                slot_hbs.append(heartbeats[hb_idx])
                hb_idx += 1

            decide_now = always_decides or self._is_decision_slot(t, granularity)
            if decide_now:
                decisions += 1
            held = slot_step(
                strategy, radio, held, t, slot_hbs, decide_now, warm_window,
                battery=battery,
            )

            # ---- fast-forward to the next interesting slot ----
            i1 = i + 1
            # With arrival_wakes=False, arrivals can no longer wake an
            # idle-skipping engine, so idleness must not drive skips —
            # only the strategy's (arrival-independent) decision horizon.
            idle = arrival_wakes and strategy.is_idle
            if idle:
                dh = t
            else:
                dh = strategy.decision_horizon(t)
                if every_slot_decides and (dh <= t or i1 * s >= dh):
                    # A decision may act next slot and the strategy does
                    # not vouch for a quiet stretch: step densely.
                    i = i1
                    continue

            nxt = n_slots
            if arrival_idx < n_packets and arrival_wakes:
                j = arr_wake[arrival_idx]
                if j < nxt:
                    nxt = j
            if hb_idx < n_hbs:
                j = hb_wake[hb_idx]
                if j < nxt:
                    nxt = j
            if nxt <= i1:
                i = i1
                continue

            if not idle:
                if dh >= horizon:
                    d = n_slots
                elif every_slot_decides:
                    # First slot at or after the promised horizon.
                    k = int(dh / s)
                    while k * s < dh:
                        k += 1
                    while k > i1 and (k - 1) * s >= dh:
                        k -= 1
                    d = k if k > i1 else i1
                else:
                    d = self._next_decision_slot(
                        i, nxt, granularity, eps, exact_grid, dh
                    )
                if d < nxt:
                    nxt = d
            if held and nxt > i1:
                if battery is not None:
                    # Battery-gated cargo transmits at the first slot
                    # whose accrued charge affords it; affordability can
                    # flip at any slot, so step densely while holding.
                    nxt = i1
                elif radio.records and i1 * s < radio.busy_until + warm_window:
                    # Held Q_TX packets transmit as soon as the radio is
                    # warm.  By construction held implies a cold radio
                    # (warmth only increases at transmissions, which are
                    # wakes), so this never fires — it guards the loop
                    # should that invariant ever change.
                    nxt = i1
            if nxt > stop:
                # Inputs not fed yet may wake a slot from ``stop`` on.
                nxt = stop

            if nxt > i1:
                # Count the decision slots the dense loop would have
                # visited in (i, nxt); offer them back to strategies that
                # replay clock state over skips.
                if exact_grid:
                    if every_slot_decides:
                        decisions += nxt - i1
                    else:
                        m_lo = floor((t + eps) / granularity)
                        m_hi = floor(((nxt - 1) * s + eps) / granularity)
                        if m_hi > m_lo:
                            decisions += m_hi - m_lo
                    if notify_skips:
                        win = self._skipped_decision_window(
                            i, nxt, granularity, eps, exact_grid
                        )
                        if win is not None:
                            strategy.on_decisions_skipped(win)
                else:
                    win = self._skipped_decision_window(
                        i, nxt, granularity, eps, exact_grid
                    )
                    if win is not None:
                        decisions += win.count
                        if notify_skips:
                            strategy.on_decisions_skipped(win)
            i = nxt

        self._slot_idx = i
        self._arrival_idx = arrival_idx
        self._hb_idx = hb_idx
        self.decisions = decisions
        self.held = held
        self.loop_iterations += iterations

    def _next_decision_slot(
        self,
        i: int,
        limit: int,
        granularity: float,
        eps: float,
        exact_grid: bool,
        min_time: float,
    ) -> int:
        """Smallest decision-slot index in ``(i, limit)`` whose start time
        is ``>= min_time`` (``limit`` when there is none).

        On exact grids the answer comes from the next granularity
        multiple in O(1); otherwise a linear scan applies the dense
        predicate directly, which preserves correctness at the cost of
        walking indices (decide() calls are still skipped).
        """
        s = self.slot
        if not exact_grid:
            k = i + 1
            while k < limit:
                t_k = k * s
                if t_k >= min_time and self._is_decision_slot(t_k, granularity):
                    return k
                k += 1
            return limit
        m = math.floor((i * s + eps) / granularity) + 1
        if min_time > i * s:
            # A decision slot's time lies in [m*g - eps, m*g + slot), so
            # multiples below this floor cannot reach min_time.
            cand = int(math.floor((min_time - s - eps) / granularity))
            if cand > m:
                m = cand
        while True:
            k = max(i + 1, int((m * granularity - eps) / s) - 1)
            while k < limit and math.floor((k * s + eps) / granularity) < m:
                k += 1
            if k >= limit:
                return limit
            if k * s >= min_time:
                return k
            m += 1

    def _skipped_decision_window(
        self, i: int, nxt: int, granularity: float, eps: float, exact_grid: bool
    ) -> Optional[DecisionWindow]:
        """Decision slots the dense loop would visit in ``(i, nxt)``.

        On exact grids the count telescopes: each slot's predicate is
        ``floor((k*s+eps)/g) > floor(((k-1)*s+eps)/g)`` and the floor can
        climb by at most one per slot (granularity >= slot), so the total
        over a range is the difference of its endpoint floors.
        """
        s = self.slot
        if exact_grid:
            m_lo = math.floor((i * s + eps) / granularity)
            m_hi = math.floor(((nxt - 1) * s + eps) / granularity)
            if m_hi <= m_lo:
                return None
            return DecisionWindow.from_grid(s, granularity, eps, i, m_lo, m_hi)
        times = [
            k * s
            for k in range(i + 1, nxt)
            if self._is_decision_slot(k * s, granularity)
        ]
        if not times:
            return None
        return DecisionWindow.from_times(times)
