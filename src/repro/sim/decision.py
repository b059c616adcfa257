"""The per-slot decision kernel of both engine loops.

`repro.sim.engine` runs every simulation through its event-horizon
loop; its dense loop is the reference the equivalence tests compare
against.  The per-slot decision/transmit body of the two must stay
bit-identical, and this module is that body:

* :func:`is_decision_slot` — the decision-granularity predicate, exact
  float semantics shared by every caller;
* :func:`slot_step` — one slot's decide + transmit step (steps 3 and 4
  of the engine's slot body), mutating the strategy/radio/held triple
  exactly as the dense loop always has.

The online serving layer (`repro.serve`) runs no slot body of its own:
each device session drives a resumable
:class:`~repro.sim.engine.Simulation`, so the dense/event/fleet
equivalence oracles certify it through the same code.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.baselines.base import TransmissionStrategy
from repro.core.packet import Heartbeat, Packet
from repro.radio.interface import RadioInterface

__all__ = ["is_decision_slot", "slot_step"]


def is_decision_slot(t: float, slot: float, granularity: float) -> bool:
    """Whether a strategy decides in the slot starting at ``t``.

    The strategy decides in the first slot whose start is at or after
    each multiple of its decision granularity.  This stays correct when
    the granularity is not an integer multiple of the engine slot and is
    immune to accumulated float error in ``t``: the comparison happens
    in the time domain with a granularity-relative epsilon, not on a
    raw ratio.
    """
    eps = 1e-9 * granularity
    m_curr = math.floor((t + eps) / granularity)
    # Index of the last decision point at or before the previous slot.
    prev = t - slot
    m_prev = math.floor((prev + eps) / granularity) if prev >= 0.0 else -1
    # Decide iff a new decision point landed in (t - slot, t].
    return m_curr > m_prev


def slot_step(
    strategy: TransmissionStrategy,
    radio: RadioInterface,
    held: List[Packet],
    t: float,
    slot_hbs: Sequence[Heartbeat],
    decide_now: bool,
    warm_window: float,
    battery=None,
) -> List[Packet]:
    """Decide and transmit for the slot starting at ``t``; returns held'.

    Piggybacks released packets on the slot's first heartbeat when one
    exists.  Otherwise a warm-radio-gated strategy (eTrain's Q_TX) only
    transmits while the radio is still in its tail; a cold release waits
    for the next promotion.  Other strategies transmit on demand.

    When a :class:`~repro.sim.battery.HarvestingBattery` is present,
    standalone data bursts are additionally gated on stored energy: an
    unaffordable burst stays held until charge accrues.  Heartbeats and
    piggybacks are never gated — the heartbeat departs regardless and
    cargo riding it is (per the paper) nearly free.
    """
    released: List[Packet] = []
    if decide_now:
        released = strategy.decide(t, bool(slot_hbs))
    if slot_hbs:
        first, rest = slot_hbs[0], slot_hbs[1:]
        payload = held + released
        held = []
        if payload:
            radio.transmit_piggyback(first, payload)
        else:
            radio.transmit_heartbeat(first)
        for hb in rest:
            radio.transmit_heartbeat(hb)
    elif released or held:
        radio_warm = bool(radio.records) and t < radio.busy_until + warm_window
        if strategy.requires_warm_radio and not radio_warm:
            held.extend(released)
        else:
            payload = held + released
            held = []
            if payload:
                if battery is not None and not battery.try_spend(
                    t, sum(p.size_bytes for p in payload)
                ):
                    held = payload
                else:
                    radio.transmit_packets(t, payload)
    return held
