"""Battery models: capacity arithmetic and an energy-harvesting store.

The introduction's arithmetic — "Given a battery capacity of 1700 mAh
with voltage 3.7 V, if the battery life is 10 hours, the smartphone will
spend at least 6 % of its battery capacity on sending heartbeats of only
one app" — is reproduced here as a first-class object, so the day-long
experiment can report savings in battery-percentage and standby-hours
rather than raw joules.

:class:`HarvestingBattery` adds the finite-energy store the
energy-harvesting scheduling literature assumes (Bacinoglu &
Uysal-Biyikoglu, arXiv:1312.4798): charge accrues over time from a
seeded, piecewise-constant harvest process, standalone data bursts drain
it, and a burst the store cannot afford waits.  The engine threads it
through :func:`repro.sim.decision.slot_step`, so batch runs, serve
sessions and the fleet scalar fallback gate alike; see
``docs/fidelity.md``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

__all__ = ["Battery", "GALAXY_S4_BATTERY", "HarvestingBattery"]


@dataclass(frozen=True)
class Battery:
    """An ideal battery (no ageing/temperature effects).

    Attributes
    ----------
    capacity_mah:
        Rated capacity in milliamp-hours.
    voltage:
        Nominal voltage (the paper uses 3.7 V).
    """

    capacity_mah: float = 2600.0
    voltage: float = 3.7

    def __post_init__(self) -> None:
        if self.capacity_mah <= 0:
            raise ValueError(f"capacity_mah must be > 0, got {self.capacity_mah}")
        if self.voltage <= 0:
            raise ValueError(f"voltage must be > 0, got {self.voltage}")

    @property
    def capacity_joules(self) -> float:
        """Total energy content: mAh → A·s → J."""
        return self.capacity_mah / 1000.0 * 3600.0 * self.voltage

    def fraction_used(self, energy_j: float) -> float:
        """Fraction of capacity a given energy drain represents."""
        if energy_j < 0:
            raise ValueError(f"energy_j must be >= 0, got {energy_j}")
        return energy_j / self.capacity_joules

    def percent_used(self, energy_j: float) -> float:
        """Battery percentage (0-100+) consumed by ``energy_j``."""
        return 100.0 * self.fraction_used(energy_j)

    def lifetime_hours(self, mean_power_w: float) -> float:
        """Hours a constant draw of ``mean_power_w`` lasts on a full charge."""
        if mean_power_w <= 0:
            raise ValueError(f"mean_power_w must be > 0, got {mean_power_w}")
        return self.capacity_joules / mean_power_w / 3600.0

    def standby_hours_equivalent(self, energy_j: float, standby_power_w: float = 0.018) -> float:
        """How many hours of deep-sleep standby ``energy_j`` equals.

        The paper phrases heartbeat waste as "roughly 10 hours of standby
        time"; this converts any saving the same way.
        """
        if standby_power_w <= 0:
            raise ValueError("standby_power_w must be > 0")
        return energy_j / standby_power_w / 3600.0


#: The paper's reference battery: "a battery capacity of 1700 mAh with
#: voltage 3.7 V" (Sec. II-D).
GALAXY_S4_BATTERY = Battery(capacity_mah=1700.0, voltage=3.7)


class HarvestingBattery:
    """A finite energy store fed by a seeded harvesting process.

    Harvest power is piecewise constant: window ``k`` (of
    ``harvest_window_s`` seconds) harvests at a rate drawn uniformly from
    ``[0, harvest_rate_max]`` by ``random.Random(seed)``, in window
    order, so the whole charge trajectory is a pure function of the seed.

    The store only changes state at :meth:`try_spend`; between drains the
    level at any time has the closed form ``min(capacity_j, level +
    harvested_since_last_drain)``, which is what makes the engine's
    dense and event-horizon loops agree bit-for-bit: both evaluate the
    same closed form at the same visited slots.  (Harvest rates are
    nonnegative, so charge is monotone between drains and clamping once
    at the query time equals clamping continuously.)

    A standalone data burst of ``b`` bytes costs ``burst_cost_j +
    per_byte_j * b``; heartbeat and piggyback bursts are free — the
    heartbeat fires regardless and the paper's point is that cargo
    riding it adds almost nothing.
    """

    def __init__(
        self,
        *,
        capacity_j: float = 40.0,
        initial_j: float = 20.0,
        harvest_window_s: float = 60.0,
        harvest_rate_max: float = 0.05,
        burst_cost_j: float = 1.0,
        per_byte_j: float = 2e-6,
        seed: int = 0,
    ) -> None:
        if capacity_j <= 0:
            raise ValueError(f"capacity_j must be > 0, got {capacity_j}")
        if not 0.0 <= initial_j <= capacity_j:
            raise ValueError(
                f"initial_j must be in [0, capacity_j], got {initial_j}"
            )
        if harvest_window_s <= 0:
            raise ValueError(
                f"harvest_window_s must be > 0, got {harvest_window_s}"
            )
        if harvest_rate_max < 0:
            raise ValueError(
                f"harvest_rate_max must be >= 0, got {harvest_rate_max}"
            )
        if burst_cost_j < 0 or per_byte_j < 0:
            raise ValueError("burst costs must be >= 0")
        self.capacity_j = float(capacity_j)
        self.harvest_window_s = float(harvest_window_s)
        self.harvest_rate_max = float(harvest_rate_max)
        self.burst_cost_j = float(burst_cost_j)
        self.per_byte_j = float(per_byte_j)
        self.seed = int(seed)
        self._rng = random.Random(seed)
        #: Per-window harvest rates (J/s), extended lazily in order.
        self._rates: List[float] = []
        #: ``_cum[k]`` = joules harvested over ``[0, k * window]``.
        self._cum: List[float] = [0.0]
        #: Level at the last drain, and when that drain happened.
        self._level = float(initial_j)
        self._anchor = 0.0
        #: (need, lo, hi): windows [lo, hi) hold no crossing of `need`.
        self._ruled_out = (math.nan, 0, 0)
        self.drains = 0
        self.drained_j = 0.0

    def _ensure_windows(self, k: int) -> None:
        while len(self._rates) <= k:
            rate = self._rng.uniform(0.0, self.harvest_rate_max)
            self._rates.append(rate)
            self._cum.append(self._cum[-1] + rate * self.harvest_window_s)

    def harvested(self, t: float) -> float:
        """Total joules harvested over ``[0, t]`` (capacity ignored)."""
        if t <= 0.0:
            return 0.0
        w = self.harvest_window_s
        k = int(math.floor(t / w))
        self._ensure_windows(k)
        return self._cum[k] + self._rates[k] * (t - k * w)

    def stored_at(self, t: float) -> float:
        """Energy available at time ``t`` (no drains since the last one)."""
        if t < self._anchor:
            t = self._anchor
        gained = self.harvested(t) - self.harvested(self._anchor)
        return min(self.capacity_j, self._level + gained)

    def tx_cost(self, size_bytes: int) -> float:
        """Joules one standalone burst of ``size_bytes`` costs."""
        return self.burst_cost_j + self.per_byte_j * size_bytes

    def try_spend(self, t: float, size_bytes: int) -> bool:
        """Drain one burst's cost at ``t`` if the store covers it.

        Returns False (and changes nothing) when it does not; the caller
        holds the payload and retries as charge accrues.  The level never
        goes negative by construction.
        """
        cost = self.tx_cost(size_bytes)
        stored = self.stored_at(t)
        if stored < cost:
            return False
        self._level = stored - cost
        self._anchor = t
        self.drains += 1
        self.drained_j += cost
        return True

    def when_stored_at_least(
        self, target_j: float, t0: float, until: float
    ) -> Optional[float]:
        """Earliest ``t >= t0`` with ``stored_at(t) >= target_j``, if it
        falls in a harvest window that starts by ``until``.

        None when ``target_j`` exceeds capacity, when nothing is ever
        harvested, or when no window up to the one holding ``until``
        reaches the target; a crossing found in that last window may lie
        past ``until``.  Assumes no drains happen in between, which holds
        for the planning callers: a drain would only postpone the
        crossing, and every drain site re-queries.
        """
        if target_j > self.capacity_j:
            return None
        t0 = max(t0, self._anchor)
        if self.stored_at(t0) >= target_j:
            return t0
        if self.harvest_rate_max == 0.0:
            return None
        w = self.harvest_window_s
        # Unclamped accumulation crosses `target` at the same instant the
        # clamped level does, because target <= capacity and charge is
        # monotone between drains.
        need = target_j - self._level + self.harvested(self._anchor)
        k = int(math.floor(t0 / w))
        # Windows already scanned for this `need` (it only changes at a
        # drain) cannot hold the crossing: cum and rates are fixed.
        done_need, done_lo, done_hi = self._ruled_out
        if done_need == need and done_lo <= k < done_hi:
            k = done_hi
        else:
            done_lo = k
        last = int(math.floor(until / w))
        while k <= last:
            self._ensure_windows(k)
            rate = self._rates[k]
            if self._cum[k + 1] >= need and rate > 0.0:
                t = k * w + (need - self._cum[k]) / rate
                return max(t, t0)
            k += 1
        self._ruled_out = (need, done_lo, k)
        return None
