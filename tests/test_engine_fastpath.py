"""Dense-vs-event engine equivalence: the fast path must be bit-identical.

The event-horizon loop (``Simulation(dense=False)``, the default) earns
its speedup purely by *not visiting* slots where provably nothing can
happen; every slot it does visit runs the same expressions in the same
order as the dense reference loop.  These tests enforce the contract at
full strength — exact float equality of every record, energy total,
per-packet timestamp and summary metric — across every registered
baseline on the golden scenario plus a battery of randomized scenarios,
including non-dyadic slot grids where the engine's exact-arithmetic
shortcuts must stand down.  The strategy list and the run/compare
helpers come from the shared conformance table
(``tests/strategy_conformance.py``), so new baselines enroll here
automatically.
"""

from __future__ import annotations

import math
from typing import List

import pytest

from repro.baselines.base import TransmissionStrategy
from repro.core.packet import Packet
from repro.sim.engine import DecisionWindow, Simulation
from repro.sim.parallel import STRATEGY_BUILDERS
from repro.sim.runner import Scenario, default_scenario

from tests.strategy_conformance import (
    ALL_STRATEGIES,
    assert_bit_identical,
    conformance_scenarios,
    run_both,
)

_SCENARIOS = conformance_scenarios(21)


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_golden_scenario_equivalence(name):
    scenario = default_scenario(seed=0)
    dense, event = run_both(name, scenario)
    assert_bit_identical(dense, event)


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_randomized_scenario_equivalence(name):
    for scenario in _SCENARIOS:
        dense, event = run_both(name, scenario)
        try:
            assert_bit_identical(dense, event)
        except AssertionError:  # pragma: no cover - diagnostic context
            spec = (
                f"seed-ish scenario horizon={scenario.horizon} "
                f"slot={scenario.slot} trains={len(scenario.train_generators)}"
            )
            raise AssertionError(f"{name} diverged on {spec}") from None


def _simulate(strategy: TransmissionStrategy, scenario: Scenario, dense: bool):
    sim = Simulation(
        strategy,
        scenario.train_generators,
        scenario.fresh_packets(),
        power_model=scenario.power_model,
        bandwidth=scenario.bandwidth,
        horizon=scenario.horizon,
        slot=scenario.slot,
        dense=dense,
    )
    return sim, sim.run()


class TestSlotSkipping:
    """The event loop must actually skip, and only when allowed."""

    def test_sparse_strategy_visits_few_slots(self):
        scenario = default_scenario(seed=0)
        strategy = STRATEGY_BUILDERS["periodic"](scenario, period=300.0)
        sim, _ = _simulate(strategy, scenario, dense=False)
        n_slots = int(math.ceil(scenario.horizon / scenario.slot))
        assert sim.loop_iterations < n_slots / 10

    def test_dense_flag_forces_reference_loop(self):
        scenario = default_scenario(seed=0)
        strategy = STRATEGY_BUILDERS["periodic"](scenario, period=300.0)
        sim, _ = _simulate(strategy, scenario, dense=True)
        assert sim.loop_iterations == int(
            math.ceil(scenario.horizon / scenario.slot)
        )

    @pytest.mark.parametrize("name", ["etrain", "adaptive", "channel_aware"])
    def test_etrain_family_skips_slots_below_theta(self, name):
        """The Θ-crossing horizon lets the eTrain family skip the slots
        whose decide cannot act: < 2,500 of the 7,200 on a 2 h seed."""
        scenario = default_scenario(seed=0)
        strategy = STRATEGY_BUILDERS[name](scenario)
        sim, _ = _simulate(strategy, scenario, dense=False)
        assert int(math.ceil(scenario.horizon / scenario.slot)) == 7200
        assert sim.loop_iterations < 2500

    @pytest.mark.parametrize("slot,visits", [(1.0, 7200), (1.3, 5539)])
    def test_default_protocol_strategy_steps_every_slot(self, slot, visits):
        """PerES keeps the base never-idle/no-horizon protocol and decides
        every slot, so the event loop visits each slot once, on a dyadic
        and a non-dyadic grid (bit-identity: ``TestDenseVsEvent``)."""
        scenario = default_scenario(seed=0)
        scenario.slot = slot
        strategy = STRATEGY_BUILDERS["peres"](scenario)
        sim, _ = _simulate(strategy, scenario, dense=False)
        assert int(math.ceil(scenario.horizon / slot)) == visits
        assert sim.loop_iterations == visits


class ClockKeepingPeriodic(TransmissionStrategy):
    """Periodic releaser that reconstructs its full decision clock.

    Keeps the base never-idle protocol but promises quiet periods via
    ``decision_horizon`` and replays the skipped decision times through
    ``on_decisions_skipped`` — the strategy-visible clock must therefore
    be identical under both engine paths.
    """

    def __init__(self, period: float = 45.0, granularity: float = 3.0) -> None:
        self.slot = granularity
        self.period = period
        self.name = "clock-keeper"
        self._queue: List[Packet] = []
        self._last_fire = 0.0
        self.clock: List[float] = []

    def on_arrival(self, packet: Packet, now: float) -> None:
        self._queue.append(packet)

    @property
    def waiting_count(self) -> int:
        return len(self._queue)

    def decide(self, now: float, heartbeat_present: bool) -> List[Packet]:
        self.clock.append(now)
        if now - self._last_fire + 1e-9 < self.period:
            return []
        self._last_fire = now
        released, self._queue = self._queue, []
        return released

    def flush(self, now: float) -> List[Packet]:
        released, self._queue = self._queue, []
        return released

    def decision_horizon(self, now: float) -> float:
        return self._last_fire + self.period - 1e-9 - 1e-6 * max(
            self.period, 1.0
        )

    def on_decisions_skipped(self, window: DecisionWindow) -> None:
        self.clock.extend(window.times())


class TestDecisionWindowReplay:
    """on_decisions_skipped hands back exactly the elided decision times."""

    @pytest.mark.parametrize(
        "slot,period,granularity",
        [
            (1.0, 45.0, 3.0),  # exact grid, grid-backed windows
            (1.0, 45.0, 1.0),  # exact grid, every slot decides
            (0.3, 45.0, 2.1),  # inexact grid, times-backed windows
            (0.7, 30.0, 0.7),  # inexact grid, every slot decides
        ],
    )
    def test_clock_identical_across_paths(self, slot, period, granularity):
        scenario = default_scenario(seed=3, horizon=900.0, train_count=2)
        scenario.slot = slot
        keeper_dense = ClockKeepingPeriodic(period, granularity)
        keeper_event = ClockKeepingPeriodic(period, granularity)
        _, dense = _simulate(keeper_dense, scenario, dense=True)
        sim, event = _simulate(keeper_event, scenario, dense=False)
        assert_bit_identical(dense, event)
        assert keeper_event.clock == keeper_dense.clock
        # The replayed clock must cover every decision the engine counted.
        assert len(keeper_dense.clock) == dense.decisions
        if granularity > slot:
            n_slots = int(math.ceil(scenario.horizon / scenario.slot))
            assert sim.loop_iterations < n_slots

    def test_decision_window_times_roundtrip(self):
        """Grid- and times-backed windows agree on their contents."""
        # slot=1, granularity=3: multiples 2..6 are served at t=6..18.
        grid = DecisionWindow.from_grid(1.0, 3.0, 3e-9, 2, 1, 6)
        assert grid.count == 5
        assert grid.times() == [6.0, 9.0, 12.0, 15.0, 18.0]
        times = DecisionWindow.from_times(grid.times())
        assert times.count == grid.count
        assert times.times() == grid.times()
        for n in [0, 1, 2, 5, 6, 100]:
            assert grid.last(n) == times.last(n)
        assert grid.last(2) == [15.0, 18.0]
        # Every slot decides: last(n) reads the slots straight off the grid.
        every = DecisionWindow.from_grid(1.0, 1.0, 1e-9, 4, 4, 9)
        assert every.times() == [5.0, 6.0, 7.0, 8.0, 9.0]
        every_times = DecisionWindow.from_times(every.times())
        for n in [0, 1, 3, 5, 9]:
            assert every.last(n) == every_times.last(n)
