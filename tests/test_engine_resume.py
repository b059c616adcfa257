"""Split invariance: a resumable Simulation equals one ``run()``.

The online serve sessions drive :class:`repro.sim.engine.Simulation`
incrementally: they feed each observation, finalize every slot that
ends at or before its time with :meth:`~Simulation.advance`, and call
:meth:`~Simulation.finish` at close.  The event-horizon loop may then
not jump past an advance limit; it stops at the first non-final slot
and resumes by visiting it.  These tests pin the property that rule
must keep: for every conformance fixture, any set of split limits —
including limits deep inside long idle gaps, where the uncapped loop
would have made one long jump — yields records, decisions and summary
bit-identical to the single batch run.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.heartbeat.generators import merge_heartbeats
from repro.sim.engine import Simulation
from repro.sim.runner import run_strategy

from tests.strategy_conformance import (
    FIXTURES,
    assert_bit_identical,
    build_strategy,
    conformance_scenarios,
)

pytestmark = pytest.mark.strategies

#: Index 2 runs a 0.5 s slot and index 4 a non-dyadic one, so the
#: capped jump is exercised off the exact-grid closed forms too.
_SCENARIOS = conformance_scenarios(5)

_CASES = [
    pytest.param(f.name, params, id=f"{f.name}-{k}")
    for f in FIXTURES
    for k, params in enumerate(f.variant_dicts())
]


@lru_cache(maxsize=None)
def _inputs(index: int):
    """The scenario's sorted heartbeats and packet arrival times."""
    scenario = _SCENARIOS[index]
    hbs = merge_heartbeats(scenario.train_generators, scenario.horizon)
    times = sorted(
        [h.time for h in hbs] + [p.arrival_time for p in scenario.packets]
    )
    return scenario, hbs, times


@lru_cache(maxsize=None)
def _idle_gaps(index: int):
    """The scenario's five longest input-free stretches, as (lo, hi)."""
    scenario, _, times = _inputs(index)
    edges = [0.0] + times + [scenario.horizon]
    gaps = sorted(zip(edges, edges[1:]), key=lambda g: g[1] - g[0])
    return gaps[-5:]


@st.composite
def split_plans(draw):
    """A scenario index plus sorted split limits in [0, horizon + 1]."""
    index = draw(st.integers(0, len(_SCENARIOS) - 1))
    scenario = _SCENARIOS[index]
    gaps = _idle_gaps(index)
    limits = draw(
        st.lists(
            st.floats(0.0, scenario.horizon + 1.0, allow_nan=False),
            max_size=12,
        )
    )
    for gap, frac in draw(
        st.lists(
            st.tuples(st.sampled_from(gaps), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=4,
        )
    ):
        lo, hi = gap
        limits.append(lo + frac * (hi - lo))
    # Slot boundaries themselves are the edge of "final".
    boundaries = draw(st.lists(st.integers(0, 50), max_size=3))
    limits += [k * scenario.slot for k in boundaries]
    return index, sorted(limits)


def run_split(name, params, index: int, limits: List[float], finish=True):
    """Feed the scenario piecewise, advancing to each limit in turn."""
    scenario, hbs, _ = _inputs(index)
    packets = sorted(
        scenario.fresh_packets(), key=lambda p: (p.arrival_time, p.packet_id)
    )
    arrivals = [p.arrival_time for p in packets]
    hb_times = [h.time for h in hbs]
    sim = Simulation(
        build_strategy(name, scenario, params),
        (),
        (),
        power_model=scenario.power_model,
        bandwidth=scenario.bandwidth,
        horizon=scenario.horizon,
        slot=scenario.slot,
    )
    p_at = h_at = 0
    for limit in limits:
        # Everything strictly before the limit must be in before it.
        p_to = bisect_left(arrivals, limit)
        h_to = bisect_left(hb_times, limit)
        sim.feed_packets(packets[p_at:p_to])
        sim.feed_heartbeats(hbs[h_at:h_to])
        p_at, h_at = p_to, h_to
        sim.advance(limit)
    if not finish:
        return sim, None
    sim.feed_packets(packets[p_at:])
    sim.feed_heartbeats(hbs[h_at:])
    return sim, sim.finish()


@pytest.mark.parametrize("name,params", _CASES)
@given(plan=split_plans())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_split_matches_one_run(name, params, plan):
    index, limits = plan
    scenario = _SCENARIOS[index]
    whole = run_strategy(build_strategy(name, scenario, params), scenario)
    _, split = run_split(name, params, index, limits)
    assert_bit_identical(whole, split)
    assert split.heartbeats == whole.heartbeats


def test_idle_gap_split_stops_at_the_limit():
    """Inside a long idle gap the event loop stops at the first
    non-final slot instead of jumping to the next known input."""
    index = 0
    scenario = _SCENARIOS[index]
    lo, hi = _idle_gaps(index)[-1]
    assert hi - lo > 10 * scenario.slot
    limit = (lo + hi) / 2
    sim, _ = run_split("periodic", {"period": 300.0}, index, [limit], False)
    s = scenario.slot
    first_open = next(i for i in range(sim.n_slots) if i * s + s > limit)
    assert sim._slot_idx == first_open
    # The jump into the gap was one visit, not one per slot.
    assert sim.loop_iterations < first_open / 2


class TestFeedOrder:
    def _sim(self, name="etrain"):
        scenario = _SCENARIOS[0]
        return scenario, Simulation(
            build_strategy(name, scenario, None),
            (),
            (),
            horizon=scenario.horizon,
            slot=scenario.slot,
        )

    def test_packet_out_of_order_raises(self):
        scenario, sim = self._sim()
        packets = sorted(
            scenario.fresh_packets()[:2],
            key=lambda p: (p.arrival_time, p.packet_id),
        )
        sim.feed_packets(packets[1:])
        with pytest.raises(ValueError, match="out of order"):
            sim.feed_packets(packets[:1])

    def test_heartbeat_out_of_order_raises(self):
        scenario, sim = self._sim()
        _, hbs, _ = _inputs(0)
        sim.feed_heartbeats(hbs[1:2])
        with pytest.raises(ValueError, match="out of order"):
            sim.feed_heartbeats(hbs[:1])

    def test_input_behind_the_limit_raises(self):
        scenario, sim = self._sim()
        _, hbs, _ = _inputs(0)
        sim.advance(hbs[0].time + 1.0)
        with pytest.raises(ValueError, match="out of order"):
            sim.feed_heartbeats(hbs[:1])

    def test_finished_simulation_takes_no_input(self):
        _, sim = self._sim()
        sim.finish()
        with pytest.raises(ValueError, match="finished"):
            sim.advance(1.0)
