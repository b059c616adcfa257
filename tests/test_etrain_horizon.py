"""The eTrain decision horizon promises only provable no-ops.

``ETrainStrategy.decision_horizon(now)`` returns just past a time T
whose exact P(T) it checked against Θ, and relies on P being
non-decreasing in t while the queues are fixed.  These properties check
the promise itself (random queues, Θ and engine slot grids), the float
monotonicity of each cost class at its declared kink, and that the
margin the horizon keeps below Θ covers the compensated float ``sum()``
of Python 3.12+ as well as the left fold of earlier versions.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.etrain import ETrainStrategy
from repro.core.cost_functions import (
    CloudCost,
    LinearCost,
    MailCost,
    PiecewiseLinearCost,
    StepCost,
    WeiboCost,
    ZeroCost,
)
from repro.core.packet import Packet
from repro.core.profiles import CargoAppProfile
from repro.core.scheduler import SchedulerConfig

pytestmark = pytest.mark.strategies

ENGINE_SLOTS = (1.0, 0.5, 0.7)
#: Grid points checked at each end of a long promise.
_CHECKED = 1500

deadlines = st.floats(0.3, 400.0).filter(lambda d: d != int(d))
cost_functions = st.one_of(
    st.builds(MailCost, deadlines),
    st.builds(WeiboCost, deadlines),
    st.builds(CloudCost, deadlines),
    st.builds(LinearCost, st.floats(0.0, 0.5), deadlines),
    st.builds(StepCost, deadlines, st.floats(0.0, 3.0)),
    st.builds(ZeroCost),
)


def _strategy(costs, arrivals, theta) -> ETrainStrategy:
    profiles = [
        CargoAppProfile(
            app_id=f"app{i}",
            cost_function=cost,
            mean_size_bytes=1000,
            min_size_bytes=100,
            deadline=cost.deadline,
            mean_interarrival=10.0,
        )
        for i, cost in enumerate(costs)
    ]
    strategy = ETrainStrategy(profiles, SchedulerConfig(theta=theta))
    for i, times in enumerate(arrivals):
        for t in times:
            strategy.on_arrival(
                Packet(app_id=f"app{i}", arrival_time=t, size_bytes=500), t
            )
    return strategy


@st.composite
def queued_states(draw):
    slot = draw(st.sampled_from(ENGINE_SLOTS))
    now = draw(st.integers(0, 6000)) * slot  # the engine's own t = i * s
    costs = draw(st.lists(cost_functions, min_size=1, max_size=4))
    arrivals = [
        sorted(draw(st.lists(st.floats(0.0, now), max_size=6))) for _ in costs
    ]
    theta = draw(st.floats(0.0, 12.0))
    return slot, now, costs, arrivals, theta


def _grid_after(now: float, slot: float, horizon: float) -> List[float]:
    """Engine times ``k * slot`` in (now, horizon), both ends if many."""
    first = int(round(now / slot)) + 1
    last = int(horizon / slot) + 1
    while last >= first and last * slot >= horizon:
        last -= 1
    ks = range(first, last + 1)
    if len(ks) > 2 * _CHECKED:
        ks = list(ks[:_CHECKED]) + list(ks[-_CHECKED:])
    return [k * slot for k in ks]


@given(state=queued_states())
@settings(max_examples=300, deadline=None)
def test_every_skipped_decision_is_below_theta(state):
    slot, now, costs, arrivals, theta = state
    strategy = _strategy(costs, arrivals, theta)
    horizon = strategy.decision_horizon(now)
    assert math.isfinite(horizon) and horizon >= now
    cost = strategy.scheduler.instantaneous_cost
    if horizon > now:  # the checked T itself, on any grid
        assert cost(math.nextafter(horizon, -math.inf)) < theta
    for t in _grid_after(now, slot, horizon):
        assert cost(t) < theta, (t, horizon)


@given(state=queued_states())
@settings(max_examples=100, deadline=None)
def test_undeclared_cost_class_gets_no_promise(state):
    slot, now, costs, arrivals, theta = state
    costs = costs + [PiecewiseLinearCost([(0.0, 0.0), (10.0, 1.0)])]
    arrivals = arrivals + [[0.0]]
    strategy = _strategy(costs, arrivals, theta)
    assert strategy.decision_horizon(now) == now


def test_horizon_reaches_the_linear_crossing():
    """One Weibo packet (P = d/D) against Θ = 0.5 crosses at 15 s."""
    strategy = _strategy([WeiboCost(30.0)], [[0.0]], 0.5)
    horizon = strategy.decision_horizon(1.0)
    assert 14.99 < horizon <= 15.0
    assert strategy.scheduler.instantaneous_cost(horizon - 1e-6) < 0.5


def test_guess_past_a_jump_steps_back():
    """fl(0.1 + 0.2) − 0.1 > 0.2, so the piece end of a Weibo packet that
    arrived at 0.1 lands on its plateau of 2; the check must step back
    (0.1 s engine slots visit that very time: 3 * 0.1 == 0.1 + 0.2)."""
    strategy = _strategy([WeiboCost(0.2)], [[0.1]], 1.5)
    end = 0.1 + 0.2
    assert strategy.scheduler.instantaneous_cost(end) == 2.0
    horizon = strategy.decision_horizon(0.1)
    assert 0.29 < horizon <= end == 3 * 0.1


def test_horizon_stops_at_a_piece_end():
    """A mail packet costs nothing until its deadline, then rises: the
    promise ends at the kink, and the next one reaches the crossing."""
    strategy = _strategy([MailCost(60.0)], [[0.0]], 0.5)
    assert strategy.decision_horizon(1.0) == math.nextafter(60.0, math.inf)
    assert 89.99 < strategy.decision_horizon(61.0) <= 90.0


_DECLARED = [
    MailCost(7.3),
    WeiboCost(7.3),
    CloudCost(7.3),
    StepCost(7.3, 1.5),
    LinearCost(0.3),
    ZeroCost(),
]


@pytest.mark.parametrize("cost", _DECLARED, ids=lambda c: type(c).__name__)
@given(deadline=deadlines)
@settings(max_examples=200, deadline=None)
def test_cost_is_monotone_at_its_kink(cost, deadline):
    if hasattr(cost, "penalty"):
        cost = type(cost)(deadline, cost.penalty)
    elif isinstance(cost, LinearCost):
        cost = LinearCost(cost.slope, deadline)
    elif not isinstance(cost, ZeroCost):
        cost = type(cost)(deadline)
    kink = cost.pieces[0]
    if not math.isfinite(kink):
        kink = deadline
    below = [kink]
    for _ in range(4):
        below.insert(0, math.nextafter(below[0], 0.0))
        below.append(math.nextafter(below[-1], math.inf))
    values = [cost(d) for d in below]
    assert values == sorted(values)


def _sum312(values: Sequence[float]) -> float:
    """CPython 3.12+'s float ``sum()``: Neumaier-compensated."""
    total, comp = 0.0, 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


@given(state=queued_states(), gaps=st.lists(st.floats(0.0, 500.0), max_size=8))
@settings(max_examples=300, deadline=None)
def test_margin_covers_the_compensated_sum(state, gaps):
    """Under the 3.12 sum, P(t) <= P(T)·(1 + 1e-12) for t <= T."""
    _, now, costs, arrivals, _ = state

    def p312(t: float) -> float:
        return _sum312(
            [
                _sum312([cost(t - a if a < t else 0.0) for a in times])
                for cost, times in zip(costs, arrivals)
                if times
            ]
        )

    times = [now]
    for gap in gaps:
        times.append(times[-1] + gap)
    values = [p312(t) for t in times]
    for earlier, later in zip(values, values[1:]):
        assert earlier <= later * (1.0 + 1e-12)
