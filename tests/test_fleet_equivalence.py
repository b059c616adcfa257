"""Fleet engine vs per-device scalar loop: aggregate equivalence.

The batched NumPy engine (`repro.sim.fleet.engine`) promises the *same
aggregate numbers* as running each device through the scalar slotted
simulation — seed for seed, strategy for strategy.  These tests hold it
to that: fixed-seed checks for every vectorized strategy, a hypothesis
sweep over small fleets (satellite requirement: total energy, piggyback
ratio and delay-cost totals must match a per-device loop), and chunk
invariance (splitting a fleet into chunks never changes the merge).

Tolerances: the vectorized accounting sums per-packet costs in a
different association order than the scalar loop, so totals agree to
float round-off (rtol 1e-6 is generous; observed drift ~1e-13).  Chunk
splits reuse identical per-device streams, so they agree to 1e-9.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bandwidth.synth import wuhan_bandwidth_model
from repro.radio.power_model import GALAXY_S4_3G
from repro.sim.fleet.accounting import summarize_chunk
from repro.sim.fleet.aggregate import FleetChunkSummary
from repro.sim.fleet.channel import ChannelTable
from repro.sim.fleet.engine import (
    _cost_aggregate,
    _theta_crossing_for,
    _theta_step_for,
    _transition_slots,
    simulate_fleet_chunk,
)
from repro.sim.fleet import vector_strategies
from repro.sim.fleet.reference import simulate_reference_chunk
from repro.sim.fleet.workload import synthesize_fleet

#: Aggregate keys the fleet engine must reproduce from the scalar loop.
MATCH_KEYS = (
    "total_energy_j",
    "tail_energy_j",
    "transmission_energy_j",
    "normalized_delay_s",
    "deadline_violation_ratio",
    "piggyback_ratio",
    "delay_cost_total",
    "packets",
    "bursts",
)

_BW = wuhan_bandwidth_model()
_TABLES = {}


def channel_table(horizon: float) -> ChannelTable:
    if horizon not in _TABLES:
        _TABLES[horizon] = ChannelTable.from_model(_BW, horizon)
    return _TABLES[horizon]


def fleet_summary(devices, horizon, seed, strategy, params=None, phase_mode="fixed"):
    workload = synthesize_fleet(devices, horizon, seed, phase_mode=phase_mode)
    raw = simulate_fleet_chunk(
        workload, channel_table(horizon), strategy=strategy, params=params
    )
    return summarize_chunk(raw, GALAXY_S4_3G).summary()


def scalar_summary(devices, horizon, seed, strategy, params=None, phase_mode="fixed"):
    workload = synthesize_fleet(devices, horizon, seed, phase_mode=phase_mode)
    return simulate_reference_chunk(
        workload, _BW, strategy=strategy, params=params
    ).summary()


def assert_summaries_match(fleet, scalar, rtol=1e-6):
    for key in MATCH_KEYS:
        assert fleet[key] == pytest.approx(scalar[key], rel=rtol, abs=1e-9), (
            f"{key}: fleet {fleet[key]!r} != scalar {scalar[key]!r}"
        )


CASES = [
    ("immediate", None),
    ("periodic", {"period": 45.0}),
    ("tailender", None),
    ("etrain", None),
    ("etrain", {"warm_gate": False}),
    ("etrain", {"theta": 0.5}),
    # Registry-vectorized baseline kernels (ISSUE 7 tentpole).
    ("peres", None),
    ("peres", {"omega": 0.5}),
    ("etime", None),
    ("etime", {"v": 2.0}),
    ("adaptive", None),
    ("adaptive", {"target_delay": 20.0, "warm_gate": False}),
    ("fixed_batch", None),
    ("fixed_batch", {"period": 45.0}),
    # channel_aware (ISSUE 8): the last strategy off the scalar fallback.
    ("channel_aware", None),
    ("channel_aware", {"quality_threshold": 1.2, "max_defer": 10.0}),
    ("channel_aware", {"theta": 0.5, "noise": 0.0}),
    ("channel_aware", {"quality_threshold": 5.0}),
]

#: The strategies recent PRs moved off the scalar fallback.
NEW_VECTOR = ["peres", "etime", "adaptive", "fixed_batch", "channel_aware"]


@pytest.mark.parametrize("strategy,params", CASES)
def test_fixed_seed_equivalence(strategy, params):
    fleet = fleet_summary(6, 450.0, 3, strategy, params)
    scalar = scalar_summary(6, 450.0, 3, strategy, params)
    assert_summaries_match(fleet, scalar)


@pytest.mark.parametrize("strategy", vector_strategies())
def test_random_phase_equivalence(strategy):
    fleet = fleet_summary(5, 450.0, 7, strategy, phase_mode="random")
    scalar = scalar_summary(5, 450.0, 7, strategy, phase_mode="random")
    assert_summaries_match(fleet, scalar)


def test_periodic_horizon_shorter_than_period():
    """No fire slot inside the horizon: everything waits for the flush."""
    fleet = fleet_summary(3, 50.0, 1, "periodic", {"period": 60.0})
    scalar = scalar_summary(3, 50.0, 1, "periodic", {"period": 60.0})
    assert_summaries_match(fleet, scalar)


def test_full_horizon_etrain_equivalence():
    """One slow full-length check: 2 devices over the paper's 2h horizon."""
    fleet = fleet_summary(2, 7200.0, 0, "etrain")
    scalar = scalar_summary(2, 7200.0, 0, "etrain")
    assert_summaries_match(fleet, scalar)
    assert fleet["piggyback_ratio"] > 0.3  # eTrain actually piggybacks


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    devices=st.integers(min_value=1, max_value=8),
    horizon=st.sampled_from([300.0, 450.0, 600.0, 900.0]),
    seed=st.integers(min_value=0, max_value=200),
    strategy=st.sampled_from(vector_strategies()),
    phase_mode=st.sampled_from(["fixed", "random"]),
)
def test_property_fleet_matches_scalar(devices, horizon, seed, strategy, phase_mode):
    """Satellite (c): any small fleet matches a per-device scalar loop on
    total energy, piggyback ratio and delay-cost totals, seed for seed."""
    fleet = fleet_summary(devices, horizon, seed, strategy, phase_mode=phase_mode)
    scalar = scalar_summary(devices, horizon, seed, strategy, phase_mode=phase_mode)
    assert fleet["devices"] == scalar["devices"] == devices
    assert fleet["total_energy_j"] == pytest.approx(
        scalar["total_energy_j"], rel=1e-6
    )
    assert fleet["piggyback_ratio"] == pytest.approx(
        scalar["piggyback_ratio"], rel=1e-6, abs=1e-12
    )
    assert fleet["delay_cost_total"] == pytest.approx(
        scalar["delay_cost_total"], rel=1e-6, abs=1e-9
    )


@pytest.mark.parametrize("strategy", ["immediate", "etrain"])
def test_chunk_invariance(strategy):
    """Chunking is invisible: per-device streams are keyed by absolute
    device index, and the summary merge is associative."""
    devices, horizon, seed = 20, 450.0, 1
    table = channel_table(horizon)
    whole = summarize_chunk(
        simulate_fleet_chunk(
            synthesize_fleet(devices, horizon, seed), table, strategy=strategy
        ),
        GALAXY_S4_3G,
    )
    parts = []
    for offset, count in ((0, 7), (7, 7), (14, 6)):
        w = synthesize_fleet(count, horizon, seed, device_offset=offset)
        parts.append(
            summarize_chunk(
                simulate_fleet_chunk(w, table, strategy=strategy), GALAXY_S4_3G
            )
        )
    merged = FleetChunkSummary.merge_all(parts)
    assert merged.devices == whole.devices
    assert merged.packets == whole.packets
    assert merged.bursts == whole.bursts
    assert merged.piggyback_hits == whole.piggyback_hits
    assert merged.energy_total_j == pytest.approx(whole.energy_total_j, rel=1e-9)
    assert merged.delay_cost_sum == pytest.approx(whole.delay_cost_sum, rel=1e-9)
    np.testing.assert_array_equal(merged.energy_hist, whole.energy_hist)
    np.testing.assert_array_equal(merged.delay_hist, whole.delay_hist)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    devices=st.integers(min_value=1, max_value=5),
    horizon=st.sampled_from([300.0, 450.0, 600.0]),
    seed=st.integers(min_value=0, max_value=200),
    strategy=st.sampled_from(NEW_VECTOR),
    phase_mode=st.sampled_from(["fixed", "random"]),
)
def test_property_new_kernels_match_scalar(
    devices, horizon, seed, strategy, phase_mode
):
    """Satellite: every newly vectorized strategy matches the scalar
    loop on the full aggregate key set, seed for seed."""
    fleet = fleet_summary(devices, horizon, seed, strategy, phase_mode=phase_mode)
    scalar = scalar_summary(devices, horizon, seed, strategy, phase_mode=phase_mode)
    assert fleet["devices"] == scalar["devices"] == devices
    assert_summaries_match(fleet, scalar)


def test_rejects_non_vectorized_strategy():
    w = synthesize_fleet(1, 60.0, 0)
    with pytest.raises(ValueError, match="no_such_strategy"):
        simulate_fleet_chunk(w, channel_table(60.0), strategy="no_such_strategy")


def test_rejects_unknown_params():
    w = synthesize_fleet(1, 60.0, 0)
    with pytest.raises((TypeError, ValueError)):
        simulate_fleet_chunk(
            w, channel_table(60.0), strategy="etrain", params={"bogus": 1}
        )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_theta_step_matches_scalar_left_fold_bitwise(seed):
    """The etrain kernel's Θ-cost step equals, bit for bit, a per-device
    scalar left-fold of each app's closed-form ``_cost_aggregate``."""
    rng = np.random.default_rng(seed)
    A, D = int(rng.integers(1, 5)), int(rng.integers(1, 33))
    kinds = rng.integers(0, 3, size=A).astype(np.int64)
    dls = rng.uniform(5.0, 120.0, size=A)
    u = float(rng.uniform(0.0, 7200.0))
    n_pre = rng.integers(0, 40, size=(A, D)).astype(np.float64)
    n_post = rng.integers(0, 40, size=(A, D)).astype(np.float64)
    s_pre = rng.uniform(0.0, 7200.0, size=(A, D)) * n_pre
    s_post = rng.uniform(0.0, 7200.0, size=(A, D)) * n_post

    out = np.full(D, np.nan)
    _theta_step_for(kinds, dls)(u, n_pre, s_pre, n_post, s_post, out)

    ref = np.empty(D)
    for d in range(D):
        acc = 0.0
        for a in range(A):
            acc += _cost_aggregate(
                int(kinds[a]), float(dls[a]), u,
                float(n_pre[a, d]), float(s_pre[a, d]),
                float(n_post[a, d]), float(s_post[a, d]),
            )
        ref[d] = acc
    np.testing.assert_array_equal(out.view(np.uint64), ref.view(np.uint64))


def test_theta_step_overwrites_its_output():
    """The bound step keeps no state between calls: each call overwrites
    ``out`` (stale values included), and empty queues cost exactly 0."""
    kinds = np.array([0, 1, 2], dtype=np.int64)
    step = _theta_step_for(kinds, np.array([30.0, 60.0, 90.0]))
    zeros = np.zeros((3, 4))
    out = np.full(4, np.nan)
    step(120.0, zeros, zeros, zeros, zeros, out)
    assert out.tolist() == [0.0] * 4

    n = np.full((3, 4), 2.0)
    s = np.full((3, 4), 50.0)
    step(100.0, n, s, n, s, out)
    first = out.copy()
    out[:] = 1e9
    step(100.0, n, s, n, s, out)
    np.testing.assert_array_equal(out.view(np.uint64), first.view(np.uint64))


def _queue_sums(rng, kinds, dls, D, lo):
    """(n_pre, s_pre, n_post, s_post) of random queues classified at slot
    ``lo`` the way the engine splits them, plus each column's next knee
    (the first slot a still-pre packet turns post)."""
    A = kinds.size
    sums = np.zeros((4, A, D))
    knee = np.full(D, lo + 10_000, dtype=np.int64)
    for a in range(A):
        for d in range(D):
            n = int(rng.integers(0, 6))
            arr = np.sort(rng.uniform(max(0.0, lo - 3.0 * dls[a]), lo, size=n))
            kp = _transition_slots(arr, float(dls[a]))
            post = kp <= lo
            for j in range(n):
                k = 2 if post[j] else 0
                sums[k, a, d] += 1.0
                sums[k + 1, a, d] += arr[j]
            if (~post).any():
                knee[d] = min(knee[d], int(kp[~post].min()))
    return sums, knee


def _first_crossing_by_scan(step, lo, hi, theta, sums):
    """The first slot of ``[lo, hi)`` whose step value reaches ``theta``."""
    out = np.empty(sums.shape[2], dtype=np.int64)
    for d in range(out.size):
        ts = np.arange(lo[d], hi[d], dtype=np.float64)
        P = np.empty(ts.size)
        col = sums[:, :, d : d + 1]
        step(ts, col[0], col[1], col[2], col[3], P)
        hit = np.flatnonzero(P >= theta[d])
        out[d] = lo[d] + hit[0] if hit.size else hi[d]
    return out


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    case=st.sampled_from(["random", "exact", "flat", "knee"]),
)
@settings(max_examples=150, deadline=None)
def test_theta_crossing_matches_brute_force_scan(seed, case):
    """The rounds loop's Θ-crossing search returns exactly the first slot
    a slot-by-slot scan of the same float P(t) finds: Θ hit exactly,
    zero slopes, crossings at a deadline knee, all three cost kinds."""
    rng = np.random.default_rng(seed)
    A, D = int(rng.integers(1, 4)), int(rng.integers(1, 9))
    kinds = rng.integers(0, 3, size=A).astype(np.int64)
    if case == "flat":
        kinds = rng.integers(0, 2, size=A).astype(np.int64)
    dls = rng.uniform(2.0, 120.0, size=A)
    lo = np.full(D, int(rng.integers(0, 7000)), dtype=np.int64)
    sums, knee = _queue_sums(rng, kinds, dls, D, int(lo[0]))
    if case == "flat":
        # zero slope: mail queues with no post-deadline packets cost 0,
        # weibo queues with only post-deadline packets a constant 2 each
        sums[2:, kinds == 0] = 0.0
        sums[:2, kinds == 1] = 0.0
    hi = lo + rng.integers(0, 300, size=D)
    if case == "knee":
        hi = np.maximum(np.minimum(knee, lo + 2000), lo + 1)
    step = _theta_step_for(kinds, dls)
    theta = rng.uniform(-0.5, 6.0, size=D)
    if case in ("exact", "knee"):
        # Θ equal to P at a slot of the range (the knee's last slot)
        at = hi - 1 if case == "knee" else lo + rng.integers(0, 300, size=D)
        P = np.empty(D)
        step(at.astype(np.float64), sums[0], sums[1], sums[2], sums[3], P)
        theta = np.where(rng.random(D) < 0.2, np.nextafter(P, np.inf), P)
        hi = np.maximum(hi, at + 1)
    got = _theta_crossing_for(kinds, dls)(lo, hi, theta, sums)
    want = _first_crossing_by_scan(step, lo, hi, theta, sums)
    np.testing.assert_array_equal(got, want)

