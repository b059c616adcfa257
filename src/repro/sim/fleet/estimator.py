"""Shared channel-quality series for estimator-driven fleet kernels.

PerES and eTime consult a :class:`repro.baselines.base.BandwidthEstimator`
every decision slot: ``decide`` records a sample first, then scores the
backlog by ``quality = estimate / running_average``.  Both the sample
times (the decision-slot grid) and the estimator's inputs (the shared
channel, the lag/noise/seed knobs) are identical for every device of a
chunk — ``decide`` runs on every decision slot whether or not the queue
holds anything, and heartbeats never trigger extra ``decide`` calls —
so the whole quality series is **device-independent** and can be
computed once per chunk.

Bit-exactness with the scalar path is by *code reuse*, not re-derivation:
:func:`quality_series` drives the real ``BandwidthEstimator`` over a
:class:`_TableBandwidth` shim whose ``rate_at`` reads the flattened
channel table.  ``ChannelTable.from_model`` copies the model's per-second
samples (wrap/clamp extended) verbatim, and every query time here is an
integer-valued float, so the shim returns the very same float64 the
scalar ``TraceBandwidth.rate_at``/``ConstantBandwidth.rate_at`` would.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.baselines.base import BandwidthEstimator
from repro.sim.decision import is_decision_slot
from repro.sim.fleet.channel import ChannelTable

__all__ = ["quality_series", "decision_slot_indices"]


class _TableBandwidth:
    """Minimal BandwidthModel stand-in backed by a flattened channel table.

    Only ``rate_at`` is exercised (the estimator never integrates), and
    only at whole-second times within the table's guard-extended range.
    """

    def __init__(self, table: ChannelTable) -> None:
        self._samples = table.samples

    def rate_at(self, t: float) -> float:
        return float(self._samples[int(math.floor(t))])


def decision_slot_indices(n_slots: int, granularity: float) -> np.ndarray:
    """Slot indices of the 1 s fleet grid on which a strategy decides.

    Applies :func:`repro.sim.decision.is_decision_slot` to every slot
    start, exactly as the scalar engine loops do (slot = 1.0 s).
    """
    return np.asarray(
        [i for i in range(n_slots) if is_decision_slot(float(i), 1.0, granularity)],
        dtype=np.int64,
    )


def quality_series(
    table: ChannelTable,
    times: Sequence[float],
    *,
    lag: float = 2.0,
    noise: float = 0.3,
    seed: int = 0,
) -> np.ndarray:
    """``estimate / running_average`` at each decision time, in order.

    Replays the exact per-decide estimator protocol of the scalar
    PerES/eTime ``decide``: record a sample, re-estimate, divide by the
    running average (falling back to the estimate itself while the
    average is unavailable or zero).  The scalar strategies skip the
    division on empty-queue slots, but the estimator is pure per call,
    so evaluating it unconditionally yields the same floats wherever the
    scalar path uses them.
    """
    est = BandwidthEstimator(_TableBandwidth(table), lag=lag, noise=noise, seed=seed)
    q = np.empty(len(times), dtype=np.float64)
    for j, t in enumerate(times):
        t = float(t)
        estimate = est.record(t)
        average = est.running_average() or estimate
        q[j] = estimate / average if average > 0 else 1.0
    return q
