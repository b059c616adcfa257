"""Synthetic replacement for the paper's real-world 3G bandwidth trace.

The authors collected a 2-hour (7200 s), 1-Hz uplink bandwidth trace on
2014-12-08, 8:00–10:00 AM: the first part riding a bus through downtown
Wuhan (handoffs, congestion, deep fades), the second walking around a
university campus (steadier, higher mean).  We cannot obtain that trace,
so :func:`wuhan_trace` synthesises one with the same macro-structure:

* **Bus regime** (first ~55 min): lognormal rate around ~90 KB/s with
  heavy variance, frequent multi-second fades toward ~5 KB/s (handoffs /
  urban canyons), occasional near-zero outages.
* **Campus regime** (remaining time): lognormal around ~170 KB/s with
  mild variance and rare shallow dips.

Rates are bytes/second.  The generator is fully deterministic per seed.
"""

from __future__ import annotations

import functools
import math
import random
from typing import List

from repro.bandwidth.models import TraceBandwidth
from repro.bandwidth.trace import BandwidthTrace

__all__ = ["wuhan_trace", "wuhan_bandwidth_model", "synthesize_regime"]


def synthesize_regime(
    rng: random.Random,
    seconds: int,
    *,
    median_rate: float,
    sigma: float,
    fade_prob: float,
    fade_depth: float,
    fade_duration_mean: float,
    smoothing: float = 0.6,
) -> List[float]:
    """One regime of a synthetic 1-Hz bandwidth trace.

    The per-second rate follows a smoothed (AR(1)) lognormal process; with
    probability ``fade_prob`` per second a fade begins, multiplying the
    rate by ``fade_depth`` for a geometrically-distributed number of
    seconds with mean ``fade_duration_mean``.

    Parameters
    ----------
    rng:
        Source of randomness (caller controls the seed).
    seconds:
        Number of 1-second samples to produce.
    median_rate:
        Median of the underlying lognormal, bytes/second.
    sigma:
        Log-domain standard deviation.
    fade_prob:
        Per-second probability a fade starts.
    fade_depth:
        Multiplicative rate factor during a fade (0 < depth <= 1).
    fade_duration_mean:
        Mean fade length in seconds (geometric).
    smoothing:
        AR(1) coefficient in log-domain; higher = smoother trace.
    """
    if seconds < 0:
        raise ValueError("seconds must be >= 0")
    if not (0.0 < fade_depth <= 1.0):
        raise ValueError("fade_depth must be in (0, 1]")
    if not (0.0 <= fade_prob <= 1.0):
        raise ValueError("fade_prob must be in [0, 1]")
    mu = math.log(median_rate)
    log_rate = mu
    fade_left = 0
    samples: List[float] = []
    for _ in range(seconds):
        innovation = rng.gauss(0.0, sigma * math.sqrt(1 - smoothing**2))
        log_rate = mu + smoothing * (log_rate - mu) + innovation
        rate = math.exp(log_rate)
        if fade_left > 0:
            fade_left -= 1
            rate *= fade_depth
        elif rng.random() < fade_prob:
            # Geometric duration with the requested mean (>= 1 s).
            p = 1.0 / max(1.0, fade_duration_mean)
            fade_left = 1
            while rng.random() > p:
                fade_left += 1
            rate *= fade_depth
        samples.append(max(0.0, rate))
    return samples


def wuhan_trace(
    seed: int = 20141208,
    *,
    duration: int = 7200,
    bus_fraction: float = 0.46,
) -> BandwidthTrace:
    """Synthesise the 2-hour "Wuhan bus + campus" uplink trace.

    Parameters
    ----------
    seed:
        RNG seed; the default commemorates the collection date.
    duration:
        Total samples (seconds).  The paper's trace is 7200 s.
    bus_fraction:
        Fraction of the trace spent on the bus (noisier regime).
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    if not (0.0 <= bus_fraction <= 1.0):
        raise ValueError("bus_fraction must be in [0, 1]")
    rng = random.Random(seed)
    bus_seconds = int(duration * bus_fraction)
    campus_seconds = duration - bus_seconds
    bus = synthesize_regime(
        rng,
        bus_seconds,
        median_rate=90_000.0,
        sigma=0.9,
        fade_prob=0.02,
        fade_depth=0.06,
        fade_duration_mean=6.0,
        smoothing=0.7,
    )
    campus = synthesize_regime(
        rng,
        campus_seconds,
        median_rate=170_000.0,
        sigma=0.45,
        fade_prob=0.004,
        fade_depth=0.3,
        fade_duration_mean=3.0,
        smoothing=0.6,
    )
    return BandwidthTrace(
        samples=bus + campus,
        description=(
            "synthetic 3G uplink trace: downtown-bus regime then campus-walk "
            f"regime (seed={seed})"
        ),
    )


def wuhan_bandwidth_model(
    seed: int = 20141208, *, duration: int = 7200, wrap: bool = True
) -> TraceBandwidth:
    """The synthetic Wuhan trace wrapped as a bandwidth model.

    The trace is a pure function of the arguments, so each process
    builds it once per argument tuple and every caller shares that one
    read-only model (and its lazily built prefix sums).
    """
    return _shared_wuhan_model(seed, duration, wrap)


@functools.lru_cache(maxsize=8, typed=True)
def _shared_wuhan_model(seed: int, duration: int, wrap: bool) -> TraceBandwidth:
    return wuhan_trace(seed, duration=duration).to_model(wrap=wrap)
