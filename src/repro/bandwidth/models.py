"""Bandwidth processes seen by the radio interface.

eTrain itself is deliberately channel-oblivious (Sec. IV), but the
*simulator* needs a bandwidth process to turn packet sizes into
transmission durations, and the PerES/eTime comparators actively estimate
it.  A model exposes the instantaneous uplink rate and can integrate it to
answer "how long does a burst of S bytes starting at t take?".
"""

from __future__ import annotations

import abc
import itertools
import math
import random
from array import array
from typing import Optional, Sequence

__all__ = [
    "BandwidthModel",
    "ConstantBandwidth",
    "TraceBandwidth",
    "MarkovBandwidth",
]


class BandwidthModel(abc.ABC):
    """Time-varying uplink bandwidth (bytes/second).

    Downlink rates derive from the uplink via :attr:`downlink_factor`
    (cellular downlinks run severalfold faster than uplinks); prefetch
    transfers pass ``direction="down"``.
    """

    #: Downlink rate = uplink rate × this factor.
    downlink_factor: float = 3.0

    @abc.abstractmethod
    def rate_at(self, t: float) -> float:
        """Instantaneous uplink rate at time ``t`` in bytes/second (>= 0)."""

    def directional_rate_at(self, t: float, direction: str = "up") -> float:
        """Rate for a given transfer direction at time ``t``."""
        if direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
        rate = self.rate_at(t)
        return rate * self.downlink_factor if direction == "down" else rate

    def transfer_duration(
        self,
        start: float,
        size_bytes: float,
        *,
        direction: str = "up",
        max_duration: float = 86400.0,
    ) -> float:
        """Seconds needed to move ``size_bytes`` starting at ``start``.

        Default implementation integrates :meth:`directional_rate_at` in
        1-second steps (bandwidth traces are 1 Hz), with sub-second
        resolution on the partial first/last steps.

        Raises
        ------
        RuntimeError
            If the transfer would not finish within ``max_duration``
            seconds (e.g. a pathological all-zeros trace).
        """
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        if size_bytes == 0:
            return 0.0
        remaining = float(size_bytes)
        t = float(start)
        deadline = start + max_duration
        while t < deadline:
            step_end = math.floor(t) + 1.0
            if step_end <= t:
                step_end = t + 1.0
            rate = max(0.0, self.directional_rate_at(t, direction))
            span = step_end - t
            if rate * span >= remaining:
                return (t + remaining / rate) - start if rate > 0 else (step_end - start)
            remaining -= rate * span
            t = step_end
        raise RuntimeError(
            f"transfer of {size_bytes} bytes starting at {start} did not "
            f"finish within {max_duration} s"
        )

    def mean_rate(self, start: float, end: float, step: float = 1.0) -> float:
        """Average rate over [start, end) sampled every ``step`` seconds."""
        if end <= start:
            raise ValueError("end must be after start")
        if step <= 0:
            raise ValueError(f"step must be > 0, got {step}")
        n = max(1, int(round((end - start) / step)))
        return sum(self.rate_at(start + i * step) for i in range(n)) / n


class ConstantBandwidth(BandwidthModel):
    """Fixed-rate channel, handy for unit tests and analytic checks."""

    def __init__(self, rate: float) -> None:
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self.rate = float(rate)

    def rate_at(self, t: float) -> float:
        return self.rate

    def transfer_duration(
        self,
        start: float,
        size_bytes: float,
        *,
        direction: str = "up",
        max_duration: float = 86400.0,
    ) -> float:
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        if size_bytes == 0:
            return 0.0
        rate = self.directional_rate_at(start, direction)
        if rate == 0:
            raise RuntimeError("zero-bandwidth channel never completes a transfer")
        duration = size_bytes / rate
        if duration > max_duration:
            raise RuntimeError(f"transfer takes {duration} s > max {max_duration} s")
        return duration


class TraceBandwidth(BandwidthModel):
    """Piecewise-constant rate from 1-Hz samples (the paper's trace format).

    Sample ``i`` applies to ``[start_time + i, start_time + i + 1)``.
    Outside the trace the rate clamps to the nearest endpoint sample, and
    ``wrap=True`` instead tiles the trace periodically (useful to extend
    the 2-hour trace to 4-hour experiments).
    """

    def __init__(
        self,
        samples: Sequence[float],
        start_time: float = 0.0,
        *,
        wrap: bool = False,
    ) -> None:
        if not samples:
            raise ValueError("trace must contain at least one sample")
        if any(s < 0 for s in samples):
            raise ValueError("bandwidth samples must be >= 0")
        # A tuple: models may be shared (see wuhan_bandwidth_model), so
        # the samples and the prefix sums derived from them stay fixed.
        self.samples = tuple(map(float, samples))
        self.start_time = float(start_time)
        self.wrap = wrap
        # Lazy cumulative-bytes prefix array: _prefix[k] = sum of the
        # first k samples.  Built on first integrated query; lets
        # transfer_duration and mean_rate answer in O(log n) / O(1)
        # instead of stepping second by second.
        self._prefix: Optional[array] = None

    @property
    def duration(self) -> float:
        """Trace length in seconds."""
        return float(len(self.samples))

    def rate_at(self, t: float) -> float:
        idx = int(math.floor(t - self.start_time))
        if self.wrap:
            idx %= len(self.samples)
        else:
            idx = min(max(idx, 0), len(self.samples) - 1)
        return self.samples[idx]

    def _prefix_sums(self) -> array:
        if self._prefix is None:
            # Packed doubles: a shared model keeps its prefix for the
            # life of the process.
            self._prefix = array("d", itertools.accumulate(self.samples, initial=0.0))
        return self._prefix

    def _cumulative_raw(self, steps: int) -> float:
        """Raw bytes carried by the first ``steps`` whole seconds counted
        from trace index 0, extended past the trace end by wrap or clamp
        semantics (matching :meth:`rate_at`)."""
        prefix = self._prefix_sums()
        n = len(self.samples)
        if steps <= n:
            return prefix[steps]
        if self.wrap:
            q, r = divmod(steps, n)
            return prefix[n] * q + prefix[r]
        return prefix[n] + (steps - n) * self.samples[-1]

    def _step_raw_rate(self, idx: int) -> float:
        """Raw sample applying to whole second ``idx`` past the trace
        start (wrap/clamp extended), for non-negative ``idx``."""
        n = len(self.samples)
        if idx >= n:
            idx = idx % n if self.wrap else n - 1
        return self.samples[idx]

    def transfer_duration(
        self,
        start: float,
        size_bytes: float,
        *,
        direction: str = "up",
        max_duration: float = 86400.0,
    ) -> float:
        """O(log n) prefix-sum integration over the 1 Hz sample grid.

        Requires the transfer to start on a whole second aligned with an
        integer trace ``start_time`` at or after the trace start; any
        other geometry (fractional starts, pre-trace starts) delegates to
        the generic second-stepping integrator, whose semantics this
        path reproduces to within float-summation drift (~1e-11 rel).
        """
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        if size_bytes == 0:
            return 0.0
        st = self.start_time
        if not (
            float(start).is_integer()
            and st.is_integer()
            and start >= st
            and 0.0 <= start < float(1 << 52)
        ):
            return super().transfer_duration(
                start, size_bytes, direction=direction, max_duration=max_duration
            )
        if direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
        factor = self.downlink_factor if direction == "down" else 1.0
        a = int(start) - int(st)  # first whole-second index past trace start
        size = float(size_bytes)
        cumulative = self._cumulative_raw
        base_bytes = cumulative(a)

        def carried(m: int) -> float:
            """Bytes moved by the first ``m`` seconds of the transfer."""
            return (cumulative(a + m) - base_bytes) * factor

        # The generic integrator visits whole seconds whose starts lie
        # before start + max_duration, i.e. at most ceil(max_duration).
        # Gallop out from 1 second (most bursts finish in a handful of
        # seconds, so this stays cheap), then binary-search the crossing.
        allowed = int(math.ceil(max_duration))
        lo, hi = 1, 1
        while carried(hi) < size:
            if hi >= allowed:
                raise RuntimeError(
                    f"transfer of {size_bytes} bytes starting at {start} did "
                    f"not finish within {max_duration} s"
                )
            lo = hi + 1
            hi = min(hi * 2, allowed)
        while lo < hi:  # smallest m with carried(m) >= size
            mid = (lo + hi) // 2
            if carried(mid) >= size:
                hi = mid
            else:
                lo = mid + 1
        before = carried(lo - 1)
        rate = self._step_raw_rate(a + lo - 1) * factor
        # rate > 0: the crossing second strictly increased the cumulative.
        return (lo - 1) + (size - before) / rate

    def mean_rate(self, start: float, end: float, step: float = 1.0) -> float:
        """O(1) prefix-sum average on the aligned 1 Hz grid.

        Falls back to the generic sampler for sub-second steps or
        geometries not aligned with the trace grid.
        """
        if end <= start:
            raise ValueError("end must be after start")
        if step <= 0:
            raise ValueError(f"step must be > 0, got {step}")
        st = self.start_time
        if not (
            step == 1.0
            and float(start).is_integer()
            and st.is_integer()
            and start >= st
            and 0.0 <= start < float(1 << 52)
        ):
            return super().mean_rate(start, end, step)
        k = max(1, int(round(end - start)))
        a = int(start) - int(st)
        return (self._cumulative_raw(a + k) - self._cumulative_raw(a)) / k


class MarkovBandwidth(BandwidthModel):
    """Two-state good/bad Gilbert-style channel, deterministic per seed.

    The chain switches state once per second; within a state the rate is a
    fixed level.  Used in tests and as a simple stand-in when no trace is
    loaded.  Rates are materialised lazily but deterministically from the
    seed, so ``rate_at`` is a pure function of (seed, second) regardless
    of query order.

    Memory is bounded: only a sliding window of recent states is kept
    (at most ``2 * STATE_WINDOW`` entries), with RNG checkpoints every
    ``CHECKPOINT_EVERY`` seconds so queries behind the window replay
    deterministically from the nearest checkpoint instead of requiring
    the full history.
    """

    #: Target length of the in-memory state window; the buffer is trimmed
    #: back to this size whenever it reaches twice this many entries.
    STATE_WINDOW = 8192
    #: Spacing of (state, rng-state) checkpoints enabling backward replay.
    CHECKPOINT_EVERY = 8192

    def __init__(
        self,
        good_rate: float,
        bad_rate: float,
        p_stay_good: float = 0.9,
        p_stay_bad: float = 0.7,
        seed: int = 0,
        max_seconds: int = 1 << 20,
    ) -> None:
        if good_rate < bad_rate:
            raise ValueError("good_rate must be >= bad_rate")
        if not (0 <= p_stay_good <= 1 and 0 <= p_stay_bad <= 1):
            raise ValueError("transition probabilities must be in [0, 1]")
        self.good_rate = float(good_rate)
        self.bad_rate = float(bad_rate)
        self.p_stay_good = p_stay_good
        self.p_stay_bad = p_stay_bad
        self.seed = seed
        self.max_seconds = max_seconds
        self._rng = random.Random(seed)
        self._states: list = [True]  # start in the good state
        self._window_start = 0  # second covered by _states[0]
        # Checkpoints: second -> (state at that second, RNG state *after*
        # generating it).  The entry at 0 captures the pristine seeded RNG.
        self._checkpoints = {0: (True, self._rng.getstate())}

    def _advance(self, target: int) -> None:
        """Generate states forward until second ``target`` is in the window.

        Exactly one ``random()`` draw is consumed per generated second, so
        the state sequence is identical to eager generation from second 0.
        """
        states = self._states
        rng_random = self._rng.random
        top = self._window_start + len(states) - 1
        while top < target:
            prev = states[-1]
            stay = self.p_stay_good if prev else self.p_stay_bad
            nxt = prev if rng_random() < stay else not prev
            states.append(nxt)
            top += 1
            if top % self.CHECKPOINT_EVERY == 0 and top not in self._checkpoints:
                self._checkpoints[top] = (nxt, self._rng.getstate())
            if len(states) >= 2 * self.STATE_WINDOW:
                drop = len(states) - self.STATE_WINDOW
                del states[:drop]
                self._window_start += drop

    def _state_at_second(self, sec: int) -> bool:
        sec = min(max(sec, 0), self.max_seconds)
        start = self._window_start
        if sec >= start:
            if sec - start >= len(self._states):
                self._advance(sec)
                start = self._window_start
            return self._states[sec - start]
        # Query behind the window: replay from the nearest checkpoint at
        # or before ``sec``.  Checkpoints are laid down on the way
        # forward, so the one covering any trimmed-away second exists.
        cp = (sec // self.CHECKPOINT_EVERY) * self.CHECKPOINT_EVERY
        state, rng_state = self._checkpoints[cp]
        if cp == sec:
            return state
        rng = random.Random()
        rng.setstate(rng_state)
        for _ in range(sec - cp):
            stay = self.p_stay_good if state else self.p_stay_bad
            state = state if rng.random() < stay else not state
        return state

    def rate_at(self, t: float) -> float:
        return self.good_rate if self._state_at_second(int(math.floor(t))) else self.bad_rate
