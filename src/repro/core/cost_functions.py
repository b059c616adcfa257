"""Delay-cost profile functions (Sec. VI-A, Fig. 6).

Each cargo app registers a non-decreasing cost function φ_u(d) mapping a
packet's queueing delay ``d`` (seconds) to a unitless user-experience
cost.  The paper uses three representative shapes, all parameterised by a
``deadline`` D:

* **Mail** (f1): free until the deadline, then linear —
  ``f1(d) = 0`` for ``d < D``, ``d/D − 1`` after.
* **Weibo** (f2): linear up to the deadline, then a plateau —
  ``f2(d) = d/D`` for ``d ≤ D``, ``2`` after.
* **Cloud** (f3): linear up to the deadline, then 3× steeper —
  ``f3(d) = d/D`` for ``d ≤ D``, ``3·d/D − 2`` after.

The module also provides generic building blocks so downstream users can
express their own profiles.
"""

from __future__ import annotations

import abc
import math
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "DelayCostFunction",
    "MailCost",
    "WeiboCost",
    "CloudCost",
    "LinearCost",
    "StepCost",
    "PiecewiseLinearCost",
    "ZeroCost",
]


class DelayCostFunction(abc.ABC):
    """Non-decreasing map from queueing delay (s) to delay cost.

    Implementations must satisfy ``cost(0) >= 0`` and monotonicity; the
    test suite property-checks both for every shipped function.
    """

    #: Relative deadline this profile is parameterised by (seconds).
    deadline: float

    @property
    def pieces(self) -> Optional[Tuple[float, float, float]]:
        """``(kink, slope_before, slope_after)``, or None to declare nothing.

        A declaring class is linear in the delay on ``[0, kink]`` and on
        ``(kink, inf)`` with these slopes (a jump at the kink is allowed),
        and its float ``__call__`` is non-decreasing across the kink.
        eTrain's decision horizon guesses its Θ crossing from the pieces;
        for a class that declares none it promises no quiet stretch.
        """
        return None

    @abc.abstractmethod
    def __call__(self, delay: float) -> float:
        """Cost of a packet that has waited ``delay`` seconds."""

    def violates(self, delay: float) -> bool:
        """Whether ``delay`` exceeds the profile's deadline."""
        return delay > self.deadline


class _DeadlineCost(DelayCostFunction):
    """Shared validation for deadline-parameterised profiles."""

    def __init__(self, deadline: float) -> None:
        if deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {deadline}")
        self.deadline = float(deadline)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(deadline={self.deadline})"


class MailCost(_DeadlineCost):
    """f1 — email: no cost before the deadline, linear afterwards."""

    @property
    def pieces(self) -> Tuple[float, float, float]:
        return (self.deadline, 0.0, 1.0 / self.deadline)

    def __call__(self, delay: float) -> float:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        if delay <= self.deadline:
            return 0.0
        return delay / self.deadline - 1.0


class WeiboCost(_DeadlineCost):
    """f2 — SNS: cost proportional to delay, plateauing at 2 past deadline."""

    #: Cost plateau once the deadline is violated.
    PLATEAU = 2.0

    @property
    def pieces(self) -> Tuple[float, float, float]:
        return (self.deadline, 1.0 / self.deadline, 0.0)

    def __call__(self, delay: float) -> float:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        if delay <= self.deadline:
            return delay / self.deadline
        return self.PLATEAU


class CloudCost(_DeadlineCost):
    """f3 — cloud sync: linear before deadline, 3× slope afterwards."""

    @property
    def pieces(self) -> Tuple[float, float, float]:
        # Monotone at the kink: for d > D, fl(3d) > 3D (its rounding error
        # is under the 3 ulp(D) gap), so fl(fl(3d)/D) >= 3 and the cost
        # is >= 1 = fl(D/D).
        return (self.deadline, 1.0 / self.deadline, 3.0 / self.deadline)

    def __call__(self, delay: float) -> float:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        if delay <= self.deadline:
            return delay / self.deadline
        return 3.0 * delay / self.deadline - 2.0


class LinearCost(DelayCostFunction):
    """Pure linear cost ``slope · d`` with a nominal deadline for reporting."""

    def __init__(self, slope: float, deadline: float = float("inf")) -> None:
        if slope < 0:
            raise ValueError(f"slope must be >= 0, got {slope}")
        self.slope = float(slope)
        self.deadline = float(deadline)

    @property
    def pieces(self) -> Tuple[float, float, float]:
        return (math.inf, self.slope, self.slope)

    def __call__(self, delay: float) -> float:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.slope * delay


class StepCost(_DeadlineCost):
    """Zero before the deadline, a fixed penalty after (hard deadline)."""

    def __init__(self, deadline: float, penalty: float = 1.0) -> None:
        super().__init__(deadline)
        if penalty < 0:
            raise ValueError(f"penalty must be >= 0, got {penalty}")
        self.penalty = float(penalty)

    @property
    def pieces(self) -> Tuple[float, float, float]:
        return (self.deadline, 0.0, 0.0)

    def __call__(self, delay: float) -> float:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return 0.0 if delay <= self.deadline else self.penalty


class PiecewiseLinearCost(DelayCostFunction):
    """General non-decreasing piecewise-linear profile.

    Defined by breakpoints ``[(d_0, c_0), (d_1, c_1), ...]`` with
    ``d_0 = 0``; between breakpoints the cost interpolates linearly, and
    beyond the last breakpoint it extends with the final segment's slope.
    """

    def __init__(
        self,
        breakpoints: Sequence[Tuple[float, float]],
        deadline: float = float("inf"),
    ) -> None:
        pts: List[Tuple[float, float]] = [(float(d), float(c)) for d, c in breakpoints]
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        if pts[0][0] != 0.0:
            raise ValueError("first breakpoint must be at delay 0")
        for (d0, c0), (d1, c1) in zip(pts, pts[1:]):
            if d1 <= d0:
                raise ValueError("breakpoint delays must strictly increase")
            if c1 < c0:
                raise ValueError("cost must be non-decreasing")
        if pts[0][1] < 0:
            raise ValueError("cost must be >= 0")
        self.breakpoints = pts
        self.deadline = float(deadline)

    def __call__(self, delay: float) -> float:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        pts = self.breakpoints
        if delay >= pts[-1][0]:
            (d0, c0), (d1, c1) = pts[-2], pts[-1]
            slope = (c1 - c0) / (d1 - d0)
            return c1 + slope * (delay - d1)
        for (d0, c0), (d1, c1) in zip(pts, pts[1:]):
            if d0 <= delay <= d1:
                frac = (delay - d0) / (d1 - d0)
                return c0 + frac * (c1 - c0)
        raise AssertionError("unreachable: delay not bracketed")


class ZeroCost(DelayCostFunction):
    """Cost-free profile (packets may wait forever) — useful baseline."""

    def __init__(self) -> None:
        self.deadline = float("inf")

    @property
    def pieces(self) -> Tuple[float, float, float]:
        return (math.inf, 0.0, 0.0)

    def __call__(self, delay: float) -> float:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return 0.0
