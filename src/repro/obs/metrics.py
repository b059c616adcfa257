"""Process-local metrics registry with associative, commutative merge.

The registry mirrors the algebra of :class:`repro.sim.fleet.aggregate.
FleetChunkSummary`: every metric type defines a ``merge`` that is
associative and commutative, so per-worker registries collected by the
parallel executor can be folded in any order (or any grouping) and give
the same totals — the same property that lets fleet chunk summaries
stream-aggregate.

Metric types
------------
* ``Counter`` — monotonically increasing float/int; merge = sum.
* ``Gauge`` — last-set value locally; merge = max (the only order-free
  choice for a point-in-time sample, and the right one for peaks such
  as peak RSS or max queue depth).
* ``Histogram`` — fixed log2 bucket counts plus (count, sum, min, max);
  merge = element-wise sum with min/max folds.  Fixed bucket edges are
  what keep the merge exact regardless of which worker saw which
  observation.  The edges start at 1, so a histogram of seconds
  (``*_s``) carries its information in count, sum, min and max only.

Scoping
-------
Engines report through :func:`current_registry`, which returns the
innermost active :func:`metrics_scope` registry or ``None``.  When no
scope is active, instrumented call sites skip their recording, so they
pay a single dict-free function call.  The scope stack is a
plain module-level list: the simulators are single-threaded per process
(parallelism is process-based), so no thread-local is needed — and a
plain list keeps ``current_registry()`` cheap.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_scope",
    "current_registry",
]

#: Innermost-last stack of active registries (process-local).
_SCOPES: List["MetricsRegistry"] = []


def current_registry() -> Optional["MetricsRegistry"]:
    """The innermost active registry, or ``None`` outside any scope."""
    return _SCOPES[-1] if _SCOPES else None


@contextmanager
def metrics_scope(
    registry: Optional["MetricsRegistry"] = None,
) -> Iterator["MetricsRegistry"]:
    """Activate ``registry`` (or a fresh one) for the enclosed block."""
    reg = registry if registry is not None else MetricsRegistry()
    _SCOPES.append(reg)
    try:
        yield reg
    finally:
        _SCOPES.pop()


class Counter:
    """Monotonic counter; merge = sum."""

    kind = "counter"

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "value": self.value}

    @classmethod
    def from_dict(cls, d: Dict) -> "Counter":
        return cls(d["value"])


class Gauge:
    """Point-in-time sample; merge keeps the maximum across processes."""

    kind = "gauge"

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "value": self.value}

    @classmethod
    def from_dict(cls, d: Dict) -> "Gauge":
        return cls(d["value"])


class Histogram:
    """Log2-bucketed histogram with exact associative merge.

    Bucket ``i`` counts observations in ``[2**(i-1), 2**i)`` (bucket 0
    holds everything below 1, including zero and negatives).  The edges
    are a property of the type, not the instance, so two histograms of
    the same metric always merge bucket-for-bucket.

    The buckets resolve only values >= 1.  Durations in seconds (every
    ``*_s`` histogram: ``engine.run_wall_s``, ``executor.job_wall_s``,
    ``fleet.phase.*``) almost all land in bucket 0, so for them only
    ``count``, ``sum``, ``min`` and ``max`` carry information.  The
    edges stay as they are: per-job metrics held in result caches merge
    bucket-for-bucket with fresh ones.
    """

    kind = "histogram"
    BUCKETS = 64

    def __init__(self) -> None:
        self.counts = [0] * self.BUCKETS
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    @classmethod
    def _bucket(cls, value: float) -> int:
        if value < 1.0:
            return 0
        return min(int(math.log2(value)) + 1, cls.BUCKETS - 1)

    def observe(self, value: float) -> None:
        self.counts[self._bucket(value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": None if math.isinf(self.min) else self.min,
            "max": None if math.isinf(self.max) else self.max,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "Histogram":
        h = cls()
        h.counts = list(d["counts"])
        h.count = d["count"]
        h.sum = d["sum"]
        h.min = math.inf if d["min"] is None else d["min"]
        h.max = -math.inf if d["max"] is None else d["max"]
        return h


_KINDS = {c.kind: c for c in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """Named metrics with get-or-create access and whole-registry merge.

    A name is bound to one metric type for the registry's lifetime;
    asking for the same name with a different type raises, which catches
    instrumentation typos early instead of silently forking series.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls()
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into ``self`` (in place); returns ``self``."""
        for name, metric in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                # Deep-copy via the dict round-trip so later merges into
                # self never mutate other's metric objects.
                self._metrics[name] = type(metric).from_dict(metric.to_dict())
            else:
                if type(mine) is not type(metric):
                    raise TypeError(
                        f"cannot merge metric {name!r}: "
                        f"{type(mine).__name__} vs {type(metric).__name__}"
                    )
                mine.merge(metric)
        return self

    def to_dict(self) -> Dict[str, Dict]:
        return {name: m.to_dict() for name, m in sorted(self._metrics.items())}

    @classmethod
    def from_dict(cls, d: Dict[str, Dict]) -> "MetricsRegistry":
        reg = cls()
        for name, md in d.items():
            reg._metrics[name] = _KINDS[md["kind"]].from_dict(md)
        return reg

    def dump_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
