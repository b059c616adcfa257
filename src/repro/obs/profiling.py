"""Per-phase wall/CPU timers for pipeline runs.

:class:`PhaseProfiler` wraps named phases of a pipeline run (channel
publish, simulation, aggregation, and the fleet kernels' own sub-phases)
and accumulates wall-clock and process-CPU time per phase.  The result
is a plain dict: ``etrain fleet`` prints it and writes it into its
``--out`` document.

Re-entering a phase name accumulates (useful when a phase runs once per
repeat); ``calls`` counts the entries so a mean can be derived.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator

__all__ = ["PhaseProfiler"]


class PhaseProfiler:
    """Accumulating wall/CPU timers keyed by phase name."""

    def __init__(self) -> None:
        self._phases: Dict[str, Dict[str, float]] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the enclosed block under ``name`` (accumulating)."""
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            yield
        finally:
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
            slot = self._phases.setdefault(
                name, {"wall_s": 0.0, "cpu_s": 0.0, "calls": 0}
            )
            slot["wall_s"] += wall
            slot["cpu_s"] += cpu
            slot["calls"] += 1

    def add(
        self, name: str, wall_s: float, cpu_s: float = 0.0, calls: int = 1
    ) -> None:
        """Accumulate an externally measured duration under ``name``.

        For hot loops that cannot afford a context manager per pass: the
        caller times with ``perf_counter`` itself and reports the total.
        """
        slot = self._phases.setdefault(
            name, {"wall_s": 0.0, "cpu_s": 0.0, "calls": 0}
        )
        slot["wall_s"] += wall_s
        slot["cpu_s"] += cpu_s
        slot["calls"] += calls

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Phase table ordered by insertion (pipeline order)."""
        return {name: dict(v) for name, v in self._phases.items()}
