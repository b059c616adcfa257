"""Sharded execution: TCP lease coordinator and pull workers.

``repro.sim.dist`` is the placement layer of every parallel run: the
job grids :class:`~repro.sim.parallel.executor.ExperimentExecutor` fans
out with ``workers=N`` go to N forked local lease workers, and
:class:`DistExecutor` also leases them over TCP to workers on any host.
The coordinator keeps sole ownership of the
:class:`~repro.sim.parallel.journal.RunJournal` and
:class:`~repro.sim.parallel.cache.ResultCache`, so ``--resume``
semantics are unchanged.  Results are content-addressed: workers hash
what they upload, the coordinator re-hashes before journaling, and spec
content hashes keep results chunk- and placement-invariant — a
distributed run returns the exact bytes of a serial run.

See ``docs/parallelism.md`` (topology) and ``docs/robustness.md``
(lease lifecycle and failure semantics).
"""

from repro.sim.dist.coordinator import DistConfig, DistExecutor
from repro.sim.dist.protocol import (
    DIST_PROTOCOL_VERSION,
    job_from_wire,
    job_to_wire,
    result_hash,
)

__all__ = [
    "DIST_PROTOCOL_VERSION",
    "DistConfig",
    "DistExecutor",
    "job_from_wire",
    "job_to_wire",
    "result_hash",
]
