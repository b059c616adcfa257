"""Batched fleet engine: tens of thousands of devices per process.

The scalar engine (:mod:`repro.sim.engine`) simulates one device at a
time with Python objects per packet and per burst.  Population-scale
questions (Fig. 7-style energy-saving-vs-population curves, percentile
distributions across a city of handsets) need orders of magnitude more
devices than that representation can sustain, so this package restates
the same slotted model over NumPy *device columns*:

* :mod:`repro.sim.fleet.workload` — vectorized workload synthesis with
  one ``numpy.random.Generator`` per device, seeded from a
  ``SeedSequence`` spawn key so any chunking of the fleet reproduces the
  same per-device streams;
* :mod:`repro.sim.fleet.channel` — the bandwidth trace flattened into a
  prefix-sum table usable with ``searchsorted`` across thousands of
  concurrent bursts, publishable once per machine over
  ``multiprocessing.shared_memory``;
* :mod:`repro.sim.fleet.engine` — the vectorized slot dynamics for the
  strategies that admit column form (immediate, periodic, TailEnder and
  eTrain's Lyapunov greedy), with a transparent scalar-engine-per-device
  fallback for the ones that do not (PerES et al.);
* :mod:`repro.sim.fleet.aggregate` — fixed-size, associatively mergeable
  per-chunk summaries so a million-device run needs O(chunk) memory;
* :mod:`repro.sim.fleet.runner` — chunk orchestration through
  :class:`repro.sim.parallel.ExperimentExecutor`.

Semantics match the scalar engine's: small fleets reproduce a per-device
loop of :class:`repro.sim.engine.Simulation` on aggregate metrics to
float-summation rounding (see ``tests/test_fleet_equivalence.py``).
"""

from repro.sim.fleet.aggregate import FleetChunkSummary
from repro.sim.fleet.channel import ChannelTable, SharedChannel
from repro.sim.fleet.engine import simulate_fleet_chunk
from repro.sim.fleet.reference import simulate_reference_chunk
from repro.sim.fleet.runner import FleetRunResult, run_fleet
from repro.sim.fleet.spec import FleetChunkSpec, FleetSpec, fleet_supports
from repro.sim.fleet.workload import FleetWorkload, synthesize_fleet
from repro.sim.parallel.specs import vector_strategies

__all__ = [
    "ChannelTable",
    "FleetChunkSpec",
    "FleetChunkSummary",
    "FleetRunResult",
    "FleetSpec",
    "FleetWorkload",
    "SharedChannel",
    "fleet_supports",
    "run_fleet",
    "simulate_fleet_chunk",
    "simulate_reference_chunk",
    "synthesize_fleet",
    "vector_strategies",
]
