"""Declarative fleet jobs: chunked, hashable, lease-dispatchable.

A fleet run is described by a :class:`FleetSpec` — population size,
strategy, scenario knobs — and splits into :class:`FleetChunkSpec`\\ s of
``chunk_size`` devices.  Chunk specs plug into
:class:`repro.sim.parallel.ExperimentExecutor` like any
:class:`~repro.sim.parallel.specs.JobSpec`: they hash their content for
the result cache and carry their own worker entry point
(:meth:`FleetChunkSpec.run_in_worker`), which ``run_job`` dispatches to
via duck typing so the scalar job path never imports NumPy.

Chunking is free of simulation effects: per-device RNG streams are keyed
by global device index (see :mod:`repro.sim.fleet.workload`), so any
``chunk_size`` partitions the same fleet into the same devices.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["FLEET_CACHE_VERSION", "FleetSpec", "FleetChunkSpec", "fleet_supports"]

#: Bumped whenever fleet-path changes may shift summary numbers.
#: v2: peres/etime/adaptive/fixed_batch gained vectorized kernels, so
#: configurations that previously cached scalar-fallback summaries now
#: run the fleet engine (identical within tolerance, not bit-for-bit).
#: v3: channel_aware gained a vectorized kernel, moving its cached
#: summaries off the fallback path too.  (lazy_circuit, harvest_lazy,
#: common_deadline and aoi_download have no kernel and still fall back.)
FLEET_CACHE_VERSION = 3

_BANDWIDTHS = ("wuhan", "constant")


def fleet_supports(
    strategy: str,
    params: Optional[Dict[str, Any]] = None,
    *,
    power_model: str = "galaxy_s4_3g",
    bandwidth: str = "wuhan",
) -> bool:
    """Whether the vectorized engine covers this configuration.

    The registry's coverage rule (:func:`repro.sim.parallel.specs.fleet_kernel`)
    over a known bandwidth.  False means :meth:`FleetChunkSpec.run_in_worker`
    transparently falls back to the per-device scalar engine (same
    summaries, scalar speed).
    """
    from repro.sim.parallel.specs import POWER_MODELS, fleet_kernel

    pm = POWER_MODELS.get(power_model)
    return (
        bandwidth in _BANDWIDTHS
        and pm is not None
        and fleet_kernel(strategy, params, power_model=pm) is not None
    )


@dataclass(frozen=True)
class _FleetFields:
    """Scenario knobs shared by the fleet spec and its chunks."""

    strategy: str = "etrain"
    params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0
    horizon: float = 7200.0
    rate: Optional[float] = None  # total cargo packet rate; None = Sec. VI-A default
    power_model: str = "galaxy_s4_3g"
    phase_mode: str = "fixed"
    bandwidth: str = "wuhan"
    bandwidth_rate: Optional[float] = None  # bytes/s, for bandwidth="constant"

    def __post_init__(self) -> None:
        from repro.sim.parallel.specs import POWER_MODELS, bind_strategy_params

        bind_strategy_params(self.strategy, self.param_dict)
        if self.power_model not in POWER_MODELS:
            raise KeyError(f"unknown power model {self.power_model!r}")
        if self.bandwidth not in _BANDWIDTHS:
            raise ValueError(f"bandwidth must be one of {_BANDWIDTHS}")
        if self.bandwidth == "constant" and not self.bandwidth_rate:
            raise ValueError("bandwidth='constant' needs bandwidth_rate > 0")
        if self.phase_mode not in ("fixed", "random"):
            raise ValueError(f"phase_mode must be 'fixed' or 'random'")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def vectorized(self) -> bool:
        return fleet_supports(
            self.strategy,
            self.param_dict,
            power_model=self.power_model,
            bandwidth=self.bandwidth,
        )

    def bandwidth_model(self):
        """Materialize the (deterministic) bandwidth model."""
        if self.bandwidth == "constant":
            from repro.bandwidth.models import ConstantBandwidth

            return ConstantBandwidth(rate=float(self.bandwidth_rate))
        from repro.bandwidth.synth import wuhan_bandwidth_model

        return wuhan_bandwidth_model()

    def profiles(self):
        """Cargo profiles (rate-scaled when ``rate`` is set)."""
        from repro.core.profiles import DEFAULT_CARGO_PROFILES
        from repro.workload.cargo import profiles_for_total_rate

        if self.rate is not None:
            return profiles_for_total_rate(self.rate)
        return DEFAULT_CARGO_PROFILES()


@dataclass(frozen=True)
class FleetChunkSpec(_FleetFields):
    """One contiguous device range of a fleet, as an executor job.

    ``channel`` optionally names a published shared-memory channel table
    (see :class:`repro.sim.fleet.channel.SharedChannel`); without it the
    worker flattens the bandwidth model itself.  The handle is runtime
    plumbing, not simulation input, so it is excluded from the content
    hash and the cached spec dict.
    """

    n_devices: int = 0
    device_offset: int = 0
    channel: Optional[Any] = None  # SharedChannelHandle; hash-exempt
    tag: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_devices < 1:
            raise ValueError(f"chunk needs n_devices >= 1, got {self.n_devices}")
        if self.device_offset < 0:
            raise ValueError(f"device_offset must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form for hashing and cache metadata (no handle)."""
        return {
            "version": FLEET_CACHE_VERSION,
            "kind": "fleet_chunk",
            "strategy": self.strategy,
            "params": {k: v for k, v in self.params},
            "seed": self.seed,
            "horizon": self.horizon,
            "rate": self.rate,
            "power_model": self.power_model,
            "phase_mode": self.phase_mode,
            "bandwidth": self.bandwidth,
            "bandwidth_rate": self.bandwidth_rate,
            "n_devices": self.n_devices,
            "device_offset": self.device_offset,
        }

    def content_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        if self.tag:
            return self.tag
        lo = self.device_offset
        return f"{self.strategy} fleet devices [{lo}, {lo + self.n_devices})"

    def run_in_worker(self) -> Dict[str, Any]:
        """Synthesize, simulate and reduce this chunk; the worker entry point.

        Pure function of the spec's hashed fields: the shared-channel
        handle only short-circuits rebuilding the same prefix table.
        Returns ``FleetChunkSummary.to_dict()`` (JSON-serializable).
        """
        from repro.sim.fleet.workload import synthesize_fleet

        workload = synthesize_fleet(
            self.n_devices,
            self.horizon,
            self.seed,
            device_offset=self.device_offset,
            profiles=self.profiles(),
            phase_mode=self.phase_mode,
        )
        if self.vectorized:
            summary = self._run_vectorized(workload)
        else:
            summary = self._run_reference(workload)
        return summary.to_dict()

    def _run_vectorized(self, workload):
        from repro.sim.fleet.accounting import summarize_chunk
        from repro.sim.fleet.channel import ChannelTable, SharedChannel
        from repro.sim.fleet.engine import simulate_fleet_chunk
        from repro.sim.parallel.specs import POWER_MODELS

        pm = POWER_MODELS[self.power_model]
        shared = None
        if self.channel is not None:
            shared = SharedChannel.attach(self.channel)
            table = shared.table
        else:
            table = ChannelTable.from_model(self.bandwidth_model(), self.horizon)
        try:
            raw = simulate_fleet_chunk(
                workload,
                table,
                strategy=self.strategy,
                params=self.param_dict,
                power_model=pm,
            )
            return summarize_chunk(raw, pm)
        finally:
            if shared is not None:
                shared.close()

    def _run_reference(self, workload):
        from repro.sim.fleet.reference import simulate_reference_chunk
        from repro.sim.parallel.specs import POWER_MODELS

        return simulate_reference_chunk(
            workload,
            self.bandwidth_model(),
            strategy=self.strategy,
            params=self.param_dict,
            power_model=POWER_MODELS[self.power_model],
            profiles=self.profiles(),
        )


@dataclass(frozen=True)
class FleetSpec(_FleetFields):
    """A whole fleet run: population size plus chunking policy."""

    devices: int = 8192
    chunk_size: int = 8192

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")

    @classmethod
    def make(cls, devices: int, strategy: str = "etrain", **kw: Any) -> "FleetSpec":
        params = kw.pop("params", None)
        if isinstance(params, dict):
            params = tuple(sorted(params.items()))
        return cls(
            devices=devices, strategy=strategy, params=params or (), **kw
        )

    @property
    def n_chunks(self) -> int:
        return (self.devices + self.chunk_size - 1) // self.chunk_size

    def chunk_specs(self, channel=None) -> List[FleetChunkSpec]:
        """Split into executor jobs (optionally wired to a shared channel)."""
        fields = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(_FleetFields)
        }
        chunks = []
        n = self.n_chunks
        for k in range(n):
            lo = k * self.chunk_size
            hi = min(lo + self.chunk_size, self.devices)
            chunks.append(
                FleetChunkSpec(
                    n_devices=hi - lo,
                    device_offset=lo,
                    channel=channel,
                    tag=f"{self.strategy} fleet chunk {k + 1}/{n}",
                    **fields,
                )
            )
        return chunks

    def content_hash(self) -> str:
        payload = {
            "version": FLEET_CACHE_VERSION,
            "kind": "fleet",
            "devices": self.devices,
            "chunk_size": self.chunk_size,
            "strategy": self.strategy,
            "params": {k: v for k, v in self.params},
            "seed": self.seed,
            "horizon": self.horizon,
            "rate": self.rate,
            "power_model": self.power_model,
            "phase_mode": self.phase_mode,
            "bandwidth": self.bandwidth,
            "bandwidth_rate": self.bandwidth_rate,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
