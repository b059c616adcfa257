"""Declarative job specifications for the parallel experiment executor.

A job is ``(strategy, scenario, parameter overrides)`` expressed as plain
data — names and numbers, no live objects — so it can cross a process
boundary, be hashed into a stable cache key, and be rebuilt bit-identically
in any worker.  Determinism rests on two properties:

1. every source of randomness (packet trace, bandwidth trace, estimator
   noise, heartbeat jitter) is seeded from fields of the spec, and
2. :func:`repro.core.packet.reset_packet_ids` runs before each scenario
   build, so packet ids depend only on the spec, never on process history.

Rebuilding the same spec therefore yields the same
``SimulationResult.summary()`` dict whether it runs serially in the parent
process or in a lease worker.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.radio.lte import LTE_CAT4
from repro.radio.power_model import (
    GALAXY_S4_3G,
    GALAXY_S4_FAST_DORMANCY,
    NEXUS4_3G,
    PowerModel,
)
from repro.radio.wifi import WIFI_PSM

__all__ = [
    "CACHE_VERSION",
    "POWER_MODELS",
    "STRATEGY_BUILDERS",
    "ScenarioSpec",
    "StrategySpec",
    "JobSpec",
    "power_model_name",
    "strategy_param_names",
    "run_job",
    "seed_grid",
]

#: Bumped whenever a change anywhere in the simulator may shift summary
#: numbers; stale cache entries then miss instead of lying.
#: v2: summary() gained the ``aoi_s`` freshness column.
CACHE_VERSION = 2

#: Named power models a :class:`ScenarioSpec` can reference.
POWER_MODELS: Dict[str, PowerModel] = {
    "galaxy_s4_3g": GALAXY_S4_3G,
    "galaxy_s4_fast_dormancy": GALAXY_S4_FAST_DORMANCY,
    "nexus4_3g": NEXUS4_3G,
    "lte_cat4": LTE_CAT4,
    "wifi_psm": WIFI_PSM,
}

_POWER_MODEL_NAMES: Dict[PowerModel, str] = {pm: name for name, pm in POWER_MODELS.items()}


def power_model_name(power_model: PowerModel) -> Optional[str]:
    """Registry name of a power model, or None if it is not registered."""
    return _POWER_MODEL_NAMES.get(power_model)


@dataclass(frozen=True)
class ScenarioSpec:
    """A :class:`~repro.sim.runner.Scenario` as plain, hashable data.

    Covers every scenario the stock experiments sweep: the Sec. VI-A
    default plus the knobs the sensitivity/ablation studies turn
    (arrival rate, power model, tail-timer scale, shared train cycle,
    heartbeat jitter).  Scenarios outside this space (custom generator
    objects, external traces) stay on the serial code paths.
    """

    seed: int = 0
    horizon: float = 7200.0
    train_count: int = 3
    rate: Optional[float] = None
    power_model: str = "galaxy_s4_3g"
    tail_scale: float = 1.0
    train_cycle: Optional[float] = None
    train_jitter: float = 0.0
    slot: float = 1.0

    def __post_init__(self) -> None:
        if self.power_model not in POWER_MODELS:
            raise KeyError(
                f"unknown power model {self.power_model!r}; "
                f"known: {sorted(POWER_MODELS)}"
            )
        if self.tail_scale <= 0:
            raise ValueError(f"tail_scale must be > 0, got {self.tail_scale}")
        if self.train_jitter < 0:
            raise ValueError(f"train_jitter must be >= 0, got {self.train_jitter}")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form used for hashing and cache metadata."""
        return dataclasses.asdict(self)

    def build(self):
        """Materialise the scenario (fresh packet trace, generators, channel)."""
        from repro.core.profiles import TrainAppProfile
        from repro.heartbeat.generators import (
            FixedCycleGenerator,
            JitteredCycleGenerator,
        )
        from repro.sim.runner import default_scenario
        from repro.workload.cargo import profiles_for_total_rate

        profiles = (
            profiles_for_total_rate(self.rate) if self.rate is not None else None
        )
        pm = POWER_MODELS[self.power_model]
        if self.tail_scale != 1.0:
            pm = dataclasses.replace(
                pm,
                delta_dch=pm.delta_dch * self.tail_scale,
                delta_fach=pm.delta_fach * self.tail_scale,
            )
        scenario = default_scenario(
            seed=self.seed,
            horizon=self.horizon,
            train_count=self.train_count,
            profiles=profiles,
            power_model=pm,
        )
        if self.train_cycle is not None:
            scenario.train_generators = [
                FixedCycleGenerator(
                    TrainAppProfile(
                        app_id=f"train{i}",
                        cycle=self.train_cycle,
                        heartbeat_size_bytes=120,
                        first_heartbeat=i * self.train_cycle / 3.0,
                    )
                )
                for i in range(3)
            ]
        if self.train_jitter > 0:
            scenario.train_generators = [
                JitteredCycleGenerator(g, max_jitter=self.train_jitter, seed=self.seed + i)
                for i, g in enumerate(scenario.train_generators)
            ]
        scenario.slot = self.slot
        scenario.spec = self
        return scenario


# ---------------------------------------------------------------------------
# Strategy registry
# ---------------------------------------------------------------------------


def _build_immediate(scenario):
    from repro.baselines.immediate import ImmediateStrategy

    return ImmediateStrategy()


def _build_etrain(
    scenario,
    theta: float = 0.2,
    k: Optional[int] = None,
    slot: float = 1.0,
    warm_gate: bool = True,
):
    from repro.baselines.etrain import ETrainStrategy
    from repro.core.scheduler import SchedulerConfig

    return ETrainStrategy(
        scenario.profiles,
        SchedulerConfig(theta=theta, k=k, slot=slot),
        warm_gate=warm_gate,
    )


def _build_peres(
    scenario,
    omega: float = 0.5,
    v_init: float = 1.0,
    lag: float = 2.0,
    noise: float = 0.3,
    est_seed: int = 0,
):
    from repro.baselines.peres import PerESStrategy

    estimator = scenario.estimator(lag=lag, noise=noise, seed=est_seed)
    return PerESStrategy(scenario.profiles, estimator, omega=omega, v_init=v_init)


def _build_etime(
    scenario,
    v: float = 200_000.0,
    lag: float = 2.0,
    noise: float = 0.3,
    est_seed: int = 0,
):
    from repro.baselines.etime import ETimeStrategy

    estimator = scenario.estimator(lag=lag, noise=noise, seed=est_seed)
    return ETimeStrategy(estimator, v=v)


def _build_channel_aware(
    scenario,
    theta: float = 0.2,
    quality_threshold: float = 1.0,
    max_defer: float = 20.0,
    lag: float = 2.0,
    noise: float = 0.3,
    est_seed: int = 0,
):
    from repro.baselines.channel_aware import ChannelAwareETrainStrategy
    from repro.core.scheduler import SchedulerConfig

    estimator = scenario.estimator(lag=lag, noise=noise, seed=est_seed)
    return ChannelAwareETrainStrategy(
        scenario.profiles,
        estimator,
        SchedulerConfig(theta=theta),
        quality_threshold=quality_threshold,
        max_defer=max_defer,
    )


def _build_periodic(scenario, period: float = 60.0):
    from repro.baselines.fixed_batch import PeriodicBatchStrategy

    return PeriodicBatchStrategy(period=period)


#: ``fixed_batch`` is the fleet-facing alias of ``periodic``: same
#: strategy object, registered under the name the fleet kernel registry
#: (and the ROADMAP perf item) uses for the naive-aggregation ablation.
_build_fixed_batch = _build_periodic


def _build_adaptive(
    scenario,
    target_delay: float = 30.0,
    theta_init: float = 0.5,
    window: int = 40,
    warm_gate: bool = True,
):
    from repro.baselines.adaptive import AdaptiveThetaETrainStrategy

    return AdaptiveThetaETrainStrategy(
        scenario.profiles,
        target_delay,
        theta_init=theta_init,
        window=window,
        warm_gate=warm_gate,
    )


def _build_tailender(scenario, default_deadline: float = 60.0, slack: float = 0.0):
    from repro.baselines.tailender import TailEnderStrategy

    return TailEnderStrategy(
        scenario.profiles, default_deadline=default_deadline, slack=slack
    )


def _build_lazy_circuit(
    scenario,
    target_batch_bytes: int = 60_000,
    default_deadline: float = 60.0,
):
    from repro.baselines.lazy_circuit import LazyCircuitStrategy

    return LazyCircuitStrategy(
        scenario.profiles,
        target_batch_bytes=target_batch_bytes,
        default_deadline=default_deadline,
    )


def _build_harvest_lazy(
    scenario,
    default_deadline: float = 60.0,
    watermark: float = 0.85,
    capacity_j: float = 40.0,
    initial_j: float = 20.0,
    harvest_window_s: float = 60.0,
    harvest_rate_max: float = 0.05,
    burst_cost_j: float = 1.0,
    per_byte_j: float = 2e-6,
    battery_seed: int = 0,
):
    from repro.baselines.harvest_lazy import HarvestLazyStrategy
    from repro.sim.battery import HarvestingBattery

    battery = HarvestingBattery(
        capacity_j=capacity_j,
        initial_j=initial_j,
        harvest_window_s=harvest_window_s,
        harvest_rate_max=harvest_rate_max,
        burst_cost_j=burst_cost_j,
        per_byte_j=per_byte_j,
        seed=battery_seed,
    )
    return HarvestLazyStrategy(
        scenario.profiles,
        default_deadline=default_deadline,
        watermark=watermark,
        battery=battery,
    )


def _build_common_deadline(scenario, round_s: float = 300.0):
    from repro.baselines.common_deadline import CommonDeadlineStrategy

    return CommonDeadlineStrategy(round_s=round_s)


def _build_aoi_download(scenario, threshold_s: float = 120.0):
    from repro.baselines.aoi_download import AoiDownloadStrategy

    return AoiDownloadStrategy(threshold_s=threshold_s)


#: name → builder(scenario, **params).  Builders receive the materialised
#: scenario because several strategies need its profiles/estimator.
STRATEGY_BUILDERS = {
    "immediate": _build_immediate,
    "etrain": _build_etrain,
    "peres": _build_peres,
    "etime": _build_etime,
    "channel_aware": _build_channel_aware,
    "periodic": _build_periodic,
    "fixed_batch": _build_fixed_batch,
    "adaptive": _build_adaptive,
    "tailender": _build_tailender,
    "lazy_circuit": _build_lazy_circuit,
    "harvest_lazy": _build_harvest_lazy,
    "common_deadline": _build_common_deadline,
    "aoi_download": _build_aoi_download,
}


def strategy_param_names(name: str) -> Tuple[str, ...]:
    """Tunable parameter names a registered strategy accepts."""
    builder = STRATEGY_BUILDERS[name]
    params = list(inspect.signature(builder).parameters)[1:]  # drop `scenario`
    return tuple(params)


@dataclass(frozen=True)
class StrategySpec:
    """A registered strategy plus its tunables, as hashable data.

    ``params`` is a sorted tuple of (name, value) pairs so equal specs
    hash equally regardless of keyword order.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.name not in STRATEGY_BUILDERS:
            raise KeyError(
                f"unknown strategy {self.name!r}; known: {sorted(STRATEGY_BUILDERS)}"
            )
        accepted = set(strategy_param_names(self.name))
        unknown = [k for k, _ in self.params if k not in accepted]
        if unknown:
            raise ValueError(
                f"strategy {self.name!r} does not accept {unknown}; "
                f"accepted: {sorted(accepted)}"
            )

    @classmethod
    def make(cls, name: str, **params: Any) -> "StrategySpec":
        return cls(name=name, params=tuple(sorted(params.items())))

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": {k: v for k, v in self.params}}

    def build(self, scenario):
        """Instantiate the strategy against a materialised scenario."""
        return STRATEGY_BUILDERS[self.name](scenario, **self.kwargs)

    def describe(self) -> str:
        """Short human label, e.g. ``etrain(theta=0.5)``."""
        params = ",".join(f"{k}={v}" for k, v in self.params)
        return self.name + (f"({params})" if params else "")


@dataclass(frozen=True)
class JobSpec:
    """One cell of an experiment grid: a strategy run on a scenario.

    ``tag`` is a caller-facing label (used in progress lines and result
    tables); it is deliberately excluded from the content hash, so
    relabelling a sweep never invalidates its cache.
    """

    strategy: StrategySpec
    scenario: ScenarioSpec
    tag: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": CACHE_VERSION,
            "strategy": self.strategy.to_dict(),
            "scenario": self.scenario.to_dict(),
        }

    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical JSON form (tag excluded)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human label for progress output."""
        if self.tag:
            return self.tag
        return f"{self.strategy.describe()} seed={self.scenario.seed}"


def run_job(spec: JobSpec) -> Dict[str, float]:
    """Execute one job start-to-finish; the module-level worker entry point.

    Rebuilds the scenario from its spec (resetting the packet-id counter),
    instantiates the strategy, runs the slotted simulation and returns the
    flat summary dict.  Pure function of ``spec`` — see the module
    docstring for why.
    """
    # Specs that carry their own worker entry point (fleet chunks, and
    # anything else shaped like them) dispatch to it; duck-typed so this
    # module never imports the NumPy-backed fleet package.
    runner = getattr(spec, "run_in_worker", None)
    if runner is not None:
        return runner()

    from repro.sim.runner import run_strategy

    scenario = spec.scenario.build()
    strategy = spec.strategy.build(scenario)
    return run_strategy(strategy, scenario).summary()


def seed_grid(
    strategies: List[StrategySpec],
    seeds: List[int],
    base: Optional[ScenarioSpec] = None,
) -> List[JobSpec]:
    """The common (strategy × seed) grid, seeds varying fastest."""
    template = base if base is not None else ScenarioSpec()
    jobs: List[JobSpec] = []
    for strat in strategies:
        for seed in seeds:
            jobs.append(
                JobSpec(
                    strategy=strat,
                    scenario=dataclasses.replace(template, seed=seed),
                    tag=f"{strat.name} seed={seed}",
                )
            )
    return jobs
