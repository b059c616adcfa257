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
import functools
import hashlib
import importlib
import inspect
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

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
    "STRATEGIES",
    "STRATEGY_BUILDERS",
    "BuildScenario",
    "ScenarioSpec",
    "StrategyEntry",
    "StrategySpec",
    "JobSpec",
    "bind_strategy_params",
    "fleet_kernel",
    "power_model_name",
    "strategy_param_names",
    "run_job",
    "seed_grid",
    "vector_strategies",
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


class BuildScenario:
    """The slice of a :class:`~repro.sim.runner.Scenario` the builders touch.

    Profiles plus a bandwidth model: serve sessions build their strategy
    on one, and :func:`bind_strategy_params` builds on a default one to
    run the strategy constructors' range checks.
    """

    def __init__(self, profiles, bandwidth) -> None:
        self.profiles = profiles
        self.bandwidth = bandwidth

    def estimator(self, *, lag: float = 2.0, noise: float = 0.3, seed: int = 0):
        from repro.baselines.base import BandwidthEstimator

        return BandwidthEstimator(self.bandwidth, lag=lag, noise=noise, seed=seed)


@dataclass(frozen=True)
class StrategyEntry:
    """One registered strategy: its scalar builder and its fleet kernel.

    ``builder(scenario, **params)`` builds the scalar strategy; its
    signature is the only home of the parameter defaults.  ``kernel`` is
    a lazy ``"module:attr"`` reference (this module never imports NumPy)
    to ``kernel(workload, table, power_model, **kw)``, whose keyword-only
    ``kw`` are the builder parameters it implements; ``None`` means the
    strategy runs the scalar engine at fleet scale.
    """

    builder: Callable[..., Any]
    kernel: Optional[str] = None


_ENGINE = "repro.sim.fleet.engine"

#: The strategy registry: name → builder and kernel, in documentation
#: order.  ``fixed_batch`` is the fleet-facing alias of ``periodic``
#: (the naive-aggregation ablation): same builder, same kernel.
STRATEGIES: Dict[str, StrategyEntry] = {
    "immediate": StrategyEntry(_build_immediate, f"{_ENGINE}:_immediate_kernel"),
    "etrain": StrategyEntry(_build_etrain, f"{_ENGINE}:_etrain_kernel"),
    "peres": StrategyEntry(_build_peres, "repro.baselines.peres:peres_fleet_kernel"),
    "etime": StrategyEntry(_build_etime, "repro.baselines.etime:etime_fleet_kernel"),
    "channel_aware": StrategyEntry(
        _build_channel_aware,
        "repro.baselines.channel_aware:channel_aware_fleet_kernel",
    ),
    "periodic": StrategyEntry(_build_periodic, f"{_ENGINE}:_periodic_kernel"),
    "fixed_batch": StrategyEntry(_build_periodic, f"{_ENGINE}:_periodic_kernel"),
    "adaptive": StrategyEntry(
        _build_adaptive, "repro.baselines.adaptive:adaptive_fleet_kernel"
    ),
    "tailender": StrategyEntry(_build_tailender, f"{_ENGINE}:_tailender_kernel"),
    "lazy_circuit": StrategyEntry(_build_lazy_circuit),
    "harvest_lazy": StrategyEntry(_build_harvest_lazy),
    "common_deadline": StrategyEntry(_build_common_deadline),
    "aoi_download": StrategyEntry(_build_aoi_download),
}

#: name → builder(scenario, **params), a view of :data:`STRATEGIES`.
#: Builders receive the materialised scenario because several
#: strategies need its profiles/estimator.
STRATEGY_BUILDERS = {name: entry.builder for name, entry in STRATEGIES.items()}


def vector_strategies() -> Tuple[str, ...]:
    """Names of the strategies with a fleet kernel, in registry order."""
    return tuple(name for name, entry in STRATEGIES.items() if entry.kernel)


@functools.lru_cache(maxsize=None)
def _builder_defaults(name: str) -> Dict[str, Any]:
    if name not in STRATEGIES:
        raise KeyError(f"unknown strategy {name!r}; known: {sorted(STRATEGIES)}")
    params = list(inspect.signature(STRATEGIES[name].builder).parameters.values())
    return {p.name: p.default for p in params[1:]}  # drop `scenario`


def strategy_param_names(name: str) -> Tuple[str, ...]:
    """Tunable parameter names a registered strategy accepts."""
    return tuple(_builder_defaults(name))


@functools.lru_cache(maxsize=1)
def _stand_in() -> BuildScenario:
    from repro.bandwidth.models import ConstantBandwidth
    from repro.core.profiles import DEFAULT_CARGO_PROFILES

    return BuildScenario(DEFAULT_CARGO_PROFILES(), ConstantBandwidth(rate=1.0))


def bind_strategy_params(
    name: str, params: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Every builder parameter of ``name``: ``params`` over the defaults.

    The one check of user-supplied strategy params, run wherever a spec
    is made (``StrategySpec``, fleet specs, serve ``batch``).  An unknown
    strategy raises ``KeyError``, an unknown param ``ValueError``; the
    strategy is then built once on a stand-in scenario, so every range
    check of its constructor raises ``ValueError`` here, not in a worker.
    """
    defaults = _builder_defaults(name)
    params = dict(params or {})
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(
            f"strategy {name!r} does not accept {unknown}; "
            f"accepted: {sorted(defaults)}"
        )
    bound = {**defaults, **params}
    try:
        STRATEGIES[name].builder(_stand_in(), **bound)
    except TypeError as exc:
        raise ValueError(f"strategy {name!r}: {exc}") from None
    return bound


@functools.lru_cache(maxsize=None)
def _resolve_kernel(ref: str) -> Tuple[Callable[..., Any], Tuple[str, ...]]:
    module, _, attr = ref.partition(":")
    kernel = getattr(importlib.import_module(module), attr)
    takes = tuple(
        p.name
        for p in inspect.signature(kernel).parameters.values()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    )
    return kernel, takes


def fleet_kernel(
    name: str,
    params: Optional[Mapping[str, Any]] = None,
    *,
    power_model: PowerModel = GALAXY_S4_3G,
) -> Optional[Tuple[Callable[..., Any], Dict[str, Any]]]:
    """The fleet kernel and its keyword arguments, or None for scalar-only.

    The one coverage rule of the fleet and serve paths: a configuration
    is vectorized when the strategy has a kernel, the power model is
    promotion-free, and every bound param the kernel does not take
    equals the builder's default.  Params are checked as in
    :func:`bind_strategy_params`.
    """
    bound = bind_strategy_params(name, params)
    ref = STRATEGIES[name].kernel
    if ref is None or power_model.promotion_delay or power_model.promotion_energy:
        return None
    kernel, takes = _resolve_kernel(ref)
    defaults = _builder_defaults(name)
    if any(bound[k] != defaults[k] for k in bound if k not in takes):
        return None
    return kernel, {k: bound[k] for k in takes}


@dataclass(frozen=True)
class StrategySpec:
    """A registered strategy plus its tunables, as hashable data.

    ``params`` is a sorted tuple of (name, value) pairs so equal specs
    hash equally regardless of keyword order.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        bind_strategy_params(self.name, self.kwargs)

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
