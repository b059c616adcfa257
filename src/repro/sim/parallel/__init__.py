"""Parallel multi-seed/parameter experiment execution.

See :mod:`repro.sim.parallel.specs` for the declarative job model,
:mod:`repro.sim.parallel.executor` for the runner, and
``docs/parallelism.md`` for the cache layout and determinism guarantees.
"""

from repro.sim.parallel.cache import ResultCache
from repro.sim.parallel.executor import (
    ExecutorStats,
    ExperimentExecutor,
    JobResult,
    RetryPolicy,
)
from repro.sim.parallel.journal import (
    JournalMismatchError,
    RunJournal,
    run_key_of,
)
from repro.sim.parallel.specs import (
    CACHE_VERSION,
    POWER_MODELS,
    STRATEGY_BUILDERS,
    JobSpec,
    ScenarioSpec,
    StrategySpec,
    power_model_name,
    run_job,
    seed_grid,
    strategy_param_names,
)

__all__ = [
    "CACHE_VERSION",
    "POWER_MODELS",
    "STRATEGY_BUILDERS",
    "ResultCache",
    "ExecutorStats",
    "ExperimentExecutor",
    "JobResult",
    "RetryPolicy",
    "RunJournal",
    "JournalMismatchError",
    "run_key_of",
    "JobSpec",
    "ScenarioSpec",
    "StrategySpec",
    "power_model_name",
    "run_job",
    "seed_grid",
    "strategy_param_names",
]
