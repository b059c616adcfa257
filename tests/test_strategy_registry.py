"""The strategy registry: one entry per strategy, and the docs that list it.

``repro.sim.parallel.specs.STRATEGIES`` holds each strategy's builder and
its fleet kernel reference.  These tests pin the views other code reads
(``STRATEGY_BUILDERS``, ``vector_strategies()``), check that every
kernel takes only builder parameters (the builder signature is the one
home of defaults), and check the docs/architecture.md table against the
registry so the docs cannot claim coverage the code lacks.
"""

import re
from pathlib import Path

import pytest

from repro.sim.fleet import fleet_supports, vector_strategies
from repro.sim.parallel.specs import (
    STRATEGIES,
    STRATEGY_BUILDERS,
    _resolve_kernel,
    strategy_param_names,
)

pytestmark = pytest.mark.strategies

ARCHITECTURE = Path(__file__).resolve().parents[1] / "docs" / "architecture.md"


def test_builders_view_keeps_its_order():
    assert list(STRATEGY_BUILDERS) == [
        "immediate", "etrain", "peres", "etime", "channel_aware", "periodic",
        "fixed_batch", "adaptive", "tailender", "lazy_circuit", "harvest_lazy",
        "common_deadline", "aoi_download",
    ]
    assert STRATEGY_BUILDERS == {n: e.builder for n, e in STRATEGIES.items()}


def test_vector_strategies_are_the_entries_with_a_kernel():
    assert set(vector_strategies()) == {
        "immediate", "periodic", "tailender", "etrain", "peres", "etime",
        "adaptive", "fixed_batch", "channel_aware",
    }
    assert STRATEGIES["fixed_batch"] == STRATEGIES["periodic"]


@pytest.mark.parametrize("name", vector_strategies())
def test_kernel_takes_only_builder_params(name):
    _, takes = _resolve_kernel(STRATEGIES[name].kernel)
    assert set(takes) <= set(strategy_param_names(name))


def test_params_outside_the_kernel_must_hold_their_default():
    assert fleet_supports("etrain", {"k": None, "slot": 1})
    assert not fleet_supports("tailender", {"default_deadline": 30.0})
    assert fleet_supports("tailender", {"default_deadline": 60.0, "slack": 5.0})
    assert not fleet_supports("lazy_circuit")


def _doc_rows():
    text = ARCHITECTURE.read_text(encoding="utf-8")
    section = text.split("## Registered strategies", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        names = re.findall(r"`([^`]+)`", cells[0])
        knobs = re.findall(r"`([^`]+)`", cells[3])
        yield names, knobs, cells[4]


def test_architecture_table_matches_the_registry():
    rows = list(_doc_rows())
    listed = [name for names, _, _ in rows for name in names]
    assert sorted(listed) == sorted(STRATEGIES), "table names != registry"
    for names, knobs, kernel in rows:
        for name in names:
            want = "yes" if STRATEGIES[name].kernel else "scalar"
            assert kernel == want, f"{name}: kernel column {kernel!r}"
            unknown = set(knobs) - set(strategy_param_names(name))
            assert not unknown, f"{name}: {sorted(unknown)} are not builder params"
