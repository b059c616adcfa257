"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest layerbench/tests -q

They cover a tiny-size smoke run of every workload in both modes, the
self-time / ``unattributed`` arithmetic, that deliberately wrong outputs
fail the checks, and that the benchmark refuses to report anything when
the program's source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from tracing import layer_table, percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT, timeout: float = 170):
    return subprocess.run(
        [sys.executable, str(cwd / "layerbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


# -- smoke ----------------------------------------------------------------


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_fleet_names_the_fallback_strategies_only():
    proc = _run("fleet_shootout_2h", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    fallback = {"lazy_circuit", "harvest_lazy", "common_deadline", "aoi_download"}
    for s in run.STRATEGIES:
        busy = metrics[f"fleet.reference.{s}.busy_s"]["value"]
        assert (busy > 0) == (s in fallback), s


def test_benchmark_json_matches_the_runner():
    from repro.sim.parallel.specs import STRATEGY_BUILDERS

    assert list(run.STRATEGIES) == list(STRATEGY_BUILDERS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.E2E)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", ["fleet_etrain_2h", "sweep_pool_2h"])
def test_setup_probe_stops_cleanly_at_the_first_job(workload, tmp_path):
    env = dict(run.child_env(tmp_path), PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, "3", str(tmp_path / "w")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "ready"


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("fleet_etrain_2h", 0, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- layer arithmetic -----------------------------------------------------


def _span(sid, name, start, end, parent=None, pid=1, tag=None):
    return {"id": sid, "name": name, "tag": tag, "start": start, "end": end,
            "parent": parent, "run": "t", "pid": pid}


def test_self_time_subtracts_children_and_unattributed_closes_the_sum():
    spans = [
        _span(0, "fleet.run", 0.0, 10.0),
        _span(1, "fleet.kernel", 1.0, 7.0, parent=0),
        _span(2, "fleet.accounting", 7.0, 8.0, parent=0),
        _span(3, "fleet.kernel", 8.5, 9.0, parent=0),
        _span(4, "engine", 0.0, 50.0, pid=2),  # another process: not on this timeline
    ]
    table = layer_table(spans, 12.0, pid=1)
    rows = table["layers"]
    assert rows["fleet.run"]["self_s"] == pytest.approx(10.0 - 6.0 - 1.0 - 0.5)
    assert rows["fleet.kernel"]["busy_s"] == pytest.approx(6.5)
    assert rows["fleet.kernel"]["calls"] == 2
    assert "engine" not in rows
    assert table["unattributed_s"] == pytest.approx(2.0)
    total = sum(r["self_s"] for r in rows.values()) + table["unattributed_s"]
    assert total == pytest.approx(12.0)
    assert run.trace_problems(table) == []


def test_overlapping_layers_are_reported_as_a_trace_problem():
    spans = [_span(0, "a", 0.0, 5.0), _span(1, "b", 1.0, 9.0, parent=0)]
    table = layer_table(spans, 9.0, pid=1)
    assert run.trace_problems(table)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([], 50) == 0.0


# -- wrong outputs fail ---------------------------------------------------


def _summary():
    return {
        "devices": 2, "packets": 3, "bursts": 4, "heartbeats": 1,
        "piggyback_hits": 1, "violations": 0, "delay_sum": 12.5,
        "delay_cost_sum": 0.25, "energy_total_j": 40.0, "energy_tail_j": 30.0,
        "energy_tx_j": 10.0, "energy_hist": [0, 2, 0], "delay_hist": [1, 2, 0],
    }


def test_summary_checks_refuse_wrong_numbers():
    good = _summary()
    assert checks.summaries_match(good, dict(good), 1e-12) == []
    assert checks.summary_sane(good, 2) == []
    off = dict(good, energy_total_j=40.0 * (1 + 1e-9))
    assert checks.summaries_match(off, good, 1e-12)
    assert checks.summaries_match(off, good, 1e-6) == []
    assert checks.summaries_match(dict(good, packets=4), good, 1e-6)
    assert checks.summaries_match(dict(good, delay_hist=[0, 3, 0]), good, 1e-6)
    assert checks.summary_sane(dict(good, energy_hist=[0, 1, 0]), 2)
    assert checks.same_json({"a": 1.0}, {"a": 1.0000000001}, "job")


def test_open_loop_validity():
    assert checks.open_loop_problems(2.0, 50.0, [0.0, 3.0, 6.0], [1.0, 4.0]) == []
    assert checks.open_loop_problems(80.0, 50.0, [], [])
    assert checks.open_loop_problems(2.0, 50.0, [0.0, 3.0, 6.0], [1.0, 6.5])


@pytest.mark.parametrize("devices", [4, 20])  # checked whole / by a sample chunk
def test_a_wrong_kernel_output_fails_the_fleet_check(monkeypatch, devices):
    import cases
    import repro.sim.fleet.accounting as accounting
    from repro.sim.fleet import FleetSpec, run_fleet

    spec = FleetSpec.make(devices, "etrain", horizon=300.0, seed=5, chunk_size=devices)
    assert cases.check_fleet(spec, run_fleet(spec).summary.to_dict(), 5) == []
    real = accounting.summarize_chunk

    def skewed(*args, **kwargs):
        summary = real(*args, **kwargs)
        summary.energy_total_j *= 1.001
        return summary

    monkeypatch.setattr(accounting, "summarize_chunk", skewed)
    assert cases.check_fleet(spec, run_fleet(spec).summary.to_dict(), 5)
