#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end to end and by layer.

Usage, from the repository root::

    python3 layerbench/run.py --workload fleet_etrain_2h --seed 1 --seconds 15 --trace 0
    python3 layerbench/run.py                 # every workload, trace 0, one table

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with layer wrappers installed (see
``tracing.py``) and reports per-layer metrics plus the tracing overhead.
Every case runs in a fresh subprocess whose peak RSS comes from
``os.wait4``; outputs are checked against the program's own oracles
outside the timed region.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads, and why each exists, are read from ``BENCHMARK.json``:
``fleet_etrain_2h``, ``fleet_shootout_2h``, ``sweep_pool_2h`` and
``serve_mixed_2h``.  All run artefacts go under ``.layerbench_work/``
in the repository root and are removed at the end of a run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from cases import spawn_daemon, stop_daemon  # noqa: E402
from tracing import layer_table, load_trace, percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: workload name -> why it exists (the one copy is in BENCHMARK.json).
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}

#: End-to-end metrics (trace 0), reported on every workload.  Request
#: latency exists only on serve_mixed_2h, so its percentiles are printed
#: there and carried as ``serve.*`` per-layer metrics instead.
E2E = {
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

STRATEGIES = (
    "immediate", "etrain", "peres", "etime", "channel_aware", "periodic",
    "fixed_batch", "adaptive", "tailender", "lazy_circuit", "harvest_lazy",
    "common_deadline", "aoi_download",
)

#: Per-layer metrics (trace 1), reported on every workload (0 where the
#: layer does not run).
PER_LAYER = {
    "fleet.kernel.busy_s": "s",
    "fleet.kernel.us_per_device_slot": "us",
    **{f"fleet.kernel.{s}.busy_s": "s" for s in STRATEGIES},
    "fleet.reference.busy_s": "s",
    **{f"fleet.reference.{s}.busy_s": "s" for s in STRATEGIES},
    "fleet.reference.devices": "count",
    "fleet.fallback_share": "ratio",
    "fleet.workload.busy_s": "s",
    "fleet.workload.packets": "count",
    "fleet.accounting.busy_s": "s",
    "fleet.aggregate.busy_s": "s",
    "fleet.channel.busy_s": "s",
    "engine.busy_s": "s",
    **{f"engine.{s}.busy_s": "s" for s in STRATEGIES},
    "parallel.executor.dispatch_s": "s",
    "parallel.executor.utilization": "ratio",
    "parallel.executor.retries": "count",
    "parallel.executor.worker_failures": "count",
    "parallel.cache.put_s": "s",
    "parallel.cache.puts": "count",
    "parallel.journal.append_s": "s",
    "parallel.journal.appends": "count",
    "dist.dispatch_s": "s",
    "serve.protocol.decode_s": "s",
    "serve.protocol.encode_s": "s",
    "serve.server.open_s": "s",
    "serve.server.event_s": "s",
    "serve.server.close_s": "s",
    "serve.server.batch_s": "s",
    "serve.batcher.wait_ms_p50": "ms",
    "serve.batcher.wait_ms_p99": "ms",
    "serve.batcher.backlog_max": "count",
    "serve.batcher.shed": "count",
    "serve.batcher.frames_per_drain": "count",
    "serve.sessions.live_max": "count",
    "serve.stream.p50_ms": "ms",
    "serve.stream.p99_ms": "ms",
    "serve.bulk.p50_ms": "ms",
    "loadgen.late_ms_p99": "ms",
    "host.probe_ms": "ms",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

#: Set-up probes before and again after the timed case (so one slow
#: moment of the host does not set the figure); ``setup_s`` is the
#: median of all of them.
SETUP_PROBES = 3
#: A case subprocess is killed (and the run fails) after this long.
CASE_TIMEOUT_S = 150.0
#: Likewise for one set-up probe.
PROBE_TIMEOUT_S = 30.0


def host_probe_ms() -> float:
    """A fixed pure-Python loop: tells a slow host from a slow commit."""
    started = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return (time.perf_counter() - started) * 1e3


def fingerprint() -> Dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def child_env(work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(work / "tmp")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _reap_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_case(workload: str, seed: int, seconds: float, work: Path, env, *,
             once=False, trace_dir: Optional[Path] = None,
             dist=False, tiny=False) -> Dict:
    """One case in a fresh process group; returns its result + peak RSS."""
    out = work / f"case-{time.monotonic_ns()}.json"
    cmd = [
        sys.executable, str(HERE / "cases.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--out", str(out), "--work", str(work / "case"),
    ]
    cmd += ["--once"] * once + ["--dist"] * dist + ["--tiny"] * tiny
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    timer = threading.Timer(CASE_TIMEOUT_S, _reap_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        _reap_group(proc.pid)  # nothing of the case may outlive it
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} case exited with {proc.returncode}")
    result = json.loads(out.read_text(encoding="utf-8"))
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def _probe_serve(work: Path, env) -> float:
    started = time.perf_counter()
    proc, port = spawn_daemon(None, "setup", work / "daemon.log", env=env)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(b'{"op":"hello"}\n')
            reply = sock.makefile("rb").readline()
        elapsed = time.perf_counter() - started
        if not json.loads(reply).get("ok"):
            raise RuntimeError(f"hello refused: {reply!r}")
        return elapsed
    finally:
        stop_daemon(proc)


def _probe_once(workload: str, seed: int, work: Path, env) -> float:
    if workload == "serve_mixed_2h":
        return _probe_serve(work, env)
    probe_dir = work / f"probe-{time.monotonic_ns()}"
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(probe_dir)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    timer = threading.Timer(PROBE_TIMEOUT_S, _reap_group, (proc.pid,))
    timer.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        proc.stdout.read()
        if proc.wait() != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        return elapsed
    finally:
        timer.cancel()
        _reap_group(proc.pid)
        proc.stdout.close()
        shutil.rmtree(probe_dir, ignore_errors=True)


def setup_seconds(workload: str, seed: int, work: Path, env) -> List[float]:
    return [_probe_once(workload, seed, work, env) for _ in range(SETUP_PROBES)]


# -- metric assembly -------------------------------------------------------


def e2e_metrics(case: Dict, setups: List[float]) -> Dict[str, float]:
    return {
        "throughput_per_s": case["throughput_per_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": case["peak_rss_mb"],
    }


def _busy(spans, name: str, tag: Optional[str] = None) -> float:
    return sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] == name and (tag is None or s["tag"] == tag)
    )


def _calls(spans, name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def layer_metrics(plain: Dict, traced: Dict, spans: List[Dict], stats: Dict,
                  table: Dict, probe_ms: float) -> Dict[str, float]:
    """Every per-layer metric from one traced and one untraced case."""
    counts, maxima, samples = stats["counts"], stats["maxima"], stats["samples"]
    wall = table["wall_s"]
    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    kernel = _busy(spans, "fleet.kernel")
    slots = counts.get("fleet.kernel.device_slots", 0)
    m["fleet.kernel.busy_s"] = kernel
    m["fleet.kernel.us_per_device_slot"] = kernel / slots * 1e6 if slots else 0.0
    reference = _busy(spans, "fleet.reference")
    m["fleet.reference.busy_s"] = reference
    m["fleet.reference.devices"] = counts.get("fleet.reference.devices", 0)
    m["fleet.fallback_share"] = reference / wall if wall > 0 else 0.0
    engine = _busy(spans, "engine")
    m["engine.busy_s"] = engine
    for s in STRATEGIES:
        m[f"fleet.kernel.{s}.busy_s"] = _busy(spans, "fleet.kernel", s)
        m[f"fleet.reference.{s}.busy_s"] = _busy(spans, "fleet.reference", s)
        m[f"engine.{s}.busy_s"] = _busy(spans, "engine", s)
    m["fleet.workload.busy_s"] = _busy(spans, "fleet.workload")
    m["fleet.workload.packets"] = counts.get("fleet.workload.packets", 0)
    m["fleet.accounting.busy_s"] = _busy(spans, "fleet.accounting")
    m["fleet.aggregate.busy_s"] = _busy(spans, "fleet.aggregate")
    m["fleet.channel.busy_s"] = _busy(spans, "fleet.channel")
    executor = _busy(spans, "parallel.executor")
    workers = traced.get("workers", 1)
    jobs = engine + _busy(spans, "fleet.chunk")
    if executor > 0:
        m["parallel.executor.dispatch_s"] = max(0.0, executor - jobs / workers)
        m["parallel.executor.utilization"] = jobs / (workers * executor)
    ex_stats = traced.get("executor", {})
    m["parallel.executor.retries"] = ex_stats.get("retries", 0)
    m["parallel.executor.worker_failures"] = ex_stats.get("worker_failures", 0)
    m["parallel.cache.put_s"] = _busy(spans, "parallel.cache.put")
    m["parallel.cache.puts"] = _calls(spans, "parallel.cache.put")
    m["parallel.journal.append_s"] = _busy(spans, "parallel.journal.append")
    m["parallel.journal.appends"] = _calls(spans, "parallel.journal.append")
    m["dist.dispatch_s"] = plain.get("dist_dispatch_s", 0.0)
    m["serve.protocol.decode_s"] = _busy(spans, "serve.protocol.decode")
    m["serve.protocol.encode_s"] = _busy(spans, "serve.protocol.encode")
    for op in ("open", "event", "close"):
        m[f"serve.server.{op}_s"] = _busy(spans, "serve.server.handle", op)
    m["serve.server.batch_s"] = _busy(spans, "serve.server.handle_batch") - _busy(
        spans, "serve.server.handle"
    )
    waits = samples.get("serve.batcher.wait_ms", [])
    m["serve.batcher.wait_ms_p50"] = percentile(waits, 50)
    m["serve.batcher.wait_ms_p99"] = percentile(waits, 99)
    m["serve.batcher.backlog_max"] = maxima.get("serve.batcher.backlog_max", 0)
    m["serve.batcher.shed"] = maxima.get("serve.batcher.shed", 0)
    drains = samples.get("serve.batcher.frames_per_drain", [])
    m["serve.batcher.frames_per_drain"] = statistics.fmean(drains) if drains else 0.0
    m["serve.sessions.live_max"] = maxima.get("serve.sessions.live_max", 0)
    m["serve.stream.p50_ms"] = plain.get("p50_ms", 0.0)
    m["serve.stream.p99_ms"] = plain.get("p99_ms") or 0.0
    m["serve.bulk.p50_ms"] = plain.get("bulk_p50_ms") or 0.0
    m["loadgen.late_ms_p99"] = plain.get("late_ms_p99", 0.0)
    m["host.probe_ms"] = probe_ms
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = table["unattributed_s"]
    m["trace.overhead_s"] = traced["pass_wall_s"] - plain["pass_wall_s"]
    return m


def trace_problems(table: Dict) -> List[str]:
    """Self times must be non-negative and fit inside the wall."""
    problems = [
        f"layer {name} has negative self time {row['self_s']:.6f}s"
        for name, row in table["layers"].items()
        if row["self_s"] < -1e-9
    ]
    if table["unattributed_s"] < -1e-6:
        problems.append(f"layers cover more than the wall ({table['unattributed_s']:.6f}s)")
    return problems


def print_layer_table(table: Dict) -> None:
    wall = table["wall_s"]
    print(f"{'layer':<32}{'calls':>8}{'busy_s':>12}{'self_s':>12}{'share':>8}")
    rows = sorted(table["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        share = row["self_s"] / wall if wall > 0 else 0.0
        print(f"{name:<32}{row['calls']:>8}{row['busy_s']:>12.4f}{row['self_s']:>12.4f}{share:>8.1%}")
    print(f"{'unattributed':<32}{'':>8}{'':>12}{table['unattributed_s']:>12.4f}"
          f"{table['unattributed_s'] / wall if wall > 0 else 0.0:>8.1%}")
    total = sum(r["self_s"] for r in table["layers"].values()) + table["unattributed_s"]
    print(f"{'= wall':<32}{'':>8}{'':>12}{total:>12.4f}  (traced wall {wall:.4f}s)")


# -- one run ---------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> Dict:
    work = ROOT / ".layerbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = child_env(work)
    try:
        return _run_workload(workload, seed, seconds, trace, tiny, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _run_workload(workload, seed, seconds, trace, tiny, work, env) -> Dict:
    print(f"layerbench {workload} seed={seed} seconds={seconds:g} trace={trace}")
    print("host " + json.dumps(fingerprint(), sort_keys=True))
    probe_before = host_probe_ms()
    if trace == 0:
        setups = setup_seconds(workload, seed, work, env)
        case = run_case(workload, seed, seconds, work, env, tiny=tiny)
        setups += setup_seconds(workload, seed, work, env)
        metrics = e2e_metrics(case, setups)
        units = E2E
        problems = case["problems"]
        attempted, failed = case["attempted"], case["failed"]
        extra = {
            key: case[key]
            for key in ("stream_samples", "p50_ms", "p99_ms", "bulk_samples",
                        "bulk_p50_ms", "late_ms_p99", "daemon_cpu_s")
            if key in case
        }
        extra.update(pass_walls_s=case["pass_walls_s"], setup_probes_s=setups)
    else:
        plain = run_case(workload, seed, seconds, work, env, once=True,
                         dist=workload == "sweep_pool_2h", tiny=tiny)
        trace_dir = work / "trace"
        traced = run_case(workload, seed, seconds, work, env, once=True,
                          trace_dir=trace_dir, tiny=tiny)
        spans, stats = load_trace(trace_dir)
        wall = traced["pass_wall_s"]
        table = layer_table(spans, wall, traced["timeline_pid"])
        print_layer_table(table)
        problems = plain["problems"] + traced["problems"] + trace_problems(table)
        if traced["digest"] != plain["digest"]:
            problems.append("traced run changed the simulated statistics")
        case = plain
        metrics = None  # filled after the second host probe
        units = PER_LAYER
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        extra = {"traced_wall_s": wall, "untraced_wall_s": plain["pass_wall_s"]}
    probe_after = host_probe_ms()
    probe_ms = (probe_before + probe_after) / 2
    if metrics is None:
        metrics = layer_metrics(plain, traced, spans, stats, table, probe_ms)
    if problems:
        failed = attempted
    print(f"host.probe_ms before={probe_before:.2f} after={probe_after:.2f}")
    print(f"digest sha256:{case['digest']}")
    for key, value in extra.items():
        print(f"{key} = {value}")
    if problems:
        for p in problems[:20]:
            print(f"CHECK FAILED: {p}")
    else:
        print("checks passed")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all of them, trace 0)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"layerbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    if args.workload is not None:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny)
        print(json.dumps(result, sort_keys=True))
        return 0
    rows = {
        name: run_workload(name, args.seed, args.seconds, 0, args.tiny)
        for name in WORKLOADS
    }
    print(f"\n{'workload':<20}" + "".join(f"{m:>18}" for m in E2E) + f"{'correct':>9}")
    for name, res in rows.items():
        cells = "".join(f"{res['metrics'][m]['value']:>18.4f}" for m in E2E)
        print(f"{name:<20}{cells}{str(res['correct']):>9}")
    return 0 if all(r["correct"] for r in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
