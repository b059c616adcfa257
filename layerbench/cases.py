"""Workload bodies.  ``run.py`` runs each one in a fresh subprocess.

Usage (normally only through ``run.py``)::

    python3 layerbench/cases.py --workload fleet_etrain_2h --seed 1 \
        --seconds 15 --out result.json --work DIR [--once] [--dist] \
        [--trace-dir DIR] [--tiny]

Every body drives the program through its public entry points only:
``FleetSpec`` + ``run_fleet``, ``seed_grid`` + ``ExperimentExecutor``
(with a ``ResultCache`` and a ``RunJournal``, as ``etrain sweep`` wires
them), and a spawned ``etrain serve`` daemon over TCP.  A body either
repeats its unit of work until ``--seconds`` are used (``--once`` runs
exactly one unit, for the traced/untraced comparison), then, unless it
is traced, verifies outputs against the repository's oracles outside
the timed region.  The result is one JSON document written to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import import_layers, percentile  # noqa: E402

HORIZON = 7200.0

#: Workload sizes.  ``tiny`` is the smoke preset the tests use.
SIZES: Dict[str, Dict[str, Dict]] = {
    "full": {
        "fleet_etrain_2h": {"devices": 2048, "chunk": 1024, "horizon": HORIZON},
        "fleet_shootout_2h": {"devices": 16, "horizon": HORIZON},
        "sweep_pool_2h": {"seeds": 10, "workers": 2, "horizon": HORIZON},
        "serve_mixed_2h": {
            "rate": 800.0,
            "tick": 0.01,
            "lanes": 8,
            "bulk_devices": 4,
            "bulk_every": 4.0,
            "horizon": HORIZON,
        },
    },
    "tiny": {
        "fleet_etrain_2h": {"devices": 8, "chunk": 4, "horizon": 300.0},
        "fleet_shootout_2h": {"devices": 3, "horizon": 300.0},
        "sweep_pool_2h": {"seeds": 1, "workers": 2, "horizon": 300.0},
        "serve_mixed_2h": {
            "rate": 400.0,
            "tick": 0.01,
            "lanes": 2,
            "bulk_devices": 2,
            "bulk_every": 0.5,
            "horizon": 300.0,
        },
    },
}

#: Devices per strategy compared against ``simulate_reference_chunk``:
#: at 7200 s every strategy emits more than the 1024 tx records the
#: fleet kernel's buffers start with, so buffer growth is checked too.
SAMPLE_DEVICES = 16
#: Pooled sweep jobs re-run in-process and compared bit for bit.
SAMPLE_JOBS = 4
#: The open-loop generator counts as behind schedule past this lateness.
LATE_LIMIT_MS = 50.0
#: The sender spins (instead of sleeping) this close to a due time.
SPIN_S = 0.0015


def strategies() -> List[str]:
    from repro.sim.parallel.specs import STRATEGY_BUILDERS

    return list(STRATEGY_BUILDERS)


def rate(work_per_pass: int, passes: List[Dict]) -> float:
    """Work done per second over every timed pass together.

    Each pass lasts seconds and a run holds only two to four, so their
    pooled rate is steadier than a median of them on a host whose speed
    drifts.
    """
    return work_per_pass * len(passes) / sum(p["wall_s"] for p in passes)


def _timed_reps(seconds: float, once: bool, rep) -> List:
    """Run ``rep()`` until ``seconds`` are used (at least once)."""
    out = []
    started = time.perf_counter()
    while True:
        out.append(rep())
        if once or time.perf_counter() - started >= seconds:
            return out


# -- fleet ---------------------------------------------------------------


def _fleet_pass(specs) -> Dict:
    """One ``run_fleet`` per spec, in order; returns timings + summaries."""
    import repro.sim.fleet as fleet

    started = time.perf_counter()
    results = [fleet.run_fleet(spec) for spec in specs]
    return {
        "wall_s": time.perf_counter() - started,
        "chunks": sum(r.chunks for r in results),
        "summaries": [r.summary.to_dict() for r in results],
    }


def _fleet_specs(workload: str, seed: int, size: Dict):
    from repro.sim.fleet import FleetSpec

    if workload == "fleet_etrain_2h":
        return [
            FleetSpec.make(
                size["devices"],
                "etrain",
                horizon=size["horizon"],
                seed=seed,
                chunk_size=size["chunk"],
            )
        ]
    return [
        FleetSpec.make(
            size["devices"],
            name,
            horizon=size["horizon"],
            seed=seed,
            chunk_size=size["devices"],
        )
        for name in strategies()
    ]


def check_fleet(spec, timed: Dict, seed: int) -> List[str]:
    """The timed summary, or a device sample of the run, against the
    scalar reference.

    A population of at most ``SAMPLE_DEVICES`` devices is compared whole.
    From a larger one a sample chunk is run again, built as ``run_fleet``
    builds the timed chunks: a vectorized strategy attaches the published
    shared channel.  Either way every strategy emits more tx records than
    the fleet kernel's buffers start with, so buffer growth is checked.
    """
    from repro.sim.fleet import FleetChunkSpec, simulate_reference_chunk, synthesize_fleet
    from repro.sim.fleet.channel import ChannelTable, SharedChannel
    from repro.sim.parallel.specs import POWER_MODELS

    if spec.devices <= SAMPLE_DEVICES:
        k, offset, got = spec.devices, 0, timed
    else:
        k = SAMPLE_DEVICES
        offset = (seed * 7919) % (spec.devices - k + 1)
        with contextlib.ExitStack() as stack:
            channel = None
            if spec.vectorized:
                table = ChannelTable.from_model(spec.bandwidth_model(), spec.horizon)
                channel = stack.enter_context(SharedChannel.publish(table)).handle
            got = FleetChunkSpec(
                strategy=spec.strategy,
                params=spec.params,
                seed=spec.seed,
                horizon=spec.horizon,
                n_devices=k,
                device_offset=offset,
                channel=channel,
            ).run_in_worker()
    workload = synthesize_fleet(
        k, spec.horizon, spec.seed, device_offset=offset, profiles=spec.profiles()
    )
    want = simulate_reference_chunk(
        workload,
        spec.bandwidth_model(),
        strategy=spec.strategy,
        params=spec.param_dict,
        power_model=POWER_MODELS[spec.power_model],
        profiles=spec.profiles(),
    ).to_dict()
    rtol = 1e-6 if spec.vectorized else 1e-12
    return [
        f"{spec.strategy} devices [{offset}, {offset + k}): {p}"
        for p in checks.summaries_match(got, want, rtol)
    ]


def run_fleet_case(args, size: Dict) -> Dict:
    specs = _fleet_specs(args.workload, args.seed, size)
    passes = _timed_reps(args.seconds, args.once, lambda: _fleet_pass(specs))
    digests = {checks.digest(p["summaries"]) for p in passes}
    devices = sum(s.devices for s in specs)
    problems: List[str] = []
    if len(digests) != 1:
        problems.append("repeated passes produced different statistics")
    if args.check:
        for spec, summary in zip(specs, passes[0]["summaries"]):
            problems += checks.summary_sane(summary, spec.devices)
            problems += check_fleet(spec, summary, args.seed)
    return {
        "attempted": sum(p["chunks"] for p in passes),
        "problems": problems,
        "digest": sorted(digests)[0],
        "throughput_per_s": rate(devices, passes),
        "pass_wall_s": statistics.median(p["wall_s"] for p in passes),
        "pass_walls_s": [p["wall_s"] for p in passes],
        "timeline_pid": os.getpid(),
    }


# -- sweep ---------------------------------------------------------------


def _sweep_jobs(seed: int, size: Dict):
    from repro.sim.parallel import ScenarioSpec, StrategySpec, seed_grid

    seeds = [seed * 1000 + i for i in range(size["seeds"])]
    return seed_grid(
        [StrategySpec.make(name) for name in strategies()],
        seeds,
        ScenarioSpec(horizon=size["horizon"]),
    )


def _sweep_pass(jobs, workers: int, cache_dir: Path, progress=None) -> Dict:
    """``etrain sweep --workers N --cache-dir <fresh>``: cold cache + journal."""
    from repro.sim.parallel import ExperimentExecutor, RunJournal, run_key_of

    started = time.perf_counter()
    run_key = run_key_of(job.content_hash() for job in jobs)
    journal = RunJournal.attach(
        cache_dir / "journal" / f"{run_key[:16]}.jsonl", run_key, len(jobs)
    )
    try:
        executor = ExperimentExecutor(
            workers=workers, cache_dir=cache_dir, journal=journal, progress=progress
        )
        results = executor.run(jobs)
    finally:
        journal.close()
    wall = time.perf_counter() - started
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "wall_s": wall,
        "summaries": [r.summary for r in results],
        "stats": executor.stats,
    }


def run_sweep_case(args, size: Dict) -> Dict:
    from repro.sim.parallel import run_job

    jobs = _sweep_jobs(args.seed, size)
    fresh = itertools.count()
    passes = _timed_reps(
        args.seconds,
        args.once,
        lambda: _sweep_pass(jobs, size["workers"], args.work / f"cache-{next(fresh)}"),
    )
    digests = {checks.digest(p["summaries"]) for p in passes}
    problems: List[str] = []
    if len(digests) != 1:
        problems.append("repeated passes produced different summaries")
    if args.check:
        step = max(1, len(jobs) // SAMPLE_JOBS)
        for i in range((args.seed % step), len(jobs), step):
            problems += checks.same_json(
                passes[0]["summaries"][i], run_job(jobs[i]), jobs[i].describe()
            )
    first = passes[0]
    result = {
        "attempted": len(jobs) * len(passes),
        "problems": problems,
        "digest": sorted(digests)[0],
        "throughput_per_s": rate(len(jobs), passes),
        "pass_wall_s": statistics.median(p["wall_s"] for p in passes),
        "pass_walls_s": [p["wall_s"] for p in passes],
        "timeline_pid": os.getpid(),
        "workers": size["workers"],
        "executor": {
            "retries": first["stats"].retries,
            "worker_failures": first["stats"].worker_failures,
        },
    }
    if args.dist:
        result["dist_dispatch_s"] = _dist_dispatch(jobs, size["workers"])
    return result


def _dist_dispatch(jobs, workers: int) -> float:
    """The same grid on spawned localhost lease workers (no cache)."""
    from repro.sim.dist import DistConfig, DistExecutor

    executor = DistExecutor(
        spawn_workers=workers, config=DistConfig(min_workers=workers)
    )
    executor.run(jobs)
    return executor.dispatch_wall


# -- serve ---------------------------------------------------------------


def spawn_daemon(trace_dir: Optional[Path], run_id: str, log: Path, env=None):
    """Start ``etrain serve`` (or the tracing launcher); return (proc, port).

    The daemon's stderr goes to ``log`` (its shutdown prints tracebacks).
    """
    if trace_dir is None:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    else:
        cmd = [
            sys.executable,
            str(HERE / "serve_launcher.py"),
            "--trace-dir",
            str(trace_dir),
            "--run-id",
            run_id,
            "--",
            "--port",
            "0",
        ]
    with open(log, "ab") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, env=env)
    line = proc.stdout.readline()
    if "listening on" not in line:
        stop_daemon(proc)
        raise RuntimeError(f"serve daemon did not start: {line!r}, see {log}")
    return proc, int(line.rsplit(":", 1)[1])


def cpu_seconds(pid: int) -> float:
    """User + system CPU time a live process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def stop_daemon(proc) -> None:
    """SIGINT (the daemon's clean shutdown); SIGTERM, then SIGKILL, if stuck."""
    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGKILL):
        if proc.poll() is None:
            proc.send_signal(sig)
        try:
            proc.wait(timeout=10)
            break
        except subprocess.TimeoutExpired:
            continue
    if proc.stdout is not None:
        proc.stdout.close()


def _stream_schedule(seed: int, size: Dict, seconds: float):
    """Interleaved per-device event streams covering ``seconds`` at ``rate``."""
    from repro.serve.loadgen import device_frames
    from repro.sim.fleet.workload import synthesize_fleet

    want = int(size["rate"] * seconds)
    devices = max(size["lanes"], 1)
    while True:
        workload = synthesize_fleet(devices, size["horizon"], seed=seed)
        streams = [device_frames(workload, d) for d in range(devices)]
        if sum(len(s) for s in streams) >= want:
            break
        devices *= 2
    # Keep the fewest whole devices that still fill the run.
    total, keep = 0, 0
    while total < want:
        total += len(streams[keep])
        keep += 1
    keep = max(keep, size["lanes"])
    lanes: List[List[Dict]] = [[] for _ in range(size["lanes"])]
    for d in range(keep):
        lanes[d % len(lanes)].extend(streams[d])
    frames: List[Dict] = []
    depth = max(len(lane) for lane in lanes)
    for i in range(depth):
        for lane in lanes:
            if i < len(lane):
                frames.append(lane[i])
    return frames, keep


async def _drive(port: int, frames: List[Dict], due: List[float], state: Dict,
                 on_idle=None) -> None:
    """Send ``frames`` at their due times on one connection; time replies."""
    from repro.serve.protocol import encode_frame
    from repro.workload.trace_io import NdjsonDecoder

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses: List[Optional[Dict]] = [None] * len(frames)
    latency = [0.0] * len(frames)
    late: List[float] = []
    sent = [0]

    async def send() -> None:
        i = 0
        while i < len(frames):
            now = time.perf_counter()
            if due[i] - now > SPIN_S:
                # The loop's timer rounds sleeps up to whole milliseconds;
                # wake early and spin the rest so sends leave on time.
                await asyncio.sleep(due[i] - now - SPIN_S)
            while time.perf_counter() < due[i]:
                pass
            now = time.perf_counter()
            while i < len(frames) and due[i] <= now:
                frame = dict(frames[i])
                frame["id"] = i
                writer.write(encode_frame(frame))
                late.append(now - due[i])
                i += 1
                sent[0] = i
            await writer.drain()

    async def receive() -> None:
        decoder = NdjsonDecoder()
        answered = 0
        while answered < len(frames):
            data = await reader.read(1 << 16)
            if not data:
                raise ConnectionError(f"daemon closed with {len(frames) - answered} pending")
            now = time.perf_counter()
            for frame in decoder.feed(data):
                if frame.is_blank:
                    continue
                if frame.error is not None:
                    raise frame.error
                i = frame.obj["id"]
                responses[i] = frame.obj
                latency[i] = now - due[i]
                answered += 1
            if on_idle is not None and answered == sent[0]:
                on_idle(now)
        state["last_response"] = now

    try:
        await asyncio.gather(send(), receive())
    finally:
        writer.close()
        await writer.wait_closed()
    state.update(responses=responses, latency=latency, late=late)


async def _serve_pass(port: int, seed: int, size: Dict, seconds: float) -> Dict:
    frames, devices = _stream_schedule(seed, size, seconds)
    bulk: List[Dict] = []
    span = len(frames) / size["rate"]
    t = size["bulk_every"] / 2
    while t < span:
        bulk.append(
            {
                "op": "batch",
                "strategy": "etrain",
                "devices": size["bulk_devices"],
                "device_offset": 10_000 + len(bulk) * size["bulk_devices"],
                "horizon": size["horizon"],
                "seed": seed,
            }
        )
        t += size["bulk_every"]
    idle: List[float] = []
    t0 = time.perf_counter() + 0.05
    per_tick = max(1, round(size["rate"] * size["tick"]))
    due = [t0 + (i // per_tick) * size["tick"] for i in range(len(frames))]
    bulk_due = [t0 + size["bulk_every"] / 2 + k * size["bulk_every"] for k in range(len(bulk))]
    stream, heavy = {}, {}
    await asyncio.gather(
        _drive(port, frames, due, stream, on_idle=idle.append),
        _drive(port, bulk, bulk_due, heavy),
    )
    return {
        "t0": t0,
        "frames": frames,
        "devices": devices,
        "stream": stream,
        "bulk": heavy,
        "bulk_frames": bulk,
        "bulk_due": bulk_due,
        "idle": idle,
    }


async def _batch_answers(port: int, seed: int, size: Dict, devices: int) -> List[Dict]:
    """One-device ``batch`` answers for devices ``[0, devices)`` (coalesced)."""
    frames = [
        {
            "op": "batch",
            "strategy": "etrain",
            "devices": 1,
            "device_offset": d,
            "horizon": size["horizon"],
            "seed": seed,
        }
        for d in range(devices)
    ]
    state: Dict = {}
    now = time.perf_counter()
    await _drive(port, frames, [now] * len(frames), state)
    return state["responses"]


def _check_serve(p: Dict, answers: List[Dict]) -> List[str]:
    problems = []
    closes = {}
    for frame, response in zip(p["frames"], p["stream"]["responses"]):
        if frame["op"] == "close" and response.get("ok"):
            closes[int(frame["device"].split("-")[1])] = response["fleet"]
    if len(closes) != p["devices"]:
        problems.append(f"{p['devices'] - len(closes)} streamed device(s) never closed")
    for d, fleet in sorted(closes.items()):
        answer = answers[d]
        if not answer.get("ok"):
            problems.append(f"batch answer for device {d} failed: {answer.get('error')}")
            continue
        problems += [f"device {d}: {x}" for x in checks.summaries_match(fleet, answer["fleet"], 1e-6)]
    for frame, response in zip(p["bulk_frames"], p["bulk"]["responses"]):
        if response.get("ok"):
            problems += checks.summary_sane(response["fleet"], frame["devices"])
    return problems


def run_serve_case(args, size: Dict) -> Dict:
    proc, port = spawn_daemon(
        args.trace_dir, f"{args.workload}-{args.seed}", args.work / "daemon.log"
    )
    try:
        cpu_before = cpu_seconds(proc.pid)
        p = asyncio.run(_serve_pass(port, args.seed, size, args.seconds))
        # Floored at one clock tick, the resolution of the reading.
        daemon_cpu = max(cpu_seconds(proc.pid) - cpu_before, 1 / os.sysconf("SC_CLK_TCK"))
        answers = (
            asyncio.run(_batch_answers(port, args.seed, size, p["devices"]))
            if args.check
            else []
        )
    finally:
        stop_daemon(proc)
    stream, bulk = p["stream"], p["bulk"]
    ok = [r is not None and r.get("ok") for r in stream["responses"]]
    bulk_ok = [r is not None and r.get("ok") for r in bulk["responses"]]
    failed = ok.count(False) + bulk_ok.count(False)
    late_ms = [x * 1e3 for x in stream["late"] + bulk["late"]]
    late_p99 = percentile(late_ms, 99)
    problems = checks.open_loop_problems(late_p99, LATE_LIMIT_MS, p["bulk_due"], p["idle"])
    if args.check:
        problems += _check_serve(p, answers)
    lat = [t for t, good in zip(stream["latency"], ok) if good]
    bulk_lat = [t for t, good in zip(bulk["latency"], bulk_ok) if good]
    window = stream["last_response"] - p["t0"]
    payload = [r.get("fleet") for r in stream["responses"] if r and r.get("op") == "close"]
    payload += [r.get("fleet") for r in bulk["responses"] if r]
    return {
        "attempted": len(ok) + len(bulk_ok),
        "failed": failed,
        "problems": problems,
        "digest": checks.digest(payload),
        # Requests per daemon CPU second: the offered rate is fixed by the
        # open loop, so answered/window would only echo the schedule.
        "throughput_per_s": ok.count(True) / daemon_cpu,
        "daemon_cpu_s": daemon_cpu,
        "stream_samples": len(lat),
        "p50_ms": percentile(lat, 50) * 1e3,
        # A percentile is reported only with at least 10 samples beyond it.
        "p99_ms": percentile(lat, 99) * 1e3 if len(lat) >= 1000 else None,
        "bulk_samples": len(bulk_lat),
        "bulk_p50_ms": statistics.median(bulk_lat) * 1e3,
        "late_ms_p99": late_p99,
        "pass_wall_s": window,
        "pass_walls_s": [window],
        "timeline_pid": proc.pid,
    }


# -- entry ----------------------------------------------------------------

#: workload -> (body, whether spans are recorded in this process).  The
#: serve body is only a client; its spans come from the daemon.
CASES = {
    "fleet_etrain_2h": (run_fleet_case, True),
    "fleet_shootout_2h": (run_fleet_case, True),
    "sweep_pool_2h": (run_sweep_case, True),
    "serve_mixed_2h": (run_serve_case, False),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--once", action="store_true", help="one unit of work")
    parser.add_argument("--dist", action="store_true", help="also time lease workers")
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    args.check = args.trace_dir is None  # a traced run is never the one checked
    body, traced_here = CASES[args.workload]
    import_layers()
    tracer = None
    if args.trace_dir is not None and traced_here:
        from tracing import Tracer, install

        tracer = Tracer(f"{args.workload}-{args.seed}", args.trace_dir)
        install(tracer)
    size = SIZES["tiny" if args.tiny else "full"][args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    result = body(args, size)
    result.setdefault("failed", 0)
    if result["problems"]:
        result["failed"] = result["attempted"]
    if tracer is not None:
        tracer.flush()
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
