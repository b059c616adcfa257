"""Command-line interface: experiments and trace tooling.

Examples::

    etrain list                               # show available experiments
    etrain fig2                               # toy piggybacking example
    etrain fig7 --quick                       # shorter horizon
    etrain all --quick                        # every experiment
    etrain trace bandwidth --out bw.csv       # synthetic Wuhan 3G trace
    etrain trace cargo --out pkts.csv --rate 0.08
    etrain trace users --out users.csv
    etrain trace capture --out cap.csv --apps qq,netease
    etrain report --out report.md --quick   # full evaluation report
    etrain sweep --strategies immediate,etrain --seeds 5 --workers 4
    etrain sweep --param theta=0.5,1,2 --cache-dir .sweep-cache
    etrain fig8 --workers 4 --cache-dir .sweep-cache
    etrain serve --port 8075                # online scheduling daemon
    etrain loadgen --port 8075 --devices 16 # replay a fleet workload at it
    etrain loadgen --smoke                  # boot + replay in one process (CI)
    etrain fleet --devices 100000 --workers 4
    etrain fleet --devices 8192 --strategy immediate --out fleet.json
    etrain coordinate fleet --devices 8192 --bind 0.0.0.0:8076
    etrain worker --connect host:8076       # attach from any machine
    etrain serve --port 8075 --metrics-port 8080  # + HTTP metrics snapshot
    etrain record --strategy etrain --trace-out run.jsonl
    etrain trace-replay run.jsonl           # recompute metrics from events
    etrain sweep --seeds 3 --metrics-out metrics.json
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys
from typing import Any, Dict, List, Optional

from repro.experiments import ALL_EXPERIMENTS

__all__ = [
    "main",
    "build_parser",
    "run_trace_command",
    "run_sweep_command",
    "run_fleet_command",
    "run_serve_command",
    "run_loadgen_command",
    "run_record_command",
    "run_trace_replay_command",
    "run_coordinate_command",
    "run_worker_command",
]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="etrain",
        description=(
            "eTrain (ICDCS 2015) reproduction: regenerate any of the "
            "paper's tables and figures, or synthesise traces."
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id (e.g. fig7, table1), 'all', 'list', or "
            "'trace' for trace tooling"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use shorter horizons / coarser sweeps where supported",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan supported experiments across N forked lease workers",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache for supported experiments",
    )
    return parser


def build_trace_parser() -> argparse.ArgumentParser:
    """Parser for the ``etrain trace <kind>`` tooling."""
    parser = argparse.ArgumentParser(
        prog="etrain trace",
        description="Synthesise and save the library's trace artefacts.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)

    bandwidth = sub.add_parser("bandwidth", help="synthetic Wuhan 3G uplink trace")
    bandwidth.add_argument("--out", required=True, help="output CSV path")
    bandwidth.add_argument("--seed", type=int, default=20141208)
    bandwidth.add_argument("--duration", type=int, default=7200, help="seconds")

    cargo = sub.add_parser("cargo", help="synthetic cargo packet trace")
    cargo.add_argument("--out", required=True, help="output CSV path")
    cargo.add_argument("--rate", type=float, default=0.08, help="total packets/s")
    cargo.add_argument("--horizon", type=float, default=7200.0, help="seconds")
    cargo.add_argument("--seed", type=int, default=0)

    users = sub.add_parser("users", help="Luna-Weibo user behaviour sessions")
    users.add_argument("--out", required=True, help="output CSV path")
    users.add_argument("--seed", type=int, default=0)
    users.add_argument("--active", type=int, default=15)
    users.add_argument("--moderate", type=int, default=40)
    users.add_argument("--inactive", type=int, default=45)

    capture = sub.add_parser("capture", help="idle-traffic packet capture")
    capture.add_argument("--out", required=True, help="output CSV path")
    capture.add_argument(
        "--apps",
        default="qq,wechat,whatsapp",
        help="comma-separated train apps (incl. 'netease', 'renren')",
    )
    capture.add_argument("--duration", type=float, default=3600.0, help="seconds")
    return parser


def run_trace_command(argv: List[str]) -> int:
    """Execute ``etrain trace ...``; returns an exit code."""
    args = build_trace_parser().parse_args(argv)

    if args.kind == "bandwidth":
        from repro.bandwidth.synth import wuhan_trace

        trace = wuhan_trace(args.seed, duration=args.duration)
        trace.save_csv(args.out)
        print(
            f"wrote {len(trace)} samples to {args.out} "
            f"(mean {trace.mean / 1000:.1f} KB/s, cv {trace.coefficient_of_variation:.2f})"
        )
        return 0

    if args.kind == "cargo":
        from repro.workload.cargo import profiles_for_total_rate, synthesize_trace
        from repro.workload.trace_io import save_packets_csv

        profiles = profiles_for_total_rate(args.rate)
        packets = synthesize_trace(profiles, horizon=args.horizon, seed=args.seed)
        save_packets_csv(packets, args.out)
        print(
            f"wrote {len(packets)} packets to {args.out} "
            f"(lambda={args.rate}, horizon={args.horizon:.0f}s)"
        )
        return 0

    if args.kind == "users":
        from repro.workload.user_traces import (
            ActivityClass,
            generate_user_population,
            save_trace_csv,
        )

        population = generate_user_population(
            {
                ActivityClass.ACTIVE: args.active,
                ActivityClass.MODERATE: args.moderate,
                ActivityClass.INACTIVE: args.inactive,
            },
            seed=args.seed,
        )
        records = [r for session in population.values() for r in session]
        records.sort(key=lambda r: (r.user_id, r.time))
        save_trace_csv(records, args.out)
        print(
            f"wrote {len(records)} behaviour records "
            f"({len(population)} users) to {args.out}"
        )
        return 0

    if args.kind == "capture":
        from repro.heartbeat.apps import make_generator
        from repro.measurement.capture import capture_idle_traffic

        app_ids = [a.strip() for a in args.apps.split(",") if a.strip()]
        generators = [make_generator(a) for a in app_ids]
        capture = capture_idle_traffic(generators, args.duration)
        capture.save_csv(args.out)
        print(
            f"wrote {len(capture)} captured packets for {app_ids} to {args.out}"
        )
        return 0

    raise AssertionError(f"unhandled trace kind {args.kind!r}")


def build_sweep_parser() -> argparse.ArgumentParser:
    """Parser for the ``etrain sweep`` grid runner."""
    parser = argparse.ArgumentParser(
        prog="etrain sweep",
        description=(
            "Run a (strategy x seed x parameter) grid through the "
            "parallel experiment executor and summarise each cell group "
            "across seeds."
        ),
    )
    parser.add_argument(
        "--strategies",
        default="immediate,etrain,peres,etime",
        help="comma-separated registered strategy names",
    )
    parser.add_argument(
        "--seeds",
        default="5",
        help="seed count N (meaning 0..N-1) or explicit comma list",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help=(
            "sweep a strategy tunable over values; applies to every "
            "selected strategy that accepts it (repeatable)"
        ),
    )
    parser.add_argument("--horizon", type=float, default=7200.0, help="seconds")
    parser.add_argument(
        "--rate", type=float, default=None, help="total cargo arrival rate (pkts/s)"
    )
    parser.add_argument(
        "--power-model",
        default="galaxy_s4_3g",
        help="registered power model name",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "forked local lease workers (default: serial in-process); "
            "with --bind, local workers joining the coordinator"
        ),
    )
    parser.add_argument(
        "--cache-dir", default=None, help="on-disk result cache directory"
    )
    parser.add_argument(
        "--cache-prune",
        type=int,
        default=None,
        metavar="MAX_ENTRIES",
        help=(
            "after the sweep, prune the result cache down to its most "
            "recently touched MAX_ENTRIES entries (requires --cache-dir)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the merged per-worker metrics registry JSON here",
    )
    _add_fault_tolerance_args(parser)
    _add_dist_args(parser)
    return parser


def _add_dist_args(parser: argparse.ArgumentParser) -> None:
    """Coordinator flags shared by ``sweep`` and ``fleet``.

    ``--bind`` routes the grid through a listening coordinator
    (:class:`repro.sim.dist.DistExecutor`) that ``--workers N`` local
    workers join; ``--min-workers`` and ``--lease-timeout`` tune it and
    need ``--bind``.  Results are byte-identical to serial execution
    (see docs/parallelism.md).
    """
    parser.add_argument(
        "--bind",
        default=None,
        metavar="HOST:PORT",
        help=(
            "coordinator listen address for external `etrain worker "
            "--connect` processes (port 0 = ephemeral, printed)"
        ),
    )
    parser.add_argument(
        "--min-workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with --bind: hold all leases until N workers have connected "
            "(default: the --workers count)"
        ),
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "with --bind: revoke and requeue a leased job after this long "
            "without a worker heartbeat (default 30)"
        ),
    )


def _make_executor(args, **common):
    """The executor the placement flags describe (SystemExit 2 on bad)."""
    from repro.sim.dist import DistConfig, DistExecutor
    from repro.sim.parallel import ExperimentExecutor

    spawn = args.workers or 0
    if args.workers is not None and spawn < 1:
        print(f"--workers must be >= 1, got {spawn}", file=sys.stderr)
        raise SystemExit(2)
    if args.bind is None:
        # Both tune a listening coordinator.  Without one no external
        # worker can join, so a barrier above --workers never opens.
        if args.min_workers is not None or args.lease_timeout != 30.0:
            print("--min-workers/--lease-timeout requires --bind", file=sys.stderr)
            raise SystemExit(2)
        return ExperimentExecutor(workers=args.workers, **common)
    host, sep, port_text = args.bind.rpartition(":")
    if not sep or not host or not port_text.isdigit():
        print(f"--bind wants HOST:PORT, got {args.bind!r}", file=sys.stderr)
        raise SystemExit(2)
    config = DistConfig(
        host=host,
        port=int(port_text),
        min_workers=args.min_workers if args.min_workers is not None else spawn,
        lease_timeout=args.lease_timeout,
    )
    return DistExecutor(spawn_workers=spawn, config=config, announce=print, **common)


def _add_fault_tolerance_args(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``sweep`` and ``fleet`` (see docs/robustness.md)."""
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume a previously killed run of the same grid from its "
            "checkpoint journal (requires --cache-dir)"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retry a job lost to a worker crash/hang up to N times (default 2)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "retry any job leased longer than this, killing its local "
            "worker (default: no timeout)"
        ),
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "inject deterministic worker faults, e.g. "
            "'crash=0.2,hang=0.05,seed=3' (testing; also honours the "
            "ETRAIN_FAULTS environment variable)"
        ),
    )


def _build_retry_policy(args):
    """A RetryPolicy from CLI flags, or None for executor defaults."""
    if args.max_retries is None and args.job_timeout is None:
        return None
    import dataclasses

    from repro.sim.parallel import RetryPolicy

    policy = RetryPolicy()
    if args.max_retries is not None:
        policy = dataclasses.replace(policy, max_retries=args.max_retries)
    if args.job_timeout is not None:
        policy = dataclasses.replace(policy, job_timeout=args.job_timeout)
    return policy


def _build_fault_plan(args):
    """The FaultPlan from --faults or ETRAIN_FAULTS, or None."""
    from repro.faults import FaultPlan

    if args.faults:
        try:
            return FaultPlan.parse(args.faults)
        except ValueError as exc:
            print(f"bad --faults spec: {exc}", file=sys.stderr)
            raise SystemExit(2)
    return FaultPlan.from_env()


def _attach_journal(args, run_key: str, total_jobs: int):
    """Open the run's checkpoint journal under the cache directory.

    Returns (journal, exit_code): journal is None either on error
    (exit_code set) or when there is no --cache-dir to journal into
    (checkpointing without a result cache cannot make resume cheap, so
    it is pointless — a bare run just recomputes).
    """
    from pathlib import Path

    from repro.sim.parallel import JournalMismatchError, RunJournal

    if args.cache_dir is None:
        if args.resume:
            print(
                "--resume requires --cache-dir (results are resumed from "
                "the cache; the journal only tracks progress)",
                file=sys.stderr,
            )
            return None, 2
        return None, None
    path = Path(args.cache_dir) / "journal" / f"{run_key[:16]}.jsonl"
    try:
        journal = RunJournal.attach(
            path, run_key, total_jobs, resume=args.resume
        )
    except JournalMismatchError as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return None, 2
    if args.resume:
        print(f"resuming: {journal.describe()}")
    return journal, None


def _parse_seeds(text: str) -> List[int]:
    if "," in text:
        return [int(s) for s in text.split(",") if s.strip()]
    return list(range(int(text)))


def _parse_param_value(text: str) -> Any:
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_param_grids(options: List[str]) -> Dict[str, List[Any]]:
    grids: Dict[str, List[Any]] = {}
    for option in options:
        name, _, values = option.partition("=")
        if not values:
            raise SystemExit(f"--param needs NAME=V1,V2,... (got {option!r})")
        grids[name.strip()] = [
            _parse_param_value(v) for v in values.split(",") if v.strip()
        ]
    return grids


def _strategy_variants(name: str, grids: Dict[str, List[Any]]) -> List[Dict[str, Any]]:
    """Cross-product of the swept params this strategy accepts."""
    from itertools import product

    from repro.sim.parallel import strategy_param_names

    accepted = [p for p in grids if p in strategy_param_names(name)]
    if not accepted:
        return [{}]
    return [
        dict(zip(accepted, combo))
        for combo in product(*(grids[p] for p in accepted))
    ]


def run_sweep_command(argv: List[str]) -> int:
    """Execute ``etrain sweep ...``; returns an exit code."""
    from repro.analysis.multiseed import summarize
    from repro.sim.parallel import (
        STRATEGY_BUILDERS,
        JobSpec,
        ScenarioSpec,
        StrategySpec,
    )

    args = build_sweep_parser().parse_args(argv)

    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    unknown = [s for s in strategies if s not in STRATEGY_BUILDERS]
    if unknown:
        print(
            f"unknown strategies {unknown}; available: "
            f"{sorted(STRATEGY_BUILDERS)}",
            file=sys.stderr,
        )
        return 2
    seeds = _parse_seeds(args.seeds)
    grids = _parse_param_grids(args.param)

    from repro.sim.parallel import strategy_param_names

    for param in grids:
        if not any(param in strategy_param_names(s) for s in strategies):
            print(
                f"warning: --param {param} matches no selected strategy; "
                "ignored",
                file=sys.stderr,
            )

    jobs: List[JobSpec] = []
    groups: List[tuple] = []  # parallel to jobs: (strategy spec, seed)
    for name in strategies:
        for params in _strategy_variants(name, grids):
            try:
                spec = StrategySpec.make(name, **params)
            except ValueError as exc:
                print(f"invalid strategy params: {exc}", file=sys.stderr)
                return 2
            for seed in seeds:
                scenario = ScenarioSpec(
                    seed=seed,
                    horizon=args.horizon,
                    rate=args.rate,
                    power_model=args.power_model,
                )
                jobs.append(
                    JobSpec(spec, scenario, tag=f"{spec.describe()} seed={seed}")
                )
                groups.append((spec, seed))

    from repro.sim.parallel import run_key_of

    run_key = run_key_of(job.content_hash() for job in jobs)
    journal, code = _attach_journal(args, run_key, len(jobs))
    if code is not None:
        return code
    common = dict(
        cache_dir=args.cache_dir,
        progress=None if args.quiet else print,
        retry=_build_retry_policy(args),
        faults=_build_fault_plan(args),
        journal=journal,
    )
    executor = _make_executor(args, **common)
    try:
        results = executor.run(jobs)
    finally:
        if journal is not None:
            journal.close()

    # Aggregate each strategy variant across its seeds.
    by_variant: Dict[Any, List[Dict[str, float]]] = {}
    order: List[Any] = []
    for (spec, _seed), result in zip(groups, results):
        if spec not in by_variant:
            by_variant[spec] = []
            order.append(spec)
        by_variant[spec].append(result.summary)

    from repro.analysis.summarize import format_table

    rows = []
    for spec in order:
        summaries = by_variant[spec]
        energy = summarize(
            "energy", [s["total_energy_j"] for s in summaries]
        )
        delay = summarize(
            "delay", [s["normalized_delay_s"] for s in summaries]
        )
        rows.append(
            [
                spec.describe(),
                energy.mean,
                energy.ci95_half_width,
                delay.mean,
                delay.ci95_half_width,
                len(summaries),
            ]
        )
    print(
        format_table(
            ["strategy", "energy (J)", "±95%", "delay (s)", "±95%", "seeds"],
            rows,
            title=(
                f"Sweep: {len(jobs)} jobs over {len(seeds)} seed(s), "
                f"horizon {args.horizon:.0f}s"
            ),
        )
    )
    print(executor.stats.describe())
    if args.metrics_out is not None:
        executor.metrics.dump_json(args.metrics_out)
        print(f"wrote {len(executor.metrics)} metric(s) to {args.metrics_out}")
    cache_line = executor.describe_cache()
    if cache_line is not None:
        print(cache_line)
    if args.cache_prune is not None:
        if executor.cache is None:
            print("--cache-prune ignored: no --cache-dir given", file=sys.stderr)
        else:
            removed = executor.cache.prune(max_entries=args.cache_prune)
            print(
                f"pruned {removed} cache entrie(s); "
                f"{len(executor.cache)} remain"
            )
    return 0


def build_record_parser() -> argparse.ArgumentParser:
    """Parser for ``etrain record`` instrumented single runs."""
    parser = argparse.ArgumentParser(
        prog="etrain record",
        description=(
            "Run one (scenario, strategy) simulation with the structured "
            "event tracer attached and stream its trace to a JSONL file; "
            "replay it with `etrain trace-replay`."
        ),
    )
    parser.add_argument(
        "--strategy", default="etrain", help="registered strategy name"
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="strategy parameter override (repeatable), e.g. theta=0.5",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--horizon", type=float, default=7200.0, help="seconds")
    parser.add_argument(
        "--rate", type=float, default=None, help="total cargo arrival rate (pkts/s)"
    )
    parser.add_argument("--power-model", default="galaxy_s4_3g")
    parser.add_argument(
        "--trace-out", required=True, help="output JSONL trace path"
    )
    parser.add_argument(
        "--metrics-out", default=None, help="write the run's metrics registry JSON"
    )
    return parser


def run_record_command(argv: List[str]) -> int:
    """Execute ``etrain record ...``; returns an exit code."""
    from repro.obs import JsonlRecorder, metrics_scope
    from repro.obs.events import app_cost_table
    from repro.sim.engine import Simulation
    from repro.sim.parallel import STRATEGY_BUILDERS, ScenarioSpec, StrategySpec

    args = build_record_parser().parse_args(argv)
    if args.strategy not in STRATEGY_BUILDERS:
        print(
            f"unknown strategy {args.strategy!r}; available: "
            f"{sorted(STRATEGY_BUILDERS)}",
            file=sys.stderr,
        )
        return 2
    params = {}
    for item in args.param:
        if "=" not in item:
            print(f"bad --param {item!r}; expected NAME=VALUE", file=sys.stderr)
            return 2
        key, _, value = item.partition("=")
        params[key.strip()] = _parse_param_value(value)
    try:
        spec = StrategySpec.make(args.strategy, **params)
    except ValueError as exc:
        print(f"invalid strategy params: {exc}", file=sys.stderr)
        return 2

    scenario = ScenarioSpec(
        seed=args.seed,
        horizon=args.horizon,
        rate=args.rate,
        power_model=args.power_model,
    ).build()
    strategy = spec.build(scenario)
    with metrics_scope() as registry, JsonlRecorder(args.trace_out) as recorder:
        sim = Simulation(
            strategy,
            scenario.train_generators,
            scenario.fresh_packets(),
            power_model=scenario.power_model,
            bandwidth=scenario.bandwidth,
            horizon=scenario.horizon,
            slot=scenario.slot,
            recorder=recorder,
            trace_app_costs=app_cost_table(scenario.profiles),
        )
        result = sim.run()
    print(
        f"wrote {recorder.count} events to {args.trace_out} "
        f"({args.strategy}, seed {args.seed}, horizon {args.horizon:.0f}s)"
    )
    summary = result.summary()
    for key in sorted(summary):
        print(f"  {key:26s} {summary[key]:.6g}")
    if args.metrics_out is not None:
        registry.dump_json(args.metrics_out)
        print(f"wrote {len(registry)} metric(s) to {args.metrics_out}")
    return 0


def run_trace_replay_command(argv: List[str]) -> int:
    """Execute ``etrain trace-replay <trace.jsonl>``; returns an exit code.

    Exit status 0 means every replayed metric equals the recorded
    ``run_end`` summary exactly; 1 means the trace and its summary
    disagree (a correctness failure, not a tolerance issue); 2 means the
    trace cannot be replayed at all; 3 means the file is truncated — it
    ends in a torn partial line, i.e. the recording process was killed
    mid-write.
    """
    import json

    from repro.obs import TruncatedTraceError, read_jsonl
    from repro.obs.replay import REPLAYED_KEYS, verify_trace

    parser = argparse.ArgumentParser(
        prog="etrain trace-replay",
        description=(
            "Recompute a recorded run's summary metrics (total energy, "
            "piggyback ratio, delay cost, ...) from its event trace alone "
            "and verify them against the trace's run_end summary."
        ),
    )
    parser.add_argument("trace", help="JSONL trace written by `etrain record`")
    parser.add_argument(
        "--json", default=None, help="write the replayed summary JSON here"
    )
    args = parser.parse_args(argv)

    try:
        events = read_jsonl(args.trace)
    except TruncatedTraceError as exc:
        print(f"truncated trace: {exc}", file=sys.stderr)
        print(
            f"  {exc.valid_lines} intact event(s) precede the torn tail; "
            "the recorder was likely killed mid-write",
            file=sys.stderr,
        )
        return 3
    try:
        ok, replayed, recorded, mismatches = verify_trace(events)
    except ValueError as exc:
        print(f"cannot replay {args.trace}: {exc}", file=sys.stderr)
        return 2
    width = max(len(k) for k in REPLAYED_KEYS)
    for key in REPLAYED_KEYS:
        flag = "==" if replayed.get(key) == recorded.get(key) else "!="
        print(
            f"  {key:{width}s}  replayed {replayed.get(key):.17g}  "
            f"{flag} recorded {recorded.get(key, float('nan')):.17g}"
        )
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(replayed, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    if not ok:
        for line in mismatches:
            print(f"MISMATCH: {line}", file=sys.stderr)
        return 1
    print(f"replayed {len(events)} events: all metrics reproduced exactly")
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser for the ``etrain serve`` daemon."""
    parser = argparse.ArgumentParser(
        prog="etrain serve",
        description=(
            "Run the online scheduling service: per-device event streams "
            "(heartbeats, cargo arrivals) over NDJSON TCP, piggyback "
            "decisions back in real time (see docs/serving.md)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral, printed)"
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=4096,
        help="session-store capacity before LRU eviction (default 4096)",
    )
    parser.add_argument(
        "--inbox-capacity",
        type=int,
        default=8192,
        help="admission-queue hard capacity (default 8192)",
    )
    parser.add_argument(
        "--inbox-watermark",
        type=int,
        default=None,
        help="backlog at which requests are shed with retry_after "
        "(default: equal to capacity)",
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=256,
        help="max frames per processor micro-batch (default 256)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "also serve a one-endpoint HTTP introspection listener: any "
            "GET returns a JSON snapshot of the metrics registry plus "
            "session-store and inbox gauges (0 = ephemeral, printed)"
        ),
    )
    return parser


def run_serve_command(argv: List[str]) -> int:
    """Execute ``etrain serve ...``; blocks until interrupted."""
    from repro.serve.server import ServeConfig, run_serve

    args = build_serve_parser().parse_args(argv)
    return run_serve(
        ServeConfig(
            host=args.host,
            port=args.port,
            max_sessions=args.max_sessions,
            inbox_capacity=args.inbox_capacity,
            inbox_watermark=args.inbox_watermark,
            batch_max=args.batch_max,
            metrics_port=args.metrics_port,
        )
    )


def build_loadgen_parser() -> argparse.ArgumentParser:
    """Parser for the ``etrain loadgen`` replay client."""
    parser = argparse.ArgumentParser(
        prog="etrain loadgen",
        description=(
            "Replay a synthesized fleet workload against a live "
            "'etrain serve' instance and report decisions/sec plus "
            "p50/p95/p99 request latency."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="server address")
    parser.add_argument(
        "--port", type=int, default=None, help="server port (required unless --smoke)"
    )
    parser.add_argument(
        "--devices", type=int, default=4, help="workload population (default 4)"
    )
    parser.add_argument(
        "--horizon", type=float, default=450.0, help="per-device horizon seconds"
    )
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--strategy", default="etrain", help="strategy every session runs"
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="strategy parameter (repeatable)",
    )
    parser.add_argument(
        "--connections", type=int, default=2, help="concurrent TCP connections"
    )
    parser.add_argument(
        "--window", type=int, default=64, help="max in-flight requests per connection"
    )
    parser.add_argument(
        "--bulk",
        action="store_true",
        help="replay via the batched decision path ('batch' frames over "
        "contiguous device ranges, fused server-side into vectorized "
        "fleet-kernel calls) instead of per-device event streams",
    )
    parser.add_argument(
        "--bulk-ranges",
        type=int,
        default=4,
        help="contiguous device ranges in a --bulk replay (default 4)",
    )
    parser.add_argument(
        "--out", default=None, help="also write the report JSON here"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="boot an in-process server on an ephemeral port, replay the "
        "default workload at it, and require a non-zero decision count "
        "(the CI health check)",
    )
    return parser


def run_loadgen_command(argv: List[str]) -> int:
    """Execute ``etrain loadgen ...``; returns an exit code."""
    import asyncio
    import json

    from repro.serve.loadgen import LoadgenConfig, run_loadgen

    args = build_loadgen_parser().parse_args(argv)
    params: Dict[str, Any] = {}
    for option in args.param:
        key, _, value = option.partition("=")
        params[key.strip()] = _parse_param_value(value)
    config = LoadgenConfig(
        host=args.host,
        port=args.port if args.port is not None else 0,
        devices=args.devices,
        horizon=args.horizon,
        seed=args.seed,
        strategy=args.strategy,
        params=params,
        connections=args.connections,
        window=args.window,
        bulk=args.bulk,
        bulk_ranges=args.bulk_ranges,
    )

    if args.smoke:
        from repro.serve.server import EtrainServer, ServeConfig

        async def _smoke() -> Dict[str, Any]:
            server = EtrainServer(ServeConfig())
            await server.start()
            try:
                config.host, config.port = server.host, server.port
                return await run_loadgen(config)
            finally:
                await server.stop()

        report = asyncio.run(_smoke())
    elif args.port is None:
        print("loadgen: --port is required unless --smoke", file=sys.stderr)
        return 2
    else:
        report = asyncio.run(run_loadgen(config))

    if args.bulk:
        print(
            f"{report['requests']} batch requests "
            f"(coalesced up to {report['coalesced']}) in "
            f"{report['wall_s']:.3f}s: {report['devices_per_s']:.0f} devices/s, "
            f"{report['packets_per_s']:.0f} packets/s, "
            f"latency p99 {report['latency_p99_ms']:.2f} ms"
        )
    else:
        print(
            f"{report['requests']} requests over {report['connections']} conn in "
            f"{report['wall_s']:.3f}s: {report['decisions_per_s']:.0f} decisions/s, "
            f"latency p50 {report['latency_p50_ms']:.2f} ms / "
            f"p95 {report['latency_p95_ms']:.2f} ms / "
            f"p99 {report['latency_p99_ms']:.2f} ms"
        )
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote report to {args.out}")
    if args.smoke and not args.bulk and report["decisions"] <= 0:
        print("loadgen: smoke run produced no decisions", file=sys.stderr)
        return 1
    if args.smoke and args.bulk and report["packets"] <= 0:
        print("loadgen: bulk smoke run produced no packets", file=sys.stderr)
        return 1
    return 0


def build_fleet_parser() -> argparse.ArgumentParser:
    """Parser for ``etrain fleet`` population-scale runs."""
    parser = argparse.ArgumentParser(
        prog="etrain fleet",
        description=(
            "Simulate a large device population through the vectorized "
            "fleet engine (chunked, streaming aggregation; strategies "
            "without a vectorized path fall back to the scalar loop)."
        ),
    )
    parser.add_argument(
        "--devices", type=int, default=8192, help="population size (default 8192)"
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=8192,
        help="devices simulated per chunk; bounds worker memory (default 8192)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "fan chunks across N forked lease workers (default: "
            "in-process); with --bind, local workers joining the coordinator"
        ),
    )
    parser.add_argument(
        "--strategy",
        default="etrain",
        help="strategy name (default etrain); non-vectorizable strategies "
        "run through the scalar fallback",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="strategy parameter override (repeatable), e.g. theta=0.5",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--horizon", type=float, default=7200.0, help="simulated seconds"
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="total cargo packet rate (packets/s); default: Sec. VI-A mix",
    )
    parser.add_argument("--power-model", default="galaxy_s4_3g")
    parser.add_argument(
        "--phase-mode",
        choices=("fixed", "random"),
        default="fixed",
        help="'random' staggers each device's heartbeat phases uniformly",
    )
    parser.add_argument(
        "--cache-dir", default=None, help="on-disk chunk-result cache"
    )
    parser.add_argument(
        "--out", default=None, help="write the merged summary JSON here"
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the merged per-worker metrics registry JSON here",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-chunk progress"
    )
    _add_fault_tolerance_args(parser)
    _add_dist_args(parser)
    return parser


def run_fleet_command(argv: List[str]) -> int:
    """Execute ``etrain fleet ...``; returns an exit code."""
    import json

    from repro.obs.metrics import MetricsRegistry
    from repro.sim.fleet import FleetSpec, run_fleet

    args = build_fleet_parser().parse_args(argv)
    params = {}
    for item in args.param:
        if "=" not in item:
            print(f"bad --param {item!r}; expected NAME=VALUE", file=sys.stderr)
            return 2
        key, _, value = item.partition("=")
        params[key.strip()] = _parse_param_value(value)
    try:
        spec = FleetSpec.make(
            args.devices,
            args.strategy,
            params=params,
            chunk_size=args.chunk_size,
            seed=args.seed,
            horizon=args.horizon,
            rate=args.rate,
            power_model=args.power_model,
            phase_mode=args.phase_mode,
        )
    except (KeyError, ValueError) as exc:
        print(f"invalid fleet spec: {exc}", file=sys.stderr)
        return 2
    journal, code = _attach_journal(args, spec.content_hash(), spec.n_chunks)
    if code is not None:
        return code
    try:
        result = run_fleet(
            spec,
            cache_dir=args.cache_dir,
            progress=None if args.quiet else print,
            retry=_build_retry_policy(args),
            faults=_build_fault_plan(args),
            journal=journal,
            make_executor=functools.partial(_make_executor, args),
        )
    finally:
        if journal is not None:
            journal.close()
    print(result.describe())
    if not result.vectorized:
        print(
            f"warning: strategy {spec.strategy!r} with this configuration has "
            "no vectorized fleet kernel — ran the per-device scalar fallback "
            "(identical results, scalar speed; see docs/observability.md)",
            file=sys.stderr,
        )
    stats = result.executor_stats
    if stats.worker_failures or stats.timeouts or stats.retries:
        print(stats.describe())
    summary = result.summary.summary()
    for key in sorted(summary):
        print(f"  {key:26s} {summary[key]:.6g}")
    if not args.quiet:
        print("phases:")
        for name, v in result.phases.items():
            print(
                f"  {name:16s} wall {v['wall_s'] * 1e3:9.2f} ms  "
                f"cpu {v['cpu_s'] * 1e3:9.2f} ms"
            )
    if args.metrics_out is not None:
        MetricsRegistry.from_dict(result.metrics).dump_json(args.metrics_out)
        print(f"wrote {len(result.metrics)} metric(s) to {args.metrics_out}")
    if args.out is not None:
        doc = {
            "spec": {
                "devices": spec.devices,
                "chunk_size": spec.chunk_size,
                "strategy": spec.strategy,
                "params": dict(spec.params),
                "seed": spec.seed,
                "horizon": spec.horizon,
                "rate": spec.rate,
                "power_model": spec.power_model,
                "phase_mode": spec.phase_mode,
            },
            "vectorized": result.vectorized,
            "wall_time_s": result.wall_time,
            "devices_per_sec": result.devices_per_sec,
            "peak_rss_bytes": result.peak_rss,
            "chunks": result.chunks,
            "cached_chunks": result.cached_chunks,
            "summary": summary,
            "phases": result.phases,
            "metrics": result.metrics,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def run_coordinate_command(argv: List[str]) -> int:
    """Execute ``etrain coordinate (sweep|fleet) ...``; returns an exit code.

    A thin front on the sweep/fleet commands that forces distributed
    mode with an announced listen address: the coordinator owns the
    journal and cache, external ``etrain worker --connect`` processes do
    the simulating.  All sweep/fleet flags (``--cache-dir``,
    ``--resume``, ``--faults``, ...) apply unchanged.
    """
    usage = (
        "usage: etrain coordinate (sweep|fleet) [options]\n"
        "Run a sweep/fleet grid as a TCP chunk coordinator for external\n"
        "`etrain worker --connect HOST:PORT` processes.  Adds --bind\n"
        "127.0.0.1:0 (ephemeral, printed) unless --bind is given; combine\n"
        "with --workers N for N forked local workers and --min-workers N\n"
        "to hold leases until N workers attach.\n"
        "See docs/parallelism.md."
    )
    if argv and argv[0] in ("-h", "--help"):
        print(usage)
        return 0
    if not argv or argv[0] not in ("sweep", "fleet"):
        print(usage, file=sys.stderr)
        return 2
    sub, rest = argv[0], argv[1:]
    if not any(a == "--bind" or a.startswith("--bind=") for a in rest):
        rest = ["--bind", "127.0.0.1:0"] + rest
    if sub == "sweep":
        return run_sweep_command(rest)
    return run_fleet_command(rest)


def run_worker_command(argv: List[str]) -> int:
    """Execute ``etrain worker --connect HOST:PORT``; returns an exit code."""
    from repro.sim.dist.worker import main as worker_main

    return worker_main(argv)


def _run_one(name: str, quick: bool, executor=None) -> None:
    module = ALL_EXPERIMENTS[name]
    main_fn = module.main
    params = inspect.signature(main_fn).parameters
    kwargs = {}
    # Forward --quick / the executor only where main() accepts them.
    if "quick" in params:
        kwargs["quick"] = quick
    if "executor" in params and executor is not None:
        kwargs["executor"] = executor
    main_fn(**kwargs)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)

    if argv and argv[0] == "trace":
        return run_trace_command(argv[1:])

    if argv and argv[0] == "sweep":
        return run_sweep_command(argv[1:])

    if argv and argv[0] == "record":
        return run_record_command(argv[1:])

    if argv and argv[0] == "trace-replay":
        return run_trace_replay_command(argv[1:])

    if argv and argv[0] == "fleet":
        return run_fleet_command(argv[1:])

    if argv and argv[0] == "serve":
        return run_serve_command(argv[1:])

    if argv and argv[0] == "loadgen":
        return run_loadgen_command(argv[1:])

    if argv and argv[0] == "coordinate":
        return run_coordinate_command(argv[1:])

    if argv and argv[0] == "worker":
        return run_worker_command(argv[1:])

    if argv and argv[0] == "report":
        report_parser = argparse.ArgumentParser(prog="etrain report")
        report_parser.add_argument("--out", required=True, help="output .md path")
        report_parser.add_argument("--quick", action="store_true")
        report_parser.add_argument(
            "--only", default="", help="comma-separated experiment ids"
        )
        report_args = report_parser.parse_args(argv[1:])
        from repro.analysis.report import write_report

        only = [x.strip() for x in report_args.only.split(",") if x.strip()]
        path = write_report(
            report_args.out, only or None, quick=report_args.quick
        )
        print(f"wrote report to {path}")
        return 0

    args = build_parser().parse_args(argv)
    name = args.experiment.lower()

    executor = None
    if args.workers is not None or args.cache_dir is not None:
        from repro.sim.parallel import ExperimentExecutor

        executor = ExperimentExecutor(
            workers=args.workers, cache_dir=args.cache_dir
        )

    if name == "list":
        for key, module in ALL_EXPERIMENTS.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{key:9s} {doc}")
        return 0

    if name == "all":
        for key in ALL_EXPERIMENTS:
            print(f"=== {key} " + "=" * (60 - len(key)))
            _run_one(key, args.quick, executor)
            print()
        if executor is not None:
            print(executor.stats.describe())
        return 0

    if name not in ALL_EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; try 'list'",
            file=sys.stderr,
        )
        return 2

    _run_one(name, args.quick, executor)
    if executor is not None and executor.stats.jobs_total:
        print(executor.stats.describe())
    return 0


if __name__ == "__main__":
    sys.exit(main())
