"""Unit tests for the CLI."""

import signal

import pytest

from repro.cli import build_parser, main
from repro.experiments import ALL_EXPERIMENTS


class TestParser:
    def test_parses_experiment(self):
        args = build_parser().parse_args(["fig2"])
        assert args.experiment == "fig2"
        assert not args.quick

    def test_quick_flag(self):
        args = build_parser().parse_args(["fig7", "--quick"])
        assert args.quick


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_light_experiment(self, capsys):
        assert main(["fig6"]) == 0
        assert "delay cost functions" in capsys.readouterr().out

    def test_case_insensitive(self, capsys):
        assert main(["FIG6"]) == 0

    def test_registry_modules_all_have_main(self):
        for module in ALL_EXPERIMENTS.values():
            assert callable(module.main)


class TestTraceTooling:
    def test_bandwidth_trace(self, tmp_path, capsys):
        out = tmp_path / "bw.csv"
        assert main(["trace", "bandwidth", "--out", str(out), "--duration", "120"]) == 0
        from repro.bandwidth.trace import BandwidthTrace

        trace = BandwidthTrace.load_csv(out)
        assert len(trace) == 120

    def test_cargo_trace(self, tmp_path, capsys):
        out = tmp_path / "pkts.csv"
        assert main(
            ["trace", "cargo", "--out", str(out), "--rate", "0.08",
             "--horizon", "1000"]
        ) == 0
        from repro.workload.trace_io import load_packets_csv

        packets = load_packets_csv(out)
        assert len(packets) > 20
        assert {p.app_id for p in packets} == {"mail", "weibo", "cloud"}

    def test_users_trace(self, tmp_path, capsys):
        out = tmp_path / "users.csv"
        assert main(
            ["trace", "users", "--out", str(out), "--active", "1",
             "--moderate", "1", "--inactive", "1"]
        ) == 0
        from repro.workload.user_traces import load_trace_csv

        records = load_trace_csv(out)
        users = {r.user_id for r in records}
        assert len(users) == 3

    def test_capture_trace(self, tmp_path, capsys):
        out = tmp_path / "cap.csv"
        assert main(
            ["trace", "capture", "--out", str(out), "--apps", "qq,netease",
             "--duration", "1200"]
        ) == 0
        from repro.measurement.pcap import PacketCapture

        capture = PacketCapture.load_csv(out)
        assert set(capture.app_ids()) == {"qq", "netease"}


class TestFleetCommand:
    def test_runs_tiny_fleet_and_writes_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "fleet.json"
        code = main(
            ["fleet", "--devices", "4", "--chunk-size", "2",
             "--horizon", "300", "--quiet", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["vectorized"] is True
        assert doc["chunks"] == 2
        assert doc["spec"]["devices"] == 4
        assert doc["summary"]["devices"] == 4
        assert doc["summary"]["total_energy_j"] > 0
        printed = capsys.readouterr().out
        assert "4 devices" in printed
        assert "wrote" in printed

    def test_out_document_carries_the_phase_table(self, tmp_path, capsys):
        import json

        out = tmp_path / "fleet.json"
        metrics_out = tmp_path / "metrics.json"
        code = main(
            ["fleet", "--devices", "2", "--chunk-size", "2",
             "--horizon", "300", "--out", str(out),
             "--metrics-out", str(metrics_out)]
        )
        assert code == 0
        phases = json.loads(out.read_text())["phases"]
        assert set(phases) == {"channel_publish", "simulate", "aggregate"}
        metrics = json.loads(metrics_out.read_text())
        for name, slot in phases.items():
            assert set(slot) == {"wall_s", "cpu_s", "calls"}
            assert slot["calls"] == 1
            assert slot["wall_s"] >= 0.0 and slot["cpu_s"] >= 0.0
            wall = metrics[f"fleet.phase.{name}_s"]
            assert slot["wall_s"] == wall["sum"]
            assert slot["calls"] == wall["count"]
            assert slot["cpu_s"] == metrics[f"fleet.phase.{name}_cpu_s"]["sum"]
        printed = capsys.readouterr().out
        assert "phases:" in printed
        assert (
            printed.index("channel_publish")
            < printed.index("simulate ")
            < printed.index("aggregate")
        )

    def test_strategy_params_reach_the_engine(self, tmp_path, capsys):
        code = main(
            ["fleet", "--devices", "2", "--chunk-size", "2",
             "--horizon", "300", "--quiet",
             "--strategy", "periodic", "--param", "period=45"]
        )
        assert code == 0
        assert "periodic" in capsys.readouterr().out

    def test_scalar_fallback_strategy(self, capsys):
        # A configuration the coverage rule leaves to the scalar engine
        # (etrain with a k-limited drain) falls back.
        code = main(
            ["fleet", "--devices", "1", "--chunk-size", "1",
             "--horizon", "300", "--quiet",
             "--strategy", "etrain", "--param", "k=2"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "scalar fallback" in captured.out
        # Fallback visibility satellite: a one-line warning on stderr.
        assert "no vectorized fleet kernel" in captured.err

    def test_vectorized_strategy_has_no_fallback_warning(self, capsys):
        code = main(
            ["fleet", "--devices", "1", "--chunk-size", "1",
             "--horizon", "300", "--quiet", "--strategy", "peres"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "vectorized" in captured.out
        assert "no vectorized fleet kernel" not in captured.err

    def test_bad_param_syntax(self, capsys):
        code = main(["fleet", "--devices", "1", "--param", "oops"])
        assert code == 2
        assert "NAME=VALUE" in capsys.readouterr().err

    @pytest.mark.strategies
    @pytest.mark.parametrize(
        "argv",
        [
            ["--param", "bogus=1"],
            ["--strategy", "periodic", "--param", "period=0"],
        ],
    )
    def test_invalid_strategy_params_exit_2(self, argv, capsys):
        code = main(["fleet", "--devices", "1", "--horizon", "300", "--quiet"] + argv)
        assert code == 2
        captured = capsys.readouterr()
        assert "invalid fleet spec" in captured.err
        assert captured.out == ""

    @pytest.mark.strategies
    def test_sweep_rejects_invalid_strategy_params(self, capsys):
        code = main(["sweep", "--strategies", "periodic", "--param", "period=0",
                     "--seeds", "1", "--horizon", "60"])
        assert code == 2
        assert "invalid strategy params" in capsys.readouterr().err

    @pytest.mark.parametrize("param", ["theta=-1", "bogus=1"])
    def test_record_rejects_invalid_strategy_params(self, param, tmp_path, capsys):
        trace = tmp_path / "r.jsonl"
        code = main(["record", "--strategy", "etrain", "--param", param,
                     "--horizon", "60", "--trace-out", str(trace)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid strategy params: ")
        assert captured.out == ""
        assert not trace.exists()

    def test_invalid_spec_is_reported(self, capsys):
        code = main(["fleet", "--devices", "1", "--strategy", "etrain",
                     "--param", "k=3", "--horizon", "300", "--quiet"])
        # k!=None is outside the vectorized engine's contract; the spec
        # still runs via the scalar fallback, so this must succeed.
        assert code == 0
        assert "scalar fallback" in capsys.readouterr().out


class TestFaultToleranceFlags:
    def test_sweep_parser_accepts_fault_flags(self):
        from repro.cli import build_sweep_parser

        args = build_sweep_parser().parse_args(
            ["--resume", "--max-retries", "5", "--job-timeout", "2.5",
             "--faults", "crash=0.1,seed=3"]
        )
        assert args.resume and args.max_retries == 5
        assert args.job_timeout == 2.5 and args.faults == "crash=0.1,seed=3"

    def test_fleet_parser_accepts_fault_flags(self):
        from repro.cli import build_fleet_parser

        args = build_fleet_parser().parse_args(["--cleanup-shm", "--resume"])
        assert args.cleanup_shm and args.resume

    def test_bad_faults_spec_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", "--seeds", "1", "--horizon", "240",
                  "--quiet", "--faults", "explode=1"])
        assert exc_info.value.code == 2
        assert "bad --faults spec" in capsys.readouterr().err

    def test_sweep_resume_needs_cache_dir(self, capsys):
        assert main(["sweep", "--seeds", "1", "--resume"]) == 2
        assert "--resume requires --cache-dir" in capsys.readouterr().err

    def test_fleet_resume_needs_cache_dir(self, capsys):
        assert main(["fleet", "--devices", "1", "--resume"]) == 2
        assert "--resume requires --cache-dir" in capsys.readouterr().err

    def test_fleet_cleanup_shm_runs_standalone(self, capsys):
        assert main(["fleet", "--cleanup-shm"]) == 0
        assert "stale etrain-* segment(s)" in capsys.readouterr().out

    def test_dist_flags_parse_on_sweep_and_fleet(self):
        from repro.cli import build_fleet_parser, build_sweep_parser

        args = build_sweep_parser().parse_args(
            ["--workers", "2", "--bind", "0.0.0.0:7777",
             "--min-workers", "3", "--lease-timeout", "12.5"]
        )
        assert args.workers == 2 and args.bind == "0.0.0.0:7777"
        assert args.min_workers == 3 and args.lease_timeout == 12.5
        fleet = build_fleet_parser().parse_args(["--workers", "1"])
        assert fleet.workers == 1 and fleet.bind is None

    def test_bad_bind_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", "--seeds", "1", "--horizon", "240", "--quiet",
                  "--bind", "nonsense", "--workers", "1"])
        assert exc_info.value.code == 2
        assert "--bind wants HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--lease-timeout", "5"],
            ["--min-workers", "2"],
            ["--workers", "2", "--min-workers", "3"],
        ],
    )
    @pytest.mark.parametrize("command", ["sweep", "fleet"])
    def test_coordinator_flags_without_bind_exit_2(self, capsys, command, flags):
        """No listen address means no external worker can join: these
        flags are refused up front instead of holding a barrier that
        never opens."""
        def overdue(signum, frame):
            raise AssertionError(f"{command} {flags} still running after 20 s")

        previous = signal.signal(signal.SIGALRM, overdue)
        signal.alarm(20)  # a regression fails here instead of hanging
        try:
            with pytest.raises(SystemExit) as exc_info:
                main([command, "--quiet", *flags])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert exc_info.value.code == 2
        assert "requires --bind" in capsys.readouterr().err

    def test_coordinate_usage_and_delegation(self, capsys):
        assert main(["coordinate"]) == 2
        assert "usage: etrain coordinate" in capsys.readouterr().err
        assert main(["coordinate", "--help"]) == 0
        assert "usage: etrain coordinate" in capsys.readouterr().out
        assert main(["coordinate", "loadgen"]) == 2

    def test_worker_rejects_bad_connect(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["worker", "--connect", "no-port-here"])
        assert exc_info.value.code == 2

    def test_sweep_resume_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        base = ["sweep", "--strategies", "immediate", "--seeds", "2",
                "--horizon", "240", "--quiet", "--cache-dir", cache]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main(base + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "resuming:" in second and "2/2 job(s) complete" in second
        # The result table is identical across the original and resume.
        table = lambda out: [
            l for l in out.splitlines()
            if l.startswith(("immediate", "strategy", "---", "Sweep:"))
        ]
        assert table(first) == table(second)

    def test_fleet_resume_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        base = ["fleet", "--devices", "4", "--chunk-size", "2",
                "--horizon", "300", "--quiet", "--cache-dir", cache]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resuming:" in out and "2/2 job(s) complete" in out
