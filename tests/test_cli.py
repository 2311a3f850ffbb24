"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.arch == "en-route"
        assert args.scale == "small"
        assert "coordinated" in args.schemes

    def test_csv_parsing(self):
        args = build_parser().parse_args(
            ["sweep", "--sizes", "0.01,0.1", "--schemes", "lru, coordinated"]
        )
        assert args.sizes == [0.01, 0.1]
        assert args.schemes == ["lru", "coordinated"]


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Number of WAN nodes" in out

    def test_sweep_small(self, capsys):
        code = main(
            [
                "sweep",
                "--arch",
                "hierarchical",
                "--schemes",
                "lru",
                "--sizes",
                "0.05",
                "--scale",
                "small",
                "--metrics",
                "latency,byte_hit_ratio",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lru" in out
        assert "byte_hit_ratio" in out

    def test_sweep_rejects_unknown_scheme(self, capsys):
        code = main(["sweep", "--schemes", "bogus", "--sizes", "0.05"])
        assert code == 2
        assert "unknown schemes" in capsys.readouterr().err

    def test_unknown_scheme_error_lists_valid_names(self, capsys):
        from repro.sim.factory import SCHEME_NAMES

        code = main(["sweep", "--schemes", "bogus", "--sizes", "0.05"])
        assert code == 2
        err = capsys.readouterr().err
        for name in SCHEME_NAMES:
            assert name in err

    def test_sweep_profiles_require_provision_flag(self, capsys):
        code = main(
            ["sweep", "--schemes", "lru", "--sizes", "0.05",
             "--profiles", "edge-heavy"]
        )
        assert code == 2
        assert "--provision" in capsys.readouterr().err

    def test_sweep_rejects_unknown_profile(self, capsys):
        code = main(
            ["sweep", "--schemes", "lru", "--sizes", "0.05",
             "--provision", "--profiles", "bogus-profile"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus-profile" in err
        assert "edge-heavy" in err

    def test_provisioning_sweep_runs_new_schemes(self, capsys, tmp_path):
        out_path = tmp_path / "points.json"
        code = main(
            [
                "sweep",
                "--arch",
                "hierarchical",
                "--schemes",
                "costaware,adaptive",
                "--sizes",
                "0.05",
                "--scale",
                "small",
                "--provision",
                "--profiles",
                "uniform,edge-heavy",
                "--metrics",
                "latency",
                "--save",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "costaware[edge-heavy]" in out
        assert "adaptive[edge-heavy]" in out
        assert out_path.exists()

    def test_sweep_chart_and_save(self, capsys, tmp_path):
        out_path = tmp_path / "points.json"
        code = main(
            [
                "sweep",
                "--arch",
                "hierarchical",
                "--schemes",
                "lru",
                "--sizes",
                "0.02,0.1",
                "--metrics",
                "latency",
                "--chart",
                "--save",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "relative cache size (log scale)" in out
        assert out_path.exists()
        from repro.experiments.results_io import load_points_json

        assert len(load_points_json(out_path)) == 2

    def test_analyze_and_replay(self, capsys, tmp_path):
        from repro.workload.generator import (
            BoeingLikeTraceGenerator,
            WorkloadConfig,
        )
        from repro.workload.trace import write_trace_csv

        workload = WorkloadConfig(
            num_objects=60,
            num_servers=4,
            num_clients=8,
            num_requests=2_000,
            seed=4,
        )
        trace = BoeingLikeTraceGenerator(workload).generate()
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)

        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "zipf theta" in out
        assert "requests          2000" in out

        assert main(
            ["replay", str(path), "--arch", "hierarchical",
             "--scheme", "lru", "--size", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "byte hit ratio" in out
        assert "latency p50/p90/p99" in out

    def test_replay_rejects_unknown_scheme(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,client_id,object_id,server_id,size\n0.0,0,0,0,10\n")
        assert main(["replay", str(path), "--scheme", "bogus"]) == 2

    def test_radius_ablation(self, capsys):
        code = main(
            [
                "radius",
                "--arch",
                "hierarchical",
                "--radii",
                "1,4",
                "--size",
                "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "modulo(r=1)" in out
        assert "modulo(r=4)" in out


class TestVersionFlag:
    def test_version_long(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_version_short(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exit_info:
            main(["-V"])
        assert exit_info.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestServeParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.scheme == "coordinated"
        assert args.manifest == "cluster.json"
        assert not args.no_metrics

    def test_serve_rejects_unknown_scheme(self, capsys):
        assert main(["serve", "--scheme", "bogus"]) == 2

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.mode == "closed"
        assert args.concurrency == 8

    def test_loadgen_missing_manifest(self, capsys, tmp_path):
        code = main(
            ["loadgen", "--manifest", str(tmp_path / "none.json"),
             "--wait", "0.2"]
        )
        assert code == 2
        assert "not published" in capsys.readouterr().err


class TestSimNumericFlags:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--audit", "--audit-every", "0"], "audit_every must be >= 1"),
            (["--timeseries-window", "-5"], "window_seconds must be positive"),
            (
                ["--trace-out", "{tmp}/F", "--trace-sample-rate", "2"],
                "sample_rate must be in [0, 1]",
            ),
            (["--size", "0"], "relative_cache_size must be positive"),
        ],
    )
    def test_bad_value_is_a_usage_error(self, capsys, tmp_path, flags, message):
        flags = [flag.format(tmp=tmp_path) for flag in flags]
        code = main(["sim", "--schemes", "lru", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == message + "\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []
