"""Tests for exporters and the observability CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.export import (
    _NODE_FIELDS,
    escape_label_value,
    format_node_stats,
    parse_prometheus_text,
    prometheus_text,
    summarize_trace_events,
)
from repro.obs.registry import NodeStats
from repro.obs.warehouse import Warehouse

SIM_BASE = [
    "sim",
    "--schemes",
    "coordinated",
    "--scale",
    "small",
    "--size",
    "0.01",
]


def sample_stats():
    return {
        2: {"hits": 3, "misses": 7, "insertions": 4, "evictions": 1,
            "evicted_bytes": 100, "bytes_read": 300, "bytes_written": 400,
            "occupancy_hwm": 500, "piggyback_bytes": 24,
            "dcache_evictions": 2, "invalidations": 0},
        10: {"hits": 0, "misses": 5, "insertions": 0, "evictions": 0,
             "evicted_bytes": 0, "bytes_read": 0, "bytes_written": 0,
             "occupancy_hwm": 0, "piggyback_bytes": 2,
             "dcache_evictions": 0, "invalidations": 1},
    }


class TestCountersDeclaredOnce:
    """``NodeStats.__slots__`` is the declaration; the literal listings
    kept beside it (export labels, warehouse DDL) must follow it, so a
    counter added in one place fails here instead of silently missing
    from ``/metrics`` or the warehouse."""

    def test_export_table_follows_the_slots(self):
        assert tuple(name for name, _, _ in _NODE_FIELDS) == NodeStats.__slots__

    def test_warehouse_table_follows_the_slots(self, tmp_path):
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            columns = [
                row[1]
                for row in warehouse.conn.execute("PRAGMA table_info(node_stats)")
            ]
        first = columns.index("node") + 1
        assert tuple(columns[first : columns.index("source")]) == NodeStats.__slots__

    def test_a_fresh_entry_is_all_zero(self):
        assert set(NodeStats().to_dict().values()) == {0}
        assert tuple(NodeStats().to_dict()) == NodeStats.__slots__


class TestNodeTable:
    def test_empty(self):
        assert format_node_stats({}) == "no node stats recorded"

    def test_table_contents(self):
        text = format_node_stats(sample_stats())
        lines = text.splitlines()
        assert len(lines) == 3
        assert "hit%" in lines[0]
        assert lines[1].split()[:2] == ["2", "30.0"]
        assert lines[2].split()[:2] == ["10", "0.0"]

    def test_string_keys_sort_numerically(self):
        stats = {str(k): v for k, v in sample_stats().items()}
        lines = format_node_stats(stats).splitlines()
        assert lines[1].split()[0] == "2"
        assert lines[2].split()[0] == "10"


class TestPrometheus:
    def test_exposition_format(self):
        text = prometheus_text(sample_stats())
        assert '# TYPE repro_cache_hits_total counter' in text
        assert '# TYPE repro_cache_occupancy_hwm_bytes gauge' in text
        assert 'repro_cache_hits_total{node="2"} 3' in text
        assert 'repro_cache_piggyback_bytes_total{node="10"} 2' in text
        assert text.endswith("\n")

    def test_custom_prefix(self):
        text = prometheus_text(sample_stats(), prefix="x")
        assert 'x_hits_total{node="2"} 3' in text

    def test_help_precedes_type_per_metric(self):
        text = prometheus_text(sample_stats())
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("# TYPE"):
                name = line.split()[2]
                assert lines[i - 1].startswith(f"# HELP {name} ")

    def test_label_escaping(self):
        assert escape_label_value('pla"in') == 'pla\\"in'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("two\nlines") == "two\\nlines"
        stats = {'no"de\n1': {"hits": 1, "misses": 0}}
        text = prometheus_text(stats)
        assert 'node="no\\"de\\n1"' in text

    def test_resilience_and_shard_counters_exported(self):
        stats = sample_stats()
        stats[2]["busy_rejections"] = 6
        stats[2]["cross_shard_fwds"] = 9
        text = prometheus_text(stats)
        assert "# TYPE repro_cache_busy_rejections_total counter" in text
        assert 'repro_cache_busy_rejections_total{node="2"} 6' in text
        assert 'repro_cache_cross_shard_fwds_total{node="2"} 9' in text
        # A node lacking the counter still scrapes (as zero).
        assert 'repro_cache_busy_rejections_total{node="10"} 0' in text

    def test_unknown_counters_pass_through(self):
        stats = {1: {"hits": 1, "misses": 2, "future_counter": 5}}
        text = prometheus_text(stats)
        assert "# TYPE repro_cache_future_counter_total counter" in text
        assert 'repro_cache_future_counter_total{node="1"} 5' in text

    def test_parse_inverts_render(self):
        stats = sample_stats()
        stats[2]["busy_rejections"] = 4
        samples = list(parse_prometheus_text(prometheus_text(stats)))
        assert samples, "parser saw no samples"
        by_metric = {
            (metric, labels["node"]): value
            for metric, labels, value in samples
        }
        assert by_metric[("repro_cache_hits_total", "2")] == 3
        assert by_metric[("repro_cache_busy_rejections_total", "2")] == 4
        assert by_metric[("repro_cache_occupancy_hwm_bytes", "10")] == 0

    def test_parse_unescapes_labels(self):
        text = 'm_total{node="a\\"b\\nc\\\\d"} 1\n'
        ((metric, labels, value),) = parse_prometheus_text(text)
        assert metric == "m_total"
        assert labels["node"] == 'a"b\nc\\d'
        assert value == 1.0


class TestTraceSummary:
    def test_folds_all_kinds(self):
        events = [
            {"kind": "request", "hit_node": 4},
            {"kind": "request", "hit_node": None},
            {"kind": "placement", "inserted": [1, 2]},
            {"kind": "placement", "inserted": [2]},
            {"kind": "eviction", "node": 2, "victims": [7, 8], "freed": 50},
            {"kind": "dcache-eviction", "node": 1, "victims": [9]},
            {"kind": "invalidation", "copies": 3},
        ]
        summary = summarize_trace_events(events)
        assert summary.events == 7
        assert summary.requests == 2
        assert summary.origin_served == 1
        assert summary.hits_by_node == {4: 1}
        assert summary.insertions_by_node == {1: 1, 2: 2}
        assert summary.evictions_by_node == {2: 2}
        assert summary.freed_bytes_by_node == {2: 50}
        assert summary.dcache_evictions_by_node == {1: 1}
        assert summary.invalidated_copies == 3
        text = summary.format()
        assert "7 events" in text
        assert "1 cache-served" in text

    def test_mixed_sim_events_and_serve_spans(self):
        """Satellite gate: spans fold into their own totals and never
        leak into the simulator-side request/hit accounting."""
        events = [
            {"kind": "request", "hit_node": 4},
            {"kind": "request", "hit_node": None},
            {"kind": "span", "trace": "t3.1", "span": "s3.2", "node": 3,
             "shard": 0, "status": "ok", "retries": 1},
            {"kind": "span", "trace": "t3.1", "span": "s8.1", "node": 8,
             "shard": 1, "status": "ok", "failovers": 1},
            {"kind": "span", "trace": "t3.3", "span": "s3.4", "node": 3,
             "status": "NodeUnreachable"},
            {"kind": "placement", "inserted": [4]},
        ]
        summary = summarize_trace_events(events)
        # Sim-side accounting untouched by the interleaved spans.
        assert summary.requests == 2
        assert summary.origin_served == 1
        assert summary.hits_by_node == {4: 1}
        assert summary.insertions_by_node == {4: 1}
        # Span-side accounting attributed to spans alone.
        assert summary.spans == 3
        assert summary.span_traces == 2
        assert summary.spans_by_node == {3: 2, 8: 1}
        assert summary.span_shards == {0, 1}
        assert summary.span_retries == 1
        assert summary.span_failovers == 1
        assert summary.span_errors == 1
        text = summary.format()
        assert "serve spans: 3 across 2 traces over 2 shards" in text
        assert "retries 1, failovers 1, errors 1" in text

    def test_span_without_ids_still_counts_safely(self):
        summary = summarize_trace_events([{"kind": "span"}])
        assert summary.spans == 1
        assert summary.span_traces == 0
        assert summary.spans_by_node == {}


class TestSimObservabilityFlags:
    def test_trace_out_and_node_stats(self, capsys, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        code = main(
            SIM_BASE + ["--trace-out", str(trace_path), "--node-stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "hit%" in out
        events = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert {"request", "placement"} <= {e["kind"] for e in events}

    def test_multi_scheme_paths_get_infix(self, capsys, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        code = main(
            [
                "sim",
                "--schemes",
                "lru,lnc-r",
                "--scale",
                "small",
                "--size",
                "0.01",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "run.lru.jsonl").exists()
        assert (tmp_path / "run.lnc-r.jsonl").exists()
        assert not trace_path.exists()

    def test_prom_out_and_timers(self, capsys, tmp_path):
        prom_path = tmp_path / "metrics.prom"
        code = main(SIM_BASE + ["--prom-out", str(prom_path), "--timers"])
        assert code == 0
        out = capsys.readouterr().out
        assert "us/call" in out
        assert "dp-solve" in out
        assert "# TYPE repro_cache_hits_total counter" in prom_path.read_text()

    def test_timeseries_out(self, capsys, tmp_path):
        csv_path = tmp_path / "series.csv"
        code = main(
            SIM_BASE
            + ["--timeseries-window", "60", "--timeseries-out", str(csv_path)]
        )
        assert code == 0
        header = csv_path.read_text().splitlines()[0]
        assert "hit_ratio" in header
        assert "mean_read_load" in header

    def test_timeseries_json_by_suffix(self, capsys, tmp_path):
        json_path = tmp_path / "series.json"
        code = main(
            SIM_BASE
            + ["--timeseries-window", "60", "--timeseries-out", str(json_path)]
        )
        assert code == 0
        series = json.loads(json_path.read_text())
        assert series
        assert "mean_write_load" in series[0]

    def test_timeseries_out_requires_window(self, capsys, tmp_path):
        code = main(SIM_BASE + ["--timeseries-out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--timeseries-window" in capsys.readouterr().err

    def test_sampled_trace_is_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main(
                SIM_BASE
                + [
                    "--trace-out",
                    str(path),
                    "--trace-sample-rate",
                    "0.2",
                    "--probe-seed",
                    "7",
                ]
            ) == 0
        capsys.readouterr()
        assert paths[0].read_text() == paths[1].read_text()


class TestTraceCommand:
    @pytest.fixture()
    def trace_file(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(SIM_BASE + ["--trace-out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_summary(self, trace_file, capsys):
        assert main(["trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "requests:" in out

    def test_kind_filter_and_events(self, trace_file, capsys):
        code = main(
            [
                "trace",
                str(trace_file),
                "--kinds",
                "placement",
                "--events",
                "--limit",
                "5",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 0 < len(lines) <= 5
        assert all(json.loads(l)["kind"] == "placement" for l in lines)

    def test_unknown_kind_rejected(self, trace_file, capsys):
        assert main(["trace", str(trace_file), "--kinds", "bogus"]) == 2
        assert "unknown event kinds" in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestGridNodeStatsFlag:
    def test_sweep_node_stats_in_records(self, capsys, tmp_path):
        save = tmp_path / "points.json"
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
                "latency",
                "--node-stats",
                "--save",
                str(save),
            ]
        )
        assert code == 0
        capsys.readouterr()
        document = json.loads(
            (tmp_path / "points.json.records.json").read_text()
        )
        assert document["records"][0]["node_stats"]
