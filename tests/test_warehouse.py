"""The results warehouse: every artifact format in, exact tables out.

Two acceptance gates pin the tentpole down:

* **fidelity** -- the ``scheme-arch`` canned query reproduces a sweep's
  metric values bit-identically (floats round-trip through sqlite REAL
  unchanged);
* **idempotency** -- ingesting any artifact twice (including a
  checkpoint rewritten by ``--resume``) changes zero rows, because rows
  are keyed by a content hash of the source record, not by file or
  offset.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.costs.model import LatencyCostModel
from repro.experiments.points import SweepPoint
from repro.experiments.presets import build_architecture
from repro.experiments.results_io import (
    CheckpointWriter,
    save_points_json,
    save_run_records,
)
from repro.obs.export import prometheus_text
from repro.obs.warehouse import Warehouse, format_table, write_csv
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import build_scheme
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig

WORKLOAD = WorkloadConfig(
    num_objects=60,
    num_servers=2,
    num_clients=6,
    num_requests=250,
    zipf_theta=0.8,
    seed=5,
)
CONFIG = SimulationConfig(relative_cache_size=0.02)
SCHEMES = ("lru", "coordinated")


@pytest.fixture(scope="module")
def sweep_points():
    """A real two-scheme mini-sweep (so metric floats are non-trivial)."""
    generator = BoeingLikeTraceGenerator(WORKLOAD)
    trace = generator.generate()
    catalog = generator.catalog
    arch = build_architecture("hierarchical", WORKLOAD, seed=2)
    cost_model = LatencyCostModel(arch.network, catalog.mean_size)
    capacity = CONFIG.capacity_bytes(catalog.total_bytes)
    dcache = CONFIG.dcache_entries(catalog.total_bytes, catalog.mean_size)
    points = []
    for scheme_name in SCHEMES:
        summary = SimulationEngine(
            arch,
            cost_model,
            build_scheme(scheme_name, cost_model, capacity, dcache),
            warmup_fraction=CONFIG.warmup_fraction,
        ).run(trace).summary
        points.append(
            SweepPoint(
                architecture=arch.name,
                scheme=scheme_name,
                relative_cache_size=CONFIG.relative_cache_size,
                summary=summary,
            )
        )
    return points


def grid_key(point: SweepPoint) -> str:
    return json.dumps(
        {
            "architecture": point.architecture,
            "scheme": point.scheme,
            "relative_cache_size": point.relative_cache_size,
            "dcache_ratio": CONFIG.dcache_ratio,
            "warmup_fraction": CONFIG.warmup_fraction,
            "params": {},
        },
        sort_keys=True,
    )


def run_record(point: SweepPoint, violations=()) -> dict:
    return {
        "key": grid_key(point),
        "scheme": point.scheme,
        "relative_cache_size": point.relative_cache_size,
        "duration_seconds": 0.25,
        "requests": point.summary.requests,
        "requests_per_second": 1000.0,
        "worker": 0,
        "reused": False,
        "audit_checks": 12,
        "audit_violations": list(violations),
        "node_stats": {
            "3": {"hits": 10, "misses": 5, "piggyback_bytes": 64},
            "8": {"hits": 2, "misses": 9, "cross_shard_fwds": 4},
        },
    }


class TestPointsFidelity:
    def test_scheme_arch_query_is_bit_identical(self, sweep_points, tmp_path):
        results = tmp_path / "points.json"
        save_points_json(sweep_points, results)
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            ingested = warehouse.ingest(results)
            assert ingested.added == {"points": len(sweep_points)}
            headers, rows = warehouse.query("scheme-arch")
            assert len(rows) == len(sweep_points)
            by_scheme = {row[headers.index("scheme")]: row for row in rows}
            for point in sweep_points:
                row = by_scheme[point.scheme]
                # Floats through sqlite REAL, exactly -- no formatting,
                # no rounding, no drift.
                assert row[headers.index("hit_ratio")] == (
                    point.summary.hit_ratio
                )
                assert row[headers.index("byte_hit_ratio")] == (
                    point.summary.byte_hit_ratio
                )
                assert row[headers.index("mean_latency")] == (
                    point.summary.mean_latency
                )
                assert row[headers.index("mean_hops")] == (
                    point.summary.mean_hops
                )
                assert row[headers.index("mean_cache_load")] == (
                    point.summary.mean_read_load
                    + point.summary.mean_write_load
                )

    def test_double_ingest_changes_zero_rows(self, sweep_points, tmp_path):
        results = tmp_path / "points.json"
        save_points_json(sweep_points, results)
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            warehouse.ingest(results)
            before = warehouse.table_counts()
            again = warehouse.ingest(results)
            assert again.total_added == 0
            assert again.total_duplicates == len(sweep_points)
            assert warehouse.table_counts() == before

    def test_same_content_other_file_still_dedupes(
        self, sweep_points, tmp_path
    ):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_points_json(sweep_points, a)
        save_points_json(sweep_points, b)
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            warehouse.ingest(a)
            assert warehouse.ingest(b).total_added == 0


class TestProvisioningPoints:
    def _provisioned(self, sweep_points):
        import dataclasses

        uniform, provisioned = sweep_points[0], sweep_points[1]
        provisioned = dataclasses.replace(
            provisioned,
            provision={
                "profile": "edge-heavy",
                "level_multipliers": {"0": 0.5, "1": 2.0},
            },
        )
        return [uniform, provisioned]

    def test_provisioning_query_renders_profiles(self, sweep_points, tmp_path):
        points = self._provisioned(sweep_points)
        results = tmp_path / "points.json"
        save_points_json(points, results)
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            assert warehouse.ingest(results).added == {"points": 2}
            headers, rows = warehouse.query("provisioning")
            assert len(rows) == 2
            profiles = {row[headers.index("profile")] for row in rows}
            # Points without provisioning surface as the uniform profile.
            assert profiles == {"uniform", "edge-heavy"}

    def test_provision_multipliers_stored_canonically(
        self, sweep_points, tmp_path
    ):
        points = self._provisioned(sweep_points)
        results = tmp_path / "points.json"
        save_points_json(points, results)
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            warehouse.ingest(results)
            headers, rows = warehouse.sql(
                "SELECT provision_profile, provision_multipliers "
                "FROM points ORDER BY provision_profile"
            )
            # NULLs (unprovisioned points) sort first in sqlite.
            assert rows[0] == (None, None)
            assert rows[1] == ("edge-heavy", '{"0":0.5,"1":2.0}')

    def test_provisioned_and_uniform_points_dedupe_independently(
        self, sweep_points, tmp_path
    ):
        """Same scheme and size, different provisioning: two rows."""
        points = self._provisioned(sweep_points)
        import dataclasses

        points[1] = dataclasses.replace(points[1], scheme=points[0].scheme)
        results = tmp_path / "points.json"
        save_points_json(points, results)
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            assert warehouse.ingest(results).added == {"points": 2}
            assert warehouse.ingest(results).total_added == 0

    def test_migration_adds_missing_provision_columns(
        self, sweep_points, tmp_path
    ):
        """A warehouse created before the provisioning columns upgrades
        in place on open and ingests provisioned points."""
        import sqlite3

        db = tmp_path / "w.sqlite"
        with Warehouse(db) as warehouse:
            pass
        if sqlite3.sqlite_version_info < (3, 35):
            pytest.skip("sqlite too old for DROP COLUMN")
        conn = sqlite3.connect(db)
        conn.execute("ALTER TABLE points DROP COLUMN provision_profile")
        conn.execute("ALTER TABLE points DROP COLUMN provision_multipliers")
        conn.commit()
        conn.close()
        results = tmp_path / "points.json"
        save_points_json(self._provisioned(sweep_points), results)
        with Warehouse(db) as warehouse:
            assert warehouse.ingest(results).added == {"points": 2}
            headers, rows = warehouse.query("provisioning")
            profiles = {row[headers.index("profile")] for row in rows}
            assert profiles == {"uniform", "edge-heavy"}


class TestCheckpointIngest:
    def test_resume_duplicates_never_double_count(
        self, sweep_points, tmp_path
    ):
        """The satellite gate: a checkpoint re-written by ``--resume``
        repeats completed points verbatim; ingest counts each once."""
        checkpoint = tmp_path / "sweep.ckpt"
        with CheckpointWriter(checkpoint) as writer:
            for point in sweep_points:
                writer.write(grid_key(point), point, run_record(point))
            # --resume appends the re-executed (deterministic, so
            # identical) first point again.
            writer.write(
                grid_key(sweep_points[0]),
                sweep_points[0],
                run_record(sweep_points[0]),
            )
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            result = warehouse.ingest(checkpoint)
            assert result.added["points"] == len(sweep_points)
            assert result.added["runs"] == len(sweep_points)
            assert result.duplicates["points"] == 1
            headers, rows = warehouse.query("scheme-arch")
            assert len(rows) == len(sweep_points)
            # The run key's JSON recovered the architecture column.
            headers, rows = warehouse.sql(
                "SELECT architecture, scheme FROM runs ORDER BY scheme"
            )
            assert all(row[0] == sweep_points[0].architecture for row in rows)

    def test_truncated_lines_skipped(self, sweep_points, tmp_path):
        checkpoint = tmp_path / "sweep.ckpt"
        with CheckpointWriter(checkpoint) as writer:
            writer.write(
                grid_key(sweep_points[0]),
                sweep_points[0],
                run_record(sweep_points[0]),
            )
        with open(checkpoint, "a") as f:
            f.write('{"schema_version": 1, "key": "half')  # killed mid-write
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            assert warehouse.ingest(checkpoint).added["points"] == 1


class TestRunRecordsIngest:
    def test_sidecar_with_violations_and_node_stats(
        self, sweep_points, tmp_path
    ):
        violation = {"check": "hit_ratio", "detail": "bad", "request_index": 7}
        records = [
            run_record(sweep_points[0], violations=[violation]),
            run_record(sweep_points[1]),
        ]
        sidecar = tmp_path / "records.json"
        save_run_records(records, sidecar)
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            result = warehouse.ingest(sidecar)
            assert result.added["runs"] == 2
            assert result.added["node_stats"] == 4
            assert result.added["audit_violations"] == 1
            _, rows = warehouse.query("violations")
            assert rows == [(sweep_points[0].scheme, "hit_ratio", 1)]
            _, rows = warehouse.query("overhead")
            assert len(rows) == 2
            assert warehouse.ingest(sidecar).total_added == 0


class TestBenchIngest:
    def test_bench_serve_levels_and_saturation(self, tmp_path):
        document = {
            "preset": "medium",
            "scheme": "coordinated",
            "arch": "hierarchical",
            "shards": 2,
            "levels": [
                {"offered_rps": 100.0, "offered_requests": 500,
                 "completed": 500, "achieved_rps": 99.0,
                 "achieved_ratio": 0.99, "errors": 0, "rejected": 0,
                 "shed": 0, "busy_retries": 0, "wall_p50": 0.001,
                 "wall_p90": 0.002, "wall_p99": 0.004},
                {"offered_rps": 400.0, "offered_requests": 2000,
                 "completed": 1800, "achieved_rps": 310.0,
                 "achieved_ratio": 0.775, "errors": 0, "rejected": 150,
                 "shed": 50, "busy_retries": 300, "wall_p50": 0.004,
                 "wall_p90": 0.03, "wall_p99": 0.09},
            ],
            "saturation": {"offered_rps": 400.0, "achieved_rps": 310.0,
                           "wall_p99": 0.09},
        }
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps(document))
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            result = warehouse.ingest(path)
            assert result.added["bench_serve_levels"] == 2
            assert result.added["bench_serve_saturation"] == 1
            _, rows = warehouse.query("saturation-knee")
            assert len(rows) == 1
            assert rows[0][-1] == 0.09


class TestLoadReportIngest:
    def test_report_out_round_trips(self, tmp_path):
        document = {
            "mode": "open",
            "requests_total": 4000,
            "requests_measured": 2000,
            "cache_served": 1500,
            "origin_served": 2500,
            "duration_seconds": 2.0,
            "requests_per_second": 2000.0,
            "wall_latency_mean": 0.001,
            "wall_latency_p50": 0.0009,
            "wall_latency_p90": 0.002,
            "wall_latency_p99": 0.005,
            "updates_applied": 3,
            "copies_invalidated": 9,
            "errors": 0,
            "rejected": 12,
            "shed": 5,
            "busy_retries": 40,
            "aborted": False,
            "modelled": {
                "mean_latency": 0.42,
                "mean_response_ratio": 0.8,
                "byte_hit_ratio": 0.31,
                "hit_ratio": 0.37,
                "mean_traffic_byte_hops": 1.9,
                "mean_hops": 1.5,
                "mean_read_load": 0.3,
                "mean_write_load": 0.1,
            },
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(document))
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            assert warehouse.ingest(path).added == {"load_reports": 1}
            headers, rows = warehouse.query("loadgen")
            row = dict(zip(headers, rows[0]))
            assert row["requests_per_second"] == 2000.0
            assert row["hit_ratio"] == 0.37
            assert row["shed"] == 5


class TestScrapesAndSpans:
    def test_prometheus_scrape_ingest(self, tmp_path):
        stats = {
            3: {"hits": 11, "misses": 4, "piggyback_bytes": 128,
                "busy_rejections": 2},
            8: {"hits": 0, "misses": 9},
        }
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(prometheus_text(stats))
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            result = warehouse.ingest(scrape)
            assert result.added["metrics_samples"] > 0
            headers, rows = warehouse.query("metrics-latest")
            values = {
                (row[0], row[1]): row[2] for row in rows
            }
            assert values[("repro_cache_hits_total", "3")] == 11.0
            assert values[("repro_cache_busy_rejections_total", "8")] == 0.0
            assert warehouse.ingest(scrape).total_added == 0

    def test_span_trace_ingest(self, tmp_path):
        events = [
            {"kind": "span", "trace": "t3.1", "span": "s3.2", "parent": None,
             "node": 3, "shard": 0, "op": "walk", "status": "ok", "index": 0,
             "wall": 0.002, "retries": 1, "xshard": True},
            {"kind": "span", "trace": "t3.1", "span": "s8.1",
             "parent": "s3.2", "node": 8, "shard": 1, "op": "walk",
             "status": "ok", "index": 1, "hit_index": 1, "wall": 0.001},
            {"kind": "request", "hit_node": 3},  # sim event: ignored
        ]
        path = tmp_path / "spans.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            assert warehouse.ingest(path).added == {"spans": 2}
            headers, rows = warehouse.query("trace-shards")
            assert rows == [("t3.1", 2, 2, 2, 1)]
            _, slow = warehouse.query("slow-traces")
            assert slow[0][0] == "t3.1" and slow[0][-1] == 0.002

    def test_cluster_snapshot_ingest(self, tmp_path):
        snapshot = {
            "scheme": "coordinated",
            "architecture": "hierarchical",
            "nodes": {
                "3": {"requests_handled": 10, "cached_bytes": 100,
                      "stats": {"hits": 4, "misses": 6}},
                "8": {"requests_handled": 0, "cached_bytes": 0,
                      "stats": {"hits": 0, "misses": 0}},
            },
        }
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(snapshot))
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            assert warehouse.ingest(path).added == {"node_stats": 2}
            _, rows = warehouse.sql(
                "SELECT node, hits FROM node_stats ORDER BY node"
            )
            assert rows == [("3", 4), ("8", 0)]


class TestRejectsAndRendering:
    def test_unrecognized_artifact_raises(self, tmp_path):
        path = tmp_path / "mystery.json"
        path.write_text('{"hello": "world"}')
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            with pytest.raises(ValueError, match="unrecognized"):
                warehouse.ingest(path)

    def test_non_artifact_text_raises(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("just some prose\nwith no samples\n")
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            with pytest.raises(ValueError):
                warehouse.ingest(path)

    def test_format_table_and_csv(self):
        headers = ["scheme", "hit_ratio"]
        rows = [("lru", 0.25), ("coordinated", None)]
        table = format_table(headers, rows)
        assert "scheme" in table and "0.25" in table and "-" in table
        csv_text = write_csv(headers, rows)
        assert csv_text.splitlines()[0] == "scheme,hit_ratio"
        assert format_table(headers, []) == "(no rows)"


class TestWarehouseCli:
    def test_ingest_query_report(self, sweep_points, tmp_path, capsys):
        results = tmp_path / "points.json"
        save_points_json(sweep_points, results)
        db = str(tmp_path / "w.sqlite")
        assert main(["warehouse", "--db", db, "ingest", str(results)]) == 0
        out = capsys.readouterr().out
        assert "points+2" in out
        assert main(["warehouse", "--db", db, "query", "scheme-arch"]) == 0
        out = capsys.readouterr().out
        assert "hit_ratio" in out and "coordinated" in out
        assert main(
            ["warehouse", "--db", db, "query", "scheme-arch", "--csv"]
        ) == 0
        csv_out = capsys.readouterr().out
        assert csv_out.startswith("architecture,scheme")
        assert main(["warehouse", "--db", db, "report"]) == 0
        out = capsys.readouterr().out
        assert "points" in out and "scheme-arch" in out

    def test_query_catalog_and_errors(self, tmp_path, capsys):
        db = str(tmp_path / "w.sqlite")
        assert main(["warehouse", "--db", db, "query"]) == 0
        out = capsys.readouterr().out
        assert "scheme-arch" in out and "saturation-knee" in out
        assert main(["warehouse", "--db", db, "query", "nope"]) == 2
        assert "unknown canned query" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["warehouse", "--db", db, "ingest", str(bad)]) == 1
        assert "unrecognized" in capsys.readouterr().err

    def test_sql_escape_hatch(self, sweep_points, tmp_path, capsys):
        results = tmp_path / "points.json"
        save_points_json(sweep_points, results)
        db = str(tmp_path / "w.sqlite")
        assert main(["warehouse", "--db", db, "ingest", str(results)]) == 0
        capsys.readouterr()
        assert main(
            [
                "warehouse", "--db", db, "query",
                "--sql", "SELECT COUNT(*) AS n FROM points",
            ]
        ) == 0
        assert "2" in capsys.readouterr().out


class TestLoadgenReportFlagAlias:
    def test_report_out_and_json_are_one_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["loadgen", "--report-out", "/tmp/r.json"]
        )
        assert args.report_out == "/tmp/r.json"
        legacy = parser.parse_args(["loadgen", "--json", "/tmp/r.json"])
        assert legacy.report_out == "/tmp/r.json"
