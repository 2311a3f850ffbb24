"""The results warehouse: every artifact format, one queryable store.

The repo's telemetry lands in disconnected files -- sweep results JSON,
checkpoint JSONL, RunRecord sidecars, ``BENCH_serve.json``
trajectories, loadgen reports, Prometheus scrapes,
span traces -- and comparing the paper's claims across schemes,
architectures or PRs meant ad-hoc scripting over the pile.  The
warehouse is a stdlib-``sqlite3`` database with a stable table per
artifact family, an auto-detecting :meth:`Warehouse.ingest`, and a
catalog of canned comparison queries (``repro warehouse query``)
rendering the paper-style tables straight from ingested records.

**Idempotency is structural.**  Every row carries a ``content_hash`` --
sha256 over the table name plus the canonical JSON of the source record
-- under a UNIQUE constraint, and all inserts are ``INSERT OR IGNORE``:
ingesting the same artifact twice changes zero rows, and re-ingesting a
checkpoint rewritten by ``--resume`` never double-counts a point (a
resumed point re-executes deterministically, reproducing the same
content hash).

**Fidelity is exact.**  SQLite ``REAL`` is the same IEEE-754 double a
Python float is, so a metric ingested from a RunRecord or sweep point
round-trips bit-identical through ``repro warehouse query`` -- the
acceptance oracle the tests pin down.  (The one representational
caveat: SQLite stores NaN as NULL, so absent latency percentiles read
back as ``None``.)
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.registry import NodeStats

__all__ = [
    "CANNED_QUERIES",
    "CannedQuery",
    "IngestResult",
    "Warehouse",
    "format_table",
    "poll_metrics",
    "write_csv",
]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS points (
    id INTEGER PRIMARY KEY,
    architecture TEXT,
    scheme TEXT,
    relative_cache_size REAL,
    requests INTEGER,
    hit_ratio REAL,
    byte_hit_ratio REAL,
    mean_latency REAL,
    mean_response_ratio REAL,
    mean_traffic_byte_hops REAL,
    mean_hops REAL,
    mean_read_load REAL,
    mean_write_load REAL,
    latency_p50 REAL,
    latency_p90 REAL,
    latency_p99 REAL,
    provision_profile TEXT,
    provision_multipliers TEXT,
    source TEXT,
    content_hash TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY,
    run_key TEXT,
    architecture TEXT,
    scheme TEXT,
    relative_cache_size REAL,
    duration_seconds REAL,
    requests INTEGER,
    requests_per_second REAL,
    worker INTEGER,
    reused INTEGER,
    audit_checks INTEGER,
    audit_violations INTEGER,
    source TEXT,
    content_hash TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS node_stats (
    id INTEGER PRIMARY KEY,
    run_key TEXT,
    architecture TEXT,
    scheme TEXT,
    node TEXT,
    hits INTEGER,
    misses INTEGER,
    insertions INTEGER,
    evictions INTEGER,
    evicted_bytes INTEGER,
    bytes_read INTEGER,
    bytes_written INTEGER,
    occupancy_hwm INTEGER,
    piggyback_bytes INTEGER,
    dcache_evictions INTEGER,
    invalidations INTEGER,
    rpc_timeouts INTEGER,
    rpc_retries INTEGER,
    failovers INTEGER,
    breaker_trips INTEGER,
    busy_rejections INTEGER,
    cross_shard_fwds INTEGER,
    source TEXT,
    content_hash TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS audit_violations (
    id INTEGER PRIMARY KEY,
    run_key TEXT,
    scheme TEXT,
    "check" TEXT,
    detail TEXT,
    request_index INTEGER,
    source TEXT,
    content_hash TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS bench_serve_levels (
    id INTEGER PRIMARY KEY,
    preset TEXT,
    quick INTEGER,
    scheme TEXT,
    arch TEXT,
    shards INTEGER,
    offered_rps REAL,
    offered_requests INTEGER,
    completed INTEGER,
    achieved_rps REAL,
    achieved_ratio REAL,
    errors INTEGER,
    rejected INTEGER,
    shed INTEGER,
    busy_retries INTEGER,
    wall_p50 REAL,
    wall_p90 REAL,
    wall_p99 REAL,
    source TEXT,
    content_hash TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS bench_serve_saturation (
    id INTEGER PRIMARY KEY,
    preset TEXT,
    quick INTEGER,
    scheme TEXT,
    arch TEXT,
    offered_rps REAL,
    achieved_rps REAL,
    wall_p99 REAL,
    source TEXT,
    content_hash TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS load_reports (
    id INTEGER PRIMARY KEY,
    mode TEXT,
    requests_total INTEGER,
    requests_measured INTEGER,
    cache_served INTEGER,
    origin_served INTEGER,
    duration_seconds REAL,
    requests_per_second REAL,
    wall_latency_mean REAL,
    wall_latency_p50 REAL,
    wall_latency_p90 REAL,
    wall_latency_p99 REAL,
    updates_applied INTEGER,
    copies_invalidated INTEGER,
    errors INTEGER,
    rejected INTEGER,
    shed INTEGER,
    busy_retries INTEGER,
    aborted INTEGER,
    hit_ratio REAL,
    byte_hit_ratio REAL,
    mean_latency REAL,
    mean_hops REAL,
    source TEXT,
    content_hash TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS coherency (
    id INTEGER PRIMARY KEY,
    mode TEXT,
    architecture TEXT,
    scheme TEXT,
    context TEXT,
    events_published INTEGER,
    event_deliveries INTEGER,
    polls INTEGER,
    subscriptions INTEGER,
    catchups INTEGER,
    channel_bytes INTEGER,
    inv_frames INTEGER,
    inv_bytes INTEGER,
    protocol_bytes INTEGER,
    stale_hits INTEGER,
    stale_bytes INTEGER,
    copies_invalidated INTEGER,
    stale_copies_evicted INTEGER,
    staleness_p50 REAL,
    staleness_p99 REAL,
    origin_load REAL,
    source TEXT,
    content_hash TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS metrics_samples (
    id INTEGER PRIMARY KEY,
    scraped_at REAL,
    metric TEXT,
    node TEXT,
    value REAL,
    source TEXT,
    content_hash TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS spans (
    id INTEGER PRIMARY KEY,
    trace_id TEXT,
    span_id TEXT,
    parent_id TEXT,
    node INTEGER,
    shard INTEGER,
    op TEXT,
    status TEXT,
    path_index INTEGER,
    hit_index INTEGER,
    object_id INTEGER,
    size INTEGER,
    trace_time REAL,
    start REAL,
    wall REAL,
    upstream REAL,
    lookup REAL,
    decide REAL,
    deliver REAL,
    retries INTEGER,
    failovers INTEGER,
    piggyback_bytes INTEGER,
    crossed_shard INTEGER,
    inflight INTEGER,
    source TEXT,
    content_hash TEXT NOT NULL UNIQUE
);
"""

_NODE_COUNTERS = NodeStats.__slots__


@dataclass(frozen=True)
class CannedQuery:
    """One entry of the query catalog: name, what it answers, the SQL."""

    name: str
    description: str
    sql: str


CANNED_QUERIES: Dict[str, CannedQuery] = {
    q.name: q
    for q in (
        CannedQuery(
            "scheme-arch",
            "Scheme x architecture comparison (the paper's Figures 6-10 "
            "axes): hit ratio, byte hit ratio, mean latency and load per "
            "ingested sweep point",
            "SELECT architecture, scheme, relative_cache_size, hit_ratio, "
            "byte_hit_ratio, mean_latency, mean_hops, "
            "mean_read_load + mean_write_load AS mean_cache_load "
            "FROM points "
            "ORDER BY architecture, scheme, relative_cache_size",
        ),
        CannedQuery(
            "provisioning",
            "Joint placement + sizing comparison: every sweep point keyed "
            "by its capacity profile (uniform = fixed-size run), so "
            "--provision points render alongside plain ones",
            "SELECT architecture, scheme, relative_cache_size, "
            "COALESCE(provision_profile, 'uniform') AS profile, "
            "hit_ratio, byte_hit_ratio, mean_latency, mean_hops "
            "FROM points "
            "ORDER BY architecture, scheme, relative_cache_size, profile",
        ),
        CannedQuery(
            "overhead",
            "Coordination overhead per scheme x architecture: total "
            "piggyback bytes and per-request byte cost from per-node "
            "counters (the paper's Figure 9 axis)",
            "SELECT architecture, scheme, "
            "SUM(piggyback_bytes) AS piggyback_bytes, "
            "SUM(hits) AS hits, SUM(misses) AS misses "
            "FROM node_stats GROUP BY architecture, scheme "
            "ORDER BY architecture, scheme",
        ),
        CannedQuery(
            "saturation-knee",
            "Serving saturation-knee history across ingested BENCH_serve "
            "baselines: offered vs achieved rps and p99 at the knee",
            "SELECT source, preset, quick, scheme, arch, offered_rps, "
            "achieved_rps, wall_p99 FROM bench_serve_saturation "
            "ORDER BY source, quick",
        ),
        CannedQuery(
            "violations",
            "Audit violations by scheme and check across every ingested "
            "run record",
            'SELECT scheme, "check", COUNT(*) AS violations '
            'FROM audit_violations GROUP BY scheme, "check" '
            "ORDER BY violations DESC",
        ),
        CannedQuery(
            "loadgen",
            "Ingested load-generator reports: throughput, wall latency "
            "tail, errors and backpressure",
            "SELECT source, mode, requests_total, requests_per_second, "
            "wall_latency_p99, hit_ratio, errors, rejected, shed "
            "FROM load_reports ORDER BY source",
        ),
        CannedQuery(
            "coherency-modes",
            "In-band vs. channel invalidation across ingested sim points, "
            "loadgen reports and snapshots: protocol overhead bytes, "
            "origin load, stale-hit bytes and the staleness tail",
            "SELECT mode, architecture, scheme, context, events_published, "
            "protocol_bytes, origin_load, stale_hits, stale_bytes, "
            "staleness_p50, staleness_p99 FROM coherency "
            "ORDER BY architecture, scheme, context, mode",
        ),
        CannedQuery(
            "slow-traces",
            "The 20 slowest reconstructed request walks by root wall "
            "time, with their retry/failover counts",
            "SELECT trace_id, COUNT(*) AS spans, "
            "COUNT(DISTINCT shard) AS shards, SUM(retries) AS retries, "
            "SUM(failovers) AS failovers, MAX(wall) AS max_wall_s "
            "FROM spans GROUP BY trace_id "
            "ORDER BY max_wall_s DESC LIMIT 20",
        ),
        CannedQuery(
            "trace-shards",
            "Cross-shard coverage per trace: how many shards and nodes "
            "each reconstructed walk touched",
            "SELECT trace_id, COUNT(*) AS spans, "
            "COUNT(DISTINCT shard) AS shards, "
            "COUNT(DISTINCT node) AS nodes, "
            "SUM(CASE WHEN crossed_shard THEN 1 ELSE 0 END) AS xshard_hops "
            "FROM spans GROUP BY trace_id "
            "ORDER BY shards DESC, spans DESC",
        ),
        CannedQuery(
            "metrics-latest",
            "Latest scraped value per (metric, node) across ingested "
            "/metrics samples",
            "SELECT metric, node, value, scraped_at FROM metrics_samples "
            "WHERE id IN (SELECT MAX(id) FROM metrics_samples "
            "GROUP BY metric, node) ORDER BY metric, node",
        ),
    )
}


@dataclass
class IngestResult:
    """What one ingest call did: per-table added/duplicate row counts."""

    path: str
    format: str
    added: Dict[str, int] = field(default_factory=dict)
    duplicates: Dict[str, int] = field(default_factory=dict)

    @property
    def total_added(self) -> int:
        return sum(self.added.values())

    @property
    def total_duplicates(self) -> int:
        return sum(self.duplicates.values())

    def merge(self, other: "IngestResult") -> None:
        for table, count in other.added.items():
            self.added[table] = self.added.get(table, 0) + count
        for table, count in other.duplicates.items():
            self.duplicates[table] = self.duplicates.get(table, 0) + count

    def format_line(self) -> str:
        if not self.added and not self.duplicates:
            return f"{self.path}: {self.format}, nothing ingestable"
        parts = [
            f"{table}+{count}" for table, count in sorted(self.added.items())
        ]
        dup = self.total_duplicates
        tail = f" ({dup} duplicate rows ignored)" if dup else ""
        return (
            f"{self.path}: {self.format}, "
            f"{', '.join(parts) if parts else 'no new rows'}{tail}"
        )


def _canonical(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _content_hash(table: str, record) -> str:
    digest = hashlib.sha256()
    digest.update(table.encode())
    digest.update(b"\x00")
    digest.update(_canonical(record).encode())
    return digest.hexdigest()


def _key_fields(run_key: Optional[str]) -> dict:
    """Architecture/scheme/size recovered from a GridTask key, if JSON."""
    if not isinstance(run_key, str):
        return {}
    try:
        parsed = json.loads(run_key)
    except json.JSONDecodeError:
        return {}
    return parsed if isinstance(parsed, dict) else {}


class Warehouse:
    """A sqlite results warehouse over every repo artifact format."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.conn = sqlite3.connect(str(self.path))
        self.conn.executescript(_SCHEMA)
        self._migrate()
        self.conn.commit()

    def _migrate(self) -> None:
        """Bring a pre-existing database up to the current schema.

        ``CREATE TABLE IF NOT EXISTS`` leaves old tables untouched, so
        columns added later (the provisioning pair) are bolted on here;
        existing rows read back NULL for them, which every consumer
        treats as "uniform sizing".
        """
        existing = {
            row[1] for row in self.conn.execute("PRAGMA table_info(points)")
        }
        for column in ("provision_profile", "provision_multipliers"):
            if column not in existing:
                self.conn.execute(
                    f"ALTER TABLE points ADD COLUMN {column} TEXT"
                )

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- ingestion -----------------------------------------------------------

    def ingest(self, path: str | Path) -> IngestResult:
        """Ingest one artifact file, auto-detecting its format.

        Understands: sweep results JSON, run-record sidecars, checkpoint
        JSONL, ``BENCH_serve.json``, loadgen report
        JSON, cluster state snapshots, JSONL event traces (span events),
        and Prometheus text scrapes.  Raises ``ValueError`` for a file
        that matches none of them.
        """
        path = Path(path)
        text = path.read_text()
        source = str(path)
        document = None
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            pass
        if isinstance(document, dict):
            result = self._ingest_document(document, source)
        elif document is None:
            result = self._ingest_lines(text, source)
        else:
            raise ValueError(f"{path}: JSON artifact is not an object")
        if result is None:
            raise ValueError(f"{path}: unrecognized artifact format")
        self.conn.commit()
        return result

    def _ingest_document(
        self, document: dict, source: str
    ) -> Optional[IngestResult]:
        if "points" in document and isinstance(document["points"], list):
            result = IngestResult(source, "results JSON")
            for raw in document["points"]:
                self._add_point(result, raw, source)
            return result
        if "records" in document and isinstance(document["records"], list):
            result = IngestResult(source, "run records")
            for raw in document["records"]:
                self._add_run_record(result, raw, source)
            return result
        if "levels" in document and "saturation" in document:
            result = IngestResult(source, "BENCH_serve baseline")
            self._add_bench_serve(result, document, source, quick=False)
            return result
        if "modelled" in document and "mode" in document:
            result = IngestResult(source, "loadgen report")
            self._add_load_report(result, document, source)
            return result
        if "nodes" in document and "scheme" in document:
            result = IngestResult(source, "cluster snapshot")
            self._add_snapshot(result, document, source)
            return result
        return None

    def _ingest_lines(self, text: str, source: str) -> Optional[IngestResult]:
        lines = []
        saw_json = False
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(raw, dict):
                saw_json = True
                lines.append(raw)
        if saw_json:
            if any("key" in raw and "point" in raw for raw in lines):
                result = IngestResult(source, "checkpoint JSONL")
                for raw in lines:
                    self._add_checkpoint_line(result, raw, source)
                return result
            if any("kind" in raw for raw in lines):
                result = IngestResult(source, "event trace")
                for raw in lines:
                    if raw.get("kind") == "span":
                        self._add_span(result, raw, source)
                return result
            return None
        # Not JSON at all: a Prometheus text scrape?
        from repro.obs.export import parse_prometheus_text

        samples = list(parse_prometheus_text(text))
        if not samples:
            return None
        result = IngestResult(source, "prometheus scrape")
        for metric, labels, value in samples:
            self.add_metrics_sample(
                result, metric, labels.get("node"), value, None, source
            )
        return result

    def _insert(
        self,
        result: IngestResult,
        table: str,
        columns: Sequence[str],
        values: Sequence,
        record,
    ) -> None:
        content_hash = _content_hash(table, record)
        placeholders = ", ".join("?" for _ in range(len(columns) + 1))
        quoted = ", ".join(f'"{c}"' for c in list(columns) + ["content_hash"])
        cursor = self.conn.execute(
            f"INSERT OR IGNORE INTO {table} ({quoted}) "
            f"VALUES ({placeholders})",
            list(values) + [content_hash],
        )
        bucket = result.added if cursor.rowcount else result.duplicates
        bucket[table] = bucket.get(table, 0) + 1

    def _add_point(
        self, result: IngestResult, raw: dict, source: str, key: str = None
    ) -> None:
        summary = raw.get("summary", {})
        percentiles = summary.get("latency_percentiles") or (None, None, None)
        provision = raw.get("provision")
        provision_profile = None
        provision_multipliers = None
        if isinstance(provision, dict):
            provision_profile = provision.get("profile")
            multipliers = provision.get("level_multipliers")
            if multipliers is not None:
                provision_multipliers = _canonical(multipliers)
        identity = {"point": raw}
        if key is not None:
            identity["key"] = key
        self._insert(
            result,
            "points",
            (
                "architecture",
                "scheme",
                "relative_cache_size",
                "requests",
                "hit_ratio",
                "byte_hit_ratio",
                "mean_latency",
                "mean_response_ratio",
                "mean_traffic_byte_hops",
                "mean_hops",
                "mean_read_load",
                "mean_write_load",
                "latency_p50",
                "latency_p90",
                "latency_p99",
                "provision_profile",
                "provision_multipliers",
                "source",
            ),
            (
                raw.get("architecture"),
                raw.get("scheme"),
                raw.get("relative_cache_size"),
                summary.get("requests"),
                summary.get("hit_ratio"),
                summary.get("byte_hit_ratio"),
                summary.get("mean_latency"),
                summary.get("mean_response_ratio"),
                summary.get("mean_traffic_byte_hops"),
                summary.get("mean_hops"),
                summary.get("mean_read_load"),
                summary.get("mean_write_load"),
                percentiles[0],
                percentiles[1],
                percentiles[2],
                provision_profile,
                provision_multipliers,
                source,
            ),
            identity["point"],
        )
        coherency = raw.get("coherency")
        if isinstance(coherency, dict):
            requests = summary.get("requests")
            hit_ratio = summary.get("hit_ratio")
            origin_load = (
                requests * (1.0 - hit_ratio)
                if requests is not None and hit_ratio is not None
                else None
            )
            self._add_coherency(
                result,
                coherency,
                architecture=raw.get("architecture"),
                scheme=raw.get("scheme"),
                context="sim",
                origin_load=origin_load,
                source=source,
                identity={"coherency_of": identity},
            )

    def _add_coherency(
        self,
        result: IngestResult,
        stats: dict,
        architecture: Optional[str],
        scheme: Optional[str],
        context: str,
        origin_load: Optional[float],
        source: str,
        identity,
    ) -> None:
        """One coherency-accounting row (shared by every artifact family).

        ``context`` records which artifact carried the accounting --
        ``sim`` (a sweep point), ``loadgen`` (a load report) or
        ``snapshot`` (a cluster state snapshot) -- so the
        ``coherency-modes`` comparison can line up like with like.
        ``origin_load`` is requests that reached the origin: the cache
        relief an invalidation design gives up.
        """
        self._insert(
            result,
            "coherency",
            (
                "mode",
                "architecture",
                "scheme",
                "context",
                "events_published",
                "event_deliveries",
                "polls",
                "subscriptions",
                "catchups",
                "channel_bytes",
                "inv_frames",
                "inv_bytes",
                "protocol_bytes",
                "stale_hits",
                "stale_bytes",
                "copies_invalidated",
                "stale_copies_evicted",
                "staleness_p50",
                "staleness_p99",
                "origin_load",
                "source",
            ),
            (
                stats.get("mode"),
                architecture,
                scheme,
                context,
                stats.get("events_published"),
                stats.get("event_deliveries"),
                stats.get("polls"),
                stats.get("subscriptions"),
                stats.get("catchups"),
                stats.get("channel_bytes"),
                stats.get("inv_frames"),
                stats.get("inv_bytes"),
                stats.get("protocol_bytes"),
                stats.get("stale_hits"),
                stats.get("stale_bytes"),
                stats.get("copies_invalidated"),
                stats.get("stale_copies_evicted"),
                stats.get("staleness_p50"),
                stats.get("staleness_p99"),
                origin_load,
                source,
            ),
            identity,
        )

    def _add_run_record(
        self, result: IngestResult, raw: dict, source: str
    ) -> None:
        run_key = raw.get("key")
        key_fields = _key_fields(run_key)
        architecture = key_fields.get("architecture")
        scheme = raw.get("scheme", key_fields.get("scheme"))
        violations = raw.get("audit_violations") or ()
        self._insert(
            result,
            "runs",
            (
                "run_key",
                "architecture",
                "scheme",
                "relative_cache_size",
                "duration_seconds",
                "requests",
                "requests_per_second",
                "worker",
                "reused",
                "audit_checks",
                "audit_violations",
                "source",
            ),
            (
                run_key,
                architecture,
                scheme,
                raw.get("relative_cache_size"),
                raw.get("duration_seconds"),
                raw.get("requests"),
                raw.get("requests_per_second"),
                raw.get("worker"),
                1 if raw.get("reused") else 0,
                raw.get("audit_checks"),
                len(violations),
                source,
            ),
            raw,
        )
        for violation in violations:
            if not isinstance(violation, dict):
                continue
            self._insert(
                result,
                "audit_violations",
                ("run_key", "scheme", "check", "detail", "request_index",
                 "source"),
                (
                    run_key,
                    scheme,
                    violation.get("check"),
                    violation.get("detail"),
                    violation.get("request_index"),
                    source,
                ),
                {"key": run_key, "violation": violation},
            )
        node_stats = raw.get("node_stats")
        if isinstance(node_stats, dict):
            for node, counters in node_stats.items():
                if not isinstance(counters, dict):
                    continue
                self._add_node_stats(
                    result, run_key, architecture, scheme, node, counters,
                    source,
                )

    def _add_node_stats(
        self,
        result: IngestResult,
        run_key: Optional[str],
        architecture: Optional[str],
        scheme: Optional[str],
        node,
        counters: dict,
        source: str,
    ) -> None:
        self._insert(
            result,
            "node_stats",
            ("run_key", "architecture", "scheme", "node") + _NODE_COUNTERS
            + ("source",),
            (run_key, architecture, scheme, str(node))
            + tuple(counters.get(name, 0) for name in _NODE_COUNTERS)
            + (source,),
            {"key": run_key, "node": str(node), "stats": counters},
        )

    def _add_checkpoint_line(
        self, result: IngestResult, raw: dict, source: str
    ) -> None:
        key = raw.get("key")
        point = raw.get("point")
        if isinstance(point, dict):
            self._add_point(result, point, source, key=key)
        record = raw.get("record")
        if isinstance(record, dict) and record:
            record = dict(record)
            record.setdefault("key", key)
            self._add_run_record(result, record, source)

    def _add_bench_serve(
        self, result: IngestResult, document: dict, source: str, quick: bool
    ) -> None:
        preset = document.get("preset")
        scheme = document.get("scheme")
        arch = document.get("arch")
        shards = document.get("shards")
        for level in document.get("levels") or ():
            if not isinstance(level, dict):
                continue
            self._insert(
                result,
                "bench_serve_levels",
                ("preset", "quick", "scheme", "arch", "shards",
                 "offered_rps", "offered_requests", "completed",
                 "achieved_rps", "achieved_ratio", "errors", "rejected",
                 "shed", "busy_retries", "wall_p50", "wall_p90", "wall_p99",
                 "source"),
                (
                    preset, 1 if quick else 0, scheme, arch, shards,
                    level.get("offered_rps"),
                    level.get("offered_requests"),
                    level.get("completed"),
                    level.get("achieved_rps"),
                    level.get("achieved_ratio"),
                    level.get("errors"),
                    level.get("rejected"),
                    level.get("shed"),
                    level.get("busy_retries"),
                    level.get("wall_p50"),
                    level.get("wall_p90"),
                    level.get("wall_p99"),
                    source,
                ),
                {"preset": preset, "quick": quick, "scheme": scheme,
                 "arch": arch, "level": level},
            )
        saturation = document.get("saturation")
        if isinstance(saturation, dict):
            self._insert(
                result,
                "bench_serve_saturation",
                ("preset", "quick", "scheme", "arch", "offered_rps",
                 "achieved_rps", "wall_p99", "source"),
                (
                    preset, 1 if quick else 0, scheme, arch,
                    saturation.get("offered_rps"),
                    saturation.get("achieved_rps"),
                    saturation.get("wall_p99"),
                    source,
                ),
                {"preset": preset, "quick": quick, "scheme": scheme,
                 "arch": arch, "saturation": saturation},
            )
        nested = document.get("quick")
        if isinstance(nested, dict) and not quick:
            self._add_bench_serve(result, nested, source, quick=True)

    def _add_load_report(
        self, result: IngestResult, document: dict, source: str
    ) -> None:
        modelled = document.get("modelled") or {}
        self._insert(
            result,
            "load_reports",
            ("mode", "requests_total", "requests_measured", "cache_served",
             "origin_served", "duration_seconds", "requests_per_second",
             "wall_latency_mean", "wall_latency_p50", "wall_latency_p90",
             "wall_latency_p99", "updates_applied", "copies_invalidated",
             "errors", "rejected", "shed", "busy_retries", "aborted",
             "hit_ratio", "byte_hit_ratio", "mean_latency", "mean_hops",
             "source"),
            (
                document.get("mode"),
                document.get("requests_total"),
                document.get("requests_measured"),
                document.get("cache_served"),
                document.get("origin_served"),
                document.get("duration_seconds"),
                document.get("requests_per_second"),
                document.get("wall_latency_mean"),
                document.get("wall_latency_p50"),
                document.get("wall_latency_p90"),
                document.get("wall_latency_p99"),
                document.get("updates_applied"),
                document.get("copies_invalidated"),
                document.get("errors"),
                document.get("rejected"),
                document.get("shed"),
                document.get("busy_retries"),
                1 if document.get("aborted") else 0,
                modelled.get("hit_ratio"),
                modelled.get("byte_hit_ratio"),
                modelled.get("mean_latency"),
                modelled.get("mean_hops"),
                source,
            ),
            document,
        )
        coherency = document.get("coherency")
        if isinstance(coherency, dict):
            self._add_coherency(
                result,
                coherency,
                architecture=document.get("arch"),
                scheme=document.get("scheme"),
                context="loadgen",
                origin_load=document.get("origin_served"),
                source=source,
                identity={"coherency_of": document},
            )

    def _add_snapshot(
        self, result: IngestResult, document: dict, source: str
    ) -> None:
        scheme = document.get("scheme")
        architecture = document.get("architecture")
        for node, payload in sorted((document.get("nodes") or {}).items()):
            if not isinstance(payload, dict):
                continue
            counters = payload.get("stats")
            if not isinstance(counters, dict):
                continue
            self._add_node_stats(
                result, None, architecture, scheme, node, counters, source
            )
        coherency = document.get("coherency")
        if isinstance(coherency, dict):
            self._add_coherency(
                result,
                coherency,
                architecture=architecture,
                scheme=scheme,
                context="snapshot",
                origin_load=None,
                source=source,
                identity={
                    "coherency_of": {
                        "scheme": scheme,
                        "architecture": architecture,
                        "coherency": coherency,
                    }
                },
            )

    def _add_span(
        self, result: IngestResult, raw: dict, source: str
    ) -> None:
        self._insert(
            result,
            "spans",
            ("trace_id", "span_id", "parent_id", "node", "shard", "op",
             "status", "path_index", "hit_index", "object_id", "size",
             "trace_time", "start", "wall", "upstream", "lookup", "decide",
             "deliver", "retries", "failovers", "piggyback_bytes",
             "crossed_shard", "inflight", "source"),
            (
                raw.get("trace"),
                raw.get("span"),
                raw.get("parent"),
                raw.get("node"),
                raw.get("shard"),
                raw.get("op"),
                raw.get("status"),
                raw.get("index"),
                raw.get("hit_index"),
                raw.get("object"),
                raw.get("size"),
                raw.get("t"),
                raw.get("start"),
                raw.get("wall"),
                raw.get("upstream"),
                raw.get("lookup"),
                raw.get("decide"),
                raw.get("deliver"),
                raw.get("retries", 0),
                raw.get("failovers", 0),
                raw.get("piggyback", 0),
                1 if raw.get("xshard") else 0,
                raw.get("inflight"),
                source,
            ),
            raw,
        )

    def add_metrics_sample(
        self,
        result: Optional[IngestResult],
        metric: str,
        node: Optional[str],
        value: float,
        scraped_at: Optional[float],
        source: str,
    ) -> None:
        """One timeseries row (scrape-file ingest and the live poller)."""
        if result is None:
            result = IngestResult(source, "metrics")
        self._insert(
            result,
            "metrics_samples",
            ("scraped_at", "metric", "node", "value", "source"),
            (scraped_at, metric, node, value, source),
            {"at": scraped_at, "metric": metric, "node": node,
             "value": value, "source": source},
        )

    # -- queries -------------------------------------------------------------

    def query(self, name: str) -> Tuple[List[str], List[tuple]]:
        """Run one canned query; returns (headers, rows)."""
        canned = CANNED_QUERIES.get(name)
        if canned is None:
            raise KeyError(
                f"unknown canned query {name!r} "
                f"(available: {', '.join(sorted(CANNED_QUERIES))})"
            )
        return self.sql(canned.sql)

    def sql(self, statement: str) -> Tuple[List[str], List[tuple]]:
        """Run a free-form (read) SQL statement; returns (headers, rows)."""
        cursor = self.conn.execute(statement)
        headers = [column[0] for column in cursor.description or ()]
        return headers, cursor.fetchall()

    def table_counts(self) -> Dict[str, int]:
        tables = [
            row[0]
            for row in self.conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY name"
            )
        ]
        return {
            table: self.conn.execute(
                f'SELECT COUNT(*) FROM "{table}"'
            ).fetchone()[0]
            for table in tables
        }

    def report(self) -> str:
        """Overview: table row counts plus every non-empty canned query."""
        counts = self.table_counts()
        lines = [f"warehouse: {self.path}"]
        for table, count in counts.items():
            lines.append(f"  {table:<24} {count} rows")
        for name in sorted(CANNED_QUERIES):
            headers, rows = self.query(name)
            if not rows:
                continue
            lines.append("")
            lines.append(f"-- {name}: {CANNED_QUERIES[name].description}")
            lines.append(format_table(headers, rows))
        return "\n".join(lines)


# -- rendering ---------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[tuple]) -> str:
    """Right-aligned text table of a query result."""
    rendered = [[_cell(v) for v in row] for row in rows]
    if not rendered:
        return "(no rows)"
    widths = [
        max(len(header), *(len(row[i]) for row in rendered)) + 2
        for i, header in enumerate(headers)
    ]
    lines = ["".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in rendered:
        lines.append("".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def write_csv(headers: Sequence[str], rows: Iterable[tuple]) -> str:
    """A query result as CSV text (header row included)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


# -- the /metrics poller -----------------------------------------------------


def poll_metrics(
    warehouse: Warehouse,
    manifest: dict,
    scraped_at: float,
    timeout: float = 10.0,
) -> int:
    """Scrape every ``/metrics`` endpoint of a serve manifest once.

    Lands one ``metrics_samples`` row per (metric, node) sample, stamped
    ``scraped_at``, keyed by the manifest's advertised endpoints; returns
    the number of rows added.  Unreachable endpoints are skipped (the
    poller outlives individual node restarts).
    """
    import urllib.request

    from repro.obs.export import parse_prometheus_text

    result = IngestResult("poll", "metrics poll")
    endpoints = manifest.get("metrics") or {}
    for node, address in sorted(endpoints.items()):
        host, port = address
        url = f"http://{host}:{port}/metrics"
        try:
            body = urllib.request.urlopen(url, timeout=timeout).read()
        except OSError:
            continue
        for metric, labels, value in parse_prometheus_text(
            body.decode("utf-8", "replace")
        ):
            warehouse.add_metrics_sample(
                result,
                metric,
                labels.get("node", str(node)),
                value,
                scraped_at,
                url,
            )
    warehouse.conn.commit()
    return result.total_added
