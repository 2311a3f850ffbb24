"""Tests for per-window time-series metrics."""

from __future__ import annotations

import pytest

import json

from repro.costs.model import LatencyCostModel
from repro.metrics.timeseries import (
    IntervalMetricsCollector,
    IntervalSnapshot,
    series_to_csv,
    series_to_json,
)
from repro.schemes.base import RequestOutcome
from repro.schemes.lru_everywhere import LRUEverywhereScheme
from repro.sim.architecture import build_hierarchical_architecture
from repro.sim.engine import SimulationEngine
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig


def outcome(hit=1, size=100, inserted=()):
    return RequestOutcome(
        path=[0, 1, 2, 3],
        hit_index=hit,
        size=size,
        inserted_nodes=tuple(inserted),
    )


class TestIntervalCollector:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalMetricsCollector(0.0)
        collector = IntervalMetricsCollector(10.0)
        with pytest.raises(ValueError):
            collector.record(outcome(), 1.0, now=-1.0)

    def test_empty_series(self):
        assert IntervalMetricsCollector(10.0).series() == []

    def test_windows_aggregate_correctly(self):
        collector = IntervalMetricsCollector(10.0)
        collector.record(outcome(hit=1, size=100), latency=2.0, now=1.0)
        collector.record(outcome(hit=3, size=300), latency=6.0, now=5.0)
        collector.record(outcome(hit=0, size=100), latency=0.0, now=15.0)
        series = collector.series()
        assert len(series) == 2
        first, second = series
        assert first.requests == 2
        assert first.mean_latency == pytest.approx(4.0)
        assert first.byte_hit_ratio == pytest.approx(100 / 400)
        assert first.mean_hops == pytest.approx(2.0)
        assert second.requests == 1
        assert second.window_start == 10.0
        assert second.midpoint == 15.0

    def test_gaps_emitted_as_empty_windows(self):
        collector = IntervalMetricsCollector(10.0)
        collector.record(outcome(), 1.0, now=5.0)
        collector.record(outcome(), 1.0, now=35.0)
        series = collector.series()
        assert len(series) == 4
        assert series[1].requests == 0
        assert series[2].requests == 0
        # Empty windows carry the new fields too, zeroed.
        assert series[1].hit_ratio == 0.0
        assert series[1].mean_read_load == 0.0
        assert series[1].mean_write_load == 0.0

    def test_windows_align_at_time_zero(self):
        collector = IntervalMetricsCollector(10.0)
        collector.record(outcome(), 1.0, now=0.0)
        collector.record(outcome(), 1.0, now=9.999)
        collector.record(outcome(), 1.0, now=10.0)
        series = collector.series()
        assert [s.window_start for s in series] == [0.0, 10.0]
        assert series[0].requests == 2
        assert series[1].requests == 1

    def test_hit_ratio_and_load_fields(self):
        collector = IntervalMetricsCollector(10.0)
        # Cache hit with two insertions downstream.
        collector.record(outcome(hit=2, size=300, inserted=[0, 1]), 1.0, now=1.0)
        # Origin hit (hit_index == last path index): no cache read.
        collector.record(outcome(hit=3, size=100, inserted=[2]), 1.0, now=2.0)
        snap = collector.series()[0]
        assert snap.hit_ratio == pytest.approx(0.5)
        assert snap.byte_hit_ratio == pytest.approx(300 / 400)
        assert snap.mean_read_load == pytest.approx(300 / 10.0)
        assert snap.mean_write_load == pytest.approx((2 * 300 + 100) / 10.0)

    def test_positional_construction_unchanged(self):
        # New fields sit at the end with defaults so pre-existing
        # positional callers keep working.
        snap = IntervalSnapshot(0.0, 10.0, 3, 1.5, 0.5, 2.0)
        assert snap.requests == 3
        assert snap.hit_ratio == 0.0


class TestSerialization:
    def _series(self):
        collector = IntervalMetricsCollector(10.0)
        collector.record(outcome(hit=2, size=200, inserted=[0]), 2.0, now=1.0)
        collector.record(outcome(), 1.0, now=25.0)
        return collector.series()

    def test_csv(self):
        text = series_to_csv(self._series())
        lines = text.strip().splitlines()
        assert lines[0].startswith("window_start,window_end,requests")
        assert lines[0].endswith("hit_ratio,mean_read_load,mean_write_load")
        assert len(lines) == 4  # header + three windows (one empty)
        first = lines[1].split(",")
        assert first[2] == "1"
        assert float(first[-2]) == pytest.approx(20.0)

    def test_json(self):
        rows = json.loads(series_to_json(self._series()))
        assert len(rows) == 3
        assert rows[0]["requests"] == 1
        assert rows[0]["hit_ratio"] == 1.0
        assert rows[1]["requests"] == 0

    def test_engine_integration_shows_warmup_convergence(self):
        workload = WorkloadConfig(
            num_objects=80,
            num_servers=4,
            num_clients=10,
            num_requests=6_000,
            seed=3,
        )
        generator = BoeingLikeTraceGenerator(workload)
        trace = generator.generate()
        arch = build_hierarchical_architecture(
            workload.num_clients, workload.num_servers, seed=0
        )
        cost = LatencyCostModel(arch.network, generator.catalog.mean_size)
        scheme = LRUEverywhereScheme(cost, capacity_bytes=200_000)
        collector = IntervalMetricsCollector(trace.duration / 10)
        SimulationEngine(arch, cost, scheme).run(
            trace, observers=[collector]
        )
        series = [s for s in collector.series() if s.requests > 0]
        assert len(series) >= 8
        # Caches warm up: later windows hit more than the first.
        assert series[-1].byte_hit_ratio > series[0].byte_hit_ratio
        # Interval collector sees the whole trace, warm-up included.
        assert sum(s.requests for s in series) == len(trace)
