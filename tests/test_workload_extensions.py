"""Tests for trace statistics, scenarios, parallel sweeps and result I/O."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.presets import build_architecture
from repro.experiments.results_io import load_points_json, save_points_json
from repro.experiments.sweeps import run_cache_size_sweep
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.scenarios import inject_flash_crowd, inject_scan
from repro.workload.stats import fit_zipf, summarize_trace
from repro.workload.trace import Trace, TraceRecord


@pytest.fixture(scope="module")
def workload():
    return WorkloadConfig(
        num_objects=300,
        num_servers=5,
        num_clients=30,
        num_requests=20_000,
        zipf_theta=0.8,
        seed=13,
    )


@pytest.fixture(scope="module")
def generated(workload):
    generator = BoeingLikeTraceGenerator(workload)
    return generator.generate(), generator.catalog


class TestZipfFit:
    def test_recovers_generator_theta(self, generated):
        trace, _ = generated
        fit = fit_zipf(trace)
        # Rank-frequency regression over the full range biases slightly
        # low (tail ranks are noisy), so allow a generous band.
        assert 0.55 < fit.theta < 1.0
        assert fit.r_squared > 0.8
        assert fit.num_objects <= 300
        assert fit.top_decile_share > 0.3

    def test_uniform_trace_has_theta_near_zero(self):
        config = WorkloadConfig(
            num_objects=200,
            num_servers=5,
            num_clients=10,
            num_requests=40_000,
            zipf_theta=0.0,
            seed=2,
        )
        trace = BoeingLikeTraceGenerator(config).generate()
        fit = fit_zipf(trace)
        assert fit.theta < 0.2

    def test_requires_enough_objects(self, generated):
        trace, _ = generated
        tiny = trace.filter_objects(list(trace.most_popular(3)))
        with pytest.raises(ValueError):
            fit_zipf(tiny)


class TestSummarizeTrace:
    def test_basic_statistics(self, generated):
        trace, catalog = generated
        stats = summarize_trace(trace)
        assert stats.requests == len(trace)
        assert stats.unique_objects == trace.unique_objects()
        assert stats.total_bytes == trace.total_requested_bytes()
        assert stats.mean_size > stats.median_size  # heavy tail
        assert stats.mean_request_rate > 0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            summarize_trace(Trace([]))


def _sorted_merge(base: Trace, extra: list) -> Trace:
    """The record-by-record merge the injectors must reproduce."""
    return Trace(sorted(list(base.records) + extra, key=lambda r: r.time))


def _has_equal_times(trace: Trace) -> bool:
    return bool(np.any(np.diff(trace.columns.times) == 0))


class TestScenarios:
    def test_flash_crowd_adds_requests_in_window(self, generated):
        trace, catalog = generated
        crowded = inject_flash_crowd(
            trace, catalog, object_id=5, start=10.0, duration=50.0,
            extra_rate=20.0, num_clients=30, seed=1,
        )
        added = len(crowded) - len(trace)
        assert 700 < added < 1300  # Poisson(1000)
        extra = [
            r for r in crowded
            if r.object_id == 5 and 10.0 <= r.time <= 60.0
        ]
        assert len(extra) >= added
        # Time ordering preserved.
        times = [r.time for r in crowded]
        assert times == sorted(times)
        # Original untouched.
        assert len(trace) == 20_000

    def test_flash_crowd_equals_a_sorted_record_merge(self, generated):
        trace, catalog = generated
        # The injector's draws, replayed to build its records by hand.
        rng = np.random.default_rng(4)
        count = int(rng.poisson(20.0 * 50.0))
        times = np.sort(rng.random(count) * 50.0) + 10.0
        clients = rng.integers(30, size=count)
        extra = [
            TraceRecord(float(t), int(c), 5, catalog.server(5), catalog.size(5))
            for t, c in zip(times, clients)
        ]
        # Base rows at three of the burst's own times force equal-time ties.
        base = _sorted_merge(trace, [
            TraceRecord(float(t), 0, 7, catalog.server(7), catalog.size(7))
            for t in times[[0, count // 2, count - 1]]
        ])
        crowded = inject_flash_crowd(
            base, catalog, object_id=5, start=10.0, duration=50.0,
            extra_rate=20.0, num_clients=30, seed=4,
        )
        expected = _sorted_merge(base, extra)
        assert _has_equal_times(expected)
        assert crowded.records == expected.records

    def test_flash_crowd_validation(self, generated):
        trace, catalog = generated
        with pytest.raises(ValueError):
            inject_flash_crowd(trace, catalog, 1, 0.0, 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            inject_flash_crowd(trace, catalog, 1, 0.0, 1.0, 1.0, 0)

    def test_scan_covers_all_objects_once(self, generated):
        trace, catalog = generated
        scanned = inject_scan(trace, catalog, start=5.0, inter_arrival=0.01)
        assert len(scanned) == len(trace) + catalog.num_objects
        scan_records = [r for r in scanned if r.client_id == 0 and r.time >= 5.0]
        assert len({r.object_id for r in scan_records}) >= catalog.num_objects * 0.9

    def test_scan_equals_a_sorted_record_merge(self, generated):
        trace, catalog = generated
        # Starting at a base row's time forces an equal-time tie.
        start = trace.records[100].time
        scanned = inject_scan(trace, catalog, start=start, inter_arrival=0.01)
        expected = _sorted_merge(trace, [
            TraceRecord(
                start + i * 0.01, 0, oid, catalog.server(oid), catalog.size(oid)
            )
            for i, oid in enumerate(range(catalog.num_objects))
        ])
        assert _has_equal_times(expected)
        assert scanned.records == expected.records

    def test_scan_validation(self, generated):
        trace, catalog = generated
        with pytest.raises(ValueError):
            inject_scan(trace, catalog, 0.0, 0.0)


class TestParallelSweep:
    def test_parallel_matches_sequential(self):
        workload = WorkloadConfig(
            num_objects=60,
            num_servers=4,
            num_clients=8,
            num_requests=1_200,
            seed=5,
        )
        generator = BoeingLikeTraceGenerator(workload)
        trace = generator.generate()
        arch = build_architecture("hierarchical", workload, seed=0)
        kwargs = dict(
            scheme_names=["lru", "coordinated"], cache_sizes=[0.02, 0.1]
        )
        sequential = run_cache_size_sweep(
            arch, trace, generator.catalog, workers=1, **kwargs
        )
        parallel = run_cache_size_sweep(
            arch, trace, generator.catalog, workers=2, **kwargs
        )
        assert [(p.scheme, p.relative_cache_size) for p in sequential] == [
            (p.scheme, p.relative_cache_size) for p in parallel
        ]
        for a, b in zip(sequential, parallel):
            assert a.summary == b.summary

    def test_invalid_workers(self):
        workload = WorkloadConfig(
            num_objects=10, num_servers=2, num_clients=2, num_requests=10
        )
        generator = BoeingLikeTraceGenerator(workload)
        arch = build_architecture("hierarchical", workload, seed=0)
        with pytest.raises(ValueError):
            run_cache_size_sweep(
                arch,
                generator.generate(),
                generator.catalog,
                scheme_names=["lru"],
                cache_sizes=[0.1],
                workers=0,
            )


class TestResultsIO:
    def test_roundtrip(self, tmp_path):
        workload = WorkloadConfig(
            num_objects=40, num_servers=3, num_clients=5, num_requests=800
        )
        generator = BoeingLikeTraceGenerator(workload)
        arch = build_architecture("hierarchical", workload, seed=0)
        points = run_cache_size_sweep(
            arch,
            generator.generate(),
            generator.catalog,
            scheme_names=["lru"],
            cache_sizes=[0.05],
        )
        path = tmp_path / "points.json"
        save_points_json(points, path)
        loaded = load_points_json(path)
        assert len(loaded) == len(points)
        assert loaded[0] == points[0]

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 99, "points": []}')
        with pytest.raises(ValueError):
            load_points_json(path)
