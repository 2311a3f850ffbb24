"""Tests for the workload substrate: catalog, Zipf sampling, traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workload.catalog import ObjectCatalog, SizeDistribution
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.trace import (
    Trace,
    TraceRecord,
    read_trace_csv,
    read_trace_csv_columnar,
    write_trace_csv,
)
from repro.workload.zipf import ZipfSampler


class TestSizeDistribution:
    def test_sizes_within_bounds(self):
        dist = SizeDistribution()
        rng = np.random.default_rng(0)
        sizes = dist.sample(5000, rng)
        assert (sizes >= dist.min_size).all()
        assert (sizes <= dist.max_size).all()

    def test_heavy_tail_raises_mean_above_median(self):
        dist = SizeDistribution()
        rng = np.random.default_rng(1)
        sizes = dist.sample(20000, rng)
        assert sizes.mean() > np.median(sizes)

    def test_validation(self):
        with pytest.raises(ValueError):
            SizeDistribution(tail_fraction=1.5)
        with pytest.raises(ValueError):
            SizeDistribution(min_size=0)
        with pytest.raises(ValueError):
            SizeDistribution(min_size=100, max_size=50)
        with pytest.raises(ValueError):
            SizeDistribution(tail_alpha=0)


class TestObjectCatalog:
    def test_generate_shapes(self):
        catalog = ObjectCatalog.generate(num_objects=100, num_servers=7, seed=0)
        assert catalog.num_objects == 100
        assert catalog.num_servers <= 7
        assert catalog.total_bytes == catalog.sizes.sum()
        assert catalog.mean_size == pytest.approx(catalog.total_bytes / 100)

    def test_deterministic_by_seed(self):
        a = ObjectCatalog.generate(50, 5, seed=9)
        b = ObjectCatalog.generate(50, 5, seed=9)
        assert (a.sizes == b.sizes).all()
        assert (a.servers == b.servers).all()

    def test_objects_of_server_partition(self):
        catalog = ObjectCatalog.generate(200, 4, seed=2)
        all_objects = sorted(
            oid
            for server in range(catalog.num_servers)
            for oid in catalog.objects_of_server(server)
        )
        assert all_objects == list(range(200))

    def test_size_and_server_lookup(self, tiny_catalog):
        for oid in range(tiny_catalog.num_objects):
            assert tiny_catalog.size(oid) > 0
            assert 0 <= tiny_catalog.server(oid) < tiny_catalog.num_servers

    def test_views_are_readonly(self, tiny_catalog):
        with pytest.raises(ValueError):
            tiny_catalog.sizes[0] = 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ObjectCatalog(np.array([1, 2]), np.array([0]))
        with pytest.raises(ValueError):
            ObjectCatalog(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            ObjectCatalog(np.array([0]), np.array([0]))
        with pytest.raises(ValueError):
            ObjectCatalog(np.array([5]), np.array([-1]))
        with pytest.raises(ValueError):
            ObjectCatalog.generate(0, 1)


class TestZipfSampler:
    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(100, theta=0.8)
        total = sum(sampler.probability(r) for r in range(100))
        assert total == pytest.approx(1.0)

    def test_probability_monotone_decreasing(self):
        sampler = ZipfSampler(50, theta=0.8)
        probs = [sampler.probability(r) for r in range(50)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_zipf_law_ratio(self):
        # p(rank 0) / p(rank 9) == 10^theta.
        theta = 0.7
        sampler = ZipfSampler(1000, theta=theta)
        ratio = sampler.probability(0) / sampler.probability(9)
        assert ratio == pytest.approx(10**theta)

    def test_theta_zero_is_uniform(self):
        sampler = ZipfSampler(10, theta=0.0)
        for r in range(10):
            assert sampler.probability(r) == pytest.approx(0.1)

    def test_samples_in_range_and_skewed(self):
        sampler = ZipfSampler(100, theta=1.0)
        rng = np.random.default_rng(0)
        samples = sampler.sample(20000, rng)
        assert samples.min() >= 0
        assert samples.max() < 100
        top_share = (samples < 10).mean()
        assert top_share > 0.4  # head dominates under theta=1

    def test_empirical_matches_theory(self):
        sampler = ZipfSampler(20, theta=0.8)
        rng = np.random.default_rng(7)
        samples = sampler.sample(200_000, rng)
        empirical = np.bincount(samples, minlength=20) / len(samples)
        theoretical = np.array([sampler.probability(r) for r in range(20)])
        assert np.abs(empirical - theoretical).max() < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 0.8)
        with pytest.raises(ValueError):
            ZipfSampler(10, -0.1)
        sampler = ZipfSampler(10, 0.8)
        with pytest.raises(IndexError):
            sampler.probability(10)
        with pytest.raises(ValueError):
            sampler.sample(-1, np.random.default_rng(0))


class TestTrace:
    def _records(self):
        return [
            TraceRecord(0.0, client_id=0, object_id=5, server_id=1, size=100),
            TraceRecord(1.0, client_id=1, object_id=5, server_id=1, size=100),
            TraceRecord(2.0, client_id=0, object_id=7, server_id=2, size=300),
            TraceRecord(3.5, client_id=2, object_id=5, server_id=1, size=100),
        ]

    def test_basic_accessors(self):
        trace = Trace(self._records())
        assert len(trace) == 4
        assert trace.duration == 3.5
        assert trace.unique_objects() == 2
        assert trace[1].client_id == 1
        assert trace.total_requested_bytes() == 600
        assert trace.total_requested_bytes(start=2) == 400

    def test_rejects_unordered_records(self):
        records = self._records()
        records[0], records[1] = records[1], records[0]
        with pytest.raises(ValueError):
            Trace(records)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(-1.0, 0, 0, 0, 10)
        with pytest.raises(ValueError):
            TraceRecord(0.0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            TraceRecord(0.0, -1, 0, 0, 10)

    def test_warmup_split(self):
        trace = Trace(self._records())
        assert trace.split_warmup(0.5) == (2, 4)
        assert trace.split_warmup(0.0) == (0, 4)
        with pytest.raises(ValueError):
            trace.split_warmup(1.0)

    def test_most_popular_and_filter(self):
        trace = Trace(self._records())
        assert trace.most_popular(1) == [5]
        sub = trace.filter_objects([5])
        assert len(sub) == 3
        assert sub.unique_objects() == 1

    def test_csv_roundtrip(self, tmp_path):
        trace = Trace(self._records())
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        loaded = read_trace_csv(path)
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert a == b

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1.0,2,3", "expected 5 fields, got 3"),
            ("1.0,2,3,4,5,6", "expected 5 fields, got 6"),
            ("1.0,two,3,4,5", "invalid literal for int"),
            ("soon,2,3,4,5", "could not convert string to float"),
            ("1.0,1.7,2,3,100", "invalid literal for int"),
            ("1.0,1,2,3,100.9", "invalid literal for int"),
            ("1.0,1,2,3,-100", "object size must be positive"),
        ],
        ids=[
            "short", "long", "non-numeric-int", "non-numeric-float",
            "fractional-id", "fractional-size", "negative-size",
        ],
    )
    def test_csv_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "trace.csv"
        path.write_text(
            "time,client_id,object_id,server_id,size\n"
            "0.5,1,2,3,100\n"
            f"{row}\n"
        )
        # Both entry points run the one strict parse.
        for read in (read_trace_csv, read_trace_csv_columnar):
            with pytest.raises(ValueError) as excinfo:
                read(path)
            assert str(excinfo.value).startswith(f"{path}:3: ")
            assert message in str(excinfo.value)

    def test_csv_integer_time_comes_back_as_a_float(self, tmp_path):
        # The columns store times as float64, so a record built with an
        # integer time is written, and read back, as a float.
        path = tmp_path / "trace.csv"
        write_trace_csv(Trace([TraceRecord(1, 2, 3, 4, 5)]), path)
        assert path.read_text().splitlines()[1] == "1.0,2,3,4,5"
        (loaded,) = read_trace_csv(path)
        assert loaded == TraceRecord(1.0, 2, 3, 4, 5)
        assert isinstance(loaded.time, float)


class TestBoeingLikeGenerator:
    def test_trace_matches_config(self, tiny_workload):
        generator = BoeingLikeTraceGenerator(tiny_workload)
        trace = generator.generate()
        assert len(trace) == tiny_workload.num_requests
        assert all(r.object_id < tiny_workload.num_objects for r in trace)
        assert all(r.client_id < tiny_workload.num_clients for r in trace)

    def test_records_consistent_with_catalog(self, tiny_workload):
        generator = BoeingLikeTraceGenerator(tiny_workload)
        trace = generator.generate()
        catalog = generator.catalog
        for record in trace:
            assert record.size == catalog.size(record.object_id)
            assert record.server_id == catalog.server(record.object_id)

    def test_deterministic_by_seed(self, tiny_workload):
        a = BoeingLikeTraceGenerator(tiny_workload).generate()
        b = BoeingLikeTraceGenerator(tiny_workload).generate()
        assert a.records == b.records

    def test_popularity_is_zipf_skewed(self):
        config = WorkloadConfig(
            num_objects=200,
            num_servers=5,
            num_clients=20,
            num_requests=30_000,
            zipf_theta=0.9,
            seed=3,
        )
        trace = BoeingLikeTraceGenerator(config).generate()
        counts = {}
        for record in trace:
            counts[record.object_id] = counts.get(record.object_id, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        top10_share = sum(ranked[:10]) / len(trace)
        assert top10_share > 0.25

    def test_times_nondecreasing(self, tiny_workload):
        trace = BoeingLikeTraceGenerator(tiny_workload).generate()
        times = [r.time for r in trace]
        assert times == sorted(times)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_objects=0)
        with pytest.raises(ValueError):
            WorkloadConfig(num_requests=0)
        with pytest.raises(ValueError):
            WorkloadConfig(request_rate=0)
        with pytest.raises(ValueError):
            WorkloadConfig(zipf_theta=-1)
