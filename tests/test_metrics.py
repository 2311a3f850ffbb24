"""Tests for metric aggregation."""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import collector as collector_module
from repro.metrics.collector import MetricsCollector
from repro.metrics.timeseries import IntervalMetricsCollector
from repro.schemes.base import RequestOutcome


def outcome(path_len=4, hit=1, size=100, inserted=(), evictions=0):
    return RequestOutcome(
        path=list(range(path_len)),
        hit_index=hit,
        size=size,
        inserted_nodes=tuple(inserted),
        evicted_objects=evictions,
    )


class TestRequestOutcome:
    def test_served_by_cache(self):
        assert outcome(hit=1).served_by_cache
        assert not outcome(hit=3).served_by_cache

    def test_hops_and_loads(self):
        o = outcome(hit=2, size=50, inserted=(0, 1))
        assert o.hops == 2
        assert o.bytes_read == 50
        assert o.bytes_written == 100

    def test_origin_hit_reads_nothing(self):
        assert outcome(hit=3).bytes_read == 0

    def test_rejects_bad_hit_index(self):
        with pytest.raises(ValueError):
            outcome(path_len=3, hit=3)
        with pytest.raises(ValueError, match="hit_index out of path range"):
            outcome(path_len=3, hit=-1)

    def test_value_equality(self):
        assert outcome(hit=2, inserted=(0, 1)) == outcome(hit=2, inserted=(0, 1))
        assert outcome(hit=2, inserted=(0, 1)) != outcome(hit=2, inserted=(1,))
        assert outcome(hit=2) != outcome(hit=1)
        assert outcome(evictions=1) != outcome(evictions=2)
        assert outcome() != (list(range(4)), 1, 100, (), 0)

    def test_repr_names_every_field(self):
        assert repr(outcome(path_len=2, hit=1, size=10, inserted=(0,))) == (
            "RequestOutcome(path=[0, 1], hit_index=1, size=10, "
            "inserted_nodes=(0,), evicted_objects=0)"
        )

    def test_positional_and_keyword_construction_agree(self):
        assert RequestOutcome([0, 1, 2], 1, 7, (0,), 3) == outcome(
            path_len=3, hit=1, size=7, inserted=(0,), evictions=3
        )
        assert RequestOutcome((0, 1), 1, 5).inserted_nodes == ()
        assert RequestOutcome((0, 1), 1, 5).evicted_objects == 0


def _outcome_stream():
    """Outcomes with their latency and time: origin hits, cache hits,
    zero and multi-node insertions."""

    @st.composite
    def one(draw):
        path_len = draw(st.integers(2, 8))
        hit = draw(st.integers(0, path_len - 1))
        inserted = draw(
            st.lists(st.integers(0, max(hit - 1, 0)), max_size=hit, unique=True)
            if hit
            else st.just([])
        )
        return (
            RequestOutcome(
                list(range(path_len)),
                hit,
                draw(st.integers(1, 10**6)),
                tuple(inserted),
                draw(st.integers(0, 5)),
            ),
            draw(st.floats(0.0, 1e3, allow_nan=False)),
            draw(st.floats(0.0, 100.0, allow_nan=False)),
        )

    return st.lists(one(), min_size=1, max_size=60)


class _PropertyFormulas:
    """Both collectors' accumulation spelled through the outcome
    properties and ``Random.randrange`` -- the reference the inlined
    reads must reproduce bit for bit."""

    def __init__(self, window_seconds: float) -> None:
        self.requests = 0
        self.reservoir = []
        self.rng = random.Random(0x5EED)
        self.totals = dict.fromkeys(
            ("latency_sum", "response_ratio_sum", "byte_hops"), 0.0
        )
        self.totals.update(
            dict.fromkeys(
                ("bytes_requested", "bytes_cache_served", "cache_hits", "hops",
                 "bytes_read", "bytes_written"),
                0,
            )
        )
        self.window_seconds = window_seconds
        self.windows = {}

    def record(self, outcome, latency, now, reservoir_size):
        self.requests += 1
        if len(self.reservoir) < reservoir_size:
            self.reservoir.append(latency)
        else:
            slot = self.rng.randrange(self.requests)
            if slot < reservoir_size:
                self.reservoir[slot] = latency
        t = self.totals
        t["latency_sum"] += latency
        t["response_ratio_sum"] += latency / outcome.size
        t["bytes_requested"] += outcome.size
        if outcome.served_by_cache:
            t["bytes_cache_served"] += outcome.size
            t["cache_hits"] += 1
        t["byte_hops"] += outcome.size * outcome.hops
        t["hops"] += outcome.hops
        t["bytes_read"] += outcome.bytes_read
        t["bytes_written"] += outcome.bytes_written

        bucket = self.windows.setdefault(
            int(now // self.window_seconds), [0, 0.0, 0, 0, 0, 0, 0, 0]
        )
        bucket[0] += 1
        bucket[1] += latency
        bucket[2] += outcome.size
        if outcome.served_by_cache:
            bucket[3] += outcome.size
            bucket[5] += 1
            bucket[6] += outcome.bytes_read
        bucket[4] += outcome.hops
        bucket[7] += outcome.bytes_written


class TestCollectorsMatchPropertyFormulas:
    """The collectors read each outcome field once; the totals, series
    and sampled percentiles are those of the property formulas."""

    @pytest.mark.parametrize("reservoir_size", [8192, 4])
    @given(stream=_outcome_stream())
    @settings(max_examples=150, deadline=None)
    def test_totals_series_and_reservoir(self, reservoir_size, stream):
        reference = _PropertyFormulas(window_seconds=7.0)
        collector = MetricsCollector()
        intervals = IntervalMetricsCollector(7.0)
        with mock.patch.object(collector_module, "_RESERVOIR_SIZE", reservoir_size):
            for outcome_, latency, now in stream:
                collector.record(outcome_, latency)
                intervals.record(outcome_, latency, now)
                reference.record(outcome_, latency, now, reservoir_size)
        assert collector.totals() == {
            "requests": reference.requests, **reference.totals
        }
        assert collector._reservoir == reference.reservoir
        expected_series = IntervalMetricsCollector(7.0)
        expected_series._windows = reference.windows
        assert intervals.series() == expected_series.series()

    def test_full_reservoir_percentiles_unchanged(self):
        """Past the reservoir's size the inlined sampler draws the
        ``randrange`` stream: same slots, same percentiles."""
        reference = _PropertyFormulas(window_seconds=1.0)
        collector = MetricsCollector()
        draw = random.Random(3)
        for i in range(20_000):
            latency = draw.random() * 10.0
            collector.record(outcome(hit=i % 4), latency)
            reference.record(outcome(hit=i % 4), latency, 0.0, 8192)
        assert collector._reservoir == reference.reservoir
        rebuilt = MetricsCollector.from_totals(
            collector.totals(), reference.reservoir
        )
        assert (
            collector.summary().latency_percentiles
            == rebuilt.summary().latency_percentiles
        )


class TestMetricsCollector:
    def test_empty_summary_raises(self):
        with pytest.raises(ValueError):
            MetricsCollector().summary()

    def test_rejects_negative_latency(self):
        collector = MetricsCollector()
        with pytest.raises(ValueError):
            collector.record(outcome(), latency=-1.0)

    def test_single_request_summary(self):
        collector = MetricsCollector()
        collector.record(outcome(hit=2, size=100, inserted=(0,)), latency=3.0)
        s = collector.summary()
        assert s.requests == 1
        assert s.mean_latency == 3.0
        assert s.mean_response_ratio == pytest.approx(0.03)
        assert s.byte_hit_ratio == 1.0
        assert s.hit_ratio == 1.0
        assert s.mean_traffic_byte_hops == 200.0
        assert s.mean_hops == 2.0
        assert s.mean_read_load == 100.0
        assert s.mean_write_load == 100.0
        assert s.mean_cache_load == 200.0
        assert s.read_load_share == pytest.approx(0.5)

    def test_mixed_hits_and_misses(self):
        collector = MetricsCollector()
        collector.record(outcome(hit=1, size=100), latency=1.0)  # cache hit
        collector.record(outcome(hit=3, size=300), latency=3.0)  # origin
        s = collector.summary()
        assert s.requests == 2
        assert s.mean_latency == 2.0
        assert s.byte_hit_ratio == pytest.approx(100 / 400)
        assert s.hit_ratio == 0.5
        assert s.mean_hops == 2.0

    def test_read_load_share_zero_when_no_load(self):
        collector = MetricsCollector()
        collector.record(outcome(hit=3, size=10), latency=1.0)
        assert collector.summary().read_load_share == 0.0

    def test_latency_percentiles_ordering(self):
        collector = MetricsCollector()
        for i in range(1000):
            collector.record(outcome(), latency=float(i))
        p50, p90, p99 = collector.summary().latency_percentiles
        assert p50 <= p90 <= p99
        assert abs(p50 - 500) < 25
        assert abs(p90 - 900) < 25
        assert abs(p99 - 990) < 15

    def test_percentiles_deterministic_across_collectors(self):
        def build():
            collector = MetricsCollector()
            for i in range(20_000):
                collector.record(outcome(), latency=float(i % 997))
            return collector.summary().latency_percentiles

        assert build() == build()

    def test_single_request_percentiles(self):
        collector = MetricsCollector()
        collector.record(outcome(), latency=4.0)
        assert collector.summary().latency_percentiles == (4.0, 4.0, 4.0)
