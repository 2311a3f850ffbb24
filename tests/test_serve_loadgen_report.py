"""LoadGenerator report folding and driving-mode edge cases.

The degenerate runs -- every request errored, or every completion landed
in the warm-up window -- must still produce a well-formed
:class:`~repro.serve.loadgen.LoadReport`: an all-zero summary, ``None``
latency fields (JSON ``null``), and never a bare ``NaN`` token in the
serialized manifest.  The driving-mode tests stub the cluster (no
sockets): the open-loop pacer must keep memory O(in-flight), abort past
``max_errors`` must stay graceful (partial report, never a cancelled
gather), and ``requests_per_second`` must be the measured-window rate or
``None`` -- never a misleading ``0.0``.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.schemes.base import RequestOutcome
from repro.serve.loadgen import (
    LoadGenerator,
    _Completed,
    _Counters,
    _percentiles,
)
from repro.serve.protocol import NodeBusy
from repro.workload.trace import Trace, TraceRecord


def _tiny_trace(n: int = 10) -> Trace:
    return Trace(
        [
            TraceRecord(
                time=float(i), client_id=0, object_id=i, server_id=0, size=100
            )
            for i in range(n)
        ]
    )


def _loadgen(trace: Trace) -> LoadGenerator:
    # _report only touches self.trace / self.warmup_fraction; skip the
    # cluster-wiring __init__ so the fold is testable without sockets.
    gen = object.__new__(LoadGenerator)
    gen.trace = trace
    gen.warmup_fraction = 0.5
    return gen


def _outcome(size: int = 100) -> RequestOutcome:
    return RequestOutcome(
        path=(0, 1),
        hit_index=1,
        size=size,
        inserted_nodes=(),
        evicted_objects={},
    )


def _completed(index: int, started: float, finished: float) -> _Completed:
    return _Completed(
        index=index,
        outcome=_outcome(),
        latency=1.0,
        wall_seconds=finished - started,
        started=started,
        finished=finished,
    )


def _counters(errors: int = 0, max_errors: int = 0) -> _Counters:
    counters = _Counters(max_errors=max_errors)
    counters.errors = errors
    if errors > max_errors:
        counters.stop.set()
    return counters


class _StubGenerator(LoadGenerator):
    """A LoadGenerator whose requests never touch a cluster.

    ``behavior(index, record)`` decides each request's fate: return a
    wall-latency float to succeed after that (real) delay, or raise to
    fail.  Everything above ``_issue`` -- pacing, retry, abort, report
    folding -- is the genuine production code under test.
    """

    def __init__(self, trace, behavior):
        self.trace = trace
        self.updates = []
        self.warmup_fraction = 0.5
        self._behavior = behavior
        self._calls = 0
        self.peak_inflight = 0
        self._inflight_now = 0

    async def _issue(self, *row):
        import time

        record = TraceRecord(*row)
        self._calls += 1
        self._inflight_now += 1
        if self._inflight_now > self.peak_inflight:
            self.peak_inflight = self._inflight_now
        try:
            started = time.perf_counter()
            delay = self._behavior(self._calls - 1, record)
            if delay:
                await asyncio.sleep(delay)
            finished = time.perf_counter()
            return _outcome(record.size), finished - started, started, finished
        finally:
            self._inflight_now -= 1

    def _modelled_latency(self, outcome):
        return 1.0


class TestPercentiles:
    def test_empty_samples_are_null_not_nan(self):
        p50, p90, p99 = _percentiles([])
        assert p50 is None and p90 is None and p99 is None

    def test_single_sample(self):
        assert _percentiles([4.2]) == (4.2, 4.2, 4.2)

    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert _percentiles(samples) == (50, 90, 99)


class TestZeroCompletedReport:
    def test_report_shape_and_json(self):
        report = _loadgen(_tiny_trace())._report(
            mode="open",
            completed=[],
            duration=0.25,
            applied=0,
            invalidated=0,
            counters=_counters(errors=10),
        )
        assert report.requests_measured == 0
        assert report.summary.requests == 0
        assert report.summary.mean_latency == 0.0
        assert report.summary.latency_percentiles == (None, None, None)
        assert report.wall_latency_mean is None
        assert report.wall_latency_percentiles == (None, None, None)
        assert report.errors == 10
        assert report.aborted is True
        assert report.requests_per_second is None

        payload = json.dumps(report.to_dict())
        assert "NaN" not in payload and "Infinity" not in payload
        decoded = json.loads(payload)
        assert decoded["wall_latency_mean"] is None
        assert decoded["wall_latency_p99"] is None
        assert decoded["requests_per_second"] is None
        assert decoded["aborted"] is True
        for value in decoded["modelled"].values():
            assert value == 0.0 and not math.isnan(value)


class TestMeasuredWindowRps:
    def test_rps_uses_measured_window_not_wall_duration(self):
        # 10-record trace, warm-up 0.5 -> indices 5..9 are measured.
        # Measured window spans perf-counter 10.0 .. 12.0 (2 seconds);
        # the run's wall duration (60 s, warm-up included) must not
        # appear in the rate.
        completions = [
            _completed(i, started=float(i), finished=float(i) + 0.5)
            for i in range(5)
        ]
        completions += [
            _completed(5 + j, started=10.0 + 0.4 * j, finished=10.4 + 0.4 * j)
            for j in range(5)
        ]
        report = _loadgen(_tiny_trace())._report(
            mode="closed",
            completed=completions,
            duration=60.0,
            applied=0,
            invalidated=0,
            counters=_counters(),
        )
        # 5 measured completions over the 10.0..12.0 window.
        assert report.requests_per_second == pytest.approx(5 / 2.0)
        assert report.aborted is False

    def test_degenerate_window_is_null(self):
        # A single measured completion with zero span: rate is undefined,
        # so the report must say None, not 0.0 (and JSON must say null).
        completions = [
            _completed(i, started=0.0, finished=0.0) for i in range(10)
        ]
        report = _loadgen(_tiny_trace())._report(
            mode="sequential",
            completed=completions,
            duration=0.0,
            applied=0,
            invalidated=0,
            counters=_counters(),
        )
        assert report.requests_per_second is None
        assert json.loads(json.dumps(report.to_dict()))[
            "requests_per_second"
        ] is None


class TestGracefulAbort:
    def test_closed_abort_emits_partial_report(self):
        # Every request raises a *raw OS error* (not a ProtocolError):
        # the run must stop after max_errors+1 failures, count them, and
        # still hand back a report instead of a cancelled gather.
        gen = _StubGenerator(
            _tiny_trace(50),
            lambda i, record: (_ for _ in ()).throw(OSError("boom")),
        )
        report = asyncio.run(
            gen.run(mode="closed", concurrency=4, max_errors=3)
        )
        assert report.aborted is True
        assert report.errors >= 4
        assert report.errors < 50  # stopped early, did not drain the trace
        assert report.requests_measured == 0

    def test_open_abort_emits_partial_report(self):
        gen = _StubGenerator(
            _tiny_trace(50),
            lambda i, record: (_ for _ in ()).throw(ConnectionError("down")),
        )
        report = asyncio.run(
            gen.run(mode="open", speedup=1e6, max_errors=3)
        )
        assert report.aborted is True
        assert report.errors >= 4
        assert report.requests_measured == 0

    def test_errors_below_threshold_do_not_abort(self):
        # One transport blip among successes: counted, not fatal.
        gen = _StubGenerator(
            _tiny_trace(10),
            lambda i, record: (
                (_ for _ in ()).throw(OSError("blip")) if i == 2 else 0.0
            ),
        )
        report = asyncio.run(
            gen.run(mode="closed", concurrency=2, max_errors=5)
        )
        assert report.aborted is False
        assert report.errors == 1
        assert report.cache_served + report.origin_served == 9


class TestOpenLoopPacer:
    def test_inflight_stays_bounded(self):
        # 200 slow requests all due at once: the pacer must shed once the
        # in-flight cap is reached instead of materializing 200 tasks.
        gen = _StubGenerator(_tiny_trace(200), lambda i, record: 0.02)
        report = asyncio.run(
            gen.run(
                mode="open",
                speedup=1e9,
                open_inflight_limit=8,
                max_errors=0,
            )
        )
        assert gen.peak_inflight <= 8
        assert report.shed > 0
        assert report.shed + report.cache_served + report.origin_served == 200
        assert report.errors == 0

    def test_no_limit_completes_everything(self):
        gen = _StubGenerator(_tiny_trace(30), lambda i, record: 0.0)
        report = asyncio.run(gen.run(mode="open", speedup=1e9))
        assert report.shed == 0
        assert report.cache_served + report.origin_served == 30


class TestBusyBackpressure:
    def test_busy_retried_then_rejected(self):
        # Always-busy server: each logical request burns its retries and
        # lands in `rejected`, which is backpressure, not an error.
        gen = _StubGenerator(
            _tiny_trace(6),
            lambda i, record: (_ for _ in ()).throw(NodeBusy("full")),
        )
        report = asyncio.run(
            gen.run(
                mode="closed",
                concurrency=2,
                busy_retries=2,
                busy_backoff=0.0,
                max_errors=0,
            )
        )
        assert report.rejected == 6
        assert report.busy_retries == 12  # 2 retries per request
        assert report.errors == 0
        assert report.aborted is False

    def test_busy_then_success_counts_retry(self):
        # First attempt busy, retry succeeds: no rejection, one retry.
        attempts = {}

        def behavior(i, record):
            n = attempts.get(record.object_id, 0)
            attempts[record.object_id] = n + 1
            if n == 0:
                raise NodeBusy("full")
            return 0.0

        gen = _StubGenerator(_tiny_trace(4), behavior)
        report = asyncio.run(
            gen.run(
                mode="closed",
                concurrency=1,
                busy_retries=1,
                busy_backoff=0.0,
            )
        )
        assert report.rejected == 0
        assert report.busy_retries == 4
        assert report.cache_served + report.origin_served == 4
