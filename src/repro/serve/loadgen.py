"""Async load generation against a live cluster.

Drives any :class:`~repro.workload.trace.Trace` through a running
:class:`~repro.serve.cluster.Cluster` and reports two views of the run:

* the **modelled** metrics -- every ``resp`` frame is folded back into a
  :class:`~repro.metrics.collector.MetricsCollector` with the paper's
  cost-model latency, so a live replay yields the same
  :class:`~repro.metrics.collector.MetricsSummary` shape the simulator
  produces (and, in sequential mode, the identical summary);
* the **observed** wall-clock latencies of the protocol round trips,
  summarized as mean/p50/p90/p99 -- the live-serving numbers the
  simulator cannot produce.

Three driving modes:

* ``sequential`` -- one request at a time, in trace order, interleaving
  the update stream exactly as the simulator's engine does.  This is the
  differential-oracle mode: over the in-process transport it reproduces
  the engine's summary bit-for-bit.
* ``closed`` -- ``concurrency`` workers, each with one outstanding
  request; a worker sends its next request the moment its previous one
  completes.  Completion order is nondeterministic, so outcomes are
  folded into the collector in trace-index order afterwards, keeping the
  modelled summary deterministic for a given outcome set.
* ``open`` -- requests fire at their trace timestamps (compressed by
  ``speedup``) regardless of completions, measuring behavior under an
  offered load rather than a load ceiling.  A single pacer coroutine
  walks the trace and spawns one task per due request, so memory is
  O(in-flight requests), never O(trace); ``open_inflight_limit`` caps
  the in-flight set, with over-cap fires counted as ``shed`` (the
  client-side queue overflowing under an offered load the system cannot
  absorb).

Failure accounting (closed/open modes): a server's ``busy`` frame is
retried ``busy_retries`` times with a short backoff; a request still
``busy`` after that counts as ``rejected`` -- explicit backpressure, not
a failure.  Any other exception (protocol violations *and* raw
transport/OS errors) counts as an error; once ``errors > max_errors``
the run stops issuing new requests and drains what is in flight, but the
partial :class:`LoadReport` is always produced (``aborted=True``) --
never lost to a cancelled gather.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.metrics.collector import MetricsCollector, MetricsSummary
from repro.schemes.base import RequestOutcome
from repro.serve.channel import merge_channel_stats
from repro.serve.cluster import ControlPlane, broadcast_invalidate
from repro.serve.protocol import (
    MSG_CHSTATS,
    MSG_CHSYNC,
    MSG_GET,
    MSG_STATS,
    NodeBusy,
    NodeUnreachable,
)
from repro.workload.trace import Row, Trace
from repro.workload.updates import GroupUpdateEvent, UpdateEvent

MODES = ("sequential", "closed", "open")


class ClusterClient(ControlPlane):
    """Client-side view of a running cluster, e.g. from a serve manifest.

    The :class:`~repro.serve.cluster.ControlPlane` the
    :class:`LoadGenerator` drives -- ingress resolution, the transport,
    the cost model, ``apply_update`` -- without owning any node, so a
    load generator in one process can target ``repro serve`` nodes in
    another.  The architecture must be rebuilt from the same
    parameters the server used (the manifest records them); attachment
    and routing are deterministic given those parameters.

    For a channel-mode server the manifest additionally carries the
    broker address and the group parameters; with those set,
    :meth:`apply_update` publishes to the broker instead of
    broadcasting inv frames, and :meth:`coherency_report` merges the
    broker's and every node's channel accounting over the wire.
    """

    def __init__(
        self,
        architecture,
        cost_model,
        addresses,
        transport,
        coherency=None,
        groups=None,
        broker_address=None,
    ) -> None:
        if (
            coherency is not None
            and coherency.mode == "channel"
            and (groups is None or broker_address is None)
        ):
            raise ValueError(
                "a channel-mode client needs the broker address and the "
                "group assignment from the serve manifest"
            )
        super().__init__(
            architecture, cost_model, transport, addresses, coherency, groups
        )
        if coherency is not None and coherency.mode == "channel":
            self.broker_address = broker_address

    async def invalidate(self, object_id: int) -> int:
        """Strict broadcast: this is the oracle-mode client, so a node
        the invalidation did not reach is an error, not a statistic."""
        removed, delivered, skipped = await broadcast_invalidate(
            self.transport, self.addresses, self._cache_nodes, object_id
        )
        self._inv_frames += delivered
        self._copies_invalidated += removed
        if skipped:
            raise NodeUnreachable(
                f"invalidation of object {object_id} did not reach "
                f"nodes {skipped}"
            )
        return removed

    async def channel_sync(self) -> dict:
        """Drive every node's catch-up to the broker's latest sequences."""
        if self.broker_address is None:
            return {}
        broker = await self.transport.call(
            self.broker_address, {"type": MSG_CHSTATS}
        )
        latest = broker["stats"].get("latest", {})
        pending = {}
        for node_id in sorted(self.addresses):
            if node_id not in self._cache_nodes:
                continue
            reply = await self.transport.call(
                self.addresses[node_id],
                {"type": MSG_CHSYNC, "latest": latest},
            )
            pending[node_id] = reply["pending"]
        return pending

    async def coherency_report(self) -> Optional[dict]:
        """Merged coherency accounting (None when no mode configured)."""
        if self.coherency is None:
            return None
        if self.broker_address is not None:
            broker = await self.transport.call(
                self.broker_address, {"type": MSG_CHSTATS}
            )
            node_stats = []
            for node_id in sorted(self.addresses):
                reply = await self.transport.call(
                    self.addresses[node_id], {"type": MSG_STATS}
                )
                if "channel" in reply:
                    node_stats.append(reply["channel"])
            return merge_channel_stats(broker["stats"], node_stats)
        return self._inband_stats()

    async def close(self) -> None:
        await self.transport.close()


@dataclass(frozen=True)
class LoadReport:
    """One load-generation run against a live cluster."""

    mode: str
    requests_total: int
    requests_measured: int
    summary: MetricsSummary
    duration_seconds: float
    # Measured-window throughput: completions past warm-up divided by the
    # wall span from the first measured issue to the last measured
    # completion.  None (JSON null) when the window is degenerate (no
    # measured completions, or a span below timer resolution) -- never a
    # misleading 0.0.
    requests_per_second: Optional[float]
    # None (JSON null) when no request completed -- never NaN.
    wall_latency_mean: Optional[float]
    wall_latency_percentiles: Tuple[
        Optional[float], Optional[float], Optional[float]
    ]
    updates_applied: int = 0
    copies_invalidated: int = 0
    errors: int = 0
    # Backpressure accounting: requests the cluster shed with ``busy``
    # frames even after client-side retries, and fires the open-loop
    # pacer dropped because the in-flight cap was reached.  Neither is an
    # error -- both are the system explicitly refusing offered load.
    rejected: int = 0
    shed: int = 0
    busy_retries: int = 0
    # True when the run stopped early because ``errors > max_errors``;
    # the report still covers everything that completed.
    aborted: bool = False
    # Where completed requests were served, over ALL completions (warm-up
    # included): cache_served + origin_served == completed requests, the
    # conservation law the chaos fault matrix asserts under node crashes.
    cache_served: int = 0
    origin_served: int = 0
    # Coherency accounting (None when the cluster has no coherency mode
    # configured): the merged CoherencyStats dict -- protocol bytes,
    # stale hits, staleness percentiles -- for the in-band vs. channel
    # comparison.
    coherency: Optional[dict] = None

    def to_dict(self) -> dict:
        s = self.summary
        return {
            "mode": self.mode,
            "requests_total": self.requests_total,
            "requests_measured": self.requests_measured,
            "cache_served": self.cache_served,
            "origin_served": self.origin_served,
            "duration_seconds": self.duration_seconds,
            "requests_per_second": self.requests_per_second,
            "wall_latency_mean": self.wall_latency_mean,
            "wall_latency_p50": self.wall_latency_percentiles[0],
            "wall_latency_p90": self.wall_latency_percentiles[1],
            "wall_latency_p99": self.wall_latency_percentiles[2],
            "updates_applied": self.updates_applied,
            "copies_invalidated": self.copies_invalidated,
            "errors": self.errors,
            "rejected": self.rejected,
            "shed": self.shed,
            "busy_retries": self.busy_retries,
            "aborted": self.aborted,
            "coherency": self.coherency,
            "modelled": {
                "mean_latency": s.mean_latency,
                "mean_response_ratio": s.mean_response_ratio,
                "byte_hit_ratio": s.byte_hit_ratio,
                "hit_ratio": s.hit_ratio,
                "mean_traffic_byte_hops": s.mean_traffic_byte_hops,
                "mean_hops": s.mean_hops,
                "mean_read_load": s.mean_read_load,
                "mean_write_load": s.mean_write_load,
            },
        }


def _percentiles(
    samples: Sequence[float],
) -> Tuple[Optional[float], Optional[float], Optional[float]]:
    """Nearest-rank p50/p90/p99 (the collector's convention).

    An empty sample set yields ``None`` entries -- serialized by
    ``json.dumps`` as standard ``null`` -- rather than ``nan``, which
    would be emitted as the non-standard bare ``NaN`` token.
    """
    if not samples:
        return (None, None, None)
    ordered = sorted(samples)
    return tuple(
        ordered[max(0, math.ceil(q * len(ordered)) - 1)]
        for q in (0.50, 0.90, 0.99)
    )


@dataclass
class _Completed:
    """One finished request, kept until the trace-order metrics fold."""

    index: int
    outcome: RequestOutcome
    latency: float
    wall_seconds: float
    # perf_counter stamps bounding the round trip (measured-window rps).
    started: float = 0.0
    finished: float = 0.0


@dataclass
class _Counters:
    """Mutable per-run failure/backpressure tally shared by the workers."""

    max_errors: int
    errors: int = 0
    rejected: int = 0
    shed: int = 0
    busy_retries: int = 0
    stop: asyncio.Event = field(default_factory=asyncio.Event)

    def record_error(self) -> None:
        self.errors += 1
        if self.errors > self.max_errors:
            self.stop.set()

    @property
    def aborted(self) -> bool:
        return self.stop.is_set()


class LoadGenerator:
    """Replays a trace against a cluster in one of three driving modes."""

    def __init__(
        self,
        cluster: ControlPlane,
        trace: Trace,
        updates: Sequence["UpdateEvent | GroupUpdateEvent"] = (),
        warmup_fraction: float = 0.5,
    ) -> None:
        if len(trace) == 0:
            raise ValueError("cannot drive a cluster with an empty trace")
        self.cluster = cluster
        self.trace = trace
        self.updates = list(updates)
        self.warmup_fraction = warmup_fraction
        self._path_cost = cluster.cost_model.path_cost
        self._request_path = cluster.architecture.request_path

    # -- one request ---------------------------------------------------------

    async def _issue(
        self, now: float, client_id: int, object_id: int, server_id: int,
        size: int,
    ) -> Tuple[RequestOutcome, float, float, float]:
        """Send one ``get`` for one trace row and rebuild the
        simulator-shape outcome.

        Returns ``(outcome, wall_seconds, started, finished)`` with the
        perf_counter stamps bounding the round trip.
        """
        address = self.cluster.ingress_address(client_id)
        started = time.perf_counter()
        reply = await self.cluster.transport.call(
            address,
            {
                "type": MSG_GET,
                "client_id": client_id,
                "server_id": server_id,
                "object_id": object_id,
                "size": size,
                "time": now,
            },
        )
        finished = time.perf_counter()
        path = self._request_path(client_id, server_id)
        outcome = RequestOutcome(
            path=path,
            hit_index=reply["hit_index"],
            size=size,
            inserted_nodes=tuple(reply["inserted"]),
            evicted_objects=reply["evictions"],
        )
        return outcome, finished - started, started, finished

    async def _issue_with_backoff(
        self,
        row: Row,
        counters: _Counters,
        busy_retries: int,
        busy_backoff: float,
    ) -> Tuple[RequestOutcome, float, float, float]:
        """One logical request: retry ``busy`` frames before giving up."""
        attempt = 0
        while True:
            try:
                return await self._issue(*row)
            except NodeBusy:
                if attempt >= busy_retries:
                    raise
                attempt += 1
                counters.busy_retries += 1
                await asyncio.sleep(busy_backoff * attempt)

    def _modelled_latency(self, outcome: RequestOutcome) -> float:
        return self._path_cost(
            outcome.path[: outcome.hit_index + 1], outcome.size
        )

    # -- driving modes -------------------------------------------------------

    async def run(
        self,
        mode: str = "sequential",
        concurrency: int = 1,
        speedup: float = 1000.0,
        max_errors: int = 0,
        open_inflight_limit: Optional[int] = None,
        busy_retries: int = 2,
        busy_backoff: float = 0.002,
    ) -> LoadReport:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        if speedup <= 0:
            raise ValueError("speedup must be positive")
        if open_inflight_limit is not None and open_inflight_limit < 1:
            raise ValueError("open_inflight_limit must be at least 1")
        if busy_retries < 0:
            raise ValueError("busy_retries must be non-negative")
        if mode == "closed" and self.updates:
            raise ValueError(
                "update streams require sequential or open mode "
                "(closed mode has no notion of trace time to pace them)"
            )
        started = time.perf_counter()
        counters = _Counters(max_errors=max_errors)
        self._busy_retries = busy_retries
        self._busy_backoff = busy_backoff
        if mode == "sequential":
            completed, applied, invalidated = await self._run_sequential()
        elif mode == "closed":
            completed = await self._run_closed(concurrency, counters)
            applied = invalidated = 0
        else:
            completed, applied, invalidated = await self._run_open(
                speedup, counters, open_inflight_limit
            )
        duration = time.perf_counter() - started
        # Converge the channel (no-op in-band) before reading the
        # coherency accounting, so the report never shows pending events
        # a chsync would have drained.
        cluster = getattr(self, "cluster", None)
        sync = getattr(cluster, "channel_sync", None)
        if sync is not None:
            await sync()
        coherency = None
        reporter = getattr(cluster, "coherency_report", None)
        if reporter is not None:
            coherency = await reporter()
        return self._report(
            mode, completed, duration, applied, invalidated, counters,
            coherency,
        )

    async def _run_sequential(self) -> Tuple[List[_Completed], int, int]:
        """Trace-order replay, mirroring the simulation engine's loop.

        Updates are applied the moment simulation time passes them --
        between requests, exactly where the engine applies them -- so an
        in-process run is step-for-step identical to the simulator.
        Deliberately strict: any failure propagates, because this is the
        differential-oracle mode and a partial replay proves nothing.
        """
        completed: List[_Completed] = []
        updates = self.updates
        update_index = 0
        applied = 0
        invalidated = 0
        for index, row in enumerate(self.trace.columns.rows()):
            while (
                update_index < len(updates)
                and updates[update_index].time <= row[0]
            ):
                invalidated += await self.cluster.apply_update(
                    updates[update_index]
                )
                applied += 1
                update_index += 1
            outcome, wall, began, ended = await self._issue(*row)
            completed.append(
                _Completed(
                    index,
                    outcome,
                    self._modelled_latency(outcome),
                    wall,
                    began,
                    ended,
                )
            )
        return completed, applied, invalidated

    async def _fire(
        self, index: int, row: Row,
        completed: List[_Completed], counters: _Counters,
    ) -> None:
        """Issue one request, folding every failure into the counters.

        Nothing escapes: a ``busy`` that outlives its retries is a
        rejection, anything else -- protocol violations and raw
        transport/OS errors alike -- is counted and, past ``max_errors``,
        flips the stop flag.  No exception ever propagates to cancel the
        sibling in-flight requests.
        """
        try:
            outcome, wall, began, ended = await self._issue_with_backoff(
                row, counters, self._busy_retries, self._busy_backoff
            )
        except NodeBusy:
            counters.rejected += 1
            return
        except Exception:
            counters.record_error()
            return
        completed.append(
            _Completed(
                index,
                outcome,
                self._modelled_latency(outcome),
                wall,
                began,
                ended,
            )
        )

    async def _run_closed(
        self, concurrency: int, counters: _Counters
    ) -> List[_Completed]:
        """Fixed worker pool, one outstanding request per worker.

        The workers share one row iterator; taking the next row never
        awaits, so no two workers get the same one.
        """
        rows = enumerate(self.trace.columns.rows())
        completed: List[_Completed] = []

        async def worker() -> None:
            while not counters.stop.is_set():
                taken = next(rows, None)
                if taken is None:
                    return
                await self._fire(*taken, completed, counters)

        await asyncio.gather(*(worker() for _ in range(concurrency)))
        return completed

    async def _run_open(
        self,
        speedup: float,
        counters: _Counters,
        inflight_limit: Optional[int],
    ) -> Tuple[List[_Completed], int, int]:
        """Fire requests at their (compressed) trace timestamps.

        One pacer coroutine walks the trace in order, sleeps until each
        request's absolute fire time, and spawns a task for it -- the fire
        schedule is identical to materializing every task up front, but
        memory stays O(in-flight) and startup does not stampede the event
        loop with O(trace) simultaneous timers.

        Updates (when given) run on a sibling coroutine paced by the same
        compressed timeline, so origin updates land concurrently with the
        offered request load -- the configuration where channel-mode
        staleness is actually observable.  An update failure counts as an
        error like any request failure.
        """
        loop = asyncio.get_running_loop()
        epoch = loop.time()
        trace_start = float(self.trace.columns.times[0])
        completed: List[_Completed] = []
        inflight: Set[asyncio.Task] = set()
        applied = 0
        invalidated = 0

        async def updater() -> None:
            nonlocal applied, invalidated
            for event in self.updates:
                offset = (event.time - trace_start) / speedup
                delay = epoch + offset - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                if counters.stop.is_set():
                    return
                try:
                    invalidated += await self.cluster.apply_update(event)
                    applied += 1
                except Exception:
                    counters.record_error()

        update_task = (
            loop.create_task(updater()) if self.updates else None
        )
        for index, row in enumerate(self.trace.columns.rows()):
            if counters.stop.is_set():
                break
            offset = (row[0] - trace_start) / speedup
            delay = epoch + offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if inflight_limit is not None and len(inflight) >= inflight_limit:
                # One event-loop yield lets finished requests run their
                # done-callbacks before the shed decision; open-loop
                # semantics forbid actually waiting for capacity.
                await asyncio.sleep(0)
                if len(inflight) >= inflight_limit:
                    counters.shed += 1
                    continue
            task = loop.create_task(
                self._fire(index, row, completed, counters)
            )
            inflight.add(task)
            task.add_done_callback(inflight.discard)
        if inflight:
            await asyncio.gather(*inflight, return_exceptions=True)
        if update_task is not None:
            await update_task
        return completed, applied, invalidated

    # -- reporting -----------------------------------------------------------

    def _report(
        self,
        mode: str,
        completed: List[_Completed],
        duration: float,
        applied: int,
        invalidated: int,
        counters: _Counters,
        coherency: Optional[dict] = None,
    ) -> LoadReport:
        """Fold completions into the paper's collector, in trace order."""
        warmup_end, total = self.trace.split_warmup(self.warmup_fraction)
        collector = MetricsCollector()
        wall: List[float] = []
        cache_served = 0
        origin_served = 0
        window_start = math.inf
        window_end = -math.inf
        measured = 0
        for item in sorted(completed, key=lambda c: c.index):
            wall.append(item.wall_seconds)
            if item.outcome.served_by_cache:
                cache_served += 1
            else:
                origin_served += 1
            if item.index >= warmup_end:
                collector.record(item.outcome, item.latency)
                measured += 1
                if item.started < window_start:
                    window_start = item.started
                if item.finished > window_end:
                    window_end = item.finished
        if collector.requests:
            summary = collector.summary()
        else:
            # Zero measured requests (every completion errored or landed
            # in warm-up): an all-zero summary with null percentiles
            # keeps the report shape stable and the JSON standard.
            summary = MetricsSummary(
                requests=0,
                mean_latency=0.0,
                mean_response_ratio=0.0,
                byte_hit_ratio=0.0,
                hit_ratio=0.0,
                mean_traffic_byte_hops=0.0,
                mean_hops=0.0,
                mean_read_load=0.0,
                mean_write_load=0.0,
                latency_percentiles=(None, None, None),
            )
        window = window_end - window_start
        # Raw wall samples outlive the report for callers that merge
        # percentiles across processes (multi-driver benchmarks); the
        # frozen LoadReport itself only carries the aggregates.
        self.last_wall_samples = wall
        return LoadReport(
            mode=mode,
            requests_total=total,
            requests_measured=collector.requests,
            summary=summary,
            duration_seconds=duration,
            requests_per_second=(
                measured / window if measured and window > 0 else None
            ),
            wall_latency_mean=(
                sum(wall) / len(wall) if wall else None
            ),
            wall_latency_percentiles=_percentiles(wall),
            updates_applied=applied,
            copies_invalidated=invalidated,
            errors=counters.errors,
            rejected=counters.rejected,
            shed=counters.shed,
            busy_retries=counters.busy_retries,
            aborted=counters.aborted,
            cache_served=cache_served,
            origin_served=origin_served,
            coherency=coherency,
        )
