"""The trace-driven simulation engine.

Replays a trace against one scheme on one architecture.  Each request is
routed along the origin server's distribution tree from the client's
attachment node; the scheme serves it and the engine translates the
outcome into the paper's metrics.  Per section 3.1, the first
``warmup_fraction`` of the trace only warms the caches; statistics cover
the remainder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.coherency.policy import InbandCoherency
from repro.costs.model import CostModel
from repro.metrics.collector import MetricsCollector, MetricsSummary
from repro.obs.instruments import Instruments
from repro.obs.timers import PHASE_ROUTING, PHASE_SCHEME
from repro.schemes.base import CachingScheme
from repro.sim.architecture import Architecture
from repro.workload.trace import ColumnarTrace, Trace
from repro.workload.updates import UpdateEvent


@dataclass(frozen=True)
class SimulationResult:
    """One (architecture, scheme, configuration) run.

    ``updates_applied`` / ``copies_invalidated`` are zero unless an update
    stream was supplied (the coherency extension, see
    :mod:`repro.workload.updates`).

    ``duration_seconds`` is the wall-clock time of the replay and
    ``requests_per_second`` the resulting throughput (whole trace,
    warm-up included) -- the run-observability signals the experiment
    runner aggregates across a grid.

    The last four fields are ``None`` unless an observer of the run
    filled them (see :meth:`SimulationEngine.run`): ``audit`` is the
    auditor's report (see :mod:`repro.verify`), ``node_stats`` /
    ``phase_timings`` the stat registry's final per-node snapshot and the
    phase timers' summary (see :mod:`repro.obs`), and ``coherency`` an
    explicit coherency policy's
    :meth:`~repro.coherency.stats.CoherencyStats.to_dict` accounting
    (channel bytes, stale hits, staleness-window percentiles, ...).
    """

    architecture: str
    scheme: str
    requests_total: int
    requests_measured: int
    summary: MetricsSummary
    updates_applied: int = 0
    copies_invalidated: int = 0
    duration_seconds: float = 0.0
    requests_per_second: float = 0.0
    audit: Optional[object] = None
    node_stats: Optional[dict] = None
    phase_timings: Optional[dict] = None
    coherency: Optional[dict] = None


class SimulationEngine:
    """Drives one scheme over one architecture."""

    def __init__(
        self,
        architecture: Architecture,
        cost_model: CostModel,
        scheme: CachingScheme,
        warmup_fraction: float = 0.5,
    ) -> None:
        if not 0 <= warmup_fraction < 1:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.architecture = architecture
        self.cost_model = cost_model
        self.scheme = scheme
        self.warmup_fraction = warmup_fraction

    def run(
        self,
        trace: Trace | ColumnarTrace,
        updates: Sequence[UpdateEvent] = (),
        coherency=None,
        observers: Sequence = (),
        instruments: Optional[Instruments] = None,
        progress_every: int = 0,
        progress_callback: Optional[Callable[[int, int], None]] = None,
    ) -> SimulationResult:
        """Replay the trace; returns metrics over the measurement window.

        When ``updates`` is given (time-ordered), each event invalidates
        all cached copies of its object the moment simulation time passes
        it -- the coherency extension stressing the paper's read-mostly
        assumption.  ``coherency`` selects how those updates reach the
        caches: a policy from :mod:`repro.coherency.policy` (in-band
        broadcast vs. polled pub/sub channel).  ``None`` keeps the
        implicit in-band behavior and surfaces no stats; an explicit
        policy also observes the run and lands its accounting in
        ``SimulationResult.coherency``.

        ``observers`` ride along the replay without steering it -- the
        auditor (:class:`~repro.verify.auditor.Auditor`), the interval
        collector (:class:`~repro.metrics.timeseries.
        IntervalMetricsCollector`), the shadow replay's sampler.  Each
        implements three methods, called in registration order:

        * ``begin(engine, collector)`` once, before the first request,
          with this engine and its :class:`MetricsCollector`;
        * ``outcome(index, now, object_id, outcome, latency, measured)``
          once per request, warm-up included: the request's position and
          time, its object, the scheme's
          :class:`~repro.schemes.base.RequestOutcome`, its priced latency
          and whether it falls in the measurement window;
        * ``end(requests_total)`` once after the replay, returning the
          :class:`SimulationResult` fields it fills (``audit``,
          ``node_stats``, ``phase_timings`` or ``coherency``) as a dict.

        ``instruments`` (an :class:`~repro.obs.instruments.Instruments`
        bundle) is one more observer when any of its channels is live (a
        bundle may also come among ``observers``).  The engine stamps the
        bundle's ``request_index`` before each request, since cache and
        scheme events carry it, and lets its phase timers time the
        request's routing and scheme phases.  Observation never changes
        the metrics: a run's summary is bit-identical with and without
        observers.

        ``progress_callback`` (with ``progress_every > 0``) is invoked as
        ``callback(requests_processed, requests_total)`` after every
        ``progress_every`` requests and once at the end of the replay.

        A :class:`~repro.workload.trace.ColumnarTrace` run with no
        observers, no live instruments and no explicit coherency policy is
        offered to :func:`repro.sim.fastpath.run_columnar`, whose
        flattened kernels serve the configurations they were written for
        bit-identically; every other run takes the reference loop below,
        the one replay loop every scheme step goes through.
        """
        if len(trace) == 0:
            raise ValueError("cannot simulate an empty trace")
        if progress_every < 0:
            raise ValueError("progress_every must be non-negative")
        if progress_callback is not None and progress_every == 0:
            raise ValueError(
                "progress_callback requires progress_every > 0 "
                "(it would otherwise never be invoked)"
            )
        if instruments is not None and instruments.active:
            observers = (*observers, instruments)
        if coherency is not None:
            observers = (*observers, coherency)
        if not observers and isinstance(trace, ColumnarTrace):
            # Nothing observes the outcomes: a flattened kernel may
            # serve the run, bit-identically.  When none does, the
            # reference loop below reads the columns block by block.
            from repro.sim.fastpath import run_columnar

            result = run_columnar(
                self,
                trace,
                updates=updates,
                progress_every=progress_every,
                progress_callback=progress_callback,
            )
            if result is not None:
                return result
        bundle = next(
            (o for o in observers if isinstance(o, Instruments)), None
        )
        timers = bundle.timers if bundle is not None else None
        warmup_end, total = trace.split_warmup(self.warmup_fraction)
        started = time.perf_counter()
        collector = MetricsCollector()
        for observer in observers:
            observer.begin(self, collector)
        hooks = [observer.outcome for observer in observers]
        request_path = self.architecture.request_path
        # (client_id, server_id) -> delivery path, resolved once per run:
        # the routing table memoizes paths already, so every request of
        # a pair gets the very list request_path would return.
        routes: dict = {}
        process = self.scheme.process_request
        path_cost = self.cost_model.path_cost
        # The coherency seam: update handling is a policy the loop
        # drives.  The implicit in-band policy replays the exact
        # pre-seam inline loop (and its probe events).
        policy = coherency if coherency is not None else InbandCoherency()
        policy.bind(
            scheme=self.scheme,
            architecture=self.architecture,
            updates=updates,
            probe=bundle.probe if bundle is not None else None,
        )
        store = trace if isinstance(trace, ColumnarTrace) else trace.columns
        for index, (now, client_id, object_id, server_id, size) in enumerate(
            store.rows()
        ):
            if bundle is not None:
                bundle.request_index = index
            if policy.next_time <= now:
                policy.advance(index, now)
            if timers is not None:
                started_phase = time.perf_counter()
            route = (client_id, server_id)
            path = routes.get(route)
            if path is None:
                path = routes[route] = request_path(*route)
            if timers is None:
                outcome = process(path, object_id, size, now)
            else:
                routed = time.perf_counter()
                outcome = process(path, object_id, size, now)
                processed = time.perf_counter()
                timers.add(PHASE_ROUTING, routed - started_phase)
                timers.add(PHASE_SCHEME, processed - routed)
            if hooks:
                latency = path_cost(path[: outcome.hit_index + 1], size)
                measured = index >= warmup_end
                if measured:
                    collector.record(outcome, latency)
                for hook in hooks:
                    hook(index, now, object_id, outcome, latency, measured)
            elif index >= warmup_end:
                collector.record(
                    outcome, path_cost(path[: outcome.hit_index + 1], size)
                )
            if progress_callback is not None and (index + 1) % progress_every == 0:
                progress_callback(index + 1, total)
        # The trace is non-empty: ``now`` is its last request's time.
        policy.finalize(now)
        duration = time.perf_counter() - started
        if progress_callback is not None and total % progress_every != 0:
            progress_callback(total, total)
        observed: dict = {}
        for observer in observers:
            observed.update(observer.end(total))
        return SimulationResult(
            architecture=self.architecture.name,
            scheme=self.scheme.name,
            requests_total=total,
            requests_measured=collector.requests,
            summary=collector.summary(),
            updates_applied=policy.updates_applied,
            copies_invalidated=policy.copies_invalidated,
            duration_seconds=duration,
            requests_per_second=total / duration if duration > 0 else 0.0,
            **observed,
        )
