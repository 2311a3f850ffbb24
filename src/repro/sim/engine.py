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
from repro.verify.auditor import AuditConfig, Auditor, AuditReport
from repro.workload.trace import ColumnarTrace, Trace, TraceRecord
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

    ``audit`` is ``None`` unless the run was audited (see
    :mod:`repro.verify`); auditing never changes the metrics themselves.

    ``node_stats`` / ``phase_timings`` are ``None`` unless the run was
    instrumented (see :mod:`repro.obs`): the final per-node counter
    snapshot of the stat registry and the phase timers' summary.  Like
    auditing, instrumentation never changes the metrics.

    ``coherency`` is ``None`` unless an explicit coherency policy drove
    the run (see :mod:`repro.coherency`): the policy's
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
    audit: Optional[AuditReport] = None
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
        interval_collector=None,
        progress_every: int = 0,
        progress_callback: Optional[Callable[[int, int], None]] = None,
        auditor: Optional[Auditor] = None,
        audit_every: int = 0,
        instruments: Optional[Instruments] = None,
        coherency=None,
    ) -> SimulationResult:
        """Replay the trace; returns metrics over the measurement window.

        When ``updates`` is given (time-ordered), each event invalidates
        all cached copies of its object the moment simulation time passes
        it -- the coherency extension stressing the paper's read-mostly
        assumption.

        ``coherency`` selects how those updates reach the caches: a
        policy object from :mod:`repro.coherency.policy` (in-band
        broadcast vs. polled pub/sub channel).  ``None`` keeps the
        default in-band behavior with no stats surfaced -- results are
        bit-identical to pre-seam engines.  An explicit policy lands its
        accounting in ``SimulationResult.coherency``.

        ``interval_collector`` (an
        :class:`~repro.metrics.timeseries.IntervalMetricsCollector`)
        additionally receives *every* outcome, warm-up included, so
        convergence and transient behavior can be observed over time.

        ``progress_callback`` (with ``progress_every > 0``) is invoked as
        ``callback(requests_processed, requests_total)`` after every
        ``progress_every`` requests and once at the end of the replay, so
        long runs can report liveness without measurable overhead.

        ``auditor`` (or the shorthand ``audit_every=N``, which builds a
        strict :class:`~repro.verify.auditor.Auditor` sweeping every N
        requests) turns the replay into an audited run: the auditor
        observes every outcome, sweeps invariants periodically and once
        at the end, and its report lands in ``SimulationResult.audit``.
        Auditing is observational only -- metrics are bit-identical with
        and without it.

        ``instruments`` (an :class:`~repro.obs.instruments.Instruments`
        bundle) turns the replay into an instrumented run: the probe
        receives ``request`` / ``invalidation`` events (schemes and
        caches emit the rest through the attached bundle), the stat
        registry folds in every outcome (warm-up included), and the
        phase timers attribute routing / scheme-processing time.  Also
        observational only -- metrics are bit-identical with and without
        it, and a bundle with no live channel costs nothing.

        A :class:`~repro.workload.trace.Trace` always runs the reference
        loop below.  A :class:`~repro.workload.trace.ColumnarTrace` that
        nothing observes (no auditor, instruments, explicit coherency
        policy or interval collector) is offered to
        :func:`repro.sim.fastpath.run_columnar`, whose flattened kernels
        serve the configurations they were written for bit-identically;
        every other run takes the reference loop, the one replay loop
        every scheme step goes through.
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
        if audit_every < 0:
            raise ValueError("audit_every must be non-negative")
        if auditor is None and audit_every > 0:
            auditor = Auditor(AuditConfig(audit_every=audit_every))
        if auditor is not None:
            auditor.attach(self.scheme)
        if instruments is not None and not instruments.active:
            instruments = None
        if (
            isinstance(trace, ColumnarTrace)
            and auditor is None
            and instruments is None
            and coherency is None
            and interval_collector is None
        ):
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
        probe = registry = timers = None
        snapshot_every = 0
        if instruments is not None:
            self.scheme.attach_instruments(instruments)
            probe = instruments.probe
            registry = instruments.registry
            timers = instruments.timers
            snapshot_every = (
                instruments.snapshot_every if registry is not None else 0
            )
        report_progress = (
            progress_callback if progress_every > 0 else None
        )
        warmup_end, total = trace.split_warmup(self.warmup_fraction)
        started = time.perf_counter()
        collector = MetricsCollector()
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
            probe=probe,
        )
        policy_observes = policy.wants_outcomes
        sweep_every = auditor.config.audit_every if auditor is not None else 0
        store = trace if isinstance(trace, ColumnarTrace) else trace.columns
        for index, (now, client_id, object_id, server_id, size) in enumerate(
            store.rows()
        ):
            if instruments is not None:
                instruments.request_index = index
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
            if policy_observes:
                policy.observe(
                    outcome,
                    TraceRecord(now, client_id, object_id, server_id, size),
                )
            if registry is not None:
                registry.observe_outcome(outcome)
                if snapshot_every and (index + 1) % snapshot_every == 0:
                    snap = registry.take_snapshot(index + 1)
                    if probe is not None and probe.sample("snapshot"):
                        probe.write("snapshot", **snap)
            if probe is not None and probe.sample("request"):
                probe.write(
                    "request",
                    i=index,
                    t=now,
                    object=object_id,
                    size=size,
                    client=path[0],
                    hit_node=(
                        path[outcome.hit_index]
                        if outcome.served_by_cache
                        else None
                    ),
                    hops=outcome.hops,
                    inserted=list(outcome.inserted_nodes),
                    evicted=outcome.evicted_objects,
                )
            if auditor is not None:
                auditor.observe_outcome(index, outcome)
            if index >= warmup_end or interval_collector is not None:
                latency = path_cost(path[: outcome.hit_index + 1], size)
                if index >= warmup_end:
                    collector.record(outcome, latency)
                    if auditor is not None:
                        auditor.observe_measured(outcome, latency)
                if interval_collector is not None:
                    interval_collector.record(outcome, latency, now)
            if auditor is not None and (index + 1) % sweep_every == 0:
                auditor.audit_now(self.scheme, collector, index)
            if report_progress is not None and (index + 1) % progress_every == 0:
                report_progress(index + 1, total)
        # The trace is non-empty: ``now`` is its last request's time.
        policy.finalize(now)
        duration = time.perf_counter() - started
        if report_progress is not None and total % progress_every != 0:
            report_progress(total, total)
        audit = (
            auditor.finalize(self.scheme, collector, total - 1)
            if auditor is not None
            else None
        )
        node_stats = registry.snapshot() if registry is not None else None
        phase_timings = timers.summary() if timers is not None else None
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
            audit=audit,
            node_stats=node_stats,
            phase_timings=phase_timings,
            coherency=(
                policy.stats_dict() if coherency is not None else None
            ),
        )
