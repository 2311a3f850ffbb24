"""Run observers compose: attaching every one at once changes nothing.

``SimulationEngine.run`` fans each request out to its observers -- the
auditor, an interval collector, an instruments bundle, an explicit
coherency policy.  Observers only watch, so one coordinated run on the
reference loop with all of them attached must report the bare run's
summary, and each observer's product (series, node table, probe events,
coherency accounting, audit checks) must equal what that observer
produces attached alone.
"""

from __future__ import annotations

import functools

import pytest

from repro.coherency import CoherencyConfig
from repro.coherency.policy import build_policy
from repro.costs.model import LatencyCostModel
from repro.experiments.presets import build_architecture
from repro.metrics.timeseries import IntervalMetricsCollector
from repro.obs.instruments import Instruments
from repro.obs.probe import Probe
from repro.obs.registry import StatRegistry
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import build_scheme
from repro.verify.auditor import AuditConfig
from repro.verify.replay import audited_run
from repro.workload.updates import generate_update_events

_COHERENCY = CoherencyConfig(mode="channel", poll_interval=2.0)

_AUDIT = AuditConfig(
    audit_every=250,
    shadow_replay=True,
    shadow_replay_sample_every=7,
    strict=False,
)


@pytest.fixture
def replay(tiny_workload, tiny_trace):
    """``replay(audit, interval, instruments)``: one run of the setup."""
    trace, catalog = tiny_trace
    architecture = build_architecture(
        "en-route", tiny_workload, seed=tiny_workload.seed
    )
    cost_model = LatencyCostModel(architecture.network, catalog.mean_size)
    config = SimulationConfig(relative_cache_size=0.05)
    scheme_factory = functools.partial(
        build_scheme,
        "coordinated",
        cost_model,
        config.capacity_bytes(catalog.total_bytes),
        config.dcache_entries(catalog.total_bytes, catalog.mean_size),
    )
    policy = functools.partial(build_policy, _COHERENCY, catalog.num_objects)
    updates = generate_update_events(
        catalog.num_objects, trace.duration, update_rate=3.0, seed=5
    )

    def run(audit=False, interval=None, instruments=None):
        if audit:
            observers = [o for o in (interval, instruments) if o is not None]
            result, _ = audited_run(
                architecture,
                cost_model,
                scheme_factory,
                trace,
                config=_AUDIT,
                updates=updates,
                coherency=policy,
                observers=observers,
            )
            return result
        engine = SimulationEngine(architecture, cost_model, scheme_factory())
        return engine.run(
            trace,
            updates=updates,
            coherency=policy(),
            observers=[interval] if interval is not None else (),
            instruments=instruments,
        )

    return run, trace.duration / 10


def _instruments(events: list) -> Instruments:
    return Instruments(
        probe=Probe(events.append),
        registry=StatRegistry(),
        snapshot_every=300,
    )


def test_every_observer_at_once_equals_each_alone(replay):
    run, window = replay
    events, alone_events = [], []
    interval = IntervalMetricsCollector(window)
    composed = run(
        audit=True, interval=interval, instruments=_instruments(events)
    )
    bare = run()
    assert composed.summary == bare.summary
    assert composed.updates_applied == bare.updates_applied > 0
    assert composed.copies_invalidated == bare.copies_invalidated > 0

    assert composed.coherency == bare.coherency
    assert composed.coherency["polls"] > 0

    audited = run(audit=True)
    assert composed.audit.violations == audited.audit.violations == ()
    assert composed.audit.checks_run == audited.audit.checks_run
    assert composed.audit.checks_run["shadow-replay"] > 0
    assert composed.audit.notes == audited.audit.notes

    alone_interval = IntervalMetricsCollector(window)
    run(interval=alone_interval)
    assert interval.series() == alone_interval.series()
    assert sum(s.requests for s in interval.series()) == composed.requests_total

    instrumented = run(instruments=_instruments(alone_events))
    assert composed.node_stats == instrumented.node_stats
    assert events == alone_events
    kinds = {event["kind"] for event in events}
    assert {"request", "snapshot", "invalidation"} <= kinds

