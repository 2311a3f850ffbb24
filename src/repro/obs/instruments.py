"""The instrumentation bundle: one observer of a simulation run.

:class:`Instruments` groups the three observation channels -- a
:class:`~repro.obs.probe.Probe` (structured events), a
:class:`~repro.obs.registry.StatRegistry` (per-node counters) and
:class:`~repro.obs.timers.PhaseTimers` (phase attribution) -- behind a
single object the engine accepts as ``SimulationEngine.run(...,
instruments=...)`` (or among its ``observers``).  As a run observer it
attaches itself to the scheme
(:meth:`~repro.schemes.base.CachingScheme.attach_instruments`), which
wires a per-node :class:`CacheObserver` onto every cache it creates, so
cache-level happenings (evictions, occupancy, invalidation removals)
reach the registry and the probe without the policies knowing anything
about observability.  With its registry or probe on, it also observes
the scheme's walks (:meth:`Instruments.steps_at`): each position gets
its node's :class:`NodeCounters` (as on a serving node) and, with a
probe, the bundle's own ``placement`` events.  Per request it writes
periodic registry snapshots and emits the probe's ``request`` event;
the engine stamps its ``request_index`` and its timers time the
engine's routing and scheme phases.

Like the audit layer this is strictly one-way: nothing here may
influence a decision, and a run's metrics are bit-identical with and
without instruments attached.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional

from repro.core.piggyback import (
    SKIPPED_NODE_BYTES,
    is_candidate,
    report_bytes,
    response_bytes,
)
from repro.obs.probe import Probe
from repro.obs.registry import StatRegistry
from repro.obs.timers import PHASE_VICTIM_SELECT, PhaseTimers
from repro.schemes.base import StepObserver


class NodeCounters(StepObserver):
    """One node's request counters, fed by the walk's steps at the node:
    hits, misses, the serving read, insertion writes, failovers and --
    with ``piggyback``, for a scheme exchanging the coordinated
    protocol's records -- the node's share of the protocol's wire bytes
    (see ``docs/protocol.md``), the last step's share kept as
    ``charged``.  The node's registry row is taken at its first lookup,
    so an origin attachment that caches nothing gets none.
    """

    __slots__ = ("registry", "node", "piggyback", "stats", "charged")

    def __init__(self, registry: StatRegistry, node: int, piggyback: bool) -> None:
        self.registry = registry
        self.node = node
        self.piggyback = piggyback
        self.stats = None
        self.charged = 0

    def looked_up(self, walk, hit: bool, report) -> None:
        stats = self.stats
        if stats is None:
            stats = self.stats = self.registry.node(self.node)
        if hit:
            stats.hits += 1
            stats.bytes_read += walk.size
            return
        stats.misses += 1
        added = report_bytes(report) if self.piggyback and report is not None else 0
        self.charged = added
        stats.piggyback_bytes += added

    def failed_over(self, walk, index: int) -> None:
        stats = self.stats
        stats.failovers += 1
        added = SKIPPED_NODE_BYTES if self.piggyback else 0
        self.charged = added
        stats.piggyback_bytes += added

    def delivered(self, walk, stored: bool, came_from: int) -> None:
        stats = self.stats
        if stored:
            stats.insertions += 1
            stats.bytes_written += walk.size
        if self.piggyback:
            # The accumulator is charged to its first downstream carrier:
            # the position the response reached straight from the
            # serving one, whatever failover bypassed in between.
            added = self.charged = response_bytes(
                self.node in walk.decision["cache_at"],
                came_from == walk.hit_index,
            )
            stats.piggyback_bytes += added


class Instruments(StepObserver):
    """Probe + registry + timers riding along one simulation run.

    ``snapshot_every`` records a registry snapshot (and emits a
    ``snapshot`` event) every N requests.  A probe constructed with
    ``enabled=False`` is normalized away here, so the engine's single
    ``instruments.active`` check is all that separates "off" from "on".
    """

    __slots__ = (
        "probe", "registry", "timers", "snapshot_every", "request_index",
        "protocol",
    )

    def __init__(
        self,
        probe: Optional[Probe] = None,
        registry: Optional[StatRegistry] = None,
        timers: Optional[PhaseTimers] = None,
        snapshot_every: int = 0,
    ) -> None:
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be non-negative")
        if probe is not None and not probe.enabled:
            probe = None
        self.probe = probe
        self.registry = registry
        self.timers = timers
        self.snapshot_every = snapshot_every
        # Advanced by the engine once per request so cache- and
        # scheme-level events can stamp the request they belong to.
        self.request_index = -1
        self.protocol = False

    @property
    def active(self) -> bool:
        """Whether any channel is live (inactive bundles cost nothing)."""
        return (
            self.probe is not None
            or self.registry is not None
            or self.timers is not None
        )

    def bind(self, scheme) -> bool:
        """Bind to the scheme whose walks this observes; whether any step
        observer is on."""
        self.protocol = getattr(scheme, "protocol_stats", None) is not None
        return self.registry is not None or self.probe is not None

    def steps_at(self, node: int) -> tuple:
        """The step observers of a walk position at ``node``: its
        counters, then this bundle's ``placement`` events."""
        steps = () if self.probe is None else (self,)
        if self.registry is None:
            return steps
        return (NodeCounters(self.registry, node, self.protocol), *steps)

    def delivered(self, walk, stored: bool, came_from: int) -> None:
        """Emit the walk's ``placement`` event once the requester's
        delivery finished it: the candidates -- the reports' DP
        candidates for a scheme exchanging the protocol's records, else
        every cache below the serving node -- ``chosen`` (the shipped
        decision) and ``inserted`` (what landed).  A walk with no
        candidate emits nothing."""
        if walk.index:
            return
        hit_index, decision = walk.hit_index, walk.decision
        if self.protocol:
            candidates = [r["n"] for r in walk.reports if is_candidate(r)]
            gain = decision["gain"]
        else:
            candidates = walk.path[:hit_index]
            gain = 0.0
        probe = self.probe
        if not candidates or not probe.sample("placement"):
            return
        probe.write(
            "placement",
            i=self.request_index,
            t=walk.now,
            object=walk.object_id,
            hit_node=walk.path[hit_index],
            origin=hit_index == len(walk.path) - 1,
            candidates=list(candidates),
            chosen=list(decision["cache_at"]),
            inserted=list(walk.inserted),
            gain=gain,
        )

    def begin(self, engine, collector) -> None:
        engine.scheme.attach_instruments(self)

    def outcome(self, index, now, object_id, outcome, latency, measured) -> None:
        probe = self.probe
        registry = self.registry
        every = self.snapshot_every
        if registry is not None and every and (index + 1) % every == 0:
            snap = registry.take_snapshot(index + 1)
            if probe is not None and probe.sample("snapshot"):
                probe.write("snapshot", **snap)
        if probe is not None and probe.sample("request"):
            path = outcome.path
            probe.write(
                "request",
                i=index,
                t=now,
                object=object_id,
                size=outcome.size,
                client=path[0],
                hit_node=(
                    path[outcome.hit_index] if outcome.served_by_cache else None
                ),
                hops=outcome.hops,
                inserted=list(outcome.inserted_nodes),
                evicted=outcome.evicted_objects,
            )

    def end(self, requests_total: int) -> dict:
        registry = self.registry
        timers = self.timers
        return {
            "node_stats": registry.snapshot() if registry is not None else None,
            "phase_timings": timers.summary() if timers is not None else None,
        }

    def cache_observer(self, node: int) -> "CacheObserver":
        return CacheObserver(node, self)

    def dcache_observer(self, node: int) -> "DcacheObserver":
        return DcacheObserver(node, self)


class _NodeObserver:
    """A per-node hook object: its node, the bundle, and the node's
    :class:`~repro.obs.registry.NodeStats` (``None`` without a
    registry), whose fields the hooks write directly."""

    __slots__ = ("node", "instruments", "stats")

    def __init__(self, node: int, instruments: Instruments) -> None:
        self.node = node
        self.instruments = instruments
        registry = instruments.registry
        self.stats = None if registry is None else registry.node(node)


class CacheObserver(_NodeObserver):
    """Per-node hook object installed on a main cache's ``observer`` slot.

    The :class:`~repro.cache.base.Cache` base class calls these at its
    mutation points; every method is a leaf that updates counters or
    emits one event.
    """

    __slots__ = ()

    def select_victims(self, cache, needed_bytes: int, now: float, exclude):
        """Run (and, when timed, attribute) the policy's victim selection."""
        timers = self.instruments.timers
        if timers is None:
            return cache.select_victims(needed_bytes, now, exclude=exclude)
        started = perf_counter()
        victims = cache.select_victims(needed_bytes, now, exclude=exclude)
        timers.add(PHASE_VICTIM_SELECT, perf_counter() - started)
        return victims

    def on_evictions(self, cache, victims: List, now: float) -> None:
        freed = sum(v.size for v in victims)
        stats = self.stats
        if stats is not None:
            stats.evictions += len(victims)
            stats.evicted_bytes += freed
        inst = self.instruments
        probe = inst.probe
        if probe is not None and probe.sample("eviction"):
            probe.write(
                "eviction",
                i=inst.request_index,
                t=now,
                node=self.node,
                policy=cache.policy_name,
                victims=[v.object_id for v in victims],
                freed=freed,
            )

    def on_occupancy(self, used_bytes: int) -> None:
        stats = self.stats
        if stats is not None and used_bytes > stats.occupancy_hwm:
            stats.occupancy_hwm = used_bytes

    def on_invalidation(self, entry) -> None:
        if self.stats is not None:
            self.stats.invalidations += 1


class DcacheObserver(_NodeObserver):
    """Hook object installed on a node's d-cache ``observer`` slot."""

    __slots__ = ()

    def on_evictions(self, dcache, victims: List) -> None:
        if self.stats is not None:
            self.stats.dcache_evictions += len(victims)
        inst = self.instruments
        probe = inst.probe
        if probe is not None and probe.sample("dcache-eviction"):
            probe.write(
                "dcache-eviction",
                i=inst.request_index,
                node=self.node,
                policy=dcache.policy,
                victims=[d.object_id for d in victims],
            )
