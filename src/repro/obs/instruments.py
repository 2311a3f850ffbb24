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
about observability.  Per request it folds the outcome into the
registry, writes periodic registry snapshots and emits the probe's
``request`` event; the engine stamps its ``request_index`` and its
timers time the engine's routing and scheme phases.

Like the audit layer this is strictly one-way: nothing here may
influence a decision, and a run's metrics are bit-identical with and
without instruments attached.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional

from repro.obs.probe import Probe
from repro.obs.registry import StatRegistry
from repro.obs.timers import PHASE_VICTIM_SELECT, PhaseTimers


class Instruments:
    """Probe + registry + timers riding along one simulation run.

    ``snapshot_every`` records a registry snapshot (and emits a
    ``snapshot`` event) every N requests.  A probe constructed with
    ``enabled=False`` is normalized away here, so the engine's single
    ``instruments.active`` check is all that separates "off" from "on".
    """

    __slots__ = ("probe", "registry", "timers", "snapshot_every", "request_index")

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

    @property
    def active(self) -> bool:
        """Whether any channel is live (inactive bundles cost nothing)."""
        return (
            self.probe is not None
            or self.registry is not None
            or self.timers is not None
        )

    def begin(self, engine, collector) -> None:
        engine.scheme.attach_instruments(self)

    def outcome(self, index, now, object_id, outcome, latency, measured) -> None:
        probe = self.probe
        registry = self.registry
        if registry is not None:
            registry.observe_outcome(outcome)
            if self.snapshot_every and (index + 1) % self.snapshot_every == 0:
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


class CacheObserver:
    """Per-node hook object installed on a main cache's ``observer`` slot.

    The :class:`~repro.cache.base.Cache` base class calls these at its
    mutation points; every method is a leaf that updates counters or
    emits one event.
    """

    __slots__ = ("node", "instruments")

    def __init__(self, node: int, instruments: Instruments) -> None:
        self.node = node
        self.instruments = instruments

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
        inst = self.instruments
        registry = inst.registry
        if registry is not None:
            registry.record_eviction(self.node, len(victims), freed)
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
        registry = self.instruments.registry
        if registry is not None:
            registry.record_occupancy(self.node, used_bytes)

    def on_invalidation(self, entry) -> None:
        registry = self.instruments.registry
        if registry is not None:
            registry.record_invalidation(self.node)


class DcacheObserver:
    """Hook object installed on a node's d-cache ``observer`` slot."""

    __slots__ = ("node", "instruments")

    def __init__(self, node: int, instruments: Instruments) -> None:
        self.node = node
        self.instruments = instruments

    def on_evictions(self, dcache, victims: List) -> None:
        inst = self.instruments
        registry = inst.registry
        if registry is not None:
            registry.record_dcache_eviction(self.node, len(victims))
        probe = inst.probe
        if probe is not None and probe.sample("dcache-eviction"):
            probe.write(
                "dcache-eviction",
                i=inst.request_index,
                node=self.node,
                policy=dcache.policy,
                victims=[d.object_id for d in victims],
            )
