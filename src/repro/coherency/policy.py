"""Simulator-side coherency policies.

The engine's update handling sits behind one seam: a policy object the
replay loop drives with ``advance(index, now)`` before each request and
``finalize(end_time)`` after the last.  An explicit policy is also one of
the run's observers (see :meth:`repro.sim.engine.SimulationEngine.run`):
its ``outcome`` hook sees every request, and its ``end`` lands the
accounting in ``SimulationResult.coherency``.

:class:`InbandCoherency` is the paper's implicit design and carries the
exact loop body the engine used to inline: each due event invalidates
every cached copy of its object immediately (the inv frames walk the
tree "for free" in simulated time).  Metrics are bit-identical to the
pre-seam engine.

:class:`ChannelCoherency` is the squid-channels design: the origin
publishes (group) stale events to a channel; every cache node polls the
channel every ``poll_interval`` time units and applies the batch of
events it missed.  Between the origin update and a node's next poll a
stale copy keeps serving hits -- the policy measures that window
*exactly*:

* at publish time every currently-cached copy of a member object is
  necessarily stale (requests are time-ordered and events apply before
  the first request at or past their timestamp, so any present copy
  was inserted strictly earlier) and gets a stale mark carrying the
  earliest update time it predates;
* a cache hit on a marked copy is a stale hit (count + bytes);
* an insertion at a node clears that node's mark -- the new copy was
  fetched from the origin after the update, so it is fresh; a later
  event re-marks it;
* at a poll, each delivered event removes marked member copies
  (``invalidate_step``) and records the staleness window
  ``apply_time - first_stale_time``; a marked copy that capacity
  eviction already removed counts as ``stale_copies_evicted`` (no
  window -- the channel cannot take credit for it).

With ``poll_interval=0`` delivery is immediate: events apply at the
same code point in-band invalidation uses, so with per-object groups
channel mode reproduces in-band results bit-for-bit -- the
differential oracle in ``tests/test_coherency_oracle.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.coherency.stats import (
    EVENT_BYTES,
    POLL_BYTES,
    SUB_BYTES,
    CoherencyStats,
)
from repro.core.piggyback import INV_FRAME_BYTES
from repro.workload.groups import GroupAssignment
from repro.workload.updates import (
    GroupUpdateEvent,
    UpdateEvent,
    expand_group_events,
)

AnyUpdate = Union[UpdateEvent, GroupUpdateEvent]


def _require_groups(
    events: Sequence[AnyUpdate], groups: Optional[GroupAssignment]
) -> GroupAssignment:
    if groups is None:
        raise ValueError(
            "group-targeted update events require a GroupAssignment"
        )
    return groups


class _Policy:
    """What both policies share: the run counters and the observer side."""

    mode = ""

    def __init__(self, groups: Optional[GroupAssignment]) -> None:
        self.groups = groups
        self.stats = CoherencyStats(mode=self.mode)
        self.updates_applied = 0
        self.copies_invalidated = 0
        self.next_time = float("inf")
        self._scheme = None
        self._probe = None

    def begin(self, engine, collector) -> None:
        pass

    def outcome(self, index, now, object_id, outcome, latency, measured) -> None:
        pass

    def end(self, requests_total: int) -> dict:
        return {"coherency": self.stats.to_dict()}


class InbandCoherency(_Policy):
    """The engine's original inline update loop, behind the seam.

    Accepts per-object :class:`UpdateEvent` streams unchanged; a
    group-targeted stream is expanded to per-object events at bind time
    (one inv broadcast per member object -- exactly what in-band mode
    pays for group invalidation).
    """

    mode = "inband"

    def __init__(self, groups: Optional[GroupAssignment] = None) -> None:
        super().__init__(groups)
        self._updates: Sequence[UpdateEvent] = ()
        self._cursor = 0
        self._protocol_stats = None
        self._broadcast_nodes = 0

    def bind(self, scheme, architecture, updates, probe=None) -> None:
        if any(isinstance(e, GroupUpdateEvent) for e in updates):
            groups = _require_groups(updates, self.groups)
            per_object: List[UpdateEvent] = []
            for event in updates:
                if isinstance(event, GroupUpdateEvent):
                    per_object.extend(expand_group_events([event], groups))
                else:
                    per_object.append(event)
            updates = per_object
        self._updates = updates
        self._cursor = 0
        self._scheme = scheme
        self._probe = probe
        self._protocol_stats = getattr(scheme, "protocol_stats", None)
        self._broadcast_nodes = len(architecture.cache_nodes)
        self.next_time = updates[0].time if updates else float("inf")

    def advance(self, index: int, now: float) -> None:
        """Apply every due event: the pre-seam engine loop, verbatim."""
        updates = self._updates
        probe = self._probe
        while self._cursor < len(updates) and updates[self._cursor].time <= now:
            event = updates[self._cursor]
            removed = self._scheme.invalidate_object(event.object_id)
            self.copies_invalidated += removed
            self.updates_applied += 1
            self._cursor += 1
            self.stats.events_published += 1
            self.stats.inv_frames += self._broadcast_nodes
            self.stats.copies_invalidated += removed
            if self._protocol_stats is not None:
                self._protocol_stats.invalidations += self._broadcast_nodes
            if probe is not None and probe.sample("invalidation"):
                probe.write(
                    "invalidation",
                    i=index,
                    t=event.time,
                    object=event.object_id,
                    copies=removed,
                )
        self.next_time = (
            updates[self._cursor].time
            if self._cursor < len(updates)
            else float("inf")
        )

    def finalize(self, end_time: float) -> None:
        self.stats.inv_bytes = self.stats.inv_frames * INV_FRAME_BYTES


class ChannelCoherency(_Policy):
    """Polled pub/sub invalidation with exact staleness accounting."""

    mode = "channel"

    def __init__(
        self,
        groups: GroupAssignment,
        poll_interval: float = 0.0,
    ) -> None:
        if poll_interval < 0:
            raise ValueError("poll_interval must be non-negative")
        super().__init__(groups)
        self.poll_interval = poll_interval
        # Normalized channel feed: (time, group_id), time-ordered.
        self._events: List[Tuple[float, int]] = []
        self._publish_cursor = 0
        # Per-node cursor into _events: everything before it was applied.
        self._node_cursors: Dict[int, int] = {}
        self._nodes: List[int] = []
        # (node, object) -> earliest update time the cached copy predates.
        self._marks: Dict[Tuple[int, int], float] = {}
        self._next_poll = float("inf")

    def bind(self, scheme, architecture, updates, probe=None) -> None:
        events: List[Tuple[float, int]] = []
        for event in updates:
            if isinstance(event, GroupUpdateEvent):
                events.append((event.time, event.group_id))
            else:
                events.append((event.time, self.groups.group_of(event.object_id)))
        events.sort(key=lambda pair: pair[0])
        self._events = events
        self._publish_cursor = 0
        self._scheme = scheme
        self._probe = probe
        self._nodes = list(architecture.cache_nodes)
        self._node_cursors = {node: 0 for node in self._nodes}
        self.stats.subscriptions = len(self._nodes)
        # Registration is wire traffic too -- priced identically by the
        # live broker, so sim and cluster channel bytes stay comparable.
        self.stats.channel_bytes += SUB_BYTES * len(self._nodes)
        self._next_poll = (
            self.poll_interval if self.poll_interval > 0 else float("inf")
        )
        self._refresh_next_time()

    def _refresh_next_time(self) -> None:
        next_event = (
            self._events[self._publish_cursor][0]
            if self._publish_cursor < len(self._events)
            else float("inf")
        )
        if self.poll_interval > 0:
            # Polls only matter while something is left to deliver.
            pending = any(
                self._node_cursors[node] < self._publish_cursor
                for node in self._nodes
            )
            next_poll = self._next_poll if pending else float("inf")
            self.next_time = min(next_event, next_poll)
        else:
            self.next_time = next_event

    def advance(self, index: int, now: float) -> None:
        """Process publishes and polls with timestamps up to ``now``.

        Events and poll ticks interleave in time order (a poll sees
        every event published at or before its tick time), so the
        replay is independent of how requests are spaced.
        """
        while True:
            next_event = (
                self._events[self._publish_cursor][0]
                if self._publish_cursor < len(self._events)
                else float("inf")
            )
            if self.poll_interval > 0:
                if next_event <= now and next_event <= self._next_poll:
                    self._publish(next_event)
                elif self._next_poll <= now:
                    self._poll_all(self._next_poll)
                    self._next_poll += self.poll_interval
                else:
                    break
            else:
                if next_event <= now:
                    self._publish(next_event)
                    self._apply_all(next_event)
                else:
                    break
        self._refresh_next_time()

    def _publish(self, time: float) -> None:
        """Origin pushes one event to the channel; mark live stale copies."""
        _, group_id = self._events[self._publish_cursor]
        self._publish_cursor += 1
        self.updates_applied += 1
        self.stats.events_published += 1
        self.stats.channel_bytes += EVENT_BYTES
        scheme = self._scheme
        for object_id in self.groups.members(group_id):
            for node in self._nodes:
                key = (node, object_id)
                if key not in self._marks and scheme.has_object(node, object_id):
                    self._marks[key] = time
        if self._probe is not None and self._probe.sample("invalidation"):
            self._probe.write(
                "invalidation",
                t=time,
                group=group_id,
                published=self.stats.events_published,
            )

    def _poll_all(self, poll_time: float) -> None:
        """Every node polls: fetch missed events and apply them."""
        for node in self._nodes:
            self.stats.polls += 1
            self.stats.channel_bytes += POLL_BYTES
            self._apply_node(node, poll_time)

    def _apply_all(self, apply_time: float) -> None:
        """Zero-latency delivery: all nodes apply immediately."""
        for node in self._nodes:
            self._apply_node(node, apply_time)

    def _apply_node(self, node: int, apply_time: float) -> None:
        cursor = self._node_cursors[node]
        scheme = self._scheme
        while cursor < self._publish_cursor:
            _, group_id = self._events[cursor]
            cursor += 1
            self.stats.event_deliveries += 1
            self.stats.channel_bytes += EVENT_BYTES
            for object_id in self.groups.members(group_id):
                key = (node, object_id)
                first_stale = self._marks.pop(key, None)
                if first_stale is None:
                    # Never cached here, already fresh (re-fetched after
                    # the update), or already handled by an earlier
                    # event in this same batch.
                    continue
                removed = scheme.invalidate_step(node, object_id)
                if removed:
                    self.copies_invalidated += removed
                    self.stats.copies_invalidated += removed
                    self.stats.record_window(apply_time - first_stale)
                else:
                    self.stats.stale_copies_evicted += 1
        self._node_cursors[node] = cursor

    def outcome(self, index, now, object_id, outcome, latency, measured) -> None:
        """Per-request hooks: stale-hit detection and mark clearing."""
        if outcome.served_by_cache:
            key = (outcome.path[outcome.hit_index], object_id)
            if key in self._marks:
                self.stats.stale_hits += 1
                self.stats.stale_bytes += outcome.size
        if outcome.inserted_nodes:
            for node in outcome.inserted_nodes:
                # A fresh copy just arrived from upstream; it postdates
                # every published update.
                self._marks.pop((node, object_id), None)

    def finalize(self, end_time: float) -> None:
        """Drain: one final poll per node so every event is delivered.

        Mirrors the serving cluster's drain-time channel sync; gives
        every stale copy a bounded window instead of leaving tail
        events unmeasured.
        """
        pending = any(
            self._node_cursors[node] < self._publish_cursor
            for node in self._nodes
        )
        if pending:
            for node in self._nodes:
                if self._node_cursors[node] < self._publish_cursor:
                    if self.poll_interval > 0:
                        self.stats.polls += 1
                        self.stats.channel_bytes += POLL_BYTES
                    self._apply_node(node, end_time)


def build_policy(
    config, num_objects: int
) -> Union[InbandCoherency, ChannelCoherency]:
    """Policy instance for a :class:`~repro.coherency.config.CoherencyConfig`."""
    groups = config.build_groups(num_objects)
    if config.mode == "inband":
        return InbandCoherency(groups=groups)
    return ChannelCoherency(groups=groups, poll_interval=config.poll_interval)
