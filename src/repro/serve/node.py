"""A live cache node: one server speaking the coordinated protocol.

Each :class:`CacheNode` owns the cache state of exactly one network node
-- a private instance of the configured scheme in which only this node's
caches ever materialize -- and handles the per-request protocol through
the scheme's node-local steps (:meth:`~repro.schemes.base.CachingScheme.
lookup_step` / ``decide_step`` / ``deliver_step``).  What a step returns
is what goes on the wire -- the node adds transport, resilience and
tracing, and converts nothing:

* a ``get`` arrives from a client at its attachment node, which resolves
  the delivery path (a branch of the origin's distribution tree) and
  starts the upstream walk;
* a ``fwd`` walks upstream hop by hop, accumulating piggybacked node
  reports, until a cache holds the object or the origin attachment is
  reached; the serving node runs the placement decision.  Every hop
  first checks each field a step will read (:func:`_walk_fields`) and
  refuses a malformed frame before any of its state moves;
* the reply unwinds downstream through the same chain of in-flight
  calls -- exactly the paper's response path -- with every node applying
  the shipped decision (inserting, or refreshing its d-cache descriptor)
  and advancing the cost accumulator;
* ``inv`` drops the node's copy of an object (push invalidation); an
  ``inv`` that lists further ``nodes`` is also relayed to them -- by
  direct hand-over inside the process, as one frame to every other
  process -- so a broadcast costs one frame per process.

Every node carries a live :class:`~repro.obs.registry.StatRegistry` fed
the same way the simulator's engine feeds it (lookup hits/misses, serving
reads, insertion writes, piggyback bytes; evictions and occupancy arrive
through the attached cache observers), so ``stats`` frames and the
``/metrics`` endpoint expose the standard per-node counters.

**Resilience.**  Node-to-node forwarding runs through
:meth:`CacheNode._call_upstream`: a per-upstream circuit breaker, then a
bounded retry loop with exponential backoff and seeded jitter around the
retryable failures (:data:`~repro.serve.protocol.RETRYABLE_ERRORS` --
deadlines, unreachable peers, damaged frames).  When an upstream hop
stays dead after retries, the walk *fails over*: the dead hop is skipped
(and an overloaded hop answering ``busy`` is treated the same way)
and the next node on the (full, unmodified) path is tried, degrading the
request to a longer effective miss path instead of an error.  The
response then tells :meth:`~repro.schemes.base.CachingScheme.
deliver_step` which index it physically ``came_from`` so cost-carrying
schemes charge the whole bypassed segment.  Survived faults land in the
registry's resilience counters (``rpc_timeouts``, ``rpc_retries``,
``failovers``, ``breaker_trips``); on a fault-free run every one of them
stays zero and the node's behavior is bit-identical to the pre-resilience
protocol.

**Admission control.**  With ``max_inflight`` set, a ``get``/``fwd``
arriving while the node already has that many walks in flight is shed
with a retryable ``busy`` frame *before* any cache state is touched
(counted as ``busy_rejections``).  One request in flight can never trip
the bound, so sequential replay -- the simulator-equivalence oracle --
is unaffected by any ``max_inflight`` value.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from math import inf
from typing import Awaitable, Callable, Dict, Mapping, Optional, Sequence

from repro.core.piggyback import (
    REPORT_KEYS,
    SKIPPED_NODE_BYTES,
    report_bytes,
    response_bytes,
)
from repro.obs.instruments import Instruments
from repro.obs.registry import StatRegistry
from repro.schemes.base import CachingScheme
from repro.serve.protocol import (
    MSG_BUSY,
    MSG_CHSYNC,
    MSG_CHSYNC_OK,
    MSG_EVENT,
    MSG_EVENT_OK,
    MSG_FWD,
    MSG_GET,
    MSG_INV,
    MSG_INV_OK,
    MSG_PING,
    MSG_PONG,
    MSG_RESP,
    MSG_STATS,
    MSG_STATS_OK,
    RETRYABLE_ERRORS,
    CallTimeout,
    NodeUnreachable,
    ProtocolError,
)
from repro.serve.tracing import NodeTracer
from repro.serve.transport import CircuitBreaker, RetryPolicy

# async (node_id, message) -> reply: how a node reaches its upstream peer.
Forwarder = Callable[[int, dict], Awaitable[dict]]
# (client_id, server_id) -> delivery path, shared routing state.
PathResolver = Callable[[int, int], Sequence[int]]


def _is_id(value) -> bool:
    """A JSON integer (``true`` is not one, though Python calls it an int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _walk_fields(message: dict) -> tuple:
    """Everything a scheme step will read from a ``fwd`` frame, checked.

    A frame read from a socket is outside input, and a hop reached by
    direct call is handed the same dict, so this runs on every hop and
    before the node's clock, counters, registry or caches move: a frame
    that fails here leaves no trace of itself.
    """
    try:
        path = message["path"]
        index = message["index"]
        object_id = message["object_id"]
        size = message["size"]
        now = message["time"]
        reports = message["reports"]
    except KeyError as missing:
        raise ProtocolError(f"fwd frame missing field {missing}") from None
    if not (isinstance(path, list) and _is_id(index) and 0 <= index < len(path)):
        raise ProtocolError("fwd frame carries no valid path position")
    if not _is_id(object_id):
        raise ProtocolError("fwd frame object_id must be an integer")
    if not _is_id(size) or size <= 0:
        raise ProtocolError("fwd frame size must be a positive integer")
    if not (_is_id(now) or isinstance(now, float)) or not -inf < now < inf:
        raise ProtocolError("fwd frame time must be a finite number")
    if not isinstance(reports, list) or not all(
        isinstance(report, dict) and REPORT_KEYS <= report.keys()
        for report in reports
    ):
        raise ProtocolError("fwd frame reports must be a list of n/f/m/l/d records")
    skipped = message.get("skipped", [])
    if not isinstance(skipped, list) or not all(
        _is_id(position) and 0 <= position < len(path) for position in skipped
    ):
        raise ProtocolError("fwd frame skipped must be a list of path positions")
    if not isinstance(message.get("trace", {}), dict):
        raise ProtocolError("fwd frame trace must be an object")
    return path, index, object_id, size, now, reports, skipped


def _fwd_frame(
    path: list,
    index: int,
    object_id,
    size,
    now,
    reports: list,
    skipped: list,
    ctx: Optional[dict],
) -> dict:
    """The ``fwd`` frame asking ``path[index]`` to continue a walk.

    The frame keeps the FULL original path (the decision's node-id set
    and the cost accounting both need it) plus the positions the walk
    bypassed.  Every frame owns its ``reports`` and ``skipped`` lists:
    the receiver appends to them, and a same-process receiver is handed
    the very dict built here, so a list shared with the next failover
    candidate's frame (or kept by the sender) would leak one hop's
    additions into another.  ``ctx`` is the trace context the receiver's
    span hangs off; an untraced walk carries none.
    """
    frame = {
        "type": MSG_FWD,
        "path": path,
        "index": index,
        "object_id": object_id,
        "size": size,
        "time": now,
        "reports": list(reports),
        "skipped": list(skipped),
    }
    if ctx is not None:
        frame["trace"] = ctx
    return frame


def _timed(span: Optional[dict], key: str, fn, *args, **kwargs):
    """Run one scheme step, accumulating its wall time into the span.

    With no span this is a plain call -- the untraced path pays nothing
    beyond the ``None`` test, preserving the zero-overhead-when-off
    contract.
    """
    if span is None:
        return fn(*args, **kwargs)
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    span[key] = span.get(key, 0.0) + (time.perf_counter() - t0)
    return result


@dataclass(frozen=True)
class ResilienceConfig:
    """How a node treats upstream failures (shared by the whole cluster).

    ``retry`` shapes the per-call retry/backoff schedule; the
    per-upstream :class:`~repro.serve.transport.CircuitBreaker` runs on
    its own constants.  The defaults are always safe to leave on: with
    no faults no call ever fails, so no retry, failover or breaker
    transition can fire.
    """

    retry: RetryPolicy = RetryPolicy()


class CacheNode:
    """One network node of the live cascade."""

    def __init__(
        self,
        node_id: int,
        scheme: CachingScheme,
        resolve_path: PathResolver,
        forward: Forwarder,
        registry: Optional[StatRegistry] = None,
        resilience: Optional[ResilienceConfig] = None,
        rng: Optional[random.Random] = None,
        max_inflight: Optional[int] = None,
        shard_of: Optional[Mapping[int, int]] = None,
        tracer: Optional[NodeTracer] = None,
    ) -> None:
        """``max_inflight`` bounds concurrently admitted request walks
        (``None`` = unbounded); a request arriving at the bound is shed
        with a retryable ``busy`` frame before touching any cache state.
        ``shard_of`` maps node id -> shard id so upstream forwards that
        leave this node's shard are counted (``cross_shard_fwds``) and an
        ``inv`` relay knows which listed nodes are co-hosted (``None``:
        all of them).
        ``tracer`` opts the node into distributed tracing (see
        :mod:`repro.serve.tracing`); ``None`` runs the exact untraced
        code path."""
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.node_id = node_id
        self.scheme = scheme
        self._resolve_path = resolve_path
        self._forward = forward
        self.max_inflight = max_inflight
        self._shard_of = dict(shard_of) if shard_of is not None else None
        self._home_shard = (
            self._shard_of.get(node_id) if self._shard_of is not None else None
        )
        self.resilience = (
            resilience if resilience is not None else ResilienceConfig()
        )
        # Jitter source for retry backoff; a per-node seeded RNG makes the
        # whole retry schedule (and thus the chaos counters) reproducible.
        self._rng = rng
        self.breakers: Dict[int, CircuitBreaker] = {}
        self.registry = registry if registry is not None else StatRegistry()
        # Cache-level events (evictions, occupancy, invalidation removals)
        # flow through the standard observer wiring; request-level counts
        # are fed by the handler below, mirroring the engine's feeds.
        scheme.attach_instruments(Instruments(registry=self.registry))
        # Piggyback byte accounting and invalidation-frame pricing apply
        # to any scheme that exposes protocol counters; the reports
        # themselves are shipped as the scheme's steps return them.
        self._piggyback = getattr(scheme, "protocol_stats", None) is not None
        self._tracer = tracer
        # Channel-mode coherency: the cluster attaches a
        # ChannelSubscriber after construction; None = in-band mode and
        # the exact pre-channel code path.
        self.subscriber = None
        self.requests_handled = 0
        self.inflight = 0
        # Per-node monotone clock: under concurrent load generation,
        # frames carrying older trace timestamps can arrive after newer
        # ones, but a node's notion of "now" must never run backwards
        # (the schemes' frequency estimators require non-decreasing
        # reference times).  Sequential replay is strictly time-ordered,
        # so there the clamp is an identity and cannot perturb the
        # simulator-equivalence oracle.
        self._clock = float("-inf")

    # -- dispatch ------------------------------------------------------------

    async def handle(self, message: dict) -> dict:
        """The transport-facing handler for every frame kind."""
        kind = message["type"]
        if (
            self.max_inflight is not None
            and kind in (MSG_GET, MSG_FWD)
            and self.inflight >= self.max_inflight
        ):
            # Admission control: shed the walk before any cache state is
            # touched.  Control frames (inv/stats/ping) are always
            # admitted -- they are cheap and the operator needs them most
            # exactly when the data plane is saturated.
            self.registry.node(self.node_id).busy_rejections += 1
            tracer, ctx = self._tracer, message.get("trace")
            if tracer is not None and isinstance(ctx, dict):
                # The shed hop of an already-traced walk: without this
                # span the trace would show the forwarding parent
                # retrying into a void.  (Shed before the frame is
                # validated, hence the type test.)
                span = tracer.span(ctx, "walk", "busy")
                span["t"] = message.get("time")
                span["object"] = message.get("object_id")
                span["inflight"] = self.inflight
                tracer.emit(span)
            return {
                "type": MSG_BUSY,
                "node": self.node_id,
                "inflight": self.inflight,
            }
        self.inflight += 1
        try:
            if kind == MSG_FWD:
                return await self._handle_walk(message)
            if kind == MSG_GET:
                return await self._handle_get(message)
            if kind == MSG_INV:
                return await self._handle_invalidate(message)
            if kind == MSG_EVENT:
                return await self._handle_event(message)
            if kind == MSG_CHSYNC:
                return await self._handle_chsync(message)
            if kind == MSG_STATS:
                return self._handle_stats()
            if kind == MSG_PING:
                return {"type": MSG_PONG, "node": self.node_id}
            raise ProtocolError(f"unexpected message type {kind!r}")
        finally:
            self.inflight -= 1

    # -- request path --------------------------------------------------------

    async def _handle_get(self, message: dict) -> dict:
        """Client entry: resolve the delivery path, start the walk."""
        try:
            client_id = message["client_id"]
            server_id = message["server_id"]
            object_id = message["object_id"]
            size = message["size"]
            now = message["time"]
        except KeyError as missing:
            raise ProtocolError(f"get frame missing field {missing}") from None
        skipped = message.get("skipped", [])
        if not isinstance(skipped, list):
            raise ProtocolError("get frame skipped must be a list")
        path = list(self._resolve_path(client_id, server_id))
        if path[0] != self.node_id:
            raise ProtocolError(
                f"client {client_id} attaches to node {path[0]}, "
                f"not to node {self.node_id}"
            )
        tracer = self._tracer
        ctx = message.get("trace")
        if tracer is not None and ctx is None and tracer.sample_walk():
            # Ingress is where a walk gains (or is sampled out of) its
            # trace: a context minted here rides every fwd frame of the
            # walk, so sampled traces are always complete trees.
            ctx = {"id": tracer.new_trace_id(), "parent": None}
        return await self._handle_walk(
            _fwd_frame(path, 0, object_id, size, now, [], skipped, ctx)
        )

    async def _handle_walk(self, message: dict) -> dict:
        """One upstream stop of the request walk (and its downstream unwind)."""
        path, index, object_id, size, now, reports, skipped = _walk_fields(
            message
        )
        if path[index] != self.node_id:
            raise ProtocolError(
                f"misrouted frame: position {index} of {path} is not "
                f"node {self.node_id}"
            )
        if now < self._clock:
            now = self._clock
        else:
            self._clock = now
        self.requests_handled += 1
        tracer = self._tracer
        ctx = message.get("trace") if tracer is not None else None
        if ctx is None:
            # Untraced walk (tracing off, or sampled out at ingress):
            # the exact pre-tracing code path.
            return await self._walk(
                path, index, object_id, size, now, reports, skipped, None
            )
        span = tracer.span(ctx, "walk")
        span.update(
            t=now,
            object=object_id,
            size=size,
            index=index,
            path=list(path),
            skipped=[],
            retries=0,
            failovers=0,
            piggyback=0,
            xshard=False,
            inflight=self.inflight,
            start=time.time(),
        )
        begin = time.perf_counter()
        try:
            reply = await self._walk(
                path, index, object_id, size, now, reports, skipped, span
            )
        except BaseException as error:
            # The walk died at or above this hop (exhausted failover,
            # remote handler error); the span records it so partial
            # traces still show how far the request got.
            span["status"] = type(error).__name__
            span["wall"] = time.perf_counter() - begin
            tracer.emit(span)
            raise
        span["hit_index"] = reply.get("hit_index")
        span["wall"] = time.perf_counter() - begin
        tracer.emit(span)
        return reply

    async def _walk(
        self,
        path: list,
        index: int,
        object_id,
        size: int,
        now: float,
        reports: list,
        skipped: list,
        span: Optional[dict],
    ) -> dict:
        """The walk body; ``span`` (when tracing) only observes it, and
        ``reports`` / ``skipped`` are the received frame's own lists."""
        last = len(path) - 1
        scheme = self.scheme

        # Served here?  At the origin attachment the origin itself
        # serves: no lookup, and no registry entry is materialised for a
        # node that holds no cache.  Anywhere else the lookup says.
        served = index == last
        if not served:
            served, report = _timed(
                span, "lookup", scheme.lookup_step, self.node_id, object_id, size, now
            )
            stats = self.registry.node(self.node_id)
            if served:
                stats.hits += 1
                stats.bytes_read += size
                if self.subscriber is not None:
                    # Channel mode: log the hit so a later event can judge
                    # retroactively whether it was served off a stale copy.
                    self.subscriber.note_hit(object_id, now, size)
        if served:
            # Decide from the piggybacked reports -- the request message,
            # as the steps below returned it -- and start the downstream
            # unwind.
            decision = _timed(
                span,
                "decide",
                scheme.decide_step,
                path,
                index,
                reports,
                object_id,
                size,
                now,
            )
            reply = {
                "type": MSG_RESP,
                "hit_index": index,
                "decision": decision,
                "inserted": [],
                "evictions": 0,
            }
            if span is not None:
                reply["trace"] = {"id": span["trace"], "span": span["span"]}
            return reply

        stats.misses += 1
        if report is not None:
            reports.append(report)
            if self._piggyback:
                added = report_bytes(report)
                stats.piggyback_bytes += added
                if span is not None:
                    span["piggyback"] += added
        # Forward upstream, failing over past dead hops: each candidate
        # gets its own frame (see _fwd_frame) naming the positions the
        # walk bypassed so far.  An unreachable origin attachment has
        # nothing left to fail over to and the error propagates
        # downstream.
        ctx = None
        if span is not None:
            ctx = {"id": span["trace"], "parent": span["span"]}
        next_index = index + 1
        while True:
            upstream = _fwd_frame(
                path, next_index, object_id, size, now, reports, skipped, ctx
            )
            if (
                self._shard_of is not None
                and self._shard_of.get(path[next_index]) != self._home_shard
            ):
                stats.cross_shard_fwds += 1
                if span is not None:
                    span["xshard"] = True
            try:
                if span is None:
                    reply = await self._call_upstream(path[next_index], upstream)
                else:
                    t0 = time.perf_counter()
                    try:
                        reply = await self._call_upstream(
                            path[next_index], upstream, span
                        )
                    finally:
                        # Cumulative over failover candidates: the whole
                        # time this hop spent waiting on upstreams,
                        # retries and backoff included.
                        span["upstream"] = span.get("upstream", 0.0) + (
                            time.perf_counter() - t0
                        )
                break
            except RETRYABLE_ERRORS:
                if next_index >= last:
                    raise
                stats.failovers += 1
                skipped.append(next_index)
                if span is not None:
                    span["failovers"] += 1
                    span["skipped"].append(next_index)
                if self._piggyback:
                    stats.piggyback_bytes += SKIPPED_NODE_BYTES
                    if span is not None:
                        span["piggyback"] += SKIPPED_NODE_BYTES
                next_index += 1
        if reply.get("type") != MSG_RESP:
            raise ProtocolError(
                f"expected resp frame from upstream, got {reply.get('type')!r}"
            )

        # Downstream unwind: the object physically traversed every link
        # from path[next_index] down (a bypassed node's cache process is
        # dead, its router still forwards); apply the shipped decision at
        # this node, charging that whole segment.
        decision = reply["decision"]
        inserted, evictions = _timed(
            span,
            "deliver",
            scheme.deliver_step,
            index,
            path,
            decision,
            object_id,
            size,
            now,
            came_from=next_index,
        )
        if inserted:
            reply["inserted"].append(self.node_id)
            stats.insertions += 1
            stats.bytes_written += size
            if self.subscriber is not None:
                self.subscriber.note_insert(object_id, now)
        reply["evictions"] += evictions
        if self._piggyback:
            # The accumulator is charged to its first downstream carrier
            # -- the hop directly below the serving node in the chain of
            # nodes that actually answered.
            added = response_bytes(
                self.node_id in decision["cache_at"],
                next_index == reply["hit_index"],
            )
            stats.piggyback_bytes += added
            if span is not None:
                span["piggyback"] += added
        return reply

    async def _call_upstream(
        self, node: int, message: dict, span: Optional[dict] = None
    ) -> dict:
        """One logical upstream call: breaker gate + bounded retry loop.

        Timeouts, unreachable peers and damaged frames are retried with
        exponential backoff (jitter drawn from the node's seeded RNG);
        anything else -- notably a remote handler error -- propagates
        immediately, because the remote side may already have mutated
        state.  An exhausted call feeds the upstream's circuit breaker;
        while the breaker is open, calls fail fast without touching the
        transport, which is what lets a walk skip a dead parent without
        paying the retry schedule on every request.
        """
        breaker = self.breakers.get(node)
        if breaker is None:
            breaker = self.breakers[node] = CircuitBreaker()
        stats = self.registry.node(self.node_id)
        if not breaker.allow():
            raise NodeUnreachable(
                f"circuit to upstream node {node} is open (failing fast)"
            )
        policy = self.resilience.retry
        attempt = 0
        while True:
            try:
                reply = await self._forward(node, message)
            except RETRYABLE_ERRORS as error:
                if isinstance(error, CallTimeout):
                    stats.rpc_timeouts += 1
                attempt += 1
                if attempt >= policy.attempts:
                    if breaker.record_failure():
                        stats.breaker_trips += 1
                    raise
                stats.rpc_retries += 1
                if span is not None:
                    span["retries"] += 1
                delay = policy.delay(attempt - 1, self._rng)
                if delay > 0:
                    await asyncio.sleep(delay)
            else:
                breaker.record_success()
                return reply

    # -- control plane -------------------------------------------------------

    async def _handle_invalidate(self, message: dict) -> dict:
        """Drop this node's copy; relay to the other nodes the frame lists."""
        try:
            object_id = message["object_id"]
        except KeyError as missing:
            raise ProtocolError(f"inv frame missing field {missing}") from None
        if not _is_id(object_id):
            raise ProtocolError("inv frame object_id must be an integer")
        nodes = message.get("nodes")
        if "nodes" in message and not (
            isinstance(nodes, list)
            and all(map(_is_id, nodes))
            and len(set(nodes)) == len(nodes)
            and self.node_id in nodes
            and (self._shard_of is None or set(nodes) <= self._shard_of.keys())
        ):
            raise ProtocolError(
                "inv frame nodes must be a list of distinct node ids of "
                f"this cluster that contains node {self.node_id}"
            )
        if self._piggyback:
            # One in-band inv frame delivered to this node: priced into
            # the coordination overhead exactly as the simulator counts
            # it (channel-mode coherency never sends these).
            self.scheme.protocol_stats.invalidations += 1
        tracer = self._tracer
        ctx = message.get("trace")
        if tracer is None or ctx is None:
            removed = self.scheme.invalidate_step(self.node_id, object_id)
        else:
            start = time.time()
            t0 = time.perf_counter()
            removed = self.scheme.invalidate_step(self.node_id, object_id)
            span = tracer.span(ctx, "inv")
            span["object"] = object_id
            span["removed"] = removed
            span["start"] = start
            span["wall"] = time.perf_counter() - t0
            tracer.emit(span)
        reply = {"type": MSG_INV_OK, "node": self.node_id, "removed": removed}
        if nodes is not None:
            reply["delivered"] = 1
            reply["skipped"] = []
            await self._relay_invalidate(object_id, nodes, ctx, reply)
            reply["skipped"].sort()
        return reply

    async def _relay_invalidate(
        self, object_id: int, nodes: list, ctx: Optional[dict], reply: dict
    ) -> None:
        """Carry one broadcast to the other listed nodes, folding their
        answers into ``reply``.

        Frames exist only at process boundaries: a co-hosted node is
        handed a plain ``inv`` through the forwarder (a direct call in a
        shard worker), every other shard gets one ``inv`` naming its
        members, sent to the first of them, and relays it the same way.
        Best-effort and single-attempt like any broadcast: a hand-over
        that fails retryably lands in ``skipped`` (a remote group is
        tried once more through its second member), without the retry
        RNG or the breakers -- those belong to the request walks.  Every
        relayed list is shorter than the one received, so a forged list
        cannot loop.
        """

        plain = {"type": MSG_INV, "object_id": object_id}
        if ctx is not None:
            # Unchanged: every node's inv span hangs off the one
            # context, so the broadcast reconstructs as a flat tree.
            plain["trace"] = ctx

        async def hand_over(target: int, **listed) -> bool:
            try:
                answer = await self._forward(target, {**plain, **listed})
            except RETRYABLE_ERRORS:
                reply["skipped"].append(target)
                return False
            reply["removed"] += answer["removed"]
            reply["delivered"] += answer.get("delivered", 1)
            reply["skipped"] += answer.get("skipped", [])
            return True

        async def relay(group: list) -> None:
            if not await hand_over(group[0], nodes=group):
                rest = group[1:]
                if rest and not await hand_over(rest[0], nodes=rest):
                    reply["skipped"] += rest[1:]

        shard_of, home = self._shard_of, self._home_shard
        remote: Dict[int, list] = {}
        for node in nodes:
            if node == self.node_id:
                continue
            if shard_of is not None and shard_of[node] != home:
                remote.setdefault(shard_of[node], []).append(node)
            else:
                await hand_over(node)
        if remote:
            await asyncio.gather(*map(relay, remote.values()))

    async def _handle_event(self, message: dict) -> dict:
        """One pushed channel event (see :mod:`repro.serve.channel`)."""
        if self.subscriber is None:
            raise ProtocolError(
                f"node {self.node_id} has no channel subscription"
            )
        try:
            group = message["group"]
            seq = message["seq"]
            event_time = message["time"]
        except KeyError as missing:
            raise ProtocolError(
                f"event frame missing field {missing}"
            ) from None
        removed = await self.subscriber.deliver(
            group, seq, event_time, self._clock
        )
        return {"type": MSG_EVENT_OK, "node": self.node_id, "removed": removed}

    async def _handle_chsync(self, message: dict) -> dict:
        """Drain-time channel sync: catch up to the broker's latest seqs."""
        if self.subscriber is None:
            raise ProtocolError(
                f"node {self.node_id} has no channel subscription"
            )
        removed = await self.subscriber.sync(
            message.get("latest", {}), self._clock
        )
        return {
            "type": MSG_CHSYNC_OK,
            "node": self.node_id,
            "removed": removed,
            "pending": self.subscriber.pending(),
        }

    def _handle_stats(self) -> dict:
        snapshot = self.registry.snapshot().get(self.node_id, {})
        reply = {
            "type": MSG_STATS_OK,
            "node": self.node_id,
            "requests_handled": self.requests_handled,
            "cached_bytes": self.scheme.total_cached_bytes(),
            "stats": snapshot,
        }
        if self.subscriber is not None:
            reply["channel"] = self.subscriber.to_dict()
        return reply
