"""A live cache node: one server speaking the coordinated protocol.

Each :class:`CacheNode` owns the cache state of exactly one network node
-- a private instance of the configured scheme in which only this node's
caches ever materialize.  The request walk is the scheme layer's one
step machine, :class:`~repro.schemes.base.Walk`; a process drives it
over the path positions it hosts (:meth:`CacheNode._walk`), and what a
step returns is what goes on the wire -- the node converts nothing and
adds only what a network needs:

* a ``get`` arrives from a client at its attachment node, which resolves
  the delivery path (a branch of the origin's distribution tree) and
  starts the walk; a ``fwd`` frame carries the rest of a walk into
  another process.  Where a frame enters a process, every field a step
  will read is checked once (:func:`_walk_fields`; a ``fwd`` path
  against routing), refusing a malformed frame before any state moves;
* entering a position -- the node's clock clamp, request count and
  inflight slot (:class:`_WalkObserver`) -- and attaching the position's
  step observers, which the machine calls at each step: the node's
  request counters and piggyback bytes, the same observer the simulator
  attaches (:class:`~repro.obs.instruments.NodeCounters`); a traced
  walk's spans (:class:`~repro.serve.tracing.WalkSpans`); in channel
  mode, the subscriber's hit and insert notes;
* reaching the next position: in memory when the process hosts it, else
  one ``fwd`` frame whose ``resp`` the walk unwinds from -- exactly the
  paper's response path.  A one-process cluster hosts every node, so its
  walks leave no frame behind the client's ``get``;
* ``inv`` drops the node's copy of an object (push invalidation); an
  ``inv`` that lists further ``nodes`` is also relayed to them -- by
  hand-over to the nodes of the same process, as one frame to every
  other process -- so a broadcast costs one frame per process.

Every node carries a live :class:`~repro.obs.registry.StatRegistry` fed
by the same observers as the simulator's (the walk's counters; evictions
and occupancy through the attached cache observers), so ``stats`` frames
and the ``/metrics`` endpoint expose the standard per-node counters.

**Resilience.**  A hop nothing can hold is a plain call: a co-hosted
node with no fault seat and no ``max_inflight`` bound is entered
directly.  Any other hop -- a frame to another process, or a co-hosted
node's admission check, which first meets the fault plan's per-hop seat
(:meth:`~repro.faults.injector.FaultInjector.hop`) -- runs through
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
(counted as ``busy_rejections``); a co-hosted position at its bound
sheds the same way, as the :class:`~repro.serve.protocol.NodeBusy` a
``busy`` frame raises at its caller.  One request in flight can never trip
the bound, so sequential replay -- the simulator-equivalence oracle --
is unaffected by any ``max_inflight`` value.
"""

from __future__ import annotations

import asyncio
import random
import time
from math import inf
from typing import Awaitable, Callable, Dict, Mapping, Optional

from repro.core.piggyback import REPORT_KEYS
from repro.obs.instruments import Instruments, NodeCounters
from repro.obs.registry import StatRegistry
from repro.schemes.base import CachingScheme, Walk
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
    raise_if_error,
)
from repro.serve.tracing import NodeTracer, WalkSpans
from repro.serve.transport import CircuitBreaker, RetryPolicy
from repro.sim.architecture import Architecture

# async (node_id, message) -> reply: how a node sends a frame to a peer.
Forwarder = Callable[[int, dict], Awaitable[dict]]


def _is_id(value) -> bool:
    """A JSON integer (``true`` is not one, though Python calls it an int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _walk_fields(message: dict) -> tuple:
    """Everything a scheme step will read from a walk frame, checked.

    A frame is outside input, so this runs where one enters a process,
    before any node's clock, counters, registry or caches move: a frame
    that fails here leaves no trace of itself.  The positions the walk
    then crosses in memory read the values checked here.  A ``fwd``
    frame's path is checked against routing by the node it enters.
    """
    kind = message["type"]
    try:
        path = message["path"]
        index = message["index"]
        object_id = message["object_id"]
        size = message["size"]
        now = message["time"]
        reports = message["reports"]
    except KeyError as missing:
        raise ProtocolError(f"{kind} frame missing field {missing}") from None
    if not (isinstance(path, list) and _is_id(index) and 0 <= index < len(path)):
        raise ProtocolError(f"{kind} frame carries no valid path position")
    if not _is_id(object_id):
        raise ProtocolError(f"{kind} frame object_id must be an integer")
    if not _is_id(size) or size <= 0:
        raise ProtocolError(f"{kind} frame size must be a positive integer")
    if not (_is_id(now) or isinstance(now, float)) or not -inf < now < inf:
        raise ProtocolError(f"{kind} frame time must be a finite number")
    if not isinstance(reports, list) or not all(
        isinstance(report, dict) and REPORT_KEYS <= report.keys()
        for report in reports
    ):
        raise ProtocolError(f"{kind} frame reports must be a list of n/f/m/l/d records")
    skipped = message.get("skipped", [])
    if not isinstance(skipped, list) or not all(
        _is_id(position) and 0 <= position < len(path) for position in skipped
    ):
        raise ProtocolError(f"{kind} frame skipped must be a list of path positions")
    if not isinstance(message.get("trace", {}), dict):
        raise ProtocolError(f"{kind} frame trace must be an object")
    return path, object_id, size, now, index, reports, skipped


class _WalkObserver:
    """What a network adds to each position a walk enters in this process.

    The :class:`~repro.schemes.base.Walk` machine calls :meth:`enter` to
    cross into a position: the node's clock clamp, its request count, an
    inflight slot, and the position's step observers -- the node's
    :attr:`CacheNode.steps`, then the walk's spans when it is traced
    (``trace``, a :class:`~repro.serve.tracing.WalkSpans`).  ``nodes``
    holds the node of every position entered here, bottom first.
    """

    __slots__ = ("hosted", "trace", "nodes")

    def __init__(self, hosted: Mapping, trace: Optional[WalkSpans]) -> None:
        self.hosted = hosted
        self.trace = trace
        self.nodes: list = []

    def enter(self, walk: Walk, index: int, node: Optional["CacheNode"] = None):
        """Enter position ``index`` at ``node``, reached by the driver, or
        at the co-hosted node there -- unless something can hold or refuse
        that hop (a frame, a fault-plan seat, a bound on walks in flight),
        which leaves it to the driver: ``None``."""
        if node is None:
            node = self.hosted.get(walk.path[index])
            if node is None or node.injector is not None or node.max_inflight is not None:
                return None
        if walk.now < node._clock:
            walk.now = node._clock
        else:
            node._clock = walk.now
        node.requests_handled += 1
        if self.nodes:  # the first position's slot is CacheNode.handle's
            node.inflight += 1
        self.nodes.append(node)
        trace = self.trace
        if trace is None:
            walk.steps = node.steps
        else:
            trace.open(walk, index, node._tracer, node.counters, node.inflight)
            walk.steps = (*node.steps, trace)
        return node.scheme

    def frame(self, walk: Walk) -> dict:
        """The ``fwd`` frame asking the walk's pending position to go on.

        The frame keeps the FULL original path (the decision's node-id set
        and the cost accounting both need it) plus the positions the walk
        bypassed.  Every frame owns its ``reports`` and ``skipped`` lists:
        the walk goes on appending to its own after a failed candidate,
        and a transport may still hold the frame (a delayed duplicate) or
        hand it to a receiver that appends to it.  ``trace`` is the
        context the receiver's span hangs off; an untraced walk carries
        none.
        """
        frame = {
            "type": MSG_FWD,
            "path": walk.path,
            "index": walk.index,
            "object_id": walk.object_id,
            "size": walk.size,
            "time": walk.now,
            "reports": list(walk.reports),
            "skipped": list(walk.skipped),
        }
        if self.trace is not None:
            frame["trace"] = self.trace.ctx
        return frame

    def leave(self, status: Optional[str] = None) -> None:
        """Give back every slot taken, once the walk is answered or has
        failed (``status``).  Unwinding never waits, so no other walk
        sees a slot its position would already have given back."""
        for node in self.nodes[1:]:
            node.inflight -= 1
        if status is not None and self.trace is not None:
            self.trace.abort(status)


class CacheNode:
    """One network node of the live cascade."""

    def __init__(
        self,
        node_id: int,
        scheme: CachingScheme,
        architecture: Architecture,
        forward: Forwarder,
        registry: Optional[StatRegistry] = None,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        max_inflight: Optional[int] = None,
        shard_of: Optional[Mapping[int, int]] = None,
        tracer: Optional[NodeTracer] = None,
    ) -> None:
        """``architecture`` resolves a client's delivery path (shared
        routing state); ``forward`` sends a frame to a peer node.
        ``retry`` shapes the retry/backoff schedule of every upstream
        call (the per-upstream :class:`~repro.serve.transport.
        CircuitBreaker` runs on its own constants); the default is always
        safe to leave on, since with no faults no call ever fails.
        ``max_inflight`` bounds concurrently admitted request walks
        (``None`` = unbounded); a request arriving at the bound is shed
        with a retryable ``busy`` frame before touching any cache state.
        ``shard_of`` maps node id -> shard id so upstream forwards that
        leave this node's shard are counted (``cross_shard_fwds``) and an
        ``inv`` relay sends one frame per other shard (``None``: one per
        listed node it does not host).
        ``tracer`` opts the node into distributed tracing (see
        :mod:`repro.serve.tracing`); ``None`` runs the exact untraced
        code path."""
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.node_id = node_id
        self.scheme = scheme
        self.architecture = architecture
        self._origins = frozenset(architecture.server_nodes.values())
        self._forward = forward
        self.max_inflight = max_inflight
        self._shard_of = dict(shard_of) if shard_of is not None else None
        self._home_shard = (
            self._shard_of.get(node_id) if self._shard_of is not None else None
        )
        self.retry = retry if retry is not None else RetryPolicy()
        # The nodes of this process, by id, that a walk or an inv relay
        # reaches in memory; every other node is a frame away.  The
        # hosting cluster shares its node map here, so frames exist only
        # at process boundaries.  Reached in memory, nothing suspends a
        # walk unless a fault holds it, so concurrent walks through one
        # process never interleave.
        self.hosted: Mapping[int, CacheNode] = {}
        # The fault plan's per-hop seat (a FaultInjector) an in-memory
        # hop meets before this node's state moves, as a frame meets it
        # in the FaultyTransport; the hosting cluster hands over its
        # transport's.  None, without a plan, costs one test per hop.
        self.injector = None
        # Jitter source for retry backoff; a per-node seeded RNG makes the
        # whole retry schedule (and thus the chaos counters) reproducible.
        self._rng = rng
        self.breakers: Dict[int, CircuitBreaker] = {}
        self.registry = registry if registry is not None else StatRegistry()
        # Cache-level events (evictions, occupancy, invalidation removals)
        # flow through the standard observer wiring.
        scheme.attach_instruments(Instruments(registry=self.registry))
        # Piggyback byte accounting and invalidation-frame pricing apply
        # to any scheme that exposes protocol counters; the reports
        # themselves are shipped as the scheme's steps return them.
        self._piggyback = getattr(scheme, "protocol_stats", None) is not None
        # The step observers of this node's walk positions: its request
        # counters, then in channel mode the cluster's ChannelSubscriber.
        self.counters = NodeCounters(self.registry, node_id, self._piggyback)
        self.steps: tuple = (self.counters,)
        self._tracer = tracer
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

    def detach(self) -> None:
        """Drop the links to the hosting cluster: its node map, its
        forwarder and the subscriber's broker call.  A stopped cluster
        detaches its nodes, so reference counting alone frees them; a
        detached node forwards nothing."""
        self.hosted = {}
        self._forward = None
        if self.subscriber is not None:
            self.subscriber.detach()

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
            return self._shed(message)
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

    def _shed(self, message: dict) -> dict:
        """Count one walk shed at the bound; the ``busy`` frame saying so."""
        self.registry.node(self.node_id).busy_rejections += 1
        tracer, ctx = self._tracer, message.get("trace")
        if tracer is not None and isinstance(ctx, dict):
            # The shed hop of an already-traced walk: without this
            # span the trace would show the forwarding parent
            # retrying into a void.  (A frame is shed before it is
            # validated, hence the type test.)
            span = tracer.span(ctx, "walk", "busy")
            span["t"] = message.get("time")
            span["object"] = message.get("object_id")
            span["inflight"] = self.inflight
            tracer.emit(span)
        return {"type": MSG_BUSY, "node": self.node_id, "inflight": self.inflight}

    async def _admit(self, ctx: Optional[dict], now: float, object_id) -> None:
        """Admission at a co-hosted position: a walk reaching this node in
        memory meets the fault plan's seat, then is shed exactly as its
        frame would be, with the :class:`~repro.serve.protocol.NodeBusy`
        that frame would raise."""
        if self.injector is not None:
            await self.injector.hop(MSG_FWD, self.node_id, now)
        if self.max_inflight is not None and self.inflight >= self.max_inflight:
            raise_if_error(
                self._shed({"trace": ctx, "time": now, "object_id": object_id})
            )

    # -- request path --------------------------------------------------------

    async def _handle_get(self, message: dict) -> dict:
        """Client entry: check the frame, resolve the delivery path, start
        the walk.  Every field is checked before the ingress tracer samples
        or mints anything, so a refused ``get`` moves no state at all."""
        architecture = self.architecture
        for field, known in (("client_id", architecture.client_nodes),
                             ("server_id", architecture.server_nodes)):
            if field not in message:
                raise ProtocolError(f"get frame missing field '{field}'")
            if not (_is_id(message[field]) and message[field] in known):
                raise ProtocolError(f"get frame {field} must be a known id")
        client_id = message["client_id"]
        path = architecture.request_path(client_id, message["server_id"])
        if path[0] != self.node_id:
            raise ProtocolError(
                f"client {client_id} attaches to node {path[0]}, "
                f"not to node {self.node_id}"
            )
        fields = _walk_fields(
            {**message, "path": list(path), "index": 0, "reports": []}
        )
        tracer = self._tracer
        ctx = None
        if tracer is not None:
            ctx = message.get("trace")
            if ctx is None and tracer.sample_walk():
                # Ingress is where a walk gains (or is sampled out of)
                # its trace: a context minted here rides every position
                # of the walk, so sampled traces are always complete trees.
                ctx = {"id": tracer.new_trace_id(), "parent": None}
        return await self._walk(ctx, *fields)

    async def _handle_walk(self, message: dict) -> dict:
        """A ``fwd`` frame entering this process: checked once, then walked.

        Its path must be, element for element and as JSON integers, the
        delivery path routing gives from its first node (a network node)
        to its last (an origin attachment); a damaged one would move the
        state of the nodes it names before failing, or be served.
        """
        fields = _walk_fields(message)
        path, index = fields[0], fields[4]
        try:
            routed = (
                all(map(_is_id, path))
                and path[0] in self.architecture.network.nodes()
                and path[-1] in self._origins
                and path == self.architecture.routing.request_path(path[0], path[-1])
            )
        except ValueError:  # no route between the two ends
            routed = False
        if not routed:
            raise ProtocolError("fwd frame path is not a delivery path of this network")
        if path[index] != self.node_id:
            raise ProtocolError(
                f"misrouted frame: position {index} of {path} is not "
                f"node {self.node_id}"
            )
        ctx = message.get("trace") if self._tracer is not None else None
        return await self._walk(ctx, *fields)

    async def _walk(self, ctx: Optional[dict], *fields) -> dict:
        """Drive the :class:`~repro.schemes.base.Walk` over the positions
        this process hosts, a :class:`_WalkObserver` entering each one.

        The machine stops only at a position nothing here can enter
        without waiting; this loop reaches it through the waiting node's
        :meth:`_call_upstream` -- the co-hosted node's admission, or a
        ``fwd`` frame -- and resumes the machine with the outcome.  A
        failure leaves the loop as itself: every entered position's span
        records it, every slot taken is given back, and the caller sees
        one ``error`` frame -- not retried, not failed over.
        """
        trace = None if ctx is None else WalkSpans(ctx)
        observer = _WalkObserver(self.hosted, trace)
        walk = Walk(*fields, observer)
        reply = None
        try:
            done = walk.run(observer.enter(walk, walk.index, self))
            while not done:
                node = observer.nodes[-1]
                span = None if trace is None else trace.spans[-1][0]
                target = walk.path[walk.index]
                upstream = self.hosted.get(target)
                try:
                    if upstream is not None:
                        await node._call_upstream(
                            target, span, upstream._admit,
                            None if trace is None else trace.ctx,
                            walk.now, walk.object_id,
                        )
                    else:
                        frame = observer.frame(walk)
                        if node._shard_of is not None and (
                            node._shard_of.get(target) != node._home_shard
                        ):
                            node.registry.node(node.node_id).cross_shard_fwds += 1
                            if span is not None:
                                span["xshard"] = True
                        reply = await node._call_upstream(
                            target, span, node._forward, target, frame
                        )
                except RETRYABLE_ERRORS as error:
                    walk.fail_over(error)
                    continue
                if trace is not None:
                    trace.mark = time.perf_counter()
                if upstream is not None:
                    done = walk.run(observer.enter(walk, walk.index, upstream))
                elif reply.get("type") != MSG_RESP:
                    raise ProtocolError(
                        f"expected resp frame from upstream, got {reply.get('type')!r}"
                    )
                else:
                    done = walk.run(None, reply)
        except BaseException as error:
            observer.leave(type(error).__name__)
            raise
        observer.leave()
        if reply is not None:
            reply["evictions"] = walk.evictions
            return reply
        reply = {"type": MSG_RESP, "hit_index": walk.hit_index,
                 "decision": walk.decision, "inserted": walk.inserted,
                 "evictions": walk.evictions}
        if trace is not None:
            # The serving span's context, which the trace still holds.
            reply["trace"] = {"id": trace.ctx["id"], "span": trace.ctx["parent"]}
        return reply

    async def _call_upstream(
        self, node: int, span: Optional[dict], attempt: Callable[..., Awaitable], *args
    ):
        """One logical upstream call: breaker gate + bounded retry loop.

        ``attempt(*args)`` makes one try at reaching ``node``: a frame to
        it, or its admission check when this process hosts it.  Timeouts,
        unreachable peers, damaged frames and ``busy`` sheds are retried
        with exponential backoff (jitter drawn from the node's seeded
        RNG); anything else -- notably a remote handler error --
        propagates immediately, because the remote side may already have
        mutated state.  An exhausted call feeds the upstream's circuit
        breaker; while the breaker is open, calls fail fast without
        trying, which is what lets a walk skip a dead parent without
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
        policy = self.retry
        tries = 0
        while True:
            try:
                reply = await attempt(*args)
            except RETRYABLE_ERRORS as error:
                if isinstance(error, CallTimeout):
                    stats.rpc_timeouts += 1
                tries += 1
                if tries >= policy.attempts:
                    if breaker.record_failure():
                        stats.breaker_trips += 1
                    raise
                stats.rpc_retries += 1
                if span is not None:
                    span["retries"] += 1
                delay = policy.delay(tries - 1, self._rng)
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
        handed the plain ``inv`` in memory (:attr:`hosted`) once the
        fault plan's seat lets it through, every other shard gets one
        ``inv`` naming its members, sent to the first of them, and relays
        it the same way; without a shard map every other node gets a
        plain frame.  Best-effort and single-attempt like any broadcast:
        a hand-over that fails retryably lands in ``skipped`` (a remote
        group is tried once more through its second member), without the
        retry RNG or the breakers -- those belong to the request walks.
        Every relayed list is shorter than the one received, so a forged
        list cannot loop.
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
            local = self.hosted.get(node)
            if local is not None:
                if local.injector is not None:
                    try:
                        await local.injector.hop(MSG_INV, node)
                    except RETRYABLE_ERRORS:
                        reply["skipped"].append(node)
                        continue
                answer = await local._handle_invalidate(plain)
                reply["removed"] += answer["removed"]
                reply["delivered"] += 1
            elif shard_of is not None and shard_of[node] != home:
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
