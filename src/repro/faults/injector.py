"""Deterministic fault injection at every hop of a cluster.

The :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into per-hop decisions, all taken in one routine (:meth:`FaultInjector.
hop`).  Two callers consult it: the :class:`FaultyTransport`, which
wraps a real :class:`~repro.serve.transport.Transport` and so sees every
frame, and a :class:`~repro.serve.node.CacheNode` reached in memory by a
co-hosted node (a walk's ``fwd`` position, an ``inv`` hand-over), which
the cluster hosting it hands the transport's injector.  A hop meets the
same seat either way:

* a **dropped** hop never reaches the destination -- after a short hold
  the seat raises :class:`~repro.serve.protocol.CallTimeout`, exactly
  what the caller would observe when its per-RPC deadline expires on a
  lost frame;
* a **corrupted** hop is rejected before dispatch and surfaces as
  :class:`~repro.serve.protocol.FrameCorruption` (the receiving side's
  error-frame answer, collapsed into one exception);
* a **delayed** hop is held back, then delivered normally;
* a hop towards a **crashed** node is refused with
  :class:`~repro.serve.protocol.NodeUnreachable` before the destination
  is touched, and hops towards a **slow** node are delayed by the
  fault's ``delay_seconds``;
* a **duplicated** frame is dispatched twice, back to back, and the
  first reply wins -- the retransmit case where both copies arrive.  An
  in-memory hand-over cannot arrive twice: there a drawn duplicate is
  tallied in :attr:`FaultInjector.duplicates` and moves no state, the
  one difference between a framed and an in-memory hop.

The RNG stream and the call counter advance once per hop, framed or
not.  Faults are decided *before* dispatch, so a handler is never
cancelled mid-mutation: under a sequential driver the whole faulted
run -- including which hops drop and when a node dies -- is a
deterministic function of (plan, seed, hop sequence).  That determinism
is the chaos suite's repeatability gate.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, Optional

from repro.faults.plan import FaultPlan, LinkRule
from repro.serve.protocol import (
    CallTimeout,
    FrameCorruption,
    NodeUnreachable,
)
from repro.serve.transport import Handler, Transport

# How long a dropped frame is held before the simulated deadline fires.
# Kept tiny: the point is to exercise the caller's timeout/retry path,
# not to burn a real RPC deadline of wall-clock per lost frame.
DROP_HOLD_SECONDS = 0.001


class FaultInjector:
    """Seeded per-hop fault decisions for one run of a plan."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self.calls = 0
        self.clock = float("-inf")
        # Injection tally (what was *injected*, as opposed to the nodes'
        # resilience counters, which record what was *survived*).
        self.drops = 0
        self.delays = 0
        self.duplicates = 0
        self.corruptions = 0
        self.refused_calls = 0

    # -- schedule state ------------------------------------------------------

    def observe(self, now) -> None:
        """Advance the injector's call counter and trace clock."""
        self.calls += 1
        if isinstance(now, (int, float)) and now > self.clock:
            self.clock = float(now)

    def node_down(self, node: Optional[int]) -> bool:
        """Whether calls towards ``node`` are currently refused."""
        if node is None:
            return False
        return any(
            fault.kind == "crash" and fault.active(self.clock, self.calls)
            for fault in self.plan.node_faults_for(node)
        )

    def node_slowdown(self, node: Optional[int]) -> float:
        """Extra delay for calls towards ``node`` (0.0 when healthy)."""
        if node is None:
            return 0.0
        return sum(
            fault.delay_seconds
            for fault in self.plan.node_faults_for(node)
            if fault.kind == "slow" and fault.active(self.clock, self.calls)
        )

    # -- link decisions ------------------------------------------------------

    def link_decision(
        self, op: str, dest_node: Optional[int]
    ) -> "LinkDecision":
        """Draw this call's frame faults from the seeded stream.

        One RNG draw per configured rate keeps the stream aligned across
        runs regardless of which faults fire.
        """
        decision = LinkDecision()
        for rule in self.plan.links:
            decision.fold(rule, self._rng, applies=rule.matches(op, dest_node))
        if decision.drop:
            self.drops += 1
        elif decision.corrupt:
            self.corruptions += 1
        elif decision.duplicate:
            self.duplicates += 1
        if decision.delay_seconds > 0:
            self.delays += 1
        return decision

    # -- the per-hop seat ----------------------------------------------------

    async def hop(self, op: str, dest: Optional[int], now=None) -> bool:
        """Every fault decision for one hop towards ``dest``, in order.

        Observes the hop (``now`` is its trace time, if it carries one),
        refuses it when ``dest`` is down, draws its link faults, holds
        for any delay or slow-down, then fails it as a drop or a
        corruption.  Returns whether a duplicate was drawn; what a
        duplicate does is the caller's (a frame arrives twice, an
        in-memory hand-over does not).
        """
        self.observe(now)
        if self.node_down(dest):
            self.refused_calls += 1
            raise NodeUnreachable(f"node {dest} is down (injected crash)")
        decision = self.link_decision(op, dest)
        hold = decision.delay_seconds + self.node_slowdown(dest)
        if hold > 0:
            await asyncio.sleep(hold)
        if decision.drop:
            await asyncio.sleep(DROP_HOLD_SECONDS)
            raise CallTimeout(
                f"frame to node {dest} lost (injected drop); deadline expired"
            )
        if decision.corrupt:
            raise FrameCorruption(
                f"frame to node {dest} damaged in flight (injected corruption)"
            )
        return decision.duplicate

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "drops": self.drops,
            "delays": self.delays,
            "duplicates": self.duplicates,
            "corruptions": self.corruptions,
            "refused_calls": self.refused_calls,
        }


class LinkDecision:
    """The frame faults one call draws (folded over all matching rules)."""

    __slots__ = ("drop", "corrupt", "duplicate", "delay_seconds")

    def __init__(self) -> None:
        self.drop = False
        self.corrupt = False
        self.duplicate = False
        self.delay_seconds = 0.0

    def fold(
        self, rule: LinkRule, rng: random.Random, applies: bool
    ) -> None:
        """Consume the rule's RNG draws; apply them when the rule matches.

        Draws happen even for non-matching rules so the seeded stream
        stays aligned across calls with different scopes.
        """
        drop = rng.random() < rule.drop_rate
        delay = rng.random() < rule.delay_rate
        duplicate = rng.random() < rule.duplicate_rate
        corrupt = rng.random() < rule.corrupt_rate
        if not applies:
            return
        self.drop = self.drop or drop
        self.corrupt = self.corrupt or corrupt
        self.duplicate = self.duplicate or duplicate
        if delay:
            self.delay_seconds += rule.delay_seconds


class FaultyTransport(Transport):
    """A transport wrapper injecting one plan's faults into every call.

    Wrap the real transport before handing it to the cluster::

        injector = FaultInjector(FaultPlan.from_json_file(path))
        cluster = Cluster.build(..., transport=FaultyTransport(inner, injector))

    The cluster hands :attr:`injector` to its nodes, so the hops they
    cross in memory meet the same plan as the frames crossing here.
    ``start_node`` passes handlers through untouched (node death is
    modelled at the caller's edge, like a refused connection) but records
    the address -> node mapping so per-node faults can be resolved on
    either transport's address form.
    """

    def __init__(self, inner: Transport, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector
        self._node_by_address: Dict[object, int] = {}

    @staticmethod
    def _freeze(address) -> object:
        return tuple(address) if isinstance(address, (list, tuple)) else address

    async def start_node(self, node_id: int, handler: Handler):
        address = await self.inner.start_node(node_id, handler)
        self._node_by_address[self._freeze(address)] = node_id
        return address

    async def call(self, address, message: dict) -> dict:
        duplicate = await self.injector.hop(
            message.get("type", "?"),
            self._node_by_address.get(self._freeze(address)),
            message.get("time"),
        )
        reply = await self.inner.call(address, message)
        if duplicate:
            # The retransmit also arrives; the first reply wins.
            await self.inner.call(address, message)
        return reply

    async def close(self) -> None:
        await self.inner.close()
