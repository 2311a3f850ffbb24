"""Piggyback records exchanged along delivery paths (paper section 2.3).

The coordinated scheme adds a small record to each *request* as it passes
an intermediate cache -- the node's frequency estimate, miss penalty and
prospective cost loss for the requested object -- plus a flag when the node
has no descriptor for the object (such nodes are pruned from the candidate
set, section 2.4).  The *response* carries the placement decision and a
cost accumulator used to refresh miss penalties: each node adds the cost of
the link the object just traversed, and nodes that store a copy reset it
to zero before forwarding downstream.

Neither message has an envelope class: the request message is the list of
:class:`NodeReport` records in travel order (requester first) and the
response message is the decision dict ``{"cache_at", "gain", "acc"}`` --
exactly what the serving layer puts on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass

# Wire-size assumptions for overhead accounting (paper section 2.4 puts a
# descriptor at "a few tens of bytes"); tunable in ProtocolStats.
REPORT_BYTES = 24       # f, m, l as packed floats
TAG_BYTES = 2           # the "no descriptor" tag
DECISION_BYTES = 4      # one node id in the response's cache_at set
ACCUMULATOR_BYTES = 8   # the response's running cost variable
SKIPPED_NODE_BYTES = 4  # one bypassed-hop record when failover shortens a walk
INV_FRAME_BYTES = 12    # one in-band invalidation frame (object id + type)


@dataclass
class ProtocolStats:
    """Coordination-protocol message overhead counters.

    The coordinated scheme increments these as requests and responses
    travel; :meth:`overhead_bytes` converts them to a wire-byte estimate
    so the paper's "communication overhead ... is small" claim (section
    2.3) can be checked against the object bytes actually moved.

    ``invalidations`` counts in-band ``inv`` frames delivered to cache
    nodes (one per node per update event -- the invalidation broadcast
    fans out to every cache), so invalidation traffic no longer rides
    free in the overhead estimate.  Out-of-band channel coherency never
    increments it; its traffic is priced separately in
    :class:`~repro.coherency.stats.CoherencyStats`.
    """

    requests: int = 0
    reports: int = 0
    no_descriptor_tags: int = 0
    decisions: int = 0
    responses_with_accumulator: int = 0
    invalidations: int = 0

    def overhead_bytes(
        self,
        report_bytes: int = REPORT_BYTES,
        tag_bytes: int = TAG_BYTES,
        decision_bytes: int = DECISION_BYTES,
        accumulator_bytes: int = ACCUMULATOR_BYTES,
        inv_frame_bytes: int = INV_FRAME_BYTES,
    ) -> int:
        """Total protocol bytes under the given wire-size assumptions."""
        return (
            self.reports * report_bytes
            + self.no_descriptor_tags * tag_bytes
            + self.decisions * decision_bytes
            + self.responses_with_accumulator * accumulator_bytes
            + self.invalidations * inv_frame_bytes
        )


@dataclass(frozen=True)
class NodeReport:
    """One intermediate cache's contribution to the request message.

    ``cost_loss`` is ``None`` when the node cannot cache the object at all
    (object larger than its cache); ``has_descriptor`` is ``False`` when
    the node lacks a descriptor for the object in both its main cache and
    its d-cache (the special tag of section 2.4).
    """

    node: int
    frequency: float
    miss_penalty: float
    cost_loss: float | None
    has_descriptor: bool

    def is_candidate(self) -> bool:
        """Whether the DP should consider caching at this node."""
        return self.has_descriptor and self.cost_loss is not None

    def to_dict(self) -> dict:
        """Compact wire form for the live protocol (JSON round-trip exact).

        Short keys keep the per-hop frame close to the paper's
        few-tens-of-bytes descriptor budget; floats survive JSON
        unchanged (shortest-repr encoding).
        """
        return {
            "n": self.node,
            "f": self.frequency,
            "m": self.miss_penalty,
            "l": self.cost_loss,
            "d": self.has_descriptor,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "NodeReport":
        return cls(
            node=raw["n"],
            frequency=raw["f"],
            miss_penalty=raw["m"],
            cost_loss=raw["l"],
            has_descriptor=raw["d"],
        )
