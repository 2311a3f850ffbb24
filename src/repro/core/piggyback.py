"""Piggyback records exchanged along delivery paths (paper section 2.3).

The coordinated scheme adds a small record to each *request* as it passes
an intermediate cache -- the node's frequency estimate, miss penalty and
prospective cost loss for the requested object -- plus a flag when the node
has no descriptor for the object (such nodes are pruned from the candidate
set, section 2.4).  The *response* carries the placement decision and a
cost accumulator used to refresh miss penalties: each node adds the cost of
the link the object just traversed, and nodes that store a copy reset it
to zero before forwarding downstream.

Neither message has an envelope class, and the record has one form: the
request message is the list of :func:`node_report` dicts in travel order
(requester first) and the response message is the decision dict
``{"cache_at", "gain", "acc"}`` -- what a scheme step returns is what the
serving layer puts on the wire, unconverted.  This module is the one
place that defines the record (its constructor, the :func:`is_candidate`
predicate, the key set a receiver validates against) and the one place
that prices the messages (:func:`report_bytes`, :func:`response_bytes`).
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


# The keys of one report record; a ``fwd`` frame's reports are checked
# against this set before a step reads them.
REPORT_KEYS = frozenset({"n", "f", "m", "l", "d"})


def node_report(
    node: int,
    frequency: float,
    miss_penalty: float,
    cost_loss: float | None,
    has_descriptor: bool,
) -> dict:
    """One intermediate cache's contribution to the request message.

    ``cost_loss`` is ``None`` when the node cannot cache the object at all
    (object larger than its cache); ``has_descriptor`` is ``False`` when
    the node lacks a descriptor for the object in both its main cache and
    its d-cache (the special tag of section 2.4).

    The record is JSON-native and is shipped as returned.  Short keys
    keep the per-hop frame close to the paper's few-tens-of-bytes
    descriptor budget; floats survive JSON unchanged (shortest-repr
    encoding).
    """
    return {
        "n": node,
        "f": frequency,
        "m": miss_penalty,
        "l": cost_loss,
        "d": has_descriptor,
    }


def is_candidate(report: dict) -> bool:
    """Whether the DP should consider caching at the reporting node."""
    return report["d"] and report["l"] is not None


def report_bytes(report: dict) -> int:
    """Request-message bytes one report adds: a full record or the tag."""
    return REPORT_BYTES if report["d"] else TAG_BYTES


def response_bytes(instructed: bool, first_carrier: bool) -> int:
    """Response-message bytes charged to one downstream node: its entry
    in the ``cache_at`` set when the decision instructs it, and the cost
    accumulator when it is the first node to carry the response."""
    return (DECISION_BYTES if instructed else 0) + (
        ACCUMULATOR_BYTES if first_carrier else 0
    )
