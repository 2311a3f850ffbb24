"""The LNC-R baseline [Scheuermann, Shim & Vingralek 1997].

Paper section 3.3: a cost-based *replacement* algorithm effective for a
single web cache -- evict objects with the least normalized cost loss
``f(O) * m(O) / s(O)``.  Placement is not optimized: like LRU, the object
is cached at every node on the delivery path, and each node takes the
object's miss penalty to be the cost of its immediate upstream link.
Descriptors of objects not in the main cache live in the node's d-cache
for better frequency estimation.
"""

from __future__ import annotations

from typing import Sequence

from repro.schemes.descriptor_scheme import DescriptorSchemeBase


class LNCRScheme(DescriptorSchemeBase):
    """Cache everywhere; evict by least normalized cost loss."""

    name = "lnc-r"

    def lookup_step(self, node: int, object_id: int, size: int, now: float):
        """One upstream stop: record the reference, then check for a hit.

        LNC-R touches the node's descriptor (main cache or d-cache) on
        every pass -- including at the node that turns out to serve --
        so the reference is recorded before the hit check.
        """
        state = self.node_state(node)
        state.record_request(object_id, now)
        return object_id in state.cache, None

    def _insert_at(
        self, index: int, path: Sequence[int], object_id: int, size: int, now: float
    ):
        """Insert with miss penalty = cost of the immediate upstream link."""
        upstream_cost = self.cost_model.link_cost(
            path[index], path[index + 1], size
        )
        return self.node_state(path[index]).insert_object(
            object_id, size, upstream_cost, now
        )
