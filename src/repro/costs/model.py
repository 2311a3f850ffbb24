"""The paper's generic per-link cost function ``c(u, v, O)``.

Section 2 leaves the cost function open: it "can be interpreted as
different performance measures such as network latency, bandwidth
consumption and processing cost".  The evaluation (section 3.3) interprets
it as access latency, with the delay of a link "set proportionally to the
size of the requested object" and the topology's base delays being those of
an average-size object.

These classes provide that family.  ``path_cost`` sums the per-link costs
along a node sequence, which is exactly the paper's access cost of a
request that travels over multiple links.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.topology.graph import Network


class CostModel(abc.ABC):
    """Cost of shipping a request + response for an object over a link."""

    def __init__(self, network: Network) -> None:
        self.network = network

    @abc.abstractmethod
    def link_cost(self, u: int, v: int, size: int) -> float:
        """Cost ``c(u, v, O)`` for an object of ``size`` bytes."""

    def path_cost(self, path: Sequence[int], size: int) -> float:
        """Total cost over consecutive links of ``path``."""
        total = 0.0
        for u, v in zip(path, path[1:]):
            total += self.link_cost(u, v, size)
        return total


class LatencyCostModel(CostModel):
    """Latency cost: base link delay scaled by object size.

    ``c(u, v, O) = delay(u, v) * s(O) / avg_size`` -- the topology's base
    delays are the delays of an object of ``avg_size`` bytes (section 3.2).

    A present link is priced from the network's ``(u, v)`` delay map in
    one lookup; a miss defers to :meth:`Network.link_delay`, which raises
    its usual ``KeyError``.
    """

    def __init__(self, network: Network, avg_size: float) -> None:
        super().__init__(network)
        if avg_size <= 0:
            raise ValueError("average object size must be positive")
        self.avg_size = float(avg_size)

    def link_cost(self, u: int, v: int, size: int) -> float:
        delay = self.network.delays.get((u, v))
        if delay is None:
            delay = self.network.link_delay(u, v)
        return delay * (size / self.avg_size)


class HopCostModel(CostModel):
    """Hop-count cost: every link costs 1 regardless of object size."""

    def link_cost(self, u: int, v: int, size: int) -> float:
        self.network.link_delay(u, v)  # validates the link exists
        return 1.0


class BandwidthCostModel(CostModel):
    """Bandwidth cost: bytes moved per link, i.e. byte x hops when summed."""

    def link_cost(self, u: int, v: int, size: int) -> float:
        self.network.link_delay(u, v)  # validates the link exists
        return float(size)
