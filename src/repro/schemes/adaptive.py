"""Online adaptive placement [Ioannidis & Yeh 2016, PAPERS.md].

"Adaptive Caching Networks with Optimality Guarantees" replaces offline
placement optimization with an online loop: nodes maintain marginal-gain
state estimated from the requests they observe, placement decisions hill
climb on that state, and the state itself is corrected by a damped
(sub)gradient step taken on the response path.

This scheme maps that loop onto the paper's piggyback protocol so it
rides the exact same wire accounting as the coordinated DP:

* **State.**  Each node's per-object descriptor (frequency estimate,
  miss penalty) *is* the marginal-gain state; it is refreshed by every
  observed request exactly as in the coordinated scheme.
* **Decision.**  The serving node runs :func:`~repro.core.placement.
  greedy_placement` -- deterministic hill climbing on the same
  n-optimization objective -- instead of the exact dynamic program.  The
  greedy solution never exceeds the DP optimum, and the audit layer's
  :class:`~repro.verify.oracles.PlacementOracle` measures the realised
  adaptive-vs-DP gap on every sampled problem.
* **Subgradient step.**  On the downstream walk, instead of overwriting
  a node's stored miss penalty with the response's cost accumulator, the
  penalty moves a fraction ``step_size`` towards it::

      p  <-  p + step_size * (acc - p)

  i.e. a damped stochastic-approximation update driven by the observed
  per-delivery cost sample.  ``step_size=1.0`` recovers the coordinated
  scheme's hard assignment.

Everything else -- the upstream report walk, the d-cache descriptor
migration, invalidation, protocol-overhead counters -- is inherited
unchanged, so the scheme runs in the simulator's reference loop and the
live cluster without engine changes.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.coordinated import CoordinatedScheme
from repro.core.placement import greedy_placement


class AdaptiveScheme(CoordinatedScheme):
    """Greedy online placement with damped miss-penalty updates."""

    name = "adaptive"

    _solver = staticmethod(greedy_placement)

    def __init__(self, *args, step_size: float = 0.5, **kwargs) -> None:
        if not 0.0 < step_size <= 1.0:
            raise ValueError("step_size must be in (0, 1]")
        super().__init__(*args, **kwargs)
        self.step_size = step_size

    def deliver_step(
        self,
        index: int,
        path: Sequence[int],
        decision: dict,
        object_id: int,
        size: int,
        now: float,
        *,
        came_from: Optional[int] = None,
    ) -> Tuple[bool, int]:
        """Downstream stop with the damped subgradient penalty update.

        The cost accumulator advances exactly as in the coordinated
        scheme (including the failover segment rule via ``came_from``),
        but the penalty written into the node's descriptor is the damped
        blend of the old estimate and the fresh cost sample rather than
        the sample itself.  A node with no prior descriptor adopts the
        sample outright (there is no estimate to damp).
        """
        node = path[index]
        upstream = index + 1
        if came_from is None or came_from == upstream:
            arrival = self.cost_model.link_cost(node, path[upstream], size)
        else:
            arrival = self._failover_cost(index, path, size, came_from)
        accumulator = decision["acc"] + arrival
        state = self._nodes.get(node)
        if state is None:
            state = self.node_state(node)
        existing = state.descriptor(object_id)
        if existing is None:
            penalty = accumulator
        else:
            penalty = existing.miss_penalty + self.step_size * (
                accumulator - existing.miss_penalty
            )
        inserted = False
        evictions = 0
        if node in decision["cache_at"]:
            evicted = state.insert_object(object_id, size, penalty, now)
            if evicted is not None:
                inserted = True
                evictions = len(evicted)
                accumulator = 0.0
        else:
            state.ensure_dcache_descriptor(object_id, size, penalty, now)
        decision["acc"] = accumulator
        return inserted, evictions
