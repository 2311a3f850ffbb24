"""The coordinated caching scheme (paper sections 2.3-2.4).

Per request, the scheme runs the three-phase protocol as the three
node-local steps that :meth:`~repro.schemes.base.CachingScheme.
process_request` drives in the simulator and the cache nodes of the
serving layer drive on the wire:

1. **Upstream walk** (:meth:`CoordinatedScheme.lookup_step`).  The
   request travels from the requester towards the origin; every
   intermediate cache appends a report record
   (:func:`~repro.core.piggyback.node_report`) carrying its
   frequency estimate ``f_i``, stored miss penalty ``m_i`` and
   prospective eviction cost loss ``l_i`` for the object -- or a
   "no descriptor" tag when the object is unknown to both its main cache
   and d-cache (such nodes are pruned from the candidate set, Theorem 2's
   justification).  The walk stops at the first cache holding the object.

2. **Placement decision** (:meth:`CoordinatedScheme.decide_step`).  The
   serving node repairs the piggybacked frequencies to be non-increasing
   and solves the n-optimization problem by dynamic programming
   (:func:`~repro.core.placement.solve_placement`), yielding the set of
   caches that should store a copy.

3. **Downstream walk** (:meth:`CoordinatedScheme.deliver_step`).  The
   object travels back with a cost accumulator (initially 0).  At each
   node the accumulator grows by the cost of the link just traversed and
   refreshes the node's stored miss penalty for the object; nodes
   instructed to cache insert the copy (greedy-NCL eviction, victims'
   descriptors dropping to the d-cache) and reset the accumulator to 0;
   other nodes ensure a d-cache descriptor exists.

No extra messages or probes are used -- all information rides on the
request/response pair, as in the paper: the request message is the list
of reports, the response message the decision dict, and both are the
JSON-native values the serving layer ships as returned.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional, Sequence, Tuple

from repro.core.piggyback import (
    ProtocolStats,
    is_candidate,
    node_report,
    report_bytes,
    response_bytes,
)
from repro.obs.timers import PHASE_DP_SOLVE
from repro.core.placement import (
    PlacementProblem,
    PlacementSolution,
    enforce_monotone_frequencies,
    solve_placement,
)
from repro.schemes.descriptor_scheme import DescriptorSchemeBase


class CoordinatedScheme(DescriptorSchemeBase):
    """Integrated placement + replacement along delivery paths."""

    name = "coordinated"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.protocol_stats = ProtocolStats()
        # Audit seam: when set, every solved placement problem and its
        # solution are reported here (see repro.verify.oracles).  Purely
        # observational -- must never influence the decision.
        self.placement_observer: Optional[
            Callable[[PlacementProblem, PlacementSolution], None]
        ] = None

    # The placement solver; subclasses swap in approximations (greedy,
    # single-copy) while inheriting the full piggyback protocol.
    _solver = staticmethod(solve_placement)

    def _solve(self, problem: PlacementProblem) -> PlacementSolution:
        """Solver seam (overridden by the audit self-test's mutants)."""
        instruments = self._instruments
        if instruments is not None and instruments.timers is not None:
            started = perf_counter()
            solution = self._solver(problem)
            instruments.timers.add(PHASE_DP_SOLVE, perf_counter() - started)
            return solution
        return self._solver(problem)

    # -- protocol phases -------------------------------------------------------

    def lookup_step(
        self, node: int, object_id: int, size: int, now: float
    ) -> Tuple[bool, Optional[dict]]:
        """One upstream stop: local lookup plus the piggybacked report.

        A hit touches recency and ends the walk (no report -- the serving
        node contributes nothing to its own candidate set); a miss
        records the reference and returns the node's ``(f_i, m_i, l_i)``
        report, or the "no descriptor" tag when the object is unknown to
        both the main cache and the d-cache.
        """
        state = self.node_state(node)
        if object_id in state.cache:
            state.cache.record_access(object_id, now)
            return True, None
        descriptor = state.record_request(object_id, now)
        if descriptor is None:
            return False, node_report(node, 0.0, 0.0, None, False)
        return False, node_report(
            node,
            descriptor.frequency(now),
            descriptor.miss_penalty,
            state.cache.cost_loss(object_id, size, now),
            True,
        )

    def decide_step(
        self,
        path: Sequence[int],
        hit_index: int,
        reports: Sequence[dict],
        object_id: int,
        size: int,
        now: float,
    ) -> dict:
        """Phase 2: the serving node's dynamic-programming decision.

        Runs at the node that satisfied the request (a cache, or the
        origin attachment) on the reports collected on the way up, in
        travel order.  The DP sees them server first (``A_1 .. A_n``),
        pruned to the nodes that hold a descriptor and could fit the
        object.  The returned decision payload ships downstream with the
        object: the ``cache_at`` instruction set, the DP's expected gain,
        and the cost accumulator ``acc`` that :meth:`deliver_step`
        advances hop by hop.  One request's piggyback records are
        charged to the protocol-overhead counters here.
        """
        described = 0
        candidates = []
        for report in reversed(reports):
            if report["d"]:
                described += 1
                if report["l"] is not None:
                    candidates.append(report)
        stats = self.protocol_stats
        stats.requests += 1
        stats.reports += described
        stats.no_descriptor_tags += len(reports) - described
        if hit_index > 0:
            stats.responses_with_accumulator += 1
        if not candidates:
            return {"cache_at": [], "gain": 0.0, "acc": 0.0}
        frequencies = enforce_monotone_frequencies(
            [r["f"] for r in candidates]
        )
        problem = PlacementProblem(
            frequencies=tuple(frequencies),
            penalties=tuple(r["m"] for r in candidates),
            losses=tuple(r["l"] for r in candidates),
        )
        solution = self._solve(problem)
        if self.placement_observer is not None:
            self.placement_observer(problem, solution)
        chosen = sorted(candidates[i]["n"] for i in solution.indices)
        stats.decisions += len(chosen)
        return {"cache_at": chosen, "gain": solution.gain, "acc": 0.0}

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
        """One downstream stop: advance the accumulator, apply the decision.

        The accumulator (``decision["acc"]``) grows by the cost of the
        link the object just traversed; an instructed node inserts the
        copy (resetting the accumulator), every other node refreshes or
        creates its d-cache descriptor.  Mutates ``decision`` in place --
        it is the response message's walk state.

        When upstream failover bypassed dead hops, ``came_from`` names
        the path index the response really arrived from and the
        accumulator grows by the cost of the whole physical segment
        ``path[index..came_from]`` -- the object still crossed every
        link through the dead node's router, only its cache process was
        down.  With the default ``came_from = index + 1`` this is
        exactly the single-link cost -- the simulator's walk.
        """
        node = path[index]
        upstream = index + 1 if came_from is None else came_from
        accumulator = decision["acc"] + self.cost_model.path_cost(
            path[index : upstream + 1], size
        )
        state = self.node_state(node)
        inserted = False
        evictions = 0
        if node in decision["cache_at"]:
            evicted = state.insert_object(object_id, size, accumulator, now)
            if evicted is not None:
                inserted = True
                evictions = len(evicted)
                accumulator = 0.0
        else:
            state.ensure_dcache_descriptor(object_id, size, accumulator, now)
        decision["acc"] = accumulator
        return inserted, evictions

    def _observe_request(
        self,
        path: Sequence[int],
        hit_index: int,
        reports: Sequence[dict],
        decision: dict,
        inserted: Sequence[int],
        object_id: int,
        now: float,
    ) -> None:
        """Per-node piggyback byte accounting + the placement event.

        Splits the exact quantities :meth:`ProtocolStats.overhead_bytes`
        totals globally across the nodes that carried them: each report
        (or "no descriptor" tag) is charged to the node that appended
        it, each decision entry to the node it instructs, and the
        response's cost accumulator to the first downstream carrier (see
        ``docs/protocol.md``).  The event's candidates are the nodes the
        DP considered, not every cache below the serving node.  Purely
        observational.
        """
        registry = self._instruments.registry
        if registry is not None:
            add = registry.add_piggyback
            for report in reports:
                add(report["n"], report_bytes(report))
            for node in decision["cache_at"]:
                add(node, response_bytes(instructed=True, first_carrier=False))
            if hit_index > 0:
                add(
                    path[hit_index - 1],
                    response_bytes(instructed=False, first_carrier=True),
                )
        candidates = [r["n"] for r in reports if is_candidate(r)]
        if candidates:
            self._emit_placement(
                now,
                object_id,
                path,
                hit_index,
                candidates,
                decision["cache_at"],
                inserted,
                gain=decision["gain"],
            )
