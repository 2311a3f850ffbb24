"""Scheme interface and the one cascaded request walk.

A *scheme* owns the cache state of every node and decides, per request,
where the object ends up cached (the placement problem) and what gets
evicted (the replacement problem).  The simulator hands a scheme the full
delivery path ``[client_node, ..., server_node]`` (a branch of the origin
server's distribution tree) and the scheme returns a
:class:`RequestOutcome` from which all of the paper's metrics derive.

The walk itself is written once: :meth:`CachingScheme.process_request`
drives the three node-local steps -- ``lookup_step`` up the path,
``decide_step`` at the serving node, ``deliver_step`` back down -- that
the live serving layer (:mod:`repro.serve`) runs one node per server.
Schemes implement the steps (or the small hooks the default steps call),
never the walk.

Convention: every node on the path except the last (the origin-server
attachment) hosts a cache.  Caching at the server's own node would save
nothing (the object is locally available at cost 0), and the paper's model
likewise places ``A_0`` outside the candidate set.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.base import Cache, CacheTooSmallError
from repro.cache.descriptors import ObjectDescriptor
from repro.costs.model import CostModel


@dataclass(frozen=True)
class RequestOutcome:
    """What happened to one request.

    ``hit_index`` indexes into ``path``: the serving node is
    ``path[hit_index]``; a value of ``len(path) - 1`` means the origin
    server satisfied the request.  ``inserted_nodes`` lists the caches
    that stored a copy in *response order* -- the order the object passed
    them, from just below the serving node down to the requester (the
    serving layer's ``reply["inserted"]``).  ``bytes_written`` counts one
    object size per cache insertion performed; ``bytes_read`` counts the
    read at the serving cache (zero on an origin hit) -- together these
    are the paper's aggregate cache read/write load per request (section
    4.1).
    """

    path: Sequence[int]
    hit_index: int
    size: int
    inserted_nodes: tuple = ()
    evicted_objects: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.hit_index < len(self.path):
            raise ValueError("hit_index out of path range")

    @property
    def served_by_cache(self) -> bool:
        return self.hit_index < len(self.path) - 1

    @property
    def hops(self) -> int:
        """Links traversed by the request before hitting the object."""
        return self.hit_index

    @property
    def bytes_read(self) -> int:
        return self.size if self.served_by_cache else 0

    @property
    def bytes_written(self) -> int:
        return self.size * len(self.inserted_nodes)


class CachingScheme(abc.ABC):
    """Base class for all cache-management schemes.

    Subclasses provide :meth:`_new_cache` (the per-node cache construction)
    and shape the request walk through the per-node protocol steps below
    or the hooks those steps call; :meth:`process_request` composes the
    steps and is not overridden.  Node caches are created lazily the first
    time a path touches the node, each with ``capacity_bytes``.
    """

    name: str = "abstract"

    def __init__(
        self,
        cost_model: CostModel,
        capacity_bytes: int,
        capacity_overrides: Dict[int, int] | None = None,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        if capacity_overrides and any(
            c < 0 for c in capacity_overrides.values()
        ):
            raise ValueError("capacity overrides must be non-negative")
        self.cost_model = cost_model
        self.capacity_bytes = capacity_bytes
        self.capacity_overrides = dict(capacity_overrides or {})
        self._caches: Dict[int, Cache] = {}
        # Instrumentation bundle (repro.obs.instruments.Instruments),
        # attached by the engine on instrumented runs; None otherwise.
        self._instruments = None

    @abc.abstractmethod
    def _new_cache(self, node: int) -> Cache:
        """Construct the cache for one node."""

    def process_request(
        self, path: Sequence[int], object_id: int, size: int, now: float
    ) -> RequestOutcome:
        """Serve one request along ``path`` and update cache contents.

        The one spelling of the paper's walk (section 2.3):
        :meth:`lookup_step` up the path until the first hit, collecting
        the piggybacked reports -- the report list *is* the request
        message; one :meth:`decide_step` at the serving node -- the
        decision dict *is* the response message; :meth:`deliver_step`
        from just below the serving node down to the requester.
        """
        last = len(path) - 1
        lookup = self.lookup_step
        reports: List[object] = []
        hit_index = last
        for i in range(last):
            hit, report = lookup(path[i], object_id, size, now)
            if hit:
                hit_index = i
                break
            if report is not None:
                reports.append(report)
        decision = self.decide_step(
            path, hit_index, reports, object_id, size, now
        )
        inserted: List[int] = []
        evictions = 0
        deliver = self.deliver_step
        for i in range(hit_index - 1, -1, -1):
            stored, victims = deliver(i, path, decision, object_id, size, now)
            if stored:
                inserted.append(path[i])
                evictions += victims
        if self._instruments is not None:
            self._observe_request(
                path, hit_index, reports, decision, inserted, object_id, now
            )
        return RequestOutcome(
            path=path,
            hit_index=hit_index,
            size=size,
            inserted_nodes=tuple(inserted),
            evicted_objects=evictions,
        )

    def _observe_request(
        self,
        path: Sequence[int],
        hit_index: int,
        reports: Sequence[object],
        decision: dict,
        inserted: Sequence[int],
        object_id: int,
        now: float,
    ) -> None:
        """Instrumented-run hook, called once per request by the driver.

        Emits the ``placement`` event: the candidates are the caches
        below the serving node, ``chosen`` is the shipped decision and
        ``inserted`` what landed -- an admission refusal shows as
        chosen-but-not-inserted, exactly like a cache too small for the
        object.  Purely observational.
        """
        if hit_index > 0:
            self._emit_placement(
                now,
                object_id,
                path,
                hit_index,
                path[:hit_index],
                decision["cache_at"],
                inserted,
            )

    # -- shared helpers ------------------------------------------------------

    def capacity_for(self, node: int) -> int:
        """The node's cache capacity: the uniform default or an override.

        Heterogeneous provisioning (e.g. bigger caches higher up a
        hierarchy) is an extension beyond the paper, which sizes every
        cache equally (section 3.2).
        """
        return self.capacity_overrides.get(node, self.capacity_bytes)

    def attach_instruments(self, instruments) -> None:
        """Wire an :class:`~repro.obs.instruments.Instruments` bundle in.

        Installs a per-node cache observer on every cache materialized so
        far; caches created later are wired at creation.  Attaching
        ``None`` detaches.  Purely observational -- an instrumented run's
        decisions and metrics are bit-identical to an uninstrumented one.
        """
        self._instruments = instruments
        for node, cache in self._caches.items():
            cache.observer = (
                instruments.cache_observer(node)
                if instruments is not None
                else None
            )

    def _wire_cache(self, node: int, cache: Cache) -> None:
        """Give a newly created cache its observer, if instrumented."""
        if self._instruments is not None:
            cache.observer = self._instruments.cache_observer(node)

    def _emit_placement(
        self,
        now: float,
        object_id: int,
        path: Sequence[int],
        hit_index: int,
        candidates: Sequence[int],
        chosen: Sequence[int],
        inserted: Sequence[int],
        gain: float = 0.0,
    ) -> None:
        """Emit one ``placement`` event (candidate set, decision, result).

        ``chosen`` is what the scheme's placement rule selected;
        ``inserted`` what actually landed (insertions can be refused by
        :class:`~repro.cache.base.CacheTooSmallError` or an admission
        filter).  No-op unless a probe is attached and sampling passes.
        """
        instruments = self._instruments
        if instruments is None:
            return
        probe = instruments.probe
        if probe is None or not probe.sample("placement"):
            return
        probe.write(
            "placement",
            i=instruments.request_index,
            t=now,
            object=object_id,
            hit_node=path[hit_index],
            origin=hit_index == len(path) - 1,
            candidates=list(candidates),
            chosen=list(chosen),
            inserted=list(inserted),
            gain=gain,
        )

    # -- per-node protocol steps ---------------------------------------------
    #
    # The live serving layer (:mod:`repro.serve`) runs every cache node as
    # its own server, so request handling must decompose into node-local
    # steps: an upstream *lookup* at each node the request passes, one
    # placement *decision* at the serving node, and a downstream *deliver*
    # step at each node the response passes.  The defaults below cover the
    # walk-and-insert family (LRU, LFU, GDS, MODULO, admission-LRU) through
    # three small hooks -- :meth:`_placement_indices` (which on-path nodes
    # should store a copy), :meth:`_admit` (a node-local admission filter)
    # and :meth:`_insert_at` (how one node inserts).  Schemes that
    # piggyback state on the request (the coordinated scheme) override the
    # steps wholesale.
    #
    # Contract: for one request, :meth:`process_request` runs
    #
    #   ``lookup_step`` on ``path[0..k]`` until the first hit ``k``,
    #   ``decide_step`` at ``path[k]`` with the reports collected so far,
    #   ``deliver_step`` on ``path[k-1], ..., path[0]`` (mutating the
    #   decision in place where the scheme carries response state),
    #
    # and the serving layer runs the same steps one node per server, so
    # the simulated and the served protocol cannot drift apart.  Each
    # step touches only the state of the node it runs at; the
    # simulator-vs-cluster differential oracle in
    # ``tests/test_serve_cluster.py`` pins the two drivers against each
    # other.

    def lookup_step(
        self, node: int, object_id: int, size: int, now: float
    ) -> Tuple[bool, Optional[object]]:
        """Upstream step at one on-path cache node.

        Performs the node-local lookup plus whatever bookkeeping the
        scheme does while a request passes (recency touches, d-cache
        reference counting).  Returns ``(hit, report)`` where ``report``
        is the scheme's piggyback contribution for the request message
        (``None`` for schemes that piggyback nothing).
        """
        return self.cache_at(node).access(object_id, now) is not None, None

    def decide_step(
        self,
        path: Sequence[int],
        hit_index: int,
        reports: Sequence[object],
        object_id: int,
        size: int,
        now: float,
    ) -> dict:
        """Placement decision at the serving node (or the origin).

        ``reports`` holds the piggybacked per-node reports collected on
        the upstream walk, in travel order.  Returns a JSON-able decision
        payload shipped back with the object; the base implementation
        instructs every node :meth:`_placement_indices` selects.
        """
        return {
            "cache_at": [path[i] for i in self._placement_indices(path, hit_index)]
        }

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
        """Response step at ``path[index]`` (strictly below the serving node).

        Applies the shipped placement decision at one node; returns
        ``(inserted, evictions)``.  Schemes carrying response-path state
        (the coordinated cost accumulator) mutate ``decision`` in place.

        ``came_from`` is the path index the response physically arrived
        from -- normally ``index + 1``, but further up when upstream
        failover bypassed dead hops.  The response then traversed the
        whole physical segment ``path[index..came_from]`` (the bypassed
        node's cache process is down; its router still forwards), and
        cost-carrying schemes must advance their accumulator over that
        segment, not a single link.
        """
        node = path[index]
        if node not in decision["cache_at"]:
            return False, 0
        if not self._admit(node, object_id):
            return False, 0
        evicted = self._insert_at(index, path, object_id, size, now)
        if evicted is None:
            return False, 0
        return True, len(evicted)

    def invalidate_step(self, node: int, object_id: int) -> int:
        """Drop one node's copy of an object (push invalidation).

        The per-node split of :meth:`invalidate_object`; returns the
        number of copies removed (0 or 1).
        """
        cache = self._caches.get(node)
        if cache is not None and cache.remove(object_id) is not None:
            return 1
        return 0

    # -- placement/insertion hooks of the default steps ----------------------

    def _placement_indices(
        self, path: Sequence[int], hit_index: int
    ) -> List[int]:
        """Path indices (strictly below the serving node) that store a copy."""
        return list(range(hit_index))

    def _admit(self, node: int, object_id: int) -> bool:
        """Admission filter hook; the default admits everything."""
        return True

    def _insert_at(
        self, index: int, path: Sequence[int], object_id: int, size: int, now: float
    ) -> Optional[List]:
        """Insert a copy at ``path[index]``; ``None`` when the cache refuses.

        Returns the (possibly empty) list of evicted entries otherwise.
        The default is the LRU-family insertion: a fresh descriptor, no
        miss-penalty bookkeeping.
        """
        cache = self.cache_at(path[index])
        try:
            return cache.insert(ObjectDescriptor(object_id, size), now)
        except CacheTooSmallError:
            return None

    def cache_at(self, node: int) -> Cache:
        """The node's cache, created on first use."""
        cache = self._caches.get(node)
        if cache is None:
            cache = self._new_cache(node)
            self._caches[node] = cache
            self._wire_cache(node, cache)
        return cache

    def caches(self) -> Dict[int, Cache]:
        """All materialized node caches (read-only use)."""
        return self._caches

    def has_object(self, node: int, object_id: int) -> bool:
        """Whether the node currently caches the object (no state change)."""
        cache = self._caches.get(node)
        return cache is not None and object_id in cache

    def invalidate_object(self, object_id: int) -> int:
        """Drop every cached copy of an object (server invalidation).

        Extension beyond the paper, which assumes a coherency protocol
        keeps copies fresh (section 2): an origin-side update invalidates
        all replicas.  Returns the number of copies removed.
        """
        removed = 0
        for cache in self._caches.values():
            if cache.remove(object_id) is not None:
                removed += 1
        return removed

    def total_cached_bytes(self) -> int:
        return sum(cache.used_bytes for cache in self._caches.values())

    def check_invariants(self) -> None:
        for cache in self._caches.values():
            cache.check_invariants()
