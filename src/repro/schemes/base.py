"""Scheme interface and the one cascaded request walk.

A *scheme* owns the cache state of every node and decides, per request,
where the object ends up cached (the placement problem) and what gets
evicted (the replacement problem).  The simulator hands a scheme the full
delivery path ``[client_node, ..., server_node]`` (a branch of the origin
server's distribution tree) and the scheme returns a
:class:`RequestOutcome` from which all of the paper's metrics derive.

The walk itself is written once, as the sans-I/O machine :class:`Walk`:
``lookup_step`` up the path, ``decide_step`` at the serving node,
``deliver_step`` back down.  :meth:`CachingScheme.process_request`
drives it in the simulator; the live serving layer (:mod:`repro.serve`)
drives the same machine one node per position, awaiting only where the
next position is a frame or a fault hold away.  Schemes implement the
steps (or the small hooks the default steps call), never the walk.

Convention: every node on the path except the last (the origin-server
attachment) hosts a cache.  Caching at the server's own node would save
nothing (the object is locally available at cost 0), and the paper's model
likewise places ``A_0`` outside the candidate set.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.base import Cache, CacheTooSmallError
from repro.cache.descriptors import ObjectDescriptor
from repro.costs.model import CostModel


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

    One is built per request, so it is a plain slotted class: a direct
    ``__init__`` with the ``hit_index`` range check, and value equality,
    hash and a field-by-field ``repr`` over the five fields.  Treat it
    as immutable.
    """

    __slots__ = ("path", "hit_index", "size", "inserted_nodes", "evicted_objects")

    def __init__(
        self,
        path: Sequence[int],
        hit_index: int,
        size: int,
        inserted_nodes: tuple = (),
        evicted_objects: int = 0,
    ) -> None:
        if not 0 <= hit_index < len(path):
            raise ValueError("hit_index out of path range")
        self.path = path
        self.hit_index = hit_index
        self.size = size
        self.inserted_nodes = inserted_nodes
        self.evicted_objects = evicted_objects

    def _fields(self) -> tuple:
        return (
            self.path,
            self.hit_index,
            self.size,
            self.inserted_nodes,
            self.evicted_objects,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"RequestOutcome(path={self.path!r}, hit_index={self.hit_index!r}, "
            f"size={self.size!r}, inserted_nodes={self.inserted_nodes!r}, "
            f"evicted_objects={self.evicted_objects!r})"
        )

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


class StepObserver:
    """An observer on the walk's step seam (see :class:`Walk`): every
    hook is a no-op here, and a subclass overrides those it needs."""

    __slots__ = ()

    def looked_up(self, walk: "Walk", hit: bool, report) -> None:
        pass

    def failed_over(self, walk: "Walk", index: int) -> None:
        pass

    def decided(self, walk: "Walk") -> None:
        pass

    def delivered(self, walk: "Walk", stored: bool, came_from: int) -> None:
        pass


class Walk:
    """One request walk: the paper's step order as a sans-I/O machine.

    :meth:`~CachingScheme.lookup_step` up the path until the first hit,
    collecting the piggybacked reports (the request message); one
    :meth:`~CachingScheme.decide_step` at the serving node (its decision
    dict is the response message); :meth:`~CachingScheme.deliver_step`
    from just below the serving node down to the requester (section
    2.3).  Each step runs on the scheme hosting its position.  The
    machine owns the report list, the failover record (``skipped``, and
    each position's ``came_from``: the position the response reached it
    from) and the reply -- ``hit_index``, ``decision``, ``inserted`` in
    response order, ``evictions``.

    Two drivers run it, and both observe it through one seam: the
    :class:`StepObserver` tuple ``steps`` of the current position, whose
    hooks every step calls with ``index``/``now`` kept at the position
    -- ``looked_up(walk, hit, report)``, ``failed_over(walk, index)``,
    ``decided(walk)``, ``delivered(walk, stored, came_from)``.  An
    unobserved simulator walk (:meth:`CachingScheme.process_request`)
    has no ``observer`` and no steps: every position is its scheme's,
    and :meth:`run` goes from lookup to reply in one call.  An observed
    walk's ``observer`` -- the scheme of an instrumented simulator run
    (:meth:`CachingScheme.enter`), or a serving node's walk
    (:meth:`repro.serve.node.CacheNode._walk`) -- enters every next
    position (``enter(walk, index)``: it sets ``steps`` and returns the
    position's scheme, or ``None`` when it cannot enter it without
    waiting).  ``None`` stops the walk there; the driver resumes it with
    the outcome -- :meth:`run` with the scheme once reached,
    :meth:`fail_over` when unreachable, :meth:`run` with a remote
    ``reply`` to unwind from.  Observers are handed the walk rather than
    holding it, so a walk is never part of a reference cycle and is
    freed as soon as its driver lets go.
    """

    __slots__ = (
        "path", "object_id", "size", "now", "index", "reports", "skipped",
        "observer", "steps", "hit_index", "decision", "inserted", "evictions",
        "_below",
    )

    def __init__(
        self, path: Sequence[int], object_id: int, size: int, now: float,
        index: int = 0, reports: Optional[list] = None,
        skipped: Optional[List[int]] = None, observer=None,
    ) -> None:
        self.path = path
        self.object_id = object_id
        self.size = size
        self.now = now
        self.index = index
        self.reports = [] if reports is None else reports
        self.skipped = [] if skipped is None else skipped
        self.observer = observer
        self.steps: tuple = ()
        # (index, scheme, now, steps) of each position waiting for the
        # response.
        self._below: List[tuple] = []

    def run(self, scheme, reply: Optional[dict] = None) -> bool:
        """Climb from ``index``, hosted by ``scheme``, then unwind.

        Given a remote ``reply`` (a ``resp`` frame from ``index``), take
        its ``hit_index``, ``decision``, ``inserted`` and ``evictions``
        and unwind from there instead.  Returns ``False`` when the walk
        stopped at a position its observer could not enter, ``True``
        once the reply is complete.
        """
        path = self.path
        object_id = self.object_id
        size = self.size
        observer = self.observer
        steps = self.steps
        below = self._below
        if reply is None:
            reports = self.reports
            last = len(path) - 1
            index = self.index
            now = self.now
            # The origin attachment serves without a lookup.
            while index < last:
                hit, report = scheme.lookup_step(path[index], object_id, size, now)
                for step in steps:
                    step.looked_up(self, hit, report)
                if hit:
                    break
                if report is not None:
                    reports.append(report)
                below.append((index, scheme, now, steps))
                index += 1
                if observer is not None:
                    self.index = index
                    scheme = observer.enter(self, index)
                    if scheme is None:
                        return False
                    now = self.now
                    steps = self.steps
            self.hit_index = came_from = index
            self.decision = decision = scheme.decide_step(
                path, index, reports, object_id, size, now
            )
            for step in steps:
                step.decided(self)
            self.inserted = inserted = []
            evictions = 0
        else:
            came_from = self.index
            self.hit_index = reply["hit_index"]
            self.decision = decision = reply["decision"]
            self.inserted = inserted = reply["inserted"]
            evictions = reply["evictions"]
        # The response crossed every link from came_from down to each
        # position (a bypassed node's router still forwards).
        while below:
            index, scheme, now, steps = below.pop()
            stored, victims = scheme.deliver_step(
                index, path, decision, object_id, size, now, came_from=came_from
            )
            if stored:
                inserted.append(path[index])
            evictions += victims
            if steps:
                self.index = index
                self.now = now
                for step in steps:
                    step.delivered(self, stored, came_from)
            came_from = index
        self.evictions = evictions
        return True

    def fail_over(self, error: BaseException) -> None:
        """The pending position is unreachable or shedding: skip it.

        The walk goes on to the next position; past the origin
        attachment there is none, so there ``error`` ends the walk.
        """
        index = self.index
        if index >= len(self.path) - 1:
            raise error
        self.skipped.append(index)
        for step in self.steps:
            step.failed_over(self, index)
        self.index = index + 1


class CachingScheme(abc.ABC):
    """Base class for all cache-management schemes.

    Subclasses provide :meth:`_new_cache` (the per-node cache construction)
    and shape the request walk through the per-node protocol steps below
    or the hooks those steps call; :class:`Walk` composes the steps and
    :meth:`process_request` drives it -- neither is overridden.  Node
    caches are created lazily the first time a path touches the node,
    each with ``capacity_bytes``.
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
        # With any of its step observers on, node -> that node's step
        # observers, built on first entry (enter); None otherwise.
        self._instruments = None
        self._positions: Optional[dict] = None

    @abc.abstractmethod
    def _new_cache(self, node: int) -> Cache:
        """Construct the cache for one node."""

    def process_request(
        self, path: Sequence[int], object_id: int, size: int, now: float
    ) -> RequestOutcome:
        """Serve one request along ``path`` and update cache contents.

        The simulator's driver of the one :class:`Walk`: every position
        is this scheme's, entered at ``now``, so the walk runs to its
        reply in one call and is never resumed.  On an observed run it
        drives the walk itself (:meth:`enter`).
        """
        if self._positions is None:
            walk = Walk(path, object_id, size, now)
            walk.run(self)
        else:
            walk = Walk(path, object_id, size, now, observer=self)
            walk.run(self.enter(walk, 0))
        return RequestOutcome(
            path, walk.hit_index, size, tuple(walk.inserted), walk.evictions
        )

    def enter(self, walk: Walk, index: int) -> "CachingScheme":
        """Enter position ``index`` of an observed walk, attaching the
        step observers the instruments give its node."""
        node = walk.path[index]
        steps = self._positions.get(node)
        if steps is None:
            steps = self._positions[node] = self._instruments.steps_at(node)
        walk.steps = steps
        return self

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
        far; caches created later are wired at creation.  When any of the
        bundle's step observers is on, :meth:`process_request` observes
        its walks.  Attaching ``None`` detaches.  Purely observational --
        an instrumented run's decisions and metrics are bit-identical to
        an uninstrumented one.
        """
        self._instruments = instruments
        self._positions = (
            {} if instruments is not None and instruments.bind(self) else None
        )
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
    # Contract: for one request, :class:`Walk` runs
    #
    #   ``lookup_step`` on ``path[0..k]`` until the first hit ``k``,
    #   ``decide_step`` at ``path[k]`` with the reports collected so far,
    #   ``deliver_step`` on ``path[k-1], ..., path[0]`` (mutating the
    #   decision in place where the scheme carries response state),
    #
    # whether :meth:`process_request` drives it or the serving layer does,
    # one node per server, so the simulated and the served protocol cannot
    # drift apart.  Each step touches only the state of the node it runs
    # at; the simulator-vs-cluster differential oracle in
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
