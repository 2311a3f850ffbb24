"""Batched columnar kernels for the simulation engine.

The reference loop in :mod:`repro.sim.engine` pays, per request, for
several layers of method dispatch through the scheme/cache class
hierarchy and a ``path_cost`` call.  This module removes that for the
hot schemes while staying **bit-identical** to the reference loop:

* the trace is read in row blocks, as :meth:`ColumnarTrace.rows` does:
  one set-up pass checks every id and marks the (client node, server
  node) pairs in a dense table, each unique pair is routed once, and
  the loop gathers each block's path indices through a dense pair ->
  path table as it converts that block -- no per-request list as long
  as the trace;
* warmup/measurement split and update-event merge points are computed
  with array ops (``np.searchsorted``) before the loop starts;
* the three hot schemes -- ``lru``, ``modulo`` and ``coordinated`` -- run
  on *flattened kernels*: plain dict/list state replicating the exact
  operation order (including every floating-point accumulation and lazy
  estimator refresh) of the class-based implementations, after which the
  real scheme objects are reconstructed so post-run inspection sees
  ordinary caches.  The kernels serve the one configuration every
  shipped entry point builds -- exactly ``LatencyCostModel``, the LFU
  d-cache, the ``list`` NCL structure -- and nothing else (the
  eligibility rule is in :func:`run_columnar`).

Every other scheme or configuration makes :func:`run_columnar` return
``None``, and the engine replays it through its reference loop, which
reads a :class:`ColumnarTrace`'s row blocks directly.

Bit-exactness is not aspirational: floats are accumulated in the same
order with the same operations, the latency-percentile reservoir uses the
same seeded ``random.Random`` stream, and dict/estimator state evolves
through identical mutation sequences.  The gate is
``tests/test_sim_columnar.py`` plus :mod:`repro.verify.fastpath_diff`.

A run with observers -- an auditor, live instruments, an explicit
coherency policy, an interval collector -- never comes here: observers
see every outcome, so the engine keeps the run on the reference loop.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left, insort
from itertools import chain
from typing import List, Sequence, Tuple

import numpy as np

from repro.cache.base import CacheEntry
from repro.cache.descriptors import ObjectDescriptor
from repro.cache.frequency import (
    DEFAULT_AGING_INTERVAL,
    DEFAULT_WINDOW,
    _MIN_ELAPSED,
)
from repro.cache.lru import LRUCache
from repro.core.coordinated import CoordinatedScheme
from repro.costs.model import LatencyCostModel
from repro.metrics.collector import _RESERVOIR_SIZE, MetricsCollector
from repro.schemes.lru_everywhere import LRUEverywhereScheme
from repro.schemes.modulo import ModuloScheme
from repro.schemes.node_state import DescriptorNode
from repro.workload.trace import _BLOCK, ColumnarTrace
from repro.workload.updates import UpdateEvent

# Estimator constants (see repro.cache.frequency).  The kernels inline the
# sliding-window estimator, so they only run for descriptors built with
# the default window/aging parameters -- which is what every scheme here
# constructs.
_AGING = DEFAULT_AGING_INTERVAL
_WINDOW = DEFAULT_WINDOW
_FALLBACK = 1.0 / DEFAULT_AGING_INTERVAL
_NEG_INF = float("-inf")

# Flattened descriptor layout (list, not a class: index access is the
# cheapest attribute story in CPython):
#   d[0] = size, d[1] = miss_penalty, d[2] = cached estimate,
#   d[3] = refreshed_at, d[4] = reference-time list (the sliding window).


def run_columnar(
    engine,
    trace: ColumnarTrace,
    updates: Sequence[UpdateEvent] = (),
    progress_every: int = 0,
    progress_callback=None,
):
    """Run a flattened kernel over a columnar trace, or return ``None``.

    Called by :meth:`SimulationEngine.run` for a columnar trace when
    nothing observes the run's outcomes.  A kernel serves the run only
    in the configuration it was written for: no instruments on the
    scheme, a cost model that is *exactly* :class:`LatencyCostModel` (a
    subclass may override ``link_cost``), a scheme of exactly a hot type
    with fresh state and -- for the coordinated kernel -- no placement
    observer, the ``list`` NCL structure and the LFU d-cache.  For every
    other configuration this returns ``None`` and the engine runs its
    reference loop.
    """
    scheme = engine.scheme
    if (
        scheme._instruments is not None
        or type(engine.cost_model) is not LatencyCostModel
    ):
        return None
    if type(scheme) in (LRUEverywhereScheme, ModuloScheme) and not scheme._caches:
        kernel = _run_lru_family
    elif (
        type(scheme) is CoordinatedScheme
        and not scheme._nodes
        and scheme.placement_observer is None
        and scheme.ncl_structure == "list"
        and scheme.dcache_policy == "lfu"
    ):
        kernel = _run_coordinated
    else:
        return None
    started = time.perf_counter()
    prep = _prepare(engine, trace, updates)
    return kernel(engine, prep, started, progress_every, progress_callback)


# -- shared precompute --------------------------------------------------------


class _Prep:
    """Routing and update-merge state shared by both kernels."""

    __slots__ = (
        "trace",
        "clients",
        "servers",
        "stride",
        "path_index",
        "paths",
        "lasts",
        "warmup_end",
        "total",
        "ufire",
        "uoids",
    )


def _node_table(mapping: dict) -> np.ndarray:
    """Dense id -> node lookup over the mapping's own ids (-1: no node),
    so its size is set by the architecture, never by the trace."""
    lookup = np.full(max(mapping) + 1, -1, dtype=np.intp)
    for ext_id, node in mapping.items():
        if ext_id >= 0:
            lookup[ext_id] = node
    return lookup


def _checked_nodes(lookup: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The node of every id of a block; an id the architecture lacks
    raises KeyError like a dict."""
    if int(ids.max()) >= len(lookup):
        raise KeyError(int(ids[int(np.argmax(ids >= len(lookup)))]))
    nodes = lookup[ids]
    missing = nodes < 0
    if missing.any():
        raise KeyError(int(ids[int(np.argmax(missing))]))
    return nodes


def _path_ids(prep: _Prep, block: ColumnarTrace) -> List[int]:
    """The index into ``prep.paths`` of every request of a block."""
    return prep.path_index[
        prep.clients[block.client_ids] * prep.stride
        + prep.servers[block.server_ids]
    ].tolist()


def _prepare(engine, trace: ColumnarTrace, updates: Sequence[UpdateEvent]) -> _Prep:
    prep = _Prep()
    prep.trace = trace
    architecture = engine.architecture
    prep.clients = clients = _node_table(architecture.client_nodes)
    prep.servers = servers = _node_table(architecture.server_nodes)
    prep.stride = stride = int(servers.max()) + 1
    # One pass over the trace checks every id (before the first request)
    # and marks the pair code ``client node * stride + server node`` of
    # every request in a dense table: the codes span at most the node
    # count squared, whatever the trace length.
    seen = np.zeros((int(clients.max()) + 1) * stride, dtype=bool)
    for block in trace.iter_chunks(_BLOCK):
        seen[
            _checked_nodes(clients, block.client_ids) * stride
            + _checked_nodes(servers, block.server_ids)
        ] = True
    # Paths are numbered in code order, i.e. (client node, server node)
    # order, the order the write-back builds caches in.
    codes = np.flatnonzero(seen)
    prep.path_index = np.zeros(len(seen), dtype=np.intp)
    prep.path_index[codes] = np.arange(len(codes))
    request_path = architecture.routing.request_path
    paths: List[List[int]] = []
    for code in codes.tolist():
        cnode, snode = divmod(code, stride)
        paths.append(request_path(cnode, snode))
    prep.paths = paths
    prep.lasts = [len(p) - 1 for p in paths]
    prep.warmup_end, prep.total = trace.split_warmup(engine.warmup_fraction)

    if updates:
        update_times = np.fromiter(
            (u.time for u in updates), dtype=np.float64, count=len(updates)
        )
        # side="left": the update fires before the first record whose time
        # is >= the update time -- exactly the reference loop's
        # ``updates[j].time <= record.time`` merge.  Updates landing after
        # the trace end (fire index == total) never fire, as in the
        # reference.
        prep.ufire = np.searchsorted(
            trace.times, update_times, side="left"
        ).tolist()
        prep.uoids = [u.object_id for u in updates]
    else:
        prep.ufire = []
        prep.uoids = []
    return prep


def _link_delays(engine, paths: List[List[int]]) -> List[List[float]]:
    """Base delay of every link of every unique path (kernels only).

    Under exactly :class:`LatencyCostModel` a link costs
    ``delay * (size / avg_size)``, so the kernels replicate
    ``path_cost`` from these columns with the same operands in the same
    order.
    """
    link_delay = engine.cost_model.network.link_delay
    return [[link_delay(u, v) for u, v in zip(p, p[1:])] for p in paths]


def _finish(engine, prep, started, totals, reservoir, extra):
    """Assemble the SimulationResult (shared by the kernel variants)."""
    from repro.sim.engine import SimulationResult

    duration = time.perf_counter() - started
    collector = MetricsCollector.from_totals(totals, reservoir)
    total = prep.total
    return SimulationResult(
        architecture=engine.architecture.name,
        scheme=engine.scheme.name,
        requests_total=total,
        requests_measured=collector.requests,
        summary=collector.summary(),
        updates_applied=extra["updates_applied"],
        copies_invalidated=extra["copies_invalidated"],
        duration_seconds=duration,
        requests_per_second=total / duration if duration > 0 else 0.0,
    )


# -- LRU / MODULO kernel ------------------------------------------------------


def _run_lru_family(engine, prep, started, progress_every, progress_callback):
    """Flattened kernel for ``lru`` and ``modulo(r=...)``.

    Per-node state is ``[entries, used, capacity]`` where ``entries`` maps
    object id -> size in recency order (python dicts preserve insertion
    order; a hit re-appends, mirroring the reference OrderedDict's
    ``move_to_end``).  Placement index lists are precomputed per path.
    """
    scheme = engine.scheme
    radius = scheme.radius if type(scheme) is ModuloScheme else 1
    paths, lasts = prep.paths, prep.lasts
    delays = _link_delays(engine, paths)
    avg_size = engine.cost_model.avg_size
    warmup_end, total = prep.warmup_end, prep.total

    # Shared per-node state; per-path views of it.  The entries dicts are
    # stable objects (mutated in place, never rebound), so the walk lists
    # can carry them directly.
    node_states: dict = {}
    path_states: List[list] = []
    path_entries: List[list] = []
    placements: List[list] = []
    for path, last in zip(paths, lasts):
        states = []
        for node in path[:last]:
            state = node_states.get(node)
            if state is None:
                state = [{}, 0, scheme.capacity_for(node)]
                node_states[node] = state
            states.append(state)
        path_states.append(states)
        path_entries.append([state[0] for state in states])
        placements.append(
            [i for i in range(last) if (last - i) % radius == 0]
        )
    all_states = list(node_states.values())
    reach = [-1] * len(paths)

    # Inline metrics accumulators (same types/order as MetricsCollector).
    rng = random.Random(0x5EED)
    getrandbits = rng.getrandbits
    reservoir: List[float] = []
    res_append = reservoir.append
    measured = 0
    latency_sum = 0.0
    response_ratio_sum = 0.0
    bytes_requested = 0
    bytes_cache_served = 0
    cache_hits = 0
    byte_hops = 0.0
    hops_sum = 0
    bytes_read_sum = 0
    bytes_written_sum = 0

    ufire, uoids = prep.ufire, prep.uoids
    num_updates = len(ufire)
    uj = 0
    updates_applied = 0
    copies_invalidated = 0
    report_progress = progress_callback if progress_every > 0 else None
    lru_everywhere = radius == 1

    requests = chain.from_iterable(
        zip(block.object_ids.tolist(), block.sizes.tolist(), _path_ids(prep, block))
        for block in prep.trace.iter_chunks(_BLOCK)
    )
    for index, (oid, size, pid) in enumerate(requests):
        while uj < num_updates and ufire[uj] <= index:
            inv_oid = uoids[uj]
            for state in all_states:
                entries = state[0]
                inv_size = entries.pop(inv_oid, None)
                if inv_size is not None:
                    state[1] -= inv_size
                    copies_invalidated += 1
            updates_applied += 1
            uj += 1

        last = lasts[pid]
        states = path_states[pid]

        h = last
        for i, entries in enumerate(path_entries[pid]):
            hit_size = entries.pop(oid, None)
            if hit_size is not None:
                entries[oid] = hit_size  # recency touch (single lookup)
                h = i
                break
        visited = h if h < last else last - 1
        if visited > reach[pid]:
            reach[pid] = visited

        inserted = 0
        if h:
            states = path_states[pid]
            for i in range(h) if lru_everywhere else placements[pid]:
                if i >= h:
                    break
                state = states[i]
                cap = state[2]
                if size > cap:
                    continue
                entries = state[0]
                used = state[1]
                need = size - (cap - used)
                if need > 0:
                    victims = []
                    freed = 0
                    for vid, vsize in entries.items():
                        victims.append(vid)
                        freed += vsize
                        if freed >= need:
                            break
                    for vid in victims:
                        used -= entries.pop(vid)
                entries[oid] = size
                state[1] = used + size
                inserted += 1

        if index >= warmup_end:
            # h <= 1 shortcuts are exact: 0.0 + x == x for the
            # non-negative link costs accumulated here.
            if h == 0:
                latency = 0.0
            elif h == 1:
                latency = delays[pid][0] * (size / avg_size)
            else:
                ratio = size / avg_size
                latency = 0.0
                dl = delays[pid]
                for k in range(h):
                    latency += dl[k] * ratio
            measured += 1
            if measured <= _RESERVOIR_SIZE:
                res_append(latency)
            else:
                # Inline rng.randrange(measured): identical getrandbits
                # stream, two call frames fewer per measured request.
                nbits = measured.bit_length()
                slot = getrandbits(nbits)
                while slot >= measured:
                    slot = getrandbits(nbits)
                if slot < _RESERVOIR_SIZE:
                    reservoir[slot] = latency
            latency_sum += latency
            response_ratio_sum += latency / size
            bytes_requested += size
            if h < last:
                bytes_cache_served += size
                cache_hits += 1
                bytes_read_sum += size
            byte_hops += size * h
            hops_sum += h
            bytes_written_sum += size * inserted

        if report_progress is not None and (index + 1) % progress_every == 0:
            report_progress(index + 1, total)

    if report_progress is not None and total % progress_every != 0:
        report_progress(total, total)

    _writeback_lru(scheme, paths, reach, node_states)

    totals = {
        "requests": measured,
        "latency_sum": latency_sum,
        "response_ratio_sum": response_ratio_sum,
        "bytes_requested": bytes_requested,
        "bytes_cache_served": bytes_cache_served,
        "cache_hits": cache_hits,
        "byte_hops": byte_hops,
        "hops": hops_sum,
        "bytes_read": bytes_read_sum,
        "bytes_written": bytes_written_sum,
    }
    extra = {
        "updates_applied": updates_applied,
        "copies_invalidated": copies_invalidated,
    }
    return _finish(engine, prep, started, totals, reservoir, extra)


def _writeback_lru(scheme, paths, reach, node_states) -> None:
    """Reconstruct real LRUCache objects for every node the replay visited.

    The reference loop creates caches lazily on first visit, so only
    visited nodes may exist afterwards; the kernel tracked the deepest
    visited prefix per path.  ``_recency`` -- the order all future
    eviction decisions read -- is reproduced exactly (the kernel dict
    evolved through the same touch/insert/remove sequence as the
    reference OrderedDict).  ``entries`` is written in recency order
    rather than the reference's raw insertion order; the difference is
    behaviorally inert (``entries`` is a keyed map, never an order
    source) and buys the kernel one dict per node instead of two.
    """
    done = set()
    for path, deepest in zip(paths, reach):
        for i in range(deepest + 1):
            node = path[i]
            if node in done:
                continue
            done.add(node)
            entries, used, _cap = node_states[node]
            cache = LRUCache(scheme.capacity_for(node))
            for oid, size in entries.items():
                entry = CacheEntry(ObjectDescriptor(oid, size))
                cache.entries[oid] = entry
                cache._recency[oid] = None
            cache._used = used
            scheme._caches[node] = cache


# -- coordinated kernel -------------------------------------------------------


class _CoordNode:
    """Flattened DescriptorNode: NCL main cache + d-cache, no classes.

    ``entries`` maps object id -> flattened descriptor; ``order``/``keys``
    mirror NCLCache's bisect-sorted (key, id) list and key map.  The
    d-cache is ``ddesc`` plus the LFU frequency buckets (plain dicts,
    like the reference ``_FrequencyBuckets``).
    """

    __slots__ = (
        "node",
        "cap",
        "used",
        "entries",
        "order",
        "keys",
        "dcap",
        "ddesc",
        "dcount",
        "dbuckets",
        "dmin",
    )

    def __init__(self, node: int, cap: int, dcap: int) -> None:
        self.node = node
        self.cap = cap
        self.used = 0
        self.entries = {}
        self.order = []
        self.keys = {}
        self.dcap = dcap
        self.ddesc = {}
        self.dcount = {}
        self.dbuckets = {}
        self.dmin = 0


def _record(d: list, now: float) -> None:
    """Inline SlidingWindowFrequencyEstimator.record (window push + refresh)."""
    ts = d[4]
    if len(ts) == _WINDOW:
        del ts[0]
    ts.append(now)
    elapsed = now - ts[0]
    if elapsed >= _MIN_ELAPSED:
        d[2] = len(ts) / elapsed
    else:
        d[2] = _FALLBACK
    d[3] = now


def _value(d: list, now: float) -> float:
    """Inline estimator.value: cached estimate with lazy aging refresh."""
    ts = d[4]
    if not ts:
        return 0.0
    if now - d[3] >= _AGING:
        elapsed = now - ts[0]
        if elapsed >= _MIN_ELAPSED:
            v = len(ts) / elapsed
        else:
            v = _FALLBACK
        d[2] = v
        d[3] = now
        return v
    return d[2]


def _d_track_remove(st: _CoordNode, oid: int) -> None:
    """d-cache policy removal (LFU bucket discard)."""
    count = st.dcount.pop(oid, None)
    if count is None:
        return
    bucket = st.dbuckets[count]
    del bucket[oid]
    if not bucket:
        del st.dbuckets[count]
        if st.dmin == count:
            st.dmin = min(st.dbuckets, default=0)


def _d_insert(st: _CoordNode, oid: int, d: list) -> None:
    """DescriptorCache.insert: replace-in-place, or evict-then-store.

    ``dmin`` is maintained through exactly the reference
    ``_FrequencyBuckets._min_count`` transitions, which keep it equal to
    ``min(buckets)`` whenever any bucket exists -- so the victim pick is
    the same O(1) first-key-of-the-lowest-bucket pick as
    ``_FrequencyBuckets.replace_victim``, choosing the identical victim.
    """
    ddesc = st.ddesc
    if oid in ddesc:
        ddesc[oid] = d
        return
    dcap = st.dcap
    if dcap == 0:
        return
    dbuckets = st.dbuckets
    dcount = st.dcount
    while len(ddesc) >= dcap:
        count = st.dmin
        bucket = dbuckets[count]
        vid = next(iter(bucket))
        del ddesc[vid]
        del dcount[vid]
        del bucket[vid]
        if not bucket:
            del dbuckets[count]
            st.dmin = min(dbuckets, default=0)
    ddesc[oid] = d
    dcount[oid] = 1
    b1 = dbuckets.get(1)
    if b1 is None:
        dbuckets[1] = {oid: None}
    else:
        b1[oid] = None
    st.dmin = 1


def _insert_object(st: _CoordNode, oid: int, size: int, penalty: float, now: float) -> int:
    """DescriptorNode.insert_object; returns evictions, or -1 when refused."""
    d = st.ddesc.pop(oid, None)
    if d is not None:
        _d_track_remove(st, oid)
        d[1] = penalty
        # The main cache sizes the insertion by the descriptor's stored
        # size (identical to the request size for catalog-backed traces,
        # but the reference reads the descriptor -- so do we).
        size = d[0]
    else:
        d = [size, penalty, 0.0, _NEG_INF, []]
        _record(d, now)
    cap = st.cap
    if size > cap:
        # Object exceeds the whole cache: descriptor returns to the
        # d-cache (re-inserted, so its LFU count restarts at 1 -- exactly
        # the reference's remove-then-insert round trip).
        _d_insert(st, oid, d)
        return -1
    entries = st.entries
    order = st.order
    keys = st.keys
    evicted: List[Tuple[int, list]] = []
    need = size - (cap - st.used)
    if need > 0:
        freed = 0
        for _, vid in order:
            vd = entries[vid]
            evicted.append((vid, vd))
            freed += vd[0]
            if freed >= need:
                break
        for vid, vd in evicted:
            del entries[vid]
            st.used -= vd[0]
            old_key = keys.pop(vid)
            j = bisect_left(order, (old_key, vid))
            del order[j]
    entries[oid] = d
    st.used += size
    new_key = _value(d, now) * d[1] / size
    insort(order, (new_key, oid))
    keys[oid] = new_key
    for vid, vd in evicted:
        _d_insert(st, vid, vd)
    return len(evicted)


def _run_coordinated(engine, prep, started, progress_every, progress_callback):
    """Flattened kernel for the coordinated scheme's 3-phase protocol."""
    scheme = engine.scheme
    paths, lasts = prep.paths, prep.lasts
    delays = _link_delays(engine, paths)
    avg_size = engine.cost_model.avg_size
    warmup_end, total = prep.warmup_end, prep.total
    dcap = scheme.dcache_entries

    node_states: dict = {}
    path_walks: List[list] = []
    for path, last in zip(paths, lasts):
        walk = []
        for node in path[:last]:
            state = node_states.get(node)
            if state is None:
                state = _CoordNode(node, scheme.capacity_for(node), dcap)
                node_states[node] = state
            # The dict objects are stable (mutated in place, never
            # rebound), so the walk can carry them directly and skip two
            # attribute loads per node per request.
            walk.append((state, state.entries, state.ddesc))
        path_walks.append(walk)
    all_states = list(node_states.values())
    reach = [-1] * len(paths)

    rng = random.Random(0x5EED)
    getrandbits = rng.getrandbits
    reservoir: List[float] = []
    res_append = reservoir.append
    measured = 0
    latency_sum = 0.0
    response_ratio_sum = 0.0
    bytes_requested = 0
    bytes_cache_served = 0
    cache_hits = 0
    byte_hops = 0.0
    hops_sum = 0
    bytes_read_sum = 0
    bytes_written_sum = 0

    # Protocol overhead counters, folded into scheme.protocol_stats at the
    # end (same totals as the per-request charges of decide_step).
    proto_reports = 0
    proto_tags = 0
    proto_decisions = 0
    proto_acc_responses = 0

    ufire, uoids = prep.ufire, prep.uoids
    num_updates = len(ufire)
    uj = 0
    updates_applied = 0
    copies_invalidated = 0
    report_progress = progress_callback if progress_every > 0 else None
    window = _WINDOW
    min_elapsed = _MIN_ELAPSED
    fallback = _FALLBACK
    aging = _AGING

    # The loop below inlines the estimator record, the d-cache promote
    # and insert, the cost-loss scan and the response-path descriptor
    # refresh (DescriptorNode.record_request / ensure_dcache_descriptor,
    # NCLCache.cost_loss): the protocol touches the d-cache two-to-three
    # times per request, and at that rate CPython call overhead would
    # dominate the kernel.  Every inline block performs the identical
    # mutation sequence as the class-based method it names; the helpers
    # above serve the cold paths (insertion, invalidation).

    requests = chain.from_iterable(
        zip(
            block.times.tolist(),
            block.object_ids.tolist(),
            block.sizes.tolist(),
            _path_ids(prep, block),
        )
        for block in prep.trace.iter_chunks(_BLOCK)
    )
    for index, (now, oid, size, pid) in enumerate(requests):
        while uj < num_updates and ufire[uj] <= index:
            inv_oid = uoids[uj]
            for st in all_states:
                d = st.entries.pop(inv_oid, None)
                if d is not None:
                    st.used -= d[0]
                    old_key = st.keys.pop(inv_oid)
                    j = bisect_left(st.order, (old_key, inv_oid))
                    del st.order[j]
                    _d_insert(st, inv_oid, d)
                    copies_invalidated += 1
            updates_applied += 1
            uj += 1

        last = lasts[pid]
        walk = path_walks[pid]
        # Same operands as every reference size/avg_size division this
        # request would perform, so hoisting it is bit-exact.
        ratio = size / avg_size

        # Phase 1: upstream walk, collecting candidate reports.
        h = last
        candidates = None
        for i, (st, entries_i, ddesc_i) in enumerate(walk):
            d = entries_i.get(oid)
            if d is not None:
                # Hit: NCLCache.record_access = estimator record + key refresh.
                ts = d[4]
                if len(ts) == window:
                    del ts[0]
                ts.append(now)
                elapsed = now - ts[0]
                d[2] = len(ts) / elapsed if elapsed >= min_elapsed else fallback
                d[3] = now
                new_key = d[2] * d[1] / d[0]
                old_key = st.keys[oid]
                if new_key != old_key:
                    order = st.order
                    j = bisect_left(order, (old_key, oid))
                    del order[j]
                    insort(order, (new_key, oid))
                    st.keys[oid] = new_key
                h = i
                break
            dd = ddesc_i.get(oid)
            if dd is None:
                proto_tags += 1
            else:
                # DescriptorCache.get's LFU promote.
                dcount = st.dcount
                count = dcount[oid]
                dbuckets = st.dbuckets
                bucket = dbuckets[count]
                del bucket[oid]
                count1 = count + 1
                if not bucket:
                    del dbuckets[count]
                    if st.dmin == count:
                        st.dmin = count1
                dcount[oid] = count1
                b2 = dbuckets.get(count1)
                if b2 is None:
                    dbuckets[count1] = {oid: None}
                else:
                    b2[oid] = None
                ts = dd[4]  # estimator record
                if len(ts) == window:
                    del ts[0]
                ts.append(now)
                elapsed = now - ts[0]
                dd[2] = (
                    len(ts) / elapsed if elapsed >= min_elapsed else fallback
                )
                dd[3] = now
                proto_reports += 1
                # The report's f is the estimate record() just set
                # (lookup_step reads peek()): dd[2].  NCLCache.cost_loss
                # inline: walks the greedy victim prefix summing current
                # ``f * m``, lazily refreshing aged victim estimators
                # exactly like the reference (the mutation is part of the
                # contract).  Main-cache entry descriptors always hold at
                # least one reference time, so the estimator's
                # empty-window branch cannot trigger.
                cap = st.cap
                loss = 0.0
                loss_ok = False
                if size <= cap:
                    need = size - (cap - st.used)
                    if need <= 0:
                        loss_ok = True
                    else:
                        freed = 0
                        for _, vid in st.order:
                            vd = entries_i[vid]
                            if now - vd[3] >= aging:  # lazy aging refresh
                                vts = vd[4]
                                velapsed = now - vts[0]
                                vd[2] = (
                                    len(vts) / velapsed
                                    if velapsed >= min_elapsed
                                    else fallback
                                )
                                vd[3] = now
                            loss += vd[2] * vd[1]
                            freed += vd[0]
                            if freed >= need:
                                loss_ok = True
                                break
                if loss_ok:
                    if candidates is None:
                        candidates = [(st.node, dd[2], dd[1], loss)]
                    else:
                        candidates.append((st.node, dd[2], dd[1], loss))
        visited = h if h < last else last - 1
        if visited > reach[pid]:
            reach[pid] = visited

        # Phase 2: monotone repair + placement DP (server-first order).
        chosen = ()
        if candidates is not None:
            if len(candidates) == 1:
                # One candidate: the DP reduces to a single gain test.
                node_c, f0, m0, l0 = candidates[0]
                if f0 < 0.0:
                    f0 = 0.0
                if f0 * m0 - l0 > 0.0:
                    chosen = (node_c,)
                    proto_decisions += 1
            else:
                candidates.reverse()
                n = len(candidates)
                freqs = [max(c[1], 0.0) for c in candidates]
                for i in range(n - 2, -1, -1):
                    if freqs[i] < freqs[i + 1]:
                        freqs[i] = freqs[i + 1]
                opt = [0.0] * (n + 1)
                last_ptr = [-1] * (n + 1)
                for k in range(1, n + 1):
                    f_next = freqs[k] if k < n else 0.0
                    best = 0.0
                    best_i = -1
                    for i in range(1, k + 1):
                        cand = (
                            opt[i - 1]
                            + (freqs[i - 1] - f_next) * candidates[i - 1][2]
                            - candidates[i - 1][3]
                        )
                        if cand > best:
                            best = cand
                            best_i = i
                    opt[k] = best
                    last_ptr[k] = best_i
                chosen_set = set()
                k = n
                while k > 0 and last_ptr[k] > 0:
                    v = last_ptr[k]
                    chosen_set.add(candidates[v - 1][0])
                    k = v - 1
                chosen = chosen_set
                proto_decisions += len(chosen_set)
        if h > 0:
            proto_acc_responses += 1

        # Phase 3: downstream walk with the cost accumulator.
        inserted = 0
        evictions = 0
        if h > 0:
            acc = 0.0
            dl = delays[pid]
            for i in range(h - 1, -1, -1):
                acc += dl[i] * ratio
                st, _entries, ddesc = walk[i]
                if st.node in chosen:
                    result = _insert_object(st, oid, size, acc, now)
                    if result >= 0:
                        inserted += 1
                        evictions += result
                        acc = 0.0
                else:
                    # DescriptorNode.ensure_dcache_descriptor inline.  A
                    # fresh descriptor's record(now) sees a zero-elapsed
                    # window, so its estimate is always the fallback
                    # value.
                    d = ddesc.get(oid)
                    if d is not None:
                        d[1] = acc
                    elif dcap:
                        # _d_insert with oid known absent.
                        d = [size, acc, fallback, now, [now]]
                        dbuckets = st.dbuckets
                        dcount = st.dcount
                        while len(ddesc) >= dcap:
                            count = st.dmin
                            bucket = dbuckets[count]
                            vid = next(iter(bucket))
                            del ddesc[vid]
                            del dcount[vid]
                            del bucket[vid]
                            if not bucket:
                                del dbuckets[count]
                                st.dmin = min(dbuckets, default=0)
                        ddesc[oid] = d
                        dcount[oid] = 1
                        b1 = dbuckets.get(1)
                        if b1 is None:
                            dbuckets[1] = {oid: None}
                        else:
                            b1[oid] = None
                        st.dmin = 1

        if index >= warmup_end:
            # h <= 1 shortcuts are exact: 0.0 + x == x for the
            # non-negative link costs accumulated here.
            if h == 0:
                latency = 0.0
            elif h == 1:
                latency = delays[pid][0] * ratio
            else:
                latency = 0.0
                dl = delays[pid]
                for k in range(h):
                    latency += dl[k] * ratio
            measured += 1
            if measured <= _RESERVOIR_SIZE:
                res_append(latency)
            else:
                # Inline rng.randrange(measured): identical getrandbits
                # stream, two call frames fewer per measured request.
                nbits = measured.bit_length()
                slot = getrandbits(nbits)
                while slot >= measured:
                    slot = getrandbits(nbits)
                if slot < _RESERVOIR_SIZE:
                    reservoir[slot] = latency
            latency_sum += latency
            response_ratio_sum += latency / size
            bytes_requested += size
            if h < last:
                bytes_cache_served += size
                cache_hits += 1
                bytes_read_sum += size
            byte_hops += size * h
            hops_sum += h
            bytes_written_sum += size * inserted

        if report_progress is not None and (index + 1) % progress_every == 0:
            report_progress(index + 1, total)

    if report_progress is not None and total % progress_every != 0:
        report_progress(total, total)

    stats = scheme.protocol_stats
    stats.requests += total
    stats.reports += proto_reports
    stats.no_descriptor_tags += proto_tags
    stats.decisions += proto_decisions
    stats.responses_with_accumulator += proto_acc_responses
    # One in-band inv frame per cache node per update event (the
    # reference loop counts these through its coherency policy).
    stats.invalidations += updates_applied * len(engine.architecture.cache_nodes)

    _writeback_coordinated(scheme, paths, reach, node_states)

    totals = {
        "requests": measured,
        "latency_sum": latency_sum,
        "response_ratio_sum": response_ratio_sum,
        "bytes_requested": bytes_requested,
        "bytes_cache_served": bytes_cache_served,
        "cache_hits": cache_hits,
        "byte_hops": byte_hops,
        "hops": hops_sum,
        "bytes_read": bytes_read_sum,
        "bytes_written": bytes_written_sum,
    }
    extra = {
        "updates_applied": updates_applied,
        "copies_invalidated": copies_invalidated,
    }
    return _finish(engine, prep, started, totals, reservoir, extra)


def _materialize_descriptor(oid: int, d: list) -> ObjectDescriptor:
    """Rebuild a real ObjectDescriptor from the flattened kernel layout."""
    descriptor = ObjectDescriptor(oid, d[0], miss_penalty=d[1])
    descriptor._times.extend(d[4])
    descriptor._value = d[2]
    descriptor._refreshed_at = d[3]
    return descriptor


def _writeback_coordinated(scheme, paths, reach, node_states) -> None:
    """Reconstruct DescriptorNode state for every visited node.

    Dict/list iteration orders written back here evolved through the same
    operation sequences as their reference counterparts, so recency,
    bucket and NCL orders -- hence all future eviction decisions -- match.
    """
    done = set()
    for path, deepest in zip(paths, reach):
        for i in range(deepest + 1):
            node = path[i]
            if node in done:
                continue
            done.add(node)
            st = node_states[node]
            state = DescriptorNode(
                st.cap,
                scheme.dcache_entries,
                scheme.dcache_policy,
                scheme.ncl_structure,
            )
            cache = state.cache
            for oid, d in st.entries.items():
                cache.entries[oid] = CacheEntry(_materialize_descriptor(oid, d))
            cache._used = st.used
            cache._order = st.order
            cache._keys = st.keys
            dcache = state.dcache
            for oid, d in st.ddesc.items():
                dcache.descriptors[oid] = _materialize_descriptor(oid, d)
            buckets = dcache._order
            buckets._counts = dict(st.dcount)
            buckets._buckets = {
                count: dict(bucket) for count, bucket in st.dbuckets.items()
            }
            buckets._min_count = st.dmin
            scheme._nodes[node] = state
            scheme._caches[node] = state.cache
