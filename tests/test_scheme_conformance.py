"""Registry-driven scheme conformance suite.

Every scheme registered in :data:`repro.sim.factory.SCHEME_NAMES` must
honor the same contracts, whatever its placement rule:

* **Step composition** -- running the per-node protocol steps
  (``lookup_step`` until the first hit, one ``decide_step``,
  ``deliver_step`` downstream in descending order) mutates cache state
  exactly as one ``process_request`` call does.  This is the contract
  that lets the live serving layer host any registered scheme.
* **Byte conservation** -- every completed request is served by exactly
  one party: ``cache_served + origin_served == requests``.
* **Invalidation correctness** -- per-node ``invalidate_step`` sums to
  ``invalidate_object``, and after a full update storm no stale copy
  survives anywhere.
* **Bit-exact sim-vs-serve replay** -- the in-process cluster reproduces
  the simulator's ``MetricsSummary`` exactly, on both architectures.
* **Wire cleanliness** -- every frame a node sends or returns is a fixed
  point of the frame codec (same values, same types), so two nodes
  behave the same whether a shard plan puts a frame between them or
  the walk crosses them in memory (``CacheNode.hosted``).  Checked on
  a cluster split into one piece per node, where every hop is a frame.

* **One message, two drivers** -- for the report-carrying family the
  request message ``decide_step`` reads in the simulator and the
  ``reports`` list of the ``fwd`` frame that reaches the serving node are
  the same dicts in the same order, and a ``resp`` reply has one shape
  whether the origin or a cache served.

New schemes get all of this for free by being registered; see
``docs/schemes.md``.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro.costs.model import LatencyCostModel
from repro.experiments.presets import build_architecture
from repro.serve import Cluster, InProcessTransport, LoadGenerator
from repro.serve.protocol import HEADER_BYTES, decode_payload, encode_frame
from repro.serve.transport import Transport
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import SCHEME_NAMES, build_scheme
from repro.topology.builder import build_chain
from repro.verify.fastpath_diff import assert_cache_state_identical
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.updates import generate_update_events
from tests.test_serve_shard import framed_replay

WORKLOAD = WorkloadConfig(
    num_objects=80,
    num_servers=3,
    num_clients=8,
    num_requests=400,
    zipf_theta=0.8,
    seed=7,
)
CONFIG = SimulationConfig(relative_cache_size=0.01, dcache_ratio=3.0)

ALL_SCHEMES = sorted(SCHEME_NAMES)


@pytest.fixture(scope="module")
def seeded_trace():
    generator = BoeingLikeTraceGenerator(WORKLOAD)
    return generator.generate(), generator.catalog


def make_chain_scheme(name, capacity=1500, dcache=16):
    network = build_chain([1.0] * 5)
    cost_model = LatencyCostModel(network, avg_size=100.0)
    return build_scheme(name, cost_model, capacity, dcache)


def chain_requests(count=300, seed=11):
    """Deterministic (object, size, start) request stream on the chain."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        object_id = rng.randrange(40)
        size = 1 + (object_id * 37) % 400
        start = rng.randrange(5)
        out.append((object_id, size, start))
    return out


def composed_request(scheme, path, object_id, size, now):
    """Run one request through the node-local steps, serve-layer order.

    Mirrors ``repro.serve.node``: upstream lookups collect piggybacked
    reports from miss nodes (the hit node contributes none), one
    decision at the serving node, then the downstream unwind in
    descending path order mutating the decision in place.
    """
    last = len(path) - 1
    reports = []
    hit_index = last
    for i in range(last):
        hit, report = scheme.lookup_step(path[i], object_id, size, now)
        if hit:
            hit_index = i
            break
        if report is not None:
            reports.append(report)
    decision = scheme.decide_step(
        path, hit_index, reports, object_id, size, now
    )
    inserted = []
    evictions = 0
    for i in range(hit_index - 1, -1, -1):
        did_insert, victims = scheme.deliver_step(
            i, path, decision, object_id, size, now
        )
        if did_insert:
            inserted.append(path[i])
            evictions += victims
    return hit_index, tuple(inserted), evictions


def simulate(arch, catalog, scheme_name, trace, updates=()):
    cost_model = LatencyCostModel(arch.network, catalog.mean_size)
    capacity = CONFIG.capacity_bytes(catalog.total_bytes)
    dcache = CONFIG.dcache_entries(catalog.total_bytes, catalog.mean_size)
    scheme = build_scheme(scheme_name, cost_model, capacity, dcache)
    engine = SimulationEngine(
        arch, cost_model, scheme, warmup_fraction=CONFIG.warmup_fraction
    )
    return engine.run(trace, updates=updates)


def serve_replay(arch, catalog, scheme_name, trace, updates=()):
    async def scenario():
        cluster = Cluster.build(arch, catalog, scheme_name, config=CONFIG)
        await cluster.start()
        loadgen = LoadGenerator(
            cluster,
            trace,
            updates=updates,
            warmup_fraction=CONFIG.warmup_fraction,
        )
        report = await loadgen.run(mode="sequential")
        await cluster.stop()
        return report

    return asyncio.run(scenario())


class TestStepComposition:
    """process_request == composed lookup/decide/deliver steps."""

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_steps_match_process_request(self, scheme_name):
        reference = make_chain_scheme(scheme_name)
        composed = make_chain_scheme(scheme_name)
        now = 0.0
        for object_id, size, start in chain_requests():
            path = list(range(start, 6))
            outcome = reference.process_request(path, object_id, size, now)
            hit_index, inserted, evictions = composed_request(
                composed, path, object_id, size, now
            )
            assert hit_index == outcome.hit_index
            # One meaning everywhere: response order, as the walk unwinds.
            assert inserted == outcome.inserted_nodes
            assert evictions == outcome.evicted_objects
            now += 1.0
        assert_cache_state_identical(reference, composed, tag=scheme_name)

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_steps_match_under_interleaved_invalidation(self, scheme_name):
        """The equivalence must survive invalidations between requests."""
        reference = make_chain_scheme(scheme_name)
        composed = make_chain_scheme(scheme_name)
        now = 0.0
        for i, (object_id, size, start) in enumerate(chain_requests(200)):
            path = list(range(start, 6))
            reference.process_request(path, object_id, size, now)
            composed_request(composed, path, object_id, size, now)
            if i % 17 == 0:
                victim = (object_id * 7) % 40
                removed_ref = reference.invalidate_object(victim)
                removed_comp = sum(
                    composed.invalidate_step(node, victim) for node in range(6)
                )
                assert removed_comp == removed_ref
            now += 1.0
        assert_cache_state_identical(reference, composed, tag=scheme_name)


class TestByteConservation:
    """Every completed request is served by exactly one party."""

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_cache_plus_origin_equals_requests(self, seeded_trace, scheme_name):
        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        report = serve_replay(arch, catalog, scheme_name, trace)
        assert report.errors == 0
        assert (
            report.cache_served + report.origin_served == report.requests_total
        )
        # The modelled summary must agree with the live accounting.
        assert 0.0 <= report.summary.hit_ratio <= 1.0
        assert 0.0 <= report.summary.byte_hit_ratio <= 1.0


class TestInvalidationCorrectness:
    """Push invalidation drops every copy, and only copies."""

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_update_storm_leaves_no_copies(self, scheme_name):
        scheme = make_chain_scheme(scheme_name)
        now = 0.0
        for object_id, size, start in chain_requests(200):
            scheme.process_request(list(range(start, 6)), object_id, size, now)
            now += 1.0
        # Storm: invalidate every object in the universe.
        for object_id in range(40):
            removed = scheme.invalidate_object(object_id)
            assert removed >= 0
            for node in range(6):
                assert not scheme.has_object(node, object_id)
            # A second invalidation finds nothing left to remove.
            assert scheme.invalidate_object(object_id) == 0
        assert scheme.total_cached_bytes() == 0
        scheme.check_invariants()

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_per_node_steps_sum_to_global_invalidate(self, scheme_name):
        whole = make_chain_scheme(scheme_name)
        stepped = make_chain_scheme(scheme_name)
        now = 0.0
        for object_id, size, start in chain_requests(200):
            path = list(range(start, 6))
            whole.process_request(path, object_id, size, now)
            stepped.process_request(path, object_id, size, now)
            now += 1.0
        for object_id in range(40):
            removed_whole = whole.invalidate_object(object_id)
            removed_stepped = sum(
                stepped.invalidate_step(node, object_id) for node in range(6)
            )
            assert removed_stepped == removed_whole
        assert_cache_state_identical(whole, stepped, tag=scheme_name)

    @pytest.mark.parametrize("scheme_name", ["adaptive", "costaware"])
    def test_sim_vs_serve_with_update_storm(self, seeded_trace, scheme_name):
        """The new families stay bit-exact under a dense update stream."""
        trace, catalog = seeded_trace
        updates = generate_update_events(
            num_objects=WORKLOAD.num_objects,
            duration=trace[len(trace) - 1].time,
            update_rate=2.0,
            seed=9,
        )
        assert updates, "seed must yield a non-empty update stream"
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        sim = simulate(arch, catalog, scheme_name, trace, updates=updates)
        report = serve_replay(
            arch, catalog, scheme_name, trace, updates=updates
        )
        assert report.summary == sim.summary
        assert report.updates_applied == sim.updates_applied
        assert report.copies_invalidated == sim.copies_invalidated


class TestBitExactReplay:
    """In-process cluster replay reproduces the simulator exactly."""

    @pytest.mark.parametrize("arch_name", ["hierarchical", "en-route"])
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_summary_identical(self, seeded_trace, scheme_name, arch_name):
        trace, catalog = seeded_trace
        arch = build_architecture(arch_name, WORKLOAD, seed=2)
        sim = simulate(arch, catalog, scheme_name, trace)
        report = serve_replay(arch, catalog, scheme_name, trace)
        assert report.summary == sim.summary
        assert report.requests_total == sim.requests_total
        assert report.requests_measured == sim.requests_measured


def same_value_and_type(a, b) -> bool:
    """Deep equality that also tells 1 from 1.0 from True, list from tuple."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(
            type(k) is str and same_value_and_type(a[k], b[k]) for k in a
        )
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_value_and_type, a, b))
    return a == b


def is_codec_fixed_point(frame) -> bool:
    try:
        decoded = decode_payload(encode_frame(frame)[HEADER_BYTES:])
    except (TypeError, ValueError):
        return False  # not JSON at all: a set, an object, ...
    return same_value_and_type(frame, decoded)


class FrameAudit(Transport):
    """An in-process transport that checks frames as they are handed over.

    Requests are checked as the caller passes them in and replies as the
    handler returns them -- before the inner transport's codec round
    trip could launder either.
    """

    def __init__(self) -> None:
        self.inner = InProcessTransport()
        self.kinds: set = set()
        self.dirty: list = []

    def check(self, frame: dict) -> None:
        self.kinds.add(frame.get("type"))
        if not is_codec_fixed_point(frame):
            self.dirty.append(repr(frame))

    async def start_node(self, node_id, handler):
        async def audited(message):
            reply = await handler(message)
            self.check(reply)
            return reply

        return await self.inner.start_node(node_id, audited)

    async def call(self, address, message):
        self.check(message)
        return await self.inner.call(address, message)

    async def close(self) -> None:
        await self.inner.close()


class TestWireCleanliness:
    """What makes an in-memory same-shard hop equal to a framed one."""

    @pytest.mark.parametrize(
        "frame",
        [
            {"type": "fwd", "path": (1, 2)},
            {"type": "resp", "inserted": {3}},
            {"type": "resp", "decision": {"cache_at": frozenset()}},
            {"type": "resp", "per_node": {4: 1}},
            {"type": "fwd", "reports": [object()]},
        ],
        ids=["tuple", "set", "frozenset", "int-key", "object"],
    )
    def test_the_check_rejects_what_the_codec_would_change(self, frame):
        assert not is_codec_fixed_point(frame)

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_every_frame_is_a_codec_fixed_point(self, seeded_trace, scheme_name):
        trace, catalog = seeded_trace
        updates = generate_update_events(
            num_objects=WORKLOAD.num_objects,
            duration=trace[len(trace) - 1].time,
            update_rate=0.5,
            seed=9,
        )
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        audit = FrameAudit()
        report = framed_replay(
            arch, catalog, scheme_name, trace, audit, CONFIG, updates=updates
        )
        assert report.errors == 0 and report.updates_applied > 0
        assert {"get", "fwd", "resp", "inv", "inv-ok"} <= audit.kinds
        assert audit.dirty == []


class MessageAudit(FrameAudit):
    """Also keeps, per walk, the request message that reached the serving
    node -- the ``reports`` of the walk's last ``fwd`` frame, or nothing
    when the ingress node itself served -- and every ``resp`` key set."""

    def __init__(self) -> None:
        super().__init__()
        self.walks: list = []
        self.resp_shapes: set = set()

    def check(self, frame: dict) -> None:
        super().check(frame)
        kind = frame.get("type")
        if kind == "get":
            self.walks.append([])
        elif kind == "fwd":
            self.walks[-1] = list(frame["reports"])
        elif kind == "resp":
            self.resp_shapes.add(frozenset(frame))


class TestSameMessage:
    """What a step returns is what goes on the wire, unconverted."""

    @pytest.mark.parametrize(
        "scheme_name", ["coordinated", "adaptive", "costaware"]
    )
    def test_decide_step_reads_what_the_last_fwd_frame_carries(
        self, seeded_trace, scheme_name
    ):
        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)

        cost_model = LatencyCostModel(arch.network, catalog.mean_size)
        scheme = build_scheme(
            scheme_name,
            cost_model,
            CONFIG.capacity_bytes(catalog.total_bytes),
            CONFIG.dcache_entries(catalog.total_bytes, catalog.mean_size),
        )
        decide, simulated = scheme.decide_step, []

        def recording(path, hit_index, reports, *rest):
            simulated.append(list(reports))
            return decide(path, hit_index, reports, *rest)

        scheme.decide_step = recording
        SimulationEngine(
            arch, cost_model, scheme, warmup_fraction=CONFIG.warmup_fraction
        ).run(trace)

        audit = MessageAudit()
        report = framed_replay(
            arch, catalog, scheme_name, trace, audit, CONFIG
        )
        assert report.cache_served > 0 and report.origin_served > 0
        assert len(simulated) == len(audit.walks) == len(trace)
        assert any(simulated), "seed must yield piggybacked reports"
        for number, (sim, served) in enumerate(zip(simulated, audit.walks)):
            assert served == sim, f"request {number}"
            assert same_value_and_type(json.loads(json.dumps(served)), served)
        assert audit.resp_shapes == {
            frozenset({"type", "hit_index", "decision", "inserted", "evictions"})
        }
