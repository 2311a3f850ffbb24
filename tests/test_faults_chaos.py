"""The chaos gate: a full trace under seeded faults, zero visible errors.

Three contracts pin the fault-injection subsystem and the resilience
machinery together:

* **Survival** -- replaying a seeded trace through an in-process cluster
  under a plan mixing frame drops, delays, duplicates, corruption and
  one mid-trace node crash (with restart) must complete every request
  with zero client-visible errors, absorbing the faults into retries,
  breaker trips and upstream failovers (all of which must be non-zero,
  or the plan exercised nothing).
* **Determinism** -- the same plan and seed over the same trace must
  produce byte-identical resilience counters and injector tallies across
  two independent runs.
* **Transparency** -- with an *empty* plan the faulty transport must be
  invisible: the replay stays bit-identical to the simulator's
  ``MetricsSummary`` for every scheme, and every resilience counter
  stays zero.

A one-process cluster crosses its hops in memory, so the plan meets
them at the nodes' per-hop seat rather than on frames; the seat is
pinned on its own: a crash or a drop on an in-memory hop fails it
exactly as a frame would, a drawn duplicate moves no state, and the
injector counts one call per hop, as many as the frames a cluster split
into one piece per node sends.

Plus unit coverage of the pieces: retry backoff shape, circuit-breaker
transitions, fault-plan JSON round-trips and schedule windows, and the
injector's per-fault behavior.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.costs.model import LatencyCostModel
from repro.experiments.presets import build_architecture
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultyTransport,
    LinkRule,
    NodeFault,
)
from repro.obs.registry import StatRegistry
from repro.serve import (
    CallTimeout,
    CircuitBreaker,
    Cluster,
    FrameCorruption,
    InProcessTransport,
    LoadGenerator,
    NodeUnreachable,
    RetryPolicy,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import build_scheme
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.updates import generate_update_events
from tests.test_serve_shard import framed_replay

WORKLOAD = WorkloadConfig(
    num_objects=100,
    num_servers=4,
    num_clients=12,
    num_requests=900,
    zipf_theta=0.8,
    seed=5,
)
CONFIG = SimulationConfig(relative_cache_size=0.01, dcache_ratio=3.0)
# Millisecond-scale backoff keeps a 900-request chaos replay fast while
# still walking the whole retry schedule.
FAST_RETRY = RetryPolicy(
    attempts=3, backoff_base=0.0005, backoff_max=0.002, jitter=0.5
)


@pytest.fixture(scope="module")
def seeded_trace():
    generator = BoeingLikeTraceGenerator(WORKLOAD)
    return generator.generate(), generator.catalog


def crashable_nodes(arch, trace, tail_fraction=0.5):
    """Interior path nodes safe to crash: not an ingress, not an origin.

    Restricted to paths of the trace's tail so a mid-trace crash is
    guaranteed to see traffic afterwards.
    """
    ingress = set(arch.client_nodes.values())
    interior = set()
    origins = set()
    start = int(len(trace) * (1.0 - tail_fraction))
    for record in trace.records[start:]:
        path = arch.request_path(record.client_id, record.server_id)
        interior.update(path[1:-1])
        origins.add(path[-1])
    return sorted(interior - ingress - origins)


def chaos_plan(arch, trace, seed=7):
    """Drops + delays + duplicates + corruption + one crash-and-restart."""
    victims = crashable_nodes(arch, trace)
    assert victims, "architecture offers no safe intermediate node to crash"
    t0 = trace[0].time
    t1 = trace[len(trace) - 1].time
    return FaultPlan(
        seed=seed,
        links=(
            LinkRule(
                ops=("fwd",),
                drop_rate=0.02,
                delay_rate=0.02,
                delay_seconds=0.0005,
                duplicate_rate=0.01,
                corrupt_rate=0.01,
            ),
        ),
        nodes=(
            NodeFault(
                node=victims[0],
                kind="crash",
                at_time=t0 + 0.3 * (t1 - t0),
                until_time=t0 + 0.7 * (t1 - t0),
            ),
        ),
    )


def replay_under_faults(arch, catalog, scheme_name, trace, plan, updates=()):
    """One sequential in-process replay through a FaultyTransport."""

    async def scenario():
        injector = FaultInjector(plan)
        cluster = Cluster.build(
            arch,
            catalog,
            scheme_name,
            config=CONFIG,
            transport=FaultyTransport(InProcessTransport(), injector),
            retry=FAST_RETRY,
            seed=plan.seed,
        )
        await cluster.start()
        loadgen = LoadGenerator(
            cluster, trace, updates=updates,
            warmup_fraction=CONFIG.warmup_fraction,
        )
        report = await loadgen.run(mode="sequential")
        merged = StatRegistry()
        for node_id, node in cluster.nodes.items():
            snap = node.registry.snapshot().get(node_id)
            if snap is not None:
                stats = merged.node(node_id)
                for field, value in snap.items():
                    setattr(stats, field, value)
        await cluster.stop()
        return report, merged, injector.summary()

    return asyncio.run(scenario())


class TestChaosGate:
    """ISSUE gate: seeded faults over a full trace, zero visible errors."""

    def test_full_trace_survives_seeded_faults(self, seeded_trace):
        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        plan = chaos_plan(arch, trace)
        report, merged, injected = replay_under_faults(
            arch, catalog, "coordinated", trace, plan
        )
        # Every request completed; sequential mode would have raised on
        # any client-visible error.
        assert report.errors == 0
        assert report.cache_served + report.origin_served == len(trace)
        # The plan actually injected something...
        assert injected["drops"] > 0
        assert injected["refused_calls"] > 0
        # ...and the resilience layer visibly absorbed it.
        assert merged.total("rpc_timeouts") > 0
        assert merged.total("rpc_retries") > 0
        assert merged.total("failovers") > 0
        assert merged.total("breaker_trips") > 0

    def test_same_seed_same_counters(self, seeded_trace):
        """Determinism: two runs of one plan agree on every counter."""
        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        plan = chaos_plan(arch, trace)
        first = replay_under_faults(arch, catalog, "coordinated", trace, plan)
        second = replay_under_faults(arch, catalog, "coordinated", trace, plan)
        assert first[1].snapshot() == second[1].snapshot()
        assert first[2] == second[2]
        assert first[0].summary == second[0].summary

    def test_different_seed_differs(self, seeded_trace):
        """The seed is live: a different one draws a different fault mix."""
        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        base = chaos_plan(arch, trace, seed=7)
        other = chaos_plan(arch, trace, seed=8)
        _, _, first = replay_under_faults(
            arch, catalog, "lru", trace, base
        )
        _, _, second = replay_under_faults(
            arch, catalog, "lru", trace, other
        )
        assert first != second


class TestEmptyPlanTransparency:
    """A no-fault FaultyTransport must be bit-for-bit invisible."""

    @pytest.mark.parametrize(
        "scheme_name", ["coordinated", "lru", "lnc-r", "gds"]
    )
    def test_bit_identical_to_simulator(self, seeded_trace, scheme_name):
        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        cost_model = LatencyCostModel(arch.network, catalog.mean_size)
        capacity = CONFIG.capacity_bytes(catalog.total_bytes)
        dcache = CONFIG.dcache_entries(catalog.total_bytes, catalog.mean_size)
        scheme = build_scheme(scheme_name, cost_model, capacity, dcache)
        sim = SimulationEngine(
            arch, cost_model, scheme, warmup_fraction=CONFIG.warmup_fraction
        ).run(trace)
        report, merged, injected = replay_under_faults(
            arch, catalog, scheme_name, trace, FaultPlan.empty()
        )
        assert report.summary == sim.summary
        for field in (
            "rpc_timeouts", "rpc_retries", "failovers", "breaker_trips"
        ):
            assert merged.total(field) == 0
        assert injected["drops"] == 0
        assert injected["refused_calls"] == 0


class TestInMemoryHopSeat:
    """The fault plan at a hop a one-process cluster crosses in memory."""

    @staticmethod
    def first_walk(arch, trace):
        """The first request whose path has a position to fail over to
        past its second one."""
        for record in trace.records:
            path = arch.request_path(record.client_id, record.server_id)
            if len(path) >= 4:
                return record, path
        raise AssertionError("trace has no walk of four positions")

    def one_get(self, seeded_trace, plan_for):
        """One cold ``get`` through an unsharded cluster, under the plan
        ``plan_for`` builds against the walk's second position."""
        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        record, path = self.first_walk(arch, trace)

        async def scenario():
            injector = FaultInjector(plan_for(path[1]))
            cluster = Cluster.build(
                arch,
                catalog,
                "coordinated",
                config=CONFIG,
                transport=FaultyTransport(InProcessTransport(), injector),
                retry=FAST_RETRY,
            )
            await cluster.start()
            victim = cluster.nodes[path[1]]
            before = victim.registry.snapshot()
            reply = await cluster.transport.call(
                cluster.ingress_address(record.client_id),
                {
                    "type": "get",
                    "client_id": record.client_id,
                    "server_id": record.server_id,
                    "object_id": record.object_id,
                    "size": record.size,
                    "time": record.time,
                },
            )
            untouched = (
                victim.requests_handled == 0
                and victim.inflight == 0
                and victim.registry.snapshot() == before
            )
            ingress = cluster.nodes[path[0]].registry.node(path[0])
            await cluster.stop()
            return reply, untouched, ingress, injector

        return asyncio.run(scenario())

    def test_crash_refuses_before_the_victim_moves(self, seeded_trace):
        reply, untouched, ingress, injector = self.one_get(
            seeded_trace,
            lambda victim: FaultPlan(
                seed=1, nodes=(NodeFault(node=victim, kind="crash"),)
            ),
        )
        attempts = FAST_RETRY.attempts
        assert reply["type"] == "resp" and reply["hit_index"] >= 2
        # Every attempt was refused at the seat, before the victim's
        # request count, registry or inflight slot moved ...
        assert injector.refused_calls == attempts
        assert untouched
        # ... and the walk went round it.
        assert (ingress.rpc_retries, ingress.failovers) == (attempts - 1, 1)
        assert ingress.rpc_timeouts == 0

    def test_certain_drop_is_a_retried_timeout(self, seeded_trace):
        reply, untouched, ingress, injector = self.one_get(
            seeded_trace,
            lambda victim: FaultPlan(
                seed=1,
                links=(LinkRule(ops=("fwd",), dest=victim, drop_rate=1.0),),
            ),
        )
        attempts = FAST_RETRY.attempts
        assert reply["type"] == "resp"
        assert injector.drops == attempts and untouched
        assert ingress.rpc_timeouts == attempts
        assert (ingress.rpc_retries, ingress.failovers) == (attempts - 1, 1)

    def test_inv_hand_over_meets_the_seat(self, seeded_trace):
        """A broadcast relayed in memory skips the node whose hand-over
        the plan drops, and reaches every other one."""
        _, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        targets = sorted(arch.cache_nodes)
        victim = targets[1]  # not the entry, which gets the one frame
        plan = FaultPlan(
            seed=1, links=(LinkRule(ops=("inv",), dest=victim, drop_rate=1.0),)
        )

        async def scenario():
            injector = FaultInjector(plan)
            cluster = Cluster.build(
                arch,
                catalog,
                "coordinated",
                config=CONFIG,
                transport=FaultyTransport(InProcessTransport(), injector),
            )
            await cluster.start()
            await cluster.invalidate(0)
            counted = {
                n: cluster.nodes[n].scheme.protocol_stats.invalidations
                for n in targets
            }
            skips = cluster.invalidate_skips
            await cluster.stop()
            return injector, counted, skips

        injector, counted, skips = asyncio.run(scenario())
        assert (injector.calls, injector.drops) == (len(targets), 1)
        assert skips == 1
        assert counted == {n: int(n != victim) for n in targets}

    def test_duplicate_is_tallied_and_moves_nothing(self, seeded_trace):
        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        doubled = FaultPlan(
            seed=1, links=(LinkRule(ops=("fwd",), duplicate_rate=1.0),)
        )
        report, merged, injected = replay_under_faults(
            arch, catalog, "coordinated", trace, doubled
        )
        clean, clean_merged, clean_injected = replay_under_faults(
            arch, catalog, "coordinated", trace, FaultPlan.empty()
        )
        # Every in-memory fwd hop drew a duplicate (one call per hop,
        # beyond the clients' get frames) ...
        assert injected["calls"] == clean_injected["calls"]
        assert injected["duplicates"] == injected["calls"] - len(trace) > 0
        # ... and not one of them moved a counter or a cache.
        assert merged.snapshot() == clean_merged.snapshot()
        assert report.summary == clean.summary

    def test_fault_free_calls_equal_the_framed_hops(self, seeded_trace):
        """One injector call per hop: as many as the frames the same
        trace sends when every hop is a frame."""
        trace, catalog = seeded_trace
        arch = build_architecture("hierarchical", WORKLOAD, seed=2)
        updates = generate_update_events(
            num_objects=WORKLOAD.num_objects,
            duration=trace[len(trace) - 1].time,
            update_rate=0.5,
            seed=9,
        )

        in_memory, _, injected = replay_under_faults(
            arch, catalog, "coordinated", trace, FaultPlan.empty(), updates
        )
        framing = FaultInjector(FaultPlan.empty())
        framed = framed_replay(
            arch, catalog, "coordinated", trace,
            FaultyTransport(InProcessTransport(), framing), CONFIG, updates,
        )
        assert in_memory.summary == framed.summary
        assert in_memory.updates_applied == len(updates) > 0
        assert injected["calls"] == framing.calls > len(trace) + len(updates)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            attempts=5,
            backoff_base=0.01,
            backoff_multiplier=2.0,
            backoff_max=0.05,
            jitter=0.0,
        )
        delays = [policy.delay(k) for k in range(5)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_jitter_only_shrinks(self):
        policy = RetryPolicy(backoff_base=0.01, jitter=0.5)
        rng = random.Random(3)
        for attempt in range(4):
            raw = policy.delay(attempt)
            jittered = policy.delay(attempt, rng)
            assert raw * 0.5 <= jittered <= raw

    def test_seeded_jitter_is_reproducible(self):
        policy = RetryPolicy()
        a = [policy.delay(k, random.Random(11)) for k in range(3)]
        b = [policy.delay(k, random.Random(11)) for k in range(3)]
        assert a == b

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestCircuitBreaker:
    def test_trips_after_threshold_and_recovers(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_calls=3)
        assert breaker.allow()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # second consecutive failure trips
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1
        # Cooldown: rejected without touching the wire.
        assert [breaker.allow() for _ in range(3)] == [False, False, False]
        # Then one half-open probe is admitted; success closes.
        assert breaker.allow()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_calls=1)
        assert breaker.record_failure()
        assert not breaker.allow()
        assert breaker.allow()  # the probe
        assert breaker.record_failure()  # probe failed: trips again
        assert breaker.trips == 2
        assert breaker.state == CircuitBreaker.OPEN


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=3,
            links=(LinkRule(ops=("fwd",), drop_rate=0.1, dest=4),),
            nodes=(NodeFault(node=2, kind="crash", at_time=10.0),),
        )
        path = tmp_path / "plan.json"
        plan.to_json_file(path)
        assert FaultPlan.from_json_file(path) == plan

    def test_example_plan_parses(self):
        plan = FaultPlan.from_json_file("examples/fault_plan.json")
        assert not plan.is_empty
        assert any(f.kind == "crash" for f in plan.nodes)
        assert "fault plan" in plan.describe()

    def test_link_rule_scoping(self):
        rule = LinkRule(ops=("fwd",), dest=4, drop_rate=0.5)
        assert rule.matches("fwd", 4)
        assert not rule.matches("get", 4)
        assert not rule.matches("fwd", 5)
        everywhere = LinkRule(drop_rate=0.5)
        assert everywhere.matches("inv", None)

    def test_node_fault_windows(self):
        fault = NodeFault(node=1, at_time=10.0, until_time=20.0)
        assert not fault.active(clock=5.0, calls=0)
        assert fault.active(clock=10.0, calls=0)
        assert not fault.active(clock=20.0, calls=0)
        by_calls = NodeFault(node=1, at_call=3, until_call=6)
        assert not by_calls.active(clock=0.0, calls=2)
        assert by_calls.active(clock=0.0, calls=3)
        assert not by_calls.active(clock=0.0, calls=6)

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            LinkRule(drop_rate=1.5)
        with pytest.raises(ValueError):
            NodeFault(node=1, kind="explode")
        with pytest.raises(ValueError):
            NodeFault(node=1, kind="slow", delay_seconds=0.0)


class TestFaultyTransport:
    """Per-fault behavior over a trivial echo node."""

    def drive(self, plan, messages):
        async def scenario():
            injector = FaultInjector(plan)
            transport = FaultyTransport(InProcessTransport(), injector)

            async def echo(message):
                return {"type": "pong", "echo": message.get("n")}

            address = await transport.start_node(1, echo)
            results = []
            for message in messages:
                try:
                    results.append(await transport.call(address, message))
                except Exception as error:  # noqa: BLE001 - recorded below
                    results.append(type(error).__name__)
            await transport.close()
            return results, injector.summary()

        return asyncio.run(scenario())

    def test_certain_drop_times_out(self):
        plan = FaultPlan(seed=1, links=(LinkRule(drop_rate=1.0),))
        results, summary = self.drive(plan, [{"type": "ping", "n": 1}])
        assert results == [CallTimeout.__name__]
        assert summary["drops"] == 1

    def test_certain_corruption_is_rejected(self):
        plan = FaultPlan(seed=1, links=(LinkRule(corrupt_rate=1.0),))
        results, _ = self.drive(plan, [{"type": "ping", "n": 1}])
        assert results == [FrameCorruption.__name__]

    def test_duplicate_first_reply_wins(self):
        plan = FaultPlan(seed=1, links=(LinkRule(duplicate_rate=1.0),))
        results, summary = self.drive(plan, [{"type": "ping", "n": 7}])
        assert results == [{"type": "pong", "echo": 7}]
        assert summary["duplicates"] == 1

    def test_crash_window_refuses_then_recovers(self):
        # The injector's call counter is 1-based (incremented on observe),
        # so [at_call=3, until_call=4) covers exactly the third call.
        plan = FaultPlan(
            seed=1, nodes=(NodeFault(node=1, at_call=3, until_call=4),)
        )
        messages = [{"type": "ping", "n": k} for k in range(4)]
        results, summary = self.drive(plan, messages)
        assert results[0] == {"type": "pong", "echo": 0}
        assert results[1] == {"type": "pong", "echo": 1}
        assert results[2] == NodeUnreachable.__name__
        assert results[3] == {"type": "pong", "echo": 3}
        assert summary["refused_calls"] == 1
