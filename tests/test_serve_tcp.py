"""TCP loopback smoke tests for the live cluster.

Where ``test_serve_cluster.py`` pins the in-process transport to the
simulator bit-for-bit, these tests run real sockets end to end: a
cluster served over loopback TCP must agree with the simulator on the
hit/miss totals, survive concurrent closed-loop load, and expose its
live counters over the per-node ``/metrics`` HTTP endpoints.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.costs.model import LatencyCostModel
from repro.experiments.presets import build_architecture
from repro.serve import Cluster, LoadGenerator, TCPTransport
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import build_scheme
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig

WORKLOAD = WorkloadConfig(
    num_objects=80,
    num_servers=3,
    num_clients=10,
    num_requests=400,
    zipf_theta=0.8,
    seed=7,
)
CONFIG = SimulationConfig(relative_cache_size=0.01)


@pytest.fixture(scope="module")
def scenario():
    generator = BoeingLikeTraceGenerator(WORKLOAD)
    trace = generator.generate()
    catalog = generator.catalog
    arch = build_architecture("hierarchical", WORKLOAD, seed=4)
    return arch, trace, catalog


def run(coro, timeout=60.0):
    async def bounded():
        return await asyncio.wait_for(coro, timeout=timeout)

    return asyncio.run(bounded())


async def http_get(host: str, port: int, target: str) -> tuple[int, str]:
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError:
        # Retry once: under load the listener's accept queue can
        # transiently refuse on some CI kernels.
        await asyncio.sleep(0.05)
        reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"GET {target} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("latin-1")
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.decode("utf-8").partition("\r\n\r\n")
    status = int(head.split()[1])
    return status, body


class TestTCPLoopback:
    def test_sequential_matches_simulator_totals(self, scenario):
        arch, trace, catalog = scenario
        cost_model = LatencyCostModel(arch.network, catalog.mean_size)
        capacity = CONFIG.capacity_bytes(catalog.total_bytes)
        dcache = CONFIG.dcache_entries(catalog.total_bytes, catalog.mean_size)
        scheme = build_scheme("coordinated", cost_model, capacity, dcache)
        sim = SimulationEngine(
            arch, cost_model, scheme, warmup_fraction=CONFIG.warmup_fraction
        ).run(trace)

        async def live():
            cluster = Cluster.build(
                arch,
                catalog,
                "coordinated",
                config=CONFIG,
                transport=TCPTransport(),
            )
            await cluster.start()
            loadgen = LoadGenerator(
                cluster, trace, warmup_fraction=CONFIG.warmup_fraction
            )
            report = await loadgen.run(mode="sequential")
            await cluster.stop()
            return report

        report = run(live())
        # Hit/miss totals over real sockets must equal the simulator's.
        assert report.requests_measured == sim.requests_measured
        assert report.summary.hit_ratio == sim.summary.hit_ratio
        assert report.summary.byte_hit_ratio == sim.summary.byte_hit_ratio
        assert report.summary.mean_hops == sim.summary.mean_hops

    def test_closed_loop_concurrency_completes(self, scenario):
        arch, trace, catalog = scenario

        async def live():
            cluster = Cluster.build(
                arch, catalog, "lru", config=CONFIG, transport=TCPTransport()
            )
            await cluster.start()
            loadgen = LoadGenerator(cluster, trace)
            report = await loadgen.run(mode="closed", concurrency=6)
            await cluster.stop()
            return report

        report = run(live())
        warmup_end, total = trace.split_warmup(0.5)
        assert report.requests_total == total
        assert report.requests_measured == total - warmup_end
        assert report.errors == 0
        assert report.wall_latency_mean > 0

    def test_metrics_endpoints_serve_live_counters(self, scenario):
        arch, trace, catalog = scenario

        async def live():
            cluster = Cluster.build(
                arch, catalog, "lru", config=CONFIG, transport=TCPTransport()
            )
            await cluster.start()
            endpoints = await cluster.enable_metrics()
            loadgen = LoadGenerator(cluster, trace)
            await loadgen.run(mode="sequential")

            ingress = arch.client_nodes[trace[0].client_id]
            host, port = endpoints[ingress]
            status, body = await http_get(host, port, "/metrics")
            health = await http_get(host, port, "/healthz")
            missing = await http_get(host, port, "/nope")
            await cluster.stop()
            return status, body, health, missing

        status, body, (health_status, health_body), (missing_status, _) = run(
            live()
        )
        assert status == 200
        assert "repro_cache_misses_total" in body
        assert "repro_node_requests_handled_total" in body
        # The ingress node walked at least one request by now.
        for line in body.splitlines():
            if line.startswith("repro_node_requests_handled_total"):
                assert int(line.rsplit(" ", 1)[1]) > 0
        assert health_status == 200
        assert json.loads(health_body) == {"live": True, "ready": True}
        assert missing_status == 404


class TestTransportPool:
    """Connection-pool behavior under concurrency, timeouts, and close().

    These drive a bare :class:`TCPTransport` with purpose-built handlers
    (no cluster): the pool must never hand a caller a connection that
    may still carry another call's late reply, must bound per-address
    connections when asked, and must never hang ``close()`` on an
    in-flight dispatch.
    """

    def test_concurrent_callers_all_complete_and_pool_reuses(self):
        from repro.serve.transport import TCPTransport

        async def scenario():
            transport = TCPTransport()

            async def handler(message):
                await asyncio.sleep(0.01)
                return {"type": "pong", "echo": message["n"]}

            address = await transport.start_node(0, handler)
            first = await asyncio.gather(
                *(
                    transport.call(address, {"type": "ping", "n": i})
                    for i in range(16)
                )
            )
            pooled = len(transport._pools.get(tuple(address), []))
            # A second concurrent round must reuse the pooled
            # connections rather than opening a fresh set.
            second = await asyncio.gather(
                *(
                    transport.call(address, {"type": "ping", "n": 100 + i})
                    for i in range(16)
                )
            )
            pooled_after = len(transport._pools.get(tuple(address), []))
            await transport.close()
            return first, second, pooled, pooled_after

        first, second, pooled, pooled_after = run(scenario())
        assert sorted(r["echo"] for r in first) == list(range(16))
        assert sorted(r["echo"] for r in second) == [
            100 + i for i in range(16)
        ]
        assert 1 <= pooled <= 16
        assert pooled_after <= pooled

    def test_timed_out_connection_is_never_reused(self):
        """A late reply on a timed-out connection must never reach the
        next caller: the tainted connection is discarded, not pooled."""
        from repro.serve.protocol import CallTimeout
        from repro.serve.transport import TCPTransport

        async def scenario():
            transport = TCPTransport(call_timeout=0.15)
            release = asyncio.Event()

            async def handler(message):
                if message["n"] == 1:
                    await release.wait()  # outlive the caller's deadline
                return {"type": "pong", "echo": message["n"]}

            address = await transport.start_node(0, handler)
            with pytest.raises(CallTimeout):
                await transport.call(address, {"type": "ping", "n": 1})
            assert not transport._pools.get(tuple(address))
            # Unblock the slow handler: its late reply now sits on the
            # dead connection.  The next call must open a fresh one and
            # see its own echo, not the stale reply.
            release.set()
            reply = await transport.call(address, {"type": "ping", "n": 2})
            for _ in range(5):  # a few more round trips stay coherent
                again = await transport.call(
                    address, {"type": "ping", "n": 3}
                )
                assert again["echo"] == 3
            await transport.close()
            return reply

        assert run(scenario())["echo"] == 2

    def test_close_with_inflight_call_does_not_hang(self):
        from repro.serve.protocol import ProtocolError
        from repro.serve.transport import TCPTransport

        async def scenario():
            transport = TCPTransport(drain_timeout=0.3)
            never = asyncio.Event()

            async def handler(message):
                await never.wait()
                return {"type": "pong"}

            address = await transport.start_node(0, handler)
            call = asyncio.ensure_future(
                transport.call(address, {"type": "ping"})
            )
            await asyncio.sleep(0.05)  # let the call reach the handler
            started = asyncio.get_running_loop().time()
            await transport.close()
            elapsed = asyncio.get_running_loop().time() - started
            outcome = await asyncio.gather(call, return_exceptions=True)
            return elapsed, outcome[0]

        elapsed, outcome = run(scenario())
        # close() waited for the drain window, cancelled the stuck
        # dispatch, and returned -- it must not wait forever.
        assert elapsed < 5.0
        assert isinstance(outcome, (ProtocolError, ConnectionError))

    def test_cancelled_call_closes_its_connection(self):
        """A call that ends in cancellation took its connection out of
        the pool; it must close it, not leave it open and unowned."""
        from repro.serve.transport import TCPTransport

        async def scenario():
            transport = TCPTransport(drain_timeout=0.3)
            never = asyncio.Event()

            async def silent(message):
                await never.wait()
                return {"type": "pong"}

            address = await transport.start_node(0, silent)
            opened = []
            connect = transport._connection

            async def recording_connect(target):
                connection = await connect(target)
                opened.append(connection)
                return connection

            transport._connection = recording_connect
            call = asyncio.ensure_future(
                transport.call(address, {"type": "ping"})
            )
            await asyncio.sleep(0.05)  # let the call block on the peer
            call.cancel()
            outcome = await asyncio.gather(call, return_exceptions=True)
            (_, writer), = opened
            closing = writer.is_closing()
            pooled = transport._pools.get(tuple(address), [])
            await transport.close()
            return outcome[0], closing, pooled

        outcome, closing, pooled = run(scenario())
        assert isinstance(outcome, asyncio.CancelledError)
        assert closing
        assert pooled == []

    def test_connection_cap_bounds_server_side_concurrency(self):
        from repro.serve.transport import TCPTransport

        async def scenario():
            transport = TCPTransport(max_connections_per_address=2)
            inflight = 0
            peak = 0

            async def handler(message):
                nonlocal inflight, peak
                inflight += 1
                peak = max(peak, inflight)
                await asyncio.sleep(0.02)
                inflight -= 1
                return {"type": "pong", "echo": message["n"]}

            address = await transport.start_node(0, handler)
            replies = await asyncio.gather(
                *(
                    transport.call(address, {"type": "ping", "n": i})
                    for i in range(12)
                )
            )
            await transport.close()
            return replies, peak

        replies, peak = run(scenario())
        # All twelve calls completed, but never more than the two
        # allowed connections' worth of dispatches ran at once.
        assert sorted(r["echo"] for r in replies) == list(range(12))
        assert peak <= 2

    def test_connection_cap_validation(self):
        from repro.serve.transport import TCPTransport

        with pytest.raises(ValueError):
            TCPTransport(max_connections_per_address=0)
