"""Malformed ``fwd`` / ``get`` frames are a designed behaviour.

Beside ``test_serve_protocol_fuzz.py`` (which damages the *framing*):
here the frame is well-formed JSON whose fields are not what a scheme
step can read.  The contract, on every hop: the caller sees one
``RemoteProtocolError`` carrying a ``ProtocolError`` that names the
field, and no node's clock, request count, registry, protocol counters
or cache contents moved -- the frame is rejected before any state does.
The connection-level contract is unchanged: a handler error is an
``error`` frame, so a well-formed request afterwards is served normally.
"""

from __future__ import annotations

import asyncio
import copy

import pytest

from repro.experiments.presets import build_architecture
from repro.serve import Cluster, LoadGenerator
from repro.serve.protocol import (
    MSG_FWD,
    MSG_GET,
    MSG_RESP,
    RemoteProtocolError,
)
from repro.sim.config import SimulationConfig
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig

WORKLOAD = WorkloadConfig(
    num_objects=60,
    num_servers=3,
    num_clients=8,
    num_requests=120,
    zipf_theta=0.8,
    seed=3,
)
CONFIG = SimulationConfig(relative_cache_size=0.02, dcache_ratio=3.0)

NAN, INF = float("nan"), float("inf")
ROWS = [
    ("size", "x"),
    ("size", 0),
    ("size", -5),
    ("size", True),
    ("size", 1.5),
    ("time", "t"),
    ("time", NAN),
    ("time", INF),
    ("time", True),
    ("time", None),
    ("object_id", "7"),
    ("object_id", None),
    ("reports", "oops"),
    ("reports", [1]),
    ("reports", [{"n": 1}]),
    ("skipped", "x"),
    ("skipped", [99]),
    ("skipped", [-1]),
    ("skipped", [True]),
    ("trace", 3),
    ("trace", "t"),
]
# A ``get`` carries no ``reports``: the ingress node starts the list.
KINDS = [(MSG_FWD, row) for row in ROWS] + [
    (MSG_GET, row) for row in ROWS if row[0] != "reports"
]


@pytest.fixture(scope="module")
def scenario():
    generator = BoeingLikeTraceGenerator(WORKLOAD)
    trace = generator.generate()
    arch = build_architecture("hierarchical", WORKLOAD, seed=2)
    return arch, trace, generator.catalog


def state_of(cluster):
    """Everything a rejected frame must leave alone, node by node."""
    return {
        node_id: (
            node._clock,
            node.requests_handled,
            node.registry.snapshot(),
            copy.copy(vars(node.scheme.protocol_stats)),
            node.scheme.total_cached_bytes(),
        )
        for node_id, node in cluster.nodes.items()
    }


def frames_for(arch, record):
    path = list(arch.request_path(record.client_id, record.server_id))
    later = record.time + 1000.0
    get = {
        "type": MSG_GET,
        "client_id": record.client_id,
        "server_id": record.server_id,
        "object_id": record.object_id,
        "size": record.size,
        "time": later,
    }
    fwd = {
        "type": MSG_FWD,
        "path": path,
        "index": 0,
        "object_id": record.object_id,
        "size": record.size,
        "time": later,
        "reports": [],
        "skipped": [],
    }
    return path[0], {MSG_GET: get, MSG_FWD: fwd}


@pytest.mark.parametrize(
    "kind,field,value",
    [(kind, field, value) for kind, (field, value) in KINDS],
    ids=[f"{kind}-{field}-{value!r}" for kind, (field, value) in KINDS],
)
def test_malformed_field_is_rejected_before_any_state_moves(
    scenario, kind, field, value
):
    arch, trace, catalog = scenario

    async def run():
        cluster = Cluster.build(arch, catalog, "coordinated", config=CONFIG)
        await cluster.start()
        # Warm state: clocks set, registry entries and cached copies exist.
        await LoadGenerator(cluster, trace).run(mode="sequential")
        ingress, frames = frames_for(arch, trace[len(trace) - 1])
        before = state_of(cluster)
        call = cluster.transport.call
        with pytest.raises(RemoteProtocolError) as raised:
            await call(cluster.addresses[ingress], {**frames[kind], field: value})
        after = state_of(cluster)
        # The error was an ``error`` frame, not a closed stream: the next,
        # well-formed request on the same transport is served.
        reply = await call(cluster.addresses[ingress], frames[MSG_GET])
        await cluster.stop()
        return str(raised.value), before, after, reply

    text, before, after, reply = asyncio.run(run())
    assert text.startswith("ProtocolError") and field in text, text
    assert after == before
    assert reply["type"] == MSG_RESP


def test_the_check_runs_on_every_hop_not_only_at_ingress(scenario):
    """A frame damaged above the ingress node is refused by the hop that
    reads it, and that hop -- like every hop above it -- is untouched."""
    arch, trace, catalog = scenario

    async def run():
        cluster = Cluster.build(arch, catalog, "coordinated", config=CONFIG)
        await cluster.start()
        await LoadGenerator(cluster, trace).run(mode="sequential")
        _, frames = frames_for(arch, trace[len(trace) - 1])
        fwd = {**frames[MSG_FWD], "index": 1, "size": -5}
        before = state_of(cluster)
        with pytest.raises(RemoteProtocolError, match="size"):
            await cluster.transport.call(
                cluster.addresses[fwd["path"][1]], fwd
            )
        after = state_of(cluster)
        await cluster.stop()
        return before, after

    before, after = asyncio.run(run())
    assert after == before
