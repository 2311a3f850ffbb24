"""Bench-local recorders wrapped around the program's public objects.

Nothing here changes what the program does: a recorder forwards every
call to the real object and keeps a copy or a timing on the side; a null
object answers instantly so the cost of what sits in front of it (the
load generator) can be measured alone.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from repro.schemes.base import RequestOutcome
from repro.serve.loadgen import ClusterClient
from repro.serve.protocol import MSG_RESP
from repro.serve.transport import Handler, Transport


class RecordingTransport(Transport):
    """Forwards to ``inner`` and keeps every request and reply frame.

    Handed to ``Cluster.build`` it sees the ingress frames *and* every
    node-to-node ``fwd`` hop, because the in-process cluster routes all
    of them through the one transport it was given.
    """

    def __init__(self, inner: Transport) -> None:
        self.inner = inner
        self.frames: List[dict] = []
        self.calls = 0

    async def start_node(self, node_id: int, handler: Handler):
        return await self.inner.start_node(node_id, handler)

    async def call(self, address, message: dict) -> dict:
        self.calls += 1
        self.frames.append(message)
        reply = await self.inner.call(address, message)
        self.frames.append(reply)
        return reply

    async def close(self) -> None:
        await self.inner.close()


class TimedClient(ClusterClient):
    """A ``ClusterClient`` that times each ``apply_update`` round."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.update_seconds: List[float] = []

    async def apply_update(self, event) -> int:
        started = time.perf_counter()
        removed = await super().apply_update(event)
        self.update_seconds.append(time.perf_counter() - started)
        return removed

    @property
    def inv_frames(self) -> int:
        return self._inv_frames

    @property
    def copies_invalidated(self) -> int:
        return self._copies_invalidated


class _NullTransport:
    """Answers every ``get`` with a canned ``resp``: no codec, no node."""

    async def call(self, address, message: dict) -> dict:
        return {
            "type": MSG_RESP,
            "hit_index": 0,
            "inserted": [],
            "evictions": 0,
        }


class NullCluster:
    """What ``LoadGenerator`` drives, with nothing behind it.

    Replaying a workload's requests against it prices the load generator
    itself -- request build, outcome rebuild, cost model, report fold --
    so that cost is subtracted from the serving figures, not guessed.
    """

    def __init__(self, architecture, cost_model) -> None:
        self.architecture = architecture
        self.cost_model = cost_model
        self.transport = _NullTransport()

    def ingress_address(self, client_id: int):
        return self.architecture.client_nodes[client_id]


class RecordingScheme:
    """Forwards to a real scheme and keeps every request outcome."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.outcomes: List[RequestOutcome] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def process_request(self, path, object_id, size, now):
        outcome = self._inner.process_request(path, object_id, size, now)
        self.outcomes.append(outcome)
        return outcome


class ReplayScheme:
    """Hands recorded outcomes back in order: a scheme that costs nothing.

    Driving the engine with it leaves only what is *not* scheme logic --
    trace iteration, routing, cost model, collector -- on the clock.
    """

    name = "replay"

    def __init__(self, outcomes: Sequence[RequestOutcome]) -> None:
        self._next = iter(outcomes).__next__

    def process_request(self, path, object_id, size, now):
        return self._next()
