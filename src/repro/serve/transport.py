"""Pluggable node-to-node transports for the live cluster.

A :class:`Transport` hosts node servers and carries request/reply frames
between them.  Two implementations:

* :class:`InProcessTransport` -- every node lives in the calling event
  loop; ``call`` runs the destination handler directly, but still pushes
  each message through the real frame codec, so the serialization path
  is identical to the wire.  Deterministic (no sockets, no scheduling
  races under sequential drivers), which is what the simulator-vs-
  cluster differential oracle runs on.
* :class:`TCPTransport` -- every node listens on its own TCP socket and
  frames flow over loopback or a real network.  Connections are pooled
  per destination; a pooled connection is only ever used by one in-
  flight call at a time, so concurrent requests never interleave frames.

Handlers are ``async (dict) -> dict``.  A handler exception is converted
into an ``error`` frame by the hosting side and surfaces at the caller
as :class:`~repro.serve.protocol.RemoteProtocolError` -- identically on
both transports and on :func:`direct_call`, the frame-free call a shard
worker makes between two nodes it hosts itself.
"""

from __future__ import annotations

import abc
import asyncio
import contextlib
import random
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from repro.serve.protocol import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    CallTimeout,
    NodeUnreachable,
    ProtocolError,
    decode_payload,
    encode_frame,
    error_message,
    raise_if_error,
    read_message,
    write_message,
)

Handler = Callable[[dict], Awaitable[dict]]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with (seeded) jitter for retryable RPC failures.

    ``attempts`` bounds the *total* number of tries; the delay before try
    ``k+1`` is ``min(backoff_max, backoff_base * backoff_multiplier**k)``
    shrunk by up to ``jitter`` (a fraction in ``[0, 1]``) drawn from the
    caller's RNG -- seeded RNGs make the whole schedule reproducible,
    which is what lets the chaos suite assert identical retry counters
    across runs.
    """

    attempts: int = 3
    backoff_base: float = 0.01
    backoff_multiplier: float = 2.0
    backoff_max: float = 0.25
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = min(
            self.backoff_max,
            self.backoff_base * self.backoff_multiplier**attempt,
        )
        if self.jitter <= 0 or rng is None:
            return raw
        return raw * (1.0 - self.jitter * rng.random())


class CircuitBreaker:
    """A count-based per-upstream circuit breaker.

    Counts *logical* call failures (retries exhausted), not individual
    attempts.  After ``failure_threshold`` consecutive failures the
    breaker opens and the next ``cooldown_calls`` calls are rejected
    without touching the wire; then one half-open probe is admitted --
    success closes the breaker, failure re-opens it.  Deliberately
    count-based rather than clock-based so a seeded sequential replay
    trips and recovers identically on every run.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(
        self, failure_threshold: int = 3, cooldown_calls: int = 8
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown_calls < 1:
            raise ValueError("cooldown_calls must be at least 1")
        self.failure_threshold = failure_threshold
        self.cooldown_calls = cooldown_calls
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self._rejections_left = 0

    def allow(self) -> bool:
        """Whether the next call may go out (may admit a half-open probe)."""
        if self.state == self.OPEN:
            if self._rejections_left > 0:
                self._rejections_left -= 1
                return False
            self.state = self.HALF_OPEN
        return True

    def record_success(self) -> None:
        self.state = self.CLOSED
        self.consecutive_failures = 0

    def record_failure(self) -> bool:
        """Record one exhausted call; returns True when the breaker trips."""
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or (
            self.state == self.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.state = self.OPEN
            self._rejections_left = self.cooldown_calls
            self.trips += 1
            return True
        return False


class Transport(abc.ABC):
    """Hosts node servers and carries framed calls between them."""

    @abc.abstractmethod
    async def start_node(self, node_id: int, handler: Handler):
        """Start serving one node; returns its published address."""

    @abc.abstractmethod
    async def call(self, address, message: dict) -> dict:
        """Send one message to an address and await the reply.

        Raises :class:`ProtocolError` on framing violations and
        :class:`~repro.serve.protocol.RemoteProtocolError` when the peer
        answers with an ``error`` frame.
        """

    @abc.abstractmethod
    async def close(self) -> None:
        """Stop all node servers and drop any pooled connections."""


async def _dispatch(handler: Handler, message: dict) -> dict:
    """Run a handler, converting failures into ``error`` frames."""
    try:
        return await handler(message)
    except Exception as error:  # noqa: BLE001 - the frame carries the type
        return error_message(error)


async def direct_call(handler: Handler, message: dict) -> dict:
    """One call to a handler of this process, with no frame in between.

    Error parity: the hosting side (:func:`_dispatch`) and the calling
    side (:func:`~repro.serve.protocol.raise_if_error`) are the ones
    every transport uses, so a handler exception is the same
    non-retryable ``RemoteProtocolError`` and a ``busy`` reply the same
    retryable ``NodeBusy`` a framed call raises.  Value isolation, which
    the codec's copy gave for free, is a contract here: ``message``
    shares no list or dict the caller will mutate or put into another
    frame, the handler never reads its reply again once it has returned
    it, and both hold only values the codec maps to themselves
    (``TestWireCleanliness`` in ``tests/test_scheme_conformance.py``).
    """
    return raise_if_error(await _dispatch(handler, message))


class InProcessTransport(Transport):
    """Deterministic single-process transport used by tests and examples.

    ``call_timeout`` bounds one dispatch; it is meant for single-hop
    handlers (a timeout cancels the handler mid-flight, which for a
    nested walk -- or an ``inv`` entry frame, whose dispatch spans the
    whole relay -- would abandon in-flight nested calls), so cluster
    runs leave it ``None`` and let injected faults model lost frames
    instead.
    """

    def __init__(self, call_timeout: Optional[float] = None) -> None:
        self._handlers: Dict[int, Handler] = {}
        self.call_timeout = call_timeout

    async def start_node(self, node_id: int, handler: Handler) -> int:
        if node_id in self._handlers:
            raise ValueError(f"node {node_id} already started")
        self._handlers[node_id] = handler
        return node_id

    async def call(self, address: int, message: dict) -> dict:
        handler = self._handlers.get(address)
        if handler is None:
            raise NodeUnreachable(f"no node at in-process address {address!r}")
        # Round-trip through the real codec so in-process runs exercise
        # exactly the bytes the TCP transport would put on the wire.
        request = decode_payload(encode_frame(message)[HEADER_BYTES:])
        if self.call_timeout is None:
            reply = await _dispatch(handler, request)
        else:
            try:
                reply = await asyncio.wait_for(
                    _dispatch(handler, request), timeout=self.call_timeout
                )
            except asyncio.TimeoutError:
                raise CallTimeout(
                    f"in-process call to node {address} exceeded "
                    f"{self.call_timeout}s"
                ) from None
        return raise_if_error(
            decode_payload(encode_frame(reply)[HEADER_BYTES:])
        )

    async def close(self) -> None:
        self._handlers.clear()


class TCPTransport(Transport):
    """One listening socket per node; framed request/reply over TCP."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        max_frame_bytes: int = MAX_FRAME_BYTES,
        call_timeout: Optional[float] = None,
        drain_timeout: float = 5.0,
        max_connections_per_address: Optional[int] = None,
    ) -> None:
        """``call_timeout`` is the per-RPC deadline (``None`` = wait forever;
        for a ``get`` it spans the walk above the callee, for an ``inv``
        that lists ``nodes`` the whole relay below it);
        ``drain_timeout`` bounds how long :meth:`close` waits for server-side
        connection loops to exit; ``max_connections_per_address`` caps how
        many connections this transport holds toward one destination
        (``None`` = one per concurrent call) -- excess callers queue for a
        slot, bounding the process's file descriptors under heavy open-loop
        load."""
        if call_timeout is not None and call_timeout <= 0:
            raise ValueError("call_timeout must be positive")
        if drain_timeout <= 0:
            raise ValueError("drain_timeout must be positive")
        if (
            max_connections_per_address is not None
            and max_connections_per_address < 1
        ):
            raise ValueError("max_connections_per_address must be at least 1")
        self.host = host
        self.max_frame_bytes = max_frame_bytes
        self.call_timeout = call_timeout
        self.drain_timeout = drain_timeout
        self.max_connections_per_address = max_connections_per_address
        self._servers: List[asyncio.base_events.Server] = []
        self._pools: Dict[
            Tuple[str, int],
            List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]],
        ] = {}
        self._conn_slots: Dict[Tuple[str, int], asyncio.Semaphore] = {}
        self._conn_tasks: set = set()
        self._conn_writers: set = set()
        self._closed = False

    async def start_node(
        self, node_id: int, handler: Handler, port: int = 0
    ) -> Tuple[str, int]:
        """Listen for this node; ``port=0`` lets the OS assign one."""
        server = await asyncio.start_server(
            lambda r, w: self._serve_connection(handler, r, w),
            host=self.host,
            port=port,
        )
        self._servers.append(server)
        bound = server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def _serve_connection(
        self,
        handler: Handler,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Per-connection server loop: read frame, dispatch, reply.

        A framing violation from the peer is answered with one ``error``
        frame and the connection is closed -- the stream can no longer
        be trusted past a corrupt frame.
        """
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            while True:
                try:
                    message = await read_message(reader, self.max_frame_bytes)
                except ProtocolError as error:
                    with contextlib.suppress(Exception):
                        await write_message(writer, error_message(error))
                    return
                if message is None:
                    return  # clean EOF at a frame boundary
                reply = await _dispatch(handler, message)
                await write_message(writer, reply)
        except ConnectionError:
            pass
        finally:
            self._conn_writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _connection(
        self, address: Tuple[str, int]
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        pool = self._pools.get(address)
        if pool:
            return pool.pop()
        host, port = address
        try:
            return await asyncio.open_connection(host, port)
        except OSError as error:
            raise NodeUnreachable(
                f"cannot connect to {host}:{port}: {error!r}"
            ) from error

    async def _round_trip(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        message: dict,
    ) -> Optional[dict]:
        await write_message(writer, message)
        return await read_message(reader, self.max_frame_bytes)

    async def call(self, address, message: dict) -> dict:
        address = (address[0], address[1])
        if self.max_connections_per_address is None:
            return await self._call_on_connection(address, message)
        slot = self._conn_slots.get(address)
        if slot is None:
            slot = asyncio.Semaphore(self.max_connections_per_address)
            self._conn_slots[address] = slot
        async with slot:
            return await self._call_on_connection(address, message)

    async def _call_on_connection(
        self, address: Tuple[str, int], message: dict
    ) -> dict:
        reader, writer = await self._connection(address)
        reusable = False
        try:
            if self.call_timeout is None:
                reply = await self._round_trip(reader, writer, message)
            else:
                reply = await asyncio.wait_for(
                    self._round_trip(reader, writer, message),
                    timeout=self.call_timeout,
                )
            if reply is None:
                raise ProtocolError(
                    f"peer {address[0]}:{address[1]} closed the connection "
                    "before replying"
                )
            reusable = not self._closed
        except asyncio.TimeoutError:
            raise CallTimeout(
                f"call to {address[0]}:{address[1]} exceeded "
                f"{self.call_timeout}s"
            ) from None
        except ConnectionError as error:
            raise ProtocolError(
                f"connection to {address[0]}:{address[1]} failed "
                f"mid-call: {error!r}"
            ) from error
        finally:
            # Only a connection whose call ran to a complete reply goes
            # back to the pool; after a deadline, a cancellation or any
            # other failure it may still carry a late reply, so it is
            # closed -- never left open and unowned.
            if reusable:
                self._pools.setdefault(address, []).append((reader, writer))
            else:
                writer.close()
        return raise_if_error(reply)

    async def close(self) -> None:
        self._closed = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            with contextlib.suppress(Exception):
                await server.wait_closed()
        self._servers.clear()
        for pool in self._pools.values():
            for _, writer in pool:
                writer.close()
        self._pools.clear()
        # Drain server-side connection loops: closing their writers feeds
        # EOF into the pending reads, so every loop exits cleanly before
        # the event loop shuts down (no dangling tasks to cancel).
        for writer in list(self._conn_writers):
            writer.close()
        tasks = [t for t in self._conn_tasks if not t.done()]
        if tasks:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(*tasks, return_exceptions=True),
                    timeout=self.drain_timeout,
                )
        # Anything still running past the drain deadline is a handler
        # stuck mid-dispatch (e.g. asleep); cancel it so close() never
        # leaves dangling tasks behind in the event loop.
        stragglers = [t for t in self._conn_tasks if not t.done()]
        for task in stragglers:
            task.cancel()
        if stragglers:
            await asyncio.gather(*stragglers, return_exceptions=True)
        self._conn_slots.clear()
