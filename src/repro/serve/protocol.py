"""Wire protocol of the live cascaded-cache cluster.

Every message is one *frame*: a 4-byte big-endian unsigned length
followed by a UTF-8 JSON object with a string ``type`` field.  The frame
kinds mirror the paper's online protocol (section 2.3):

* ``get``   -- a client request, sent to the client's attachment node.
* ``fwd``   -- the request walking upstream: carries the delivery path,
  the walker's position, and the piggybacked per-node reports
  (the coordinated scheme's ``(f_i, m_i, l_i)`` records).
* ``resp``  -- the reply unwinding downstream: the serving position, the
  shipped placement decision (with the coordinated cost accumulator,
  advanced hop by hop), and the insertion/eviction tally.
* ``inv``/``inv-ok``     -- push invalidation of one object.  A plain
  ``inv`` is for its receiver alone.  With ``nodes`` -- the sorted,
  distinct ids of the cache nodes still to be invalidated, receiver
  included -- the receiver also relays it: a plain ``inv`` to every
  listed node of its own process, one ``inv`` with the sub-list to the
  first listed node of every other process.  Its ``inv-ok`` then folds
  the whole subtree: ``removed`` (copies dropped), ``delivered`` (nodes
  whose handler ran) and ``skipped`` (ids a best-effort, single-attempt
  hand-over did not reach).  One broadcast is thus one frame per
  process, not one per node.
* ``sub``/``sub-ok``, ``pub``/``pub-ok``, ``event``/``event-ok``,
  ``catchup``/``catchup-ok``, ``chsync``/``chsync-ok``,
  ``chstats``/``chstats-ok`` -- the out-of-band invalidation channel
  (see :mod:`repro.serve.channel`): nodes subscribe to a broker, origins
  publish group stale events, the broker fans them out with per-group
  sequence numbers, and gap/drain recovery replays missed events.
* ``stats``/``stats-ok`` -- a node's live counter snapshot.
* ``ping``/``pong``      -- liveness probe.
* ``busy``  -- admission control: the node's inflight bound is hit and
  the request was shed *before* touching any cache state.  Surfaces at
  the caller as :class:`NodeBusy`, which is retryable -- backing off and
  trying again (or failing over past the overloaded hop) is always safe.
* ``error`` -- a structured protocol failure.

JSON floats round-trip exactly (shortest-repr encoding), which is what
lets an in-process replay of a trace through the cluster reproduce the
simulator's metrics bit-for-bit.

Framing is strict: zero-length frames, frames above
:data:`MAX_FRAME_BYTES`, truncated frames (peer death mid-message) and
payloads that are not JSON objects with a ``type`` all raise
:class:`ProtocolError` -- never a hang, never silent corruption.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import List, Optional

# Upper bound on one frame's payload.  Piggyback reports are a few tens
# of bytes per hop, so real frames sit around a kilobyte; the megabyte
# ceiling is purely a denial-of-service guard.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")
HEADER_BYTES = _LENGTH.size

MSG_GET = "get"
MSG_FWD = "fwd"
MSG_RESP = "resp"
MSG_INV = "inv"
MSG_INV_OK = "inv-ok"
MSG_SUB = "sub"
MSG_SUB_OK = "sub-ok"
MSG_PUB = "pub"
MSG_PUB_OK = "pub-ok"
MSG_EVENT = "event"
MSG_EVENT_OK = "event-ok"
MSG_CATCHUP = "catchup"
MSG_CATCHUP_OK = "catchup-ok"
MSG_CHSYNC = "chsync"
MSG_CHSYNC_OK = "chsync-ok"
MSG_CHSTATS = "chstats"
MSG_CHSTATS_OK = "chstats-ok"
MSG_STATS = "stats"
MSG_STATS_OK = "stats-ok"
MSG_PING = "ping"
MSG_PONG = "pong"
MSG_BUSY = "busy"
MSG_ERROR = "error"


class ProtocolError(Exception):
    """A framing or payload violation of the cluster protocol."""


class RemoteProtocolError(ProtocolError):
    """The peer answered with an ``error`` frame; carries its message."""


class CallTimeout(ProtocolError):
    """An RPC missed its deadline (reply lost, peer stalled, frame dropped)."""


class NodeUnreachable(ProtocolError):
    """The peer cannot be reached at all (dead node, refused connection)."""


class FrameCorruption(ProtocolError):
    """A frame arrived damaged and was rejected by the receiving side."""


class NodeBusy(ProtocolError):
    """The peer shed the request under admission control (``busy`` frame).

    Raised by the *calling* side when a reply is a ``busy`` frame.  The
    receiving node rejected the request before touching any cache state,
    so retrying (after backoff) or failing over past the overloaded hop
    is always safe.
    """


# Failures that a caller may safely retry or route around: the frame never
# produced a *trusted* reply (or, for ``busy``, the peer explicitly shed
# the request before mutating anything), so trying again (or another
# upstream) is the correct reaction.  A RemoteProtocolError is
# deliberately NOT here -- the peer was alive and answered; its handler
# failing is not transient.
RETRYABLE_ERRORS = (CallTimeout, NodeUnreachable, FrameCorruption, NodeBusy)


def is_retryable(error: BaseException) -> bool:
    """Whether a failed call may be retried / failed over."""
    return isinstance(error, RETRYABLE_ERRORS)


def encode_frame(message: dict) -> bytes:
    """Serialize one message to its length-prefixed wire form."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Parse and validate one frame payload."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed frame payload: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    if not isinstance(message.get("type"), str):
        raise ProtocolError("frame payload missing string 'type' field")
    return message


def check_length(length: int, max_frame_bytes: int = MAX_FRAME_BYTES) -> int:
    """Validate a decoded frame length before reading the payload."""
    if length == 0:
        raise ProtocolError("zero-length frame")
    if length > max_frame_bytes:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame_bytes}-byte limit"
        )
    return length


class FrameDecoder:
    """Incremental frame decoder for byte streams fed in arbitrary chunks.

    Used by the in-process transport and by tests that simulate partial
    reads; the asyncio path uses :func:`read_message` directly.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    @property
    def at_boundary(self) -> bool:
        """Whether the stream can end here without truncating a frame."""
        return not self._buffer

    def feed(self, data: bytes) -> List[dict]:
        """Consume a chunk; return every message it completes."""
        self._buffer.extend(data)
        messages: List[dict] = []
        while True:
            if len(self._buffer) < HEADER_BYTES:
                return messages
            (length,) = _LENGTH.unpack_from(self._buffer)
            check_length(length, self.max_frame_bytes)
            end = HEADER_BYTES + length
            if len(self._buffer) < end:
                return messages
            payload = bytes(self._buffer[HEADER_BYTES:end])
            del self._buffer[:end]
            messages.append(decode_payload(payload))

    def finish(self) -> None:
        """Assert the stream ended at a frame boundary."""
        if self._buffer:
            raise ProtocolError(
                f"stream ended mid-frame ({len(self._buffer)} bytes pending)"
            )


async def read_message(
    reader: asyncio.StreamReader, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Optional[dict]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-header ({len(error.partial)} of "
            f"{HEADER_BYTES} bytes)"
        ) from None
    (length,) = _LENGTH.unpack(header)
    check_length(length, max_frame_bytes)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError(
            f"connection closed mid-frame ({len(error.partial)} of "
            f"{length} bytes)"
        ) from None
    return decode_payload(payload)


async def write_message(writer: asyncio.StreamWriter, message: dict) -> None:
    """Write one frame and drain the transport buffer."""
    writer.write(encode_frame(message))
    await writer.drain()


def error_message(error: Exception) -> dict:
    """The ``error`` frame reporting a handler or protocol failure."""
    detail = str(error) or type(error).__name__
    return {"type": MSG_ERROR, "error": type(error).__name__, "detail": detail}


def raise_if_error(message: dict) -> dict:
    """Raise :class:`RemoteProtocolError` when the reply is an error frame.

    A ``busy`` frame -- the peer shedding the request under admission
    control -- surfaces as the retryable :class:`NodeBusy` instead.
    """
    kind = message.get("type")
    if kind == MSG_BUSY:
        raise NodeBusy(
            f"node {message.get('node')} shed the request "
            f"(inflight {message.get('inflight')})"
        )
    if kind == MSG_ERROR:
        raise RemoteProtocolError(
            f"{message.get('error', 'error')}: {message.get('detail', '')}"
        )
    return message
