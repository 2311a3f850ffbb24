"""Live serving of the coordinated cascaded-cache protocol.

Where :mod:`repro.sim` *replays* a trace against one in-process scheme
object, :mod:`repro.serve` *runs* the same schemes as a cluster of
asyncio cache-node servers speaking the paper's protocol over real
transports -- piggybacked upstream reports, a shipped placement
decision, and the downstream cost accumulator, all as wire frames.

The layer is built so that serving can never drift from the simulator:
nodes call the very same per-node protocol steps
(:meth:`~repro.schemes.base.CachingScheme.lookup_step` /
``decide_step`` / ``deliver_step``) the simulator's
``process_request`` is built from, and a differential oracle
(``tests/test_serve_cluster.py``) pins an in-process replay to the
simulator's metrics bit-for-bit.

See ``docs/serving.md`` for the wire protocol and deployment notes.
"""

from repro.serve.channel import (
    BROKER_NODE_ID,
    ChannelBroker,
    ChannelSubscriber,
    merge_channel_stats,
)
from repro.serve.cluster import Cluster
from repro.serve.loadgen import ClusterClient, LoadGenerator, LoadReport
from repro.serve.metrics_http import MetricsServer
from repro.serve.node import CacheNode, ResilienceConfig
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    RETRYABLE_ERRORS,
    CallTimeout,
    FrameCorruption,
    FrameDecoder,
    NodeBusy,
    NodeUnreachable,
    ProtocolError,
    RemoteProtocolError,
    decode_payload,
    encode_frame,
    is_retryable,
)
from repro.serve.shard import (
    ShardedCluster,
    ShardPlan,
    ShardSpec,
    fetch_stats,
)
from repro.serve.tracing import NodeTracer, TracingConfig, shard_trace_path
from repro.serve.transport import (
    CircuitBreaker,
    InProcessTransport,
    RetryPolicy,
    TCPTransport,
    Transport,
)

__all__ = [
    "BROKER_NODE_ID",
    "CacheNode",
    "CallTimeout",
    "ChannelBroker",
    "ChannelSubscriber",
    "CircuitBreaker",
    "Cluster",
    "ClusterClient",
    "FrameCorruption",
    "FrameDecoder",
    "InProcessTransport",
    "LoadGenerator",
    "LoadReport",
    "MAX_FRAME_BYTES",
    "MetricsServer",
    "NodeBusy",
    "NodeTracer",
    "NodeUnreachable",
    "ProtocolError",
    "RETRYABLE_ERRORS",
    "RemoteProtocolError",
    "ResilienceConfig",
    "RetryPolicy",
    "ShardPlan",
    "ShardSpec",
    "ShardedCluster",
    "TCPTransport",
    "TracingConfig",
    "Transport",
    "decode_payload",
    "encode_frame",
    "fetch_stats",
    "is_retryable",
    "merge_channel_stats",
    "shard_trace_path",
]
