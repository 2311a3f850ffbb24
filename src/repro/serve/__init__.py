"""Live serving of the coordinated cascaded-cache protocol.

Where :mod:`repro.sim` *replays* a trace against one in-process scheme
object, :mod:`repro.serve` *runs* the same schemes as a cluster of
asyncio cache-node servers speaking the paper's protocol over real
transports -- piggybacked upstream reports, a shipped placement
decision, and the downstream cost accumulator, all as wire frames.

The layer is built so that serving can never drift from the simulator:
nodes drive the very same step machine
(:class:`~repro.schemes.base.Walk`) the simulator's ``process_request``
drives, and a differential oracle (``tests/test_serve_cluster.py``)
pins an in-process replay to the simulator's metrics bit-for-bit.

See ``docs/serving.md`` for the wire protocol and deployment notes.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "channel": (
        "BROKER_NODE_ID", "ChannelBroker", "ChannelSubscriber", "merge_channel_stats",
    ),
    "cluster": ("Cluster",),
    "loadgen": ("ClusterClient", "LoadGenerator", "LoadReport"),
    "metrics_http": ("MetricsServer",),
    "node": ("CacheNode",),
    "protocol": (
        "MAX_FRAME_BYTES", "RETRYABLE_ERRORS", "CallTimeout", "FrameCorruption",
        "FrameDecoder", "NodeBusy", "NodeUnreachable", "ProtocolError",
        "RemoteProtocolError", "decode_payload", "encode_frame", "is_retryable",
    ),
    "shard": ("ShardedCluster", "ShardPlan", "ShardSpec", "fetch_stats"),
    "tracing": ("NodeTracer", "TracingConfig", "shard_trace_path"),
    "transport": (
        "CircuitBreaker", "InProcessTransport", "RetryPolicy", "TCPTransport",
        "Transport",
    ),
})
