"""Serve-side distributed tracing: per-hop spans through the probe layer.

The cluster's request walk is a chain of ``fwd`` frames hopping node to
node (and, sharded, process to process).  Tracing makes that chain an
artifact: every hop a node handles emits one ``span`` event -- through
the exact :class:`~repro.obs.probe.Probe` /
:class:`~repro.obs.export.JsonlTraceWriter` machinery the simulator's
instrumentation uses -- carrying the trace id minted at ingress, the
hop's own span id, the forwarding span's id, and the hop-local facts:
scheme-step timings (the node's own ``perf_counter`` stamps), upstream
await time including every retry and backoff, piggyback bytes
added, retries/failovers survived, admission pressure, and the shard the
hop executed on.  ``repro.obs.spans.reconstruct_traces`` reassembles the
files back into per-request trees.

Contract (same as PR 3's instrumentation layer): **zero overhead when
off** -- an untraced node runs the exact pre-tracing code path -- and
**bit-identical when on** -- spans only observe; no metric, counter or
cache decision ever depends on them.  Ids are deterministic (per-node
monotone counters, no RNG, no wall clock) so two identically-seeded
traced runs produce identical trace structures, and ids minted by
different nodes/shards can never collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.obs.probe import Probe

__all__ = ["NodeTracer", "TracingConfig", "shard_trace_path"]


@dataclass(frozen=True)
class TracingConfig:
    """How a cluster writes spans (shared by every node it hosts).

    ``path`` is the JSONL span file; ``sample_every``/``sample_rate``
    feed the probe's deterministic per-kind sampling, so high-rate
    clusters can keep every Nth walk instead of every walk.  Sampling
    is decided at ingress (a walk either gets a trace context or does
    not), keeping sampled traces complete instead of hole-ridden.
    """

    path: str | Path
    sample_every: int = 1
    sample_rate: float = 1.0
    seed: int = 0


def shard_trace_path(base: str | Path, shard_id: int) -> Path:
    """Per-shard span file: ``trace.jsonl`` -> ``trace.shard0.jsonl``.

    Shard workers are separate processes and cannot share one file
    handle; each writes its own suffixed file, and readers concatenate
    (``reconstruct_traces`` is order- and file-boundary-agnostic).
    """
    base = Path(base)
    if base.suffix:
        return base.with_suffix(f".shard{shard_id}{base.suffix}")
    return base.with_name(f"{base.name}.shard{shard_id}")


class NodeTracer:
    """Per-node span factory over a shared probe.

    One tracer per :class:`~repro.serve.node.CacheNode`; the probe (and
    through it the JSONL writer) is shared by every node of the hosting
    process.  Span/trace ids embed the node id plus a per-node monotone
    counter, so they are deterministic and globally unique without any
    cross-process coordination.
    """

    __slots__ = ("node_id", "shard", "probe", "_seq")

    def __init__(
        self, node_id: int, probe: Probe, shard: Optional[int] = None
    ) -> None:
        self.node_id = node_id
        self.probe = probe
        self.shard = shard
        self._seq = 0

    def new_trace_id(self) -> str:
        """Mint a trace id at ingress (a walk with no inbound context)."""
        self._seq += 1
        return f"t{self.node_id}.{self._seq}"

    def new_span_id(self) -> str:
        self._seq += 1
        return f"s{self.node_id}.{self._seq}"

    def span(self, ctx: dict, op: str, status: str = "ok") -> dict:
        """Open a span under ``ctx``: the header every span starts with
        (a fresh span id hung off the context's trace and parent, where
        it ran, what it did); the caller appends its own fields."""
        return {
            "trace": ctx.get("id"),
            "span": self.new_span_id(),
            "parent": ctx.get("parent"),
            "node": self.node_id,
            "shard": self.shard,
            "op": op,
            "status": status,
        }

    def sample_walk(self) -> bool:
        """Ingress sampling decision: does this walk get a trace at all?

        Decided once where the trace id would be minted; forwarded hops
        of an already-traced walk always record (the context's presence
        is the decision), so sampled traces stay complete.
        """
        return self.probe.sample("span")

    def emit(self, span: dict) -> None:
        """Write one finished span event."""
        self.probe.write("span", **span)
