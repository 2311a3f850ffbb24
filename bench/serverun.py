"""Serving workloads: in-process and sharded-TCP clusters under load.

One persistent cluster (and client) serves a warm-up segment and then
the measured segments; each segment is one ``LoadGenerator.run`` over its
slice of the trace, timed and CPU-accounted from outside.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from bench import simrun, spans, stats
from bench.inputs import Inputs, build_inputs
from bench.proc import cpu_by_process, peak_rss_mb, worker_pids
from bench.recorders import NullCluster, RecordingTransport, TimedClient
from bench.result import RunResult
from bench.spec import (
    MIN_PERCENTILE_SAMPLES,
    SCHEME,
    SEGMENTS,
    WorkloadSpec,
)
from repro.obs.export import read_trace_events
from repro.obs.instruments import Instruments
from repro.obs.registry import StatRegistry
from repro.obs.spans import reconstruct_traces
from repro.serve import (
    Cluster,
    ClusterClient,
    FrameDecoder,
    InProcessTransport,
    LoadGenerator,
    LoadReport,
    ShardedCluster,
    TCPTransport,
    TracingConfig,
    encode_frame,
    fetch_stats,
)
from repro.serve.protocol import MSG_PING
from repro.workload.trace import Trace

# Pushed past any count a run can reach: failures are counted against
# the attempts, they never abort a run.
_NEVER_ABORT = 1_000_000_000
_COUNTERS = ("hits", "misses", "insertions", "evictions")
_PINGS = 1_000
_CODEC_REQUESTS = 1_500


class LiveCluster:
    """One started cluster of either transport, plus what drives it."""

    def __init__(self, spec: WorkloadSpec, inputs: Inputs) -> None:
        self.spec = spec
        self.inputs = inputs
        self.client = None  # what LoadGenerator drives
        self.start_seconds = 0.0
        self._inproc: Optional[Cluster] = None
        self._sharded: Optional[ShardedCluster] = None

    async def start(self, span_path: Optional[str] = None,
                    transport=None, timed_client: bool = False) -> "LiveCluster":
        spec, inputs = self.spec, self.inputs
        started = time.perf_counter()
        if spec.transport == "inproc":
            self._inproc = Cluster.build(
                inputs.architecture,
                inputs.catalog,
                SCHEME,
                config=inputs.config,
                transport=transport or InProcessTransport(),
                tracing=TracingConfig(span_path) if span_path else None,
            )
            await self._inproc.start()
            self.client = self._inproc
        else:
            self._sharded = ShardedCluster(
                inputs.architecture,
                inputs.catalog,
                SCHEME,
                num_shards=spec.shards,
                config=inputs.config,
                trace_path=span_path,
            )
            addresses = self._sharded.start()
            self.start_seconds = time.perf_counter() - started
            client_type = TimedClient if timed_client else ClusterClient
            self.client = client_type(
                inputs.architecture,
                inputs.cost_model,
                addresses,
                TCPTransport(),
            )
        return self

    @property
    def worker_pids(self) -> List[int]:
        return worker_pids() if self._sharded is not None else []

    def span_paths(self) -> List[str]:
        if self._sharded is not None:
            return self._sharded.trace_paths()
        return [str(self._inproc.tracing.path)] if self._inproc.tracing else []

    async def node_stats(self) -> Dict[int, dict]:
        """Per-node counters: the snapshot in process, ``stats`` frames
        over the wire."""
        if self._inproc is not None:
            nodes = self._inproc.snapshot()["nodes"]
            return {int(n): entry["stats"] for n, entry in nodes.items()}
        replies = await fetch_stats(self._sharded.addresses)
        return {n: reply["stats"] for n, reply in replies.items()}

    async def ping_us(self, count: int = _PINGS) -> float:
        """Mean ``ping`` round trip against one live node."""
        address = self.client.ingress_address(0)
        call = self.client.transport.call
        await call(address, {"type": MSG_PING})  # open the connection
        started = time.perf_counter()
        for _ in range(count):
            await call(address, {"type": MSG_PING})
        return (time.perf_counter() - started) / count * 1e6

    async def stop(self) -> None:
        try:
            if self._inproc is not None:
                await self._inproc.stop()
            elif self.client is not None:
                await self.client.close()
        finally:
            if self._sharded is not None:
                self._sharded.stop()


@dataclass
class SegmentRun:
    requests: int
    wall: float
    cpu: Dict[int, float]  # per process; key 0 is the driver
    samples: List[float]  # round-trip wall seconds
    report: LoadReport
    bytes_requested: int

    @property
    def completed(self) -> int:
        return self.report.cache_served + self.report.origin_served

    @property
    def failed(self) -> int:
        return self.report.errors + self.report.rejected + self.report.shed


async def run_segments(live: LiveCluster, count: int,
                       with_updates: bool = True) -> List[SegmentRun]:
    """Replay the first ``count`` segments (the first is the warm-up)."""
    inputs, spec = live.inputs, live.spec
    records = inputs.trace.records
    size = inputs.segment
    slices = [records[k * size:(k + 1) * size] for k in range(count)]
    updates: Sequence[list] = [[] for _ in slices]
    if with_updates and inputs.updates:
        updates, _ = stats.slice_updates(
            inputs.updates, [piece[-1].time for piece in slices]
        )
    runs = []
    pids = live.worker_pids
    for piece, due in zip(slices, updates):
        loadgen = LoadGenerator(
            live.client, Trace(piece), updates=due, warmup_fraction=0.0
        )
        cpu_before = cpu_by_process(pids)
        started = time.perf_counter()
        report = await loadgen.run(
            mode=spec.mode,
            concurrency=spec.concurrency,
            max_errors=_NEVER_ABORT,
        )
        wall = time.perf_counter() - started
        cpu_after = cpu_by_process(pids)
        runs.append(
            SegmentRun(
                requests=len(piece),
                wall=wall,
                cpu={p: cpu_after[p] - cpu_before[p] for p in cpu_after},
                samples=loadgen.last_wall_samples,
                report=report,
                bytes_requested=sum(r.size for r in piece),
            )
        )
    return runs


def window_quality(measured: Sequence[SegmentRun]) -> tuple:
    """Byte hit ratio and mean model latency over the measured window,
    folded from the per-segment summaries."""
    byte_hit_ratio = stats.weighted_mean(
        [s.report.summary.byte_hit_ratio for s in measured],
        [s.bytes_requested for s in measured],
    )
    mean_latency = stats.weighted_mean(
        [s.report.summary.mean_latency for s in measured],
        [s.report.summary.requests for s in measured],
    )
    return byte_hit_ratio, mean_latency


def check_conservation(out: RunResult, runs: Sequence[SegmentRun]) -> None:
    for k, run in enumerate(runs):
        out.check(
            run.completed == run.requests and run.failed == 0,
            f"segment {k}: {run.completed} of {run.requests} requests "
            f"completed ({run.report.errors} errors, "
            f"{run.report.rejected} rejected, {run.report.shed} shed)",
        )


def check_against_simulator(out: RunResult, inputs: Inputs,
                            runs: Sequence[SegmentRun],
                            node_stats: Dict[int, dict]) -> None:
    """A sequential replay must be the reference simulator, exactly.

    The simulator replays the same requests (and the same update stream,
    in band) through one shared scheme; every per-node counter, the
    cache/origin split, the update tally and the window's quality
    metrics must match what the cluster did.
    """
    registry = StatRegistry()
    count = sum(run.requests for run in runs)
    engine = inputs.new_engine(warmup=runs[0].requests, total=count)
    result = engine.run(
        Trace(inputs.trace.records[:count]),
        updates=inputs.updates,
        instruments=Instruments(registry=registry),
    )
    expected = result.node_stats
    for node in sorted(set(expected) | set(node_stats)):
        want = {c: expected.get(node, {}).get(c, 0) for c in _COUNTERS}
        got = {c: node_stats.get(node, {}).get(c, 0) for c in _COUNTERS}
        out.check(
            want == got,
            f"node {node} counters {got} differ from the simulator's {want}",
        )
    cache_served = sum(run.report.cache_served for run in runs)
    origin_served = sum(run.report.origin_served for run in runs)
    out.check(
        cache_served == registry.total("hits")
        and origin_served == count - registry.total("hits"),
        f"cache/origin split {cache_served}/{origin_served} differs from "
        f"the simulator's {registry.total('hits')}/"
        f"{count - registry.total('hits')}",
    )
    applied = sum(run.report.updates_applied for run in runs)
    invalidated = sum(run.report.copies_invalidated for run in runs)
    out.check(
        applied == len(inputs.updates) == result.updates_applied
        and invalidated == result.copies_invalidated,
        f"updates applied {applied} (copies {invalidated}) differ from "
        f"the stream's {len(inputs.updates)} / the simulator's "
        f"{result.updates_applied} (copies {result.copies_invalidated})",
    )
    byte_hit_ratio, mean_latency = window_quality(runs[1:])
    summary = result.summary
    out.check(
        abs(byte_hit_ratio - summary.byte_hit_ratio) <= 1e-9
        and abs(mean_latency - summary.mean_latency)
        <= 1e-9 * summary.mean_latency,
        f"window quality ({byte_hit_ratio}, {mean_latency}) differs from "
        f"the simulator's ({summary.byte_hit_ratio}, {summary.mean_latency})",
    )


async def run_end_to_end(spec: WorkloadSpec, seed: int, seconds: float,
                         setups: int) -> RunResult:
    out = RunResult(spec.name, seed, seconds, traced=False)
    segment = spec.segment_requests(seconds)
    setup_seconds = []
    live: Optional[LiveCluster] = None
    try:
        for _ in range(setups):
            if live is not None:
                await live.stop()
                live = None
            started = time.perf_counter()
            inputs = build_inputs(spec, seed, segment)
            live = LiveCluster(spec, inputs)
            await live.start()
            setup_seconds.append(time.perf_counter() - started)
        runs = await run_segments(live, SEGMENTS + 1)
        rss = peak_rss_mb([os.getpid()] + live.worker_pids)
        node_stats = await live.node_stats()
    finally:
        if live is not None:
            await live.stop()

    measured = runs[1:]
    byte_hit_ratio, mean_latency = window_quality(measured)
    out.put_end_to_end(
        setup_seconds=setup_seconds,
        rates=[s.completed / s.wall for s in measured],
        cpu_ms=[
            sum(s.cpu.values()) / max(s.completed, 1) * 1e3 for s in measured
        ],
        samples_ms=[[w * 1e3 for w in s.samples] for s in measured],
        rss_mb=rss,
        byte_hit_ratio=byte_hit_ratio,
        mean_latency=mean_latency,
        window=sum(s.report.summary.requests for s in measured),
    )
    out.attempted = sum(s.requests for s in runs)
    out.failed = sum(s.failed for s in runs)

    check_conservation(out, runs)
    if spec.deterministic:
        check_against_simulator(out, inputs, runs, node_stats)
    return out


# -- the traced run (per-layer) -----------------------------------------------


def _per_request_us(runs: Sequence[SegmentRun]) -> float:
    return sum(s.wall for s in runs) / sum(s.completed for s in runs) * 1e6


def _codec_rung(frames: Sequence[dict], requests: int) -> Dict[str, float]:
    """Time the codec alone over the frames a replay really exchanged."""
    started = time.perf_counter()
    encoded = [encode_frame(frame) for frame in frames]
    encode_s = time.perf_counter() - started
    decoder = FrameDecoder()
    started = time.perf_counter()
    for data in encoded:
        decoder.feed(data)
    decode_s = time.perf_counter() - started
    return {
        "protocol.encode_us_per_frame": encode_s / len(frames) * 1e6,
        "protocol.decode_us_per_frame": decode_s / len(frames) * 1e6,
        "protocol.frames_per_req": len(frames) / requests,
        "protocol.bytes_per_req": sum(len(d) for d in encoded) / requests,
    }


async def _recorded_replay(inputs: Inputs) -> tuple:
    """Replay a prefix through an in-process cluster whose transport
    records every frame (ingress and hop-to-hop); also ping it."""
    spec = replace(inputs.spec, transport="inproc", shards=0)
    recorder = RecordingTransport(InProcessTransport())
    live = await LiveCluster(spec, inputs).start(transport=recorder)
    try:
        count = min(_CODEC_REQUESTS, inputs.total)
        records = inputs.trace.records[:count]
        updates, _ = stats.slice_updates(inputs.updates, [records[-1].time])
        await LoadGenerator(
            live.client, Trace(records), updates=updates[0],
            warmup_fraction=0.0,
        ).run(mode="sequential")
        frames = list(recorder.frames)
        ping_us = await live.ping_us()
    finally:
        await live.stop()
    return frames, count, ping_us


async def _null_loadgen_us(spec: WorkloadSpec, inputs: Inputs,
                           records: Sequence) -> float:
    """The load generator against a cluster that does nothing."""
    loadgen = LoadGenerator(
        NullCluster(inputs.architecture, inputs.cost_model),
        Trace(records),
        warmup_fraction=0.0,
    )
    started = time.perf_counter()
    await loadgen.run(
        mode=spec.mode, concurrency=spec.concurrency, max_errors=_NEVER_ABORT
    )
    return (time.perf_counter() - started) / len(records) * 1e6


def _read_spans(paths: Sequence[str], since: float) -> spans.Attribution:
    def events():
        for path in paths:
            if os.path.exists(path):
                yield from read_trace_events(path, kinds=("span",))

    return spans.attribute(reconstruct_traces(events()).values(), since)


async def run_layers(spec: WorkloadSpec, seed: int, seconds: float,
                     span_dir: str) -> RunResult:
    """The traced run: an untraced and a traced pass over the same
    warm-up + two half-size segments, then the null rungs and the
    simulator ladder on the same requests.  Span files are written
    under ``span_dir``, which the caller removes."""
    out = RunResult(spec.name, seed, seconds, traced=True)
    inputs = build_inputs(
        spec, seed, max(50, spec.segment_requests(seconds) // 2)
    )
    passes = 3  # warm-up + two measured segments
    live = LiveCluster(spec, inputs)
    try:
        await live.start()
        wire_ping_us = await live.ping_us()
        plain = await run_segments(live, passes)
        node_stats = await live.node_stats()
    finally:
        await live.stop()
    start_seconds = live.start_seconds

    traced_live = LiveCluster(spec, inputs)
    try:
        await traced_live.start(
            span_path=os.path.join(span_dir, "spans.jsonl"),
            timed_client=True,
        )
        traced = await run_segments(traced_live, passes)
        client = traced_live.client
    finally:
        await traced_live.stop()
    since = inputs.trace.records[inputs.segment].time
    attribution = _read_spans(traced_live.span_paths(), since)

    frames, codec_requests, inproc_ping_us = await _recorded_replay(inputs)
    measured_records = inputs.trace.records[
        inputs.segment:passes * inputs.segment
    ]
    null_us = await _null_loadgen_us(spec, inputs, measured_records)
    rungs = simrun.ladder(inputs, seconds)

    measured, traced_measured = plain[1:], traced[1:]
    completed = sum(s.completed for s in measured)
    plain_us = _per_request_us(measured)
    traced_us = _per_request_us(traced_measured)

    simrun.put_ladder(out, rungs)
    simrun.put_generation(out, inputs)
    codec = _codec_rung(frames, codec_requests)
    for name, value in codec.items():
        out.put(name, value, len(frames))
    out.put("transport.inproc_ping_us", inproc_ping_us, _PINGS)
    if spec.transport == "tcp":
        out.put("transport.tcp_ping_us", wire_ping_us, _PINGS)
    for name, value in spans.layer_metrics(attribution).items():
        out.put(name, value, attribution.hops)
    # What the client waits for before the ingress span even starts and
    # after it ends: socket, codec, and the worker's event loop being
    # busy with the other request in flight.
    round_trips = [w for s in traced_measured for w in s.samples]
    out.put(
        "node.ingress_wait_us",
        sum(round_trips) / len(round_trips) * 1e6 - attribution.root_wall_us,
        len(round_trips),
    )

    def total(counter: str) -> int:
        return sum(node.get(counter, 0) for node in node_stats.values())

    handled = sum(s.completed for s in plain)
    out.put("node.rpc_retries", total("rpc_retries"), handled)
    out.put("node.busy_rejections", total("busy_rejections"), handled)
    if spec.transport == "tcp":
        out.put("shard.start_s", start_seconds)
        out.put(
            "shard.cross_shard_fwds_per_req",
            total("cross_shard_fwds") / handled, handled,
        )
    cpu: Dict[int, float] = {}
    for run in measured:
        for pid, seconds_used in run.cpu.items():
            cpu[pid] = cpu.get(pid, 0.0) + seconds_used
    workers = [used for pid, used in cpu.items() if pid]
    if workers:
        out.put(
            "shard.cpu_imbalance",
            stats.ratio(max(workers), sum(workers) / len(workers)),
            len(workers),
        )
    out.put("loadgen.null_us_per_req", null_us, len(measured_records))
    out.put(
        "loadgen.driver_cpu_share",
        stats.ratio(cpu[0], sum(cpu.values())), completed,
    )
    attempted = sum(s.requests for s in plain + traced)
    failed = sum(s.failed for s in plain + traced)
    out.put("loadgen.failed_share", failed / attempted, attempted)
    tail, tail_n = stats.grouped_percentile(
        [[w * 1e3 for w in s.samples] for s in measured], 0.99,
        MIN_PERCENTILE_SAMPLES,
    )
    out.put("loadgen.lat_p99_ms", tail, tail_n)

    update_us_per_req = 0.0
    if spec.updates:
        timings = client.update_seconds
        applied = max(len(timings), 1)
        out.put(
            "control.apply_update_ms", sum(timings) / applied * 1e3,
            len(timings),
        )
        out.put(
            "control.inv_frames_per_update",
            client.inv_frames / applied, len(timings),
        )
        out.put(
            "control.copies_invalidated_per_update",
            client.copies_invalidated / applied, len(timings),
        )
        update_us_per_req = sum(timings) / sum(
            s.completed for s in traced
        ) * 1e6

    out.put(
        "obs.tracing_overhead_ratio", stats.ratio(traced_us, plain_us),
        completed,
    )
    # The ledger: load generator (null rung) + the ingress hop (a ping
    # round trip plus the codec on a real get/resp pair) + the walk
    # itself (root span) + updates, against the request time the traced
    # pass observed -- `concurrency` requests share each wall second.
    ping_us = wire_ping_us if spec.transport == "tcp" else inproc_ping_us
    codec_pair_us = 2 * (
        codec["protocol.encode_us_per_frame"]
        + codec["protocol.decode_us_per_frame"]
    )
    layers_us = (
        null_us + ping_us + codec_pair_us + attribution.root_wall_us
        + update_us_per_req
    )
    out.put(
        "ledger.closure_ratio",
        stats.ratio(layers_us, traced_us * spec.concurrency),
        attribution.requests,
    )
    out.attempted = attempted
    out.failed = failed
    check_conservation(out, plain + traced)
    out.check(
        attribution.requests == sum(s.completed for s in traced_measured),
        f"{attribution.requests} traced walks reconstructed from the span "
        f"files, {sum(s.completed for s in traced_measured)} requests "
        "completed in the traced window",
    )
    return out
