"""Simulator workloads (`sim-ref`, `sim-fast`) and the simulator ladder.

A simulator run is one ``SimulationEngine.run`` call; segments are cut
from ``progress_callback`` stamps, so the engine is timed from outside
and on one live state.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List

from bench import stats
from bench.inputs import Inputs, build_inputs, workload_config
from bench.proc import peak_rss_mb
from bench.recorders import RecordingScheme, ReplayScheme
from bench.result import RunResult
from bench.spec import (
    LADDER_REQUESTS,
    LADDER_SECONDS,
    LADDER_WARMUP,
    SEGMENTS,
    WorkloadSpec,
)
from repro.metrics.collector import MetricsCollector
from repro.obs.instruments import Instruments
from repro.obs.registry import StatRegistry
from repro.obs.timers import (
    PHASE_DP_SOLVE,
    PHASE_ROUTING,
    PHASE_SCHEME,
    PHASE_VICTIM_SELECT,
    PhaseTimers,
)
from repro.sim.engine import SimulationResult
from repro.workload.generator import BoeingLikeTraceGenerator


@dataclass
class TimedRun:
    """One engine run with a wall stamp after every ``chunk`` requests."""

    result: SimulationResult
    started: float
    chunk: int
    stamps: List[float]  # stamps[i]: after (i + 1) * chunk requests
    marks: Dict[int, float]  # requests done -> driver CPU seconds

    def wall_between(self, first: int, last: int) -> float:
        """Wall seconds spent on requests ``[first, last)`` (chunk
        multiples, ``first`` > 0)."""
        return (
            self.stamps[last // self.chunk - 1]
            - self.stamps[first // self.chunk - 1]
        )

    def chunk_seconds(self, first: int, last: int) -> List[float]:
        lo, hi = first // self.chunk, last // self.chunk
        return [
            self.stamps[i] - self.stamps[i - 1] for i in range(max(lo, 1), hi)
        ]

    @property
    def prepare_seconds(self) -> float:
        """Time from the call to the first request: the first stamp's
        delay beyond one ordinary chunk (the fast path's precompute)."""
        gaps = self.chunk_seconds(0, len(self.stamps) * self.chunk)
        ordinary = stats.median(gaps) if gaps else 0.0
        return max(0.0, self.stamps[0] - self.started - ordinary)


def timed_run(engine, trace, chunk: int, mark_every: int = 0,
              on_mark=None, **run_kwargs) -> TimedRun:
    stamps: List[float] = []
    marks: Dict[int, float] = {}

    def stamp(done: int, total: int) -> None:
        stamps.append(time.perf_counter())
        if mark_every and done % mark_every == 0:
            marks[done] = time.process_time()
            if on_mark is not None:
                on_mark(done)

    started = time.perf_counter()
    result = engine.run(
        trace, progress_every=chunk, progress_callback=stamp, **run_kwargs
    )
    return TimedRun(result, started, chunk, stamps, marks)


def prefix_requests(inputs: Inputs, seconds: float) -> int:
    """Length of the trace prefix the reference loop can afford to
    replay beside a run of ``seconds``."""
    scale = min(1.0, seconds / LADDER_SECONDS)
    return min(inputs.total, int(LADDER_REQUESTS * scale))


def run_end_to_end(spec: WorkloadSpec, seed: int, seconds: float,
                   setups: int) -> RunResult:
    out = RunResult(spec.name, seed, seconds, traced=False)
    segment = spec.segment_requests(seconds)
    setup_seconds = []
    for _ in range(setups):
        started = time.perf_counter()
        inputs = build_inputs(spec, seed, segment)
        engine = inputs.new_engine()
        setup_seconds.append(time.perf_counter() - started)
    run = timed_run(
        engine,
        inputs.columnar if spec.columnar else inputs.trace,
        spec.chunk,
        mark_every=segment,
    )
    rss = peak_rss_mb([os.getpid()])

    bounds = [segment * k for k in range(1, SEGMENTS + 2)]
    windows = list(zip(bounds, bounds[1:]))
    # The precompute between the call and the first request delays the
    # first issuable request, so it is set-up, not throughput.
    prepare = run.prepare_seconds
    summary = run.result.summary
    out.put_end_to_end(
        setup_seconds=[s + prepare for s in setup_seconds],
        rates=[segment / run.wall_between(a, b) for a, b in windows],
        cpu_ms=[
            (run.marks[b] - run.marks[a]) / segment * 1e3 for a, b in windows
        ],
        samples_ms=[
            [s / spec.chunk * 1e3 for s in run.chunk_seconds(a, b)]
            for a, b in windows
        ],
        rss_mb=rss,
        byte_hit_ratio=summary.byte_hit_ratio,
        mean_latency=summary.mean_latency,
        window=summary.requests,
    )
    out.attempted = run.result.requests_total

    out.check(
        run.result.requests_total == inputs.total
        and run.result.requests_measured == segment * SEGMENTS,
        f"measured window is {run.result.requests_measured} of "
        f"{run.result.requests_total} requests, expected "
        f"{segment * SEGMENTS} of {inputs.total}",
    )
    _check_against_other_loop(out, inputs, run.result, seconds)
    return out


def _check_against_other_loop(out: RunResult, inputs: Inputs,
                              measured: SimulationResult,
                              seconds: float) -> None:
    """The reference loop and the fast path must agree bit for bit.

    `sim-ref` replays its whole trace through the fast path (cheap);
    `sim-fast` replays a prefix through both loops, because the
    reference loop over its whole trace would outlast the run.
    """
    if not inputs.spec.columnar:
        fast = inputs.new_engine().run(inputs.columnar)
        out.check(
            fast.summary == measured.summary,
            "fast path summary differs from the reference loop on the "
            "sim-ref trace",
        )
        return
    count = prefix_requests(inputs, seconds)
    prefix = inputs.columnar.view(0, count)
    warmup = count // 4
    fast = inputs.new_engine(warmup=warmup, total=count).run(prefix)
    reference = inputs.new_engine(warmup=warmup, total=count).run(
        prefix.to_trace()
    )
    out.check(
        fast.summary == reference.summary,
        f"fast path summary differs from the reference loop on the "
        f"first {count} requests",
    )


# -- the simulator ladder (per-layer) -----------------------------------------

# The box this runs on slows whole passes down for seconds at a time:
# each rung is timed in this many rounds and its median reading kept,
# so one slow round is voted out and two rungs timed a minute apart
# still compare.
LADDER_ROUNDS = 3
_LADDER_CHUNK = 20


def _phase(summary: dict, phase: str) -> tuple:
    row = summary.get(phase)
    return (row["calls"], row["seconds"]) if row else (0, 0.0)


def _ladder_round(inputs: Inputs, prefix, trace, warmup: int) -> dict:
    """One pass up the rungs; per-request microseconds after warm-up."""
    count = len(prefix)
    measured = count - warmup

    def engine(scheme=None):
        return inputs.new_engine(scheme=scheme, warmup=warmup, total=count)

    def timed(engine_, trace_, **kwargs) -> tuple:
        run = timed_run(engine_, trace_, _LADDER_CHUNK, **kwargs)
        return run, run.wall_between(warmup, count) / measured * 1e6

    reference, ref_us = timed(engine(), trace)

    # Timers only: a live registry would put its per-outcome fold and
    # its cache observers on the clock being read.  The counts come from
    # folding the recorded outcomes into a registry afterwards.
    recorder = RecordingScheme(inputs.new_scheme())
    timers = PhaseTimers()
    at_warmup: dict = {}

    def snapshot(done: int) -> None:
        if done == warmup:
            at_warmup.update(timers.summary())

    instrumented, traced_us = timed(
        engine(recorder), trace, mark_every=warmup, on_mark=snapshot,
        instruments=Instruments(timers=timers),
    )
    end = timers.summary()

    def phase_delta(phase: str) -> tuple:
        calls, seconds = _phase(end, phase)
        calls0, seconds0 = _phase(at_warmup, phase)
        return calls - calls0, seconds - seconds0

    _, loop_us = timed(engine(ReplayScheme(recorder.outcomes)), trace)

    tail = recorder.outcomes[warmup:]
    collector = MetricsCollector()
    path_cost = inputs.cost_model.path_cost
    started = time.perf_counter()
    for outcome in tail:
        collector.record(
            outcome,
            path_cost(outcome.path[: outcome.hit_index + 1], outcome.size),
        )
    metrics_us = (time.perf_counter() - started) / measured * 1e6

    fast, fast_us = timed(engine(), prefix)

    registry = StatRegistry()
    for outcome in tail:
        registry.observe_outcome(outcome)
    dp_calls, dp_s = phase_delta(PHASE_DP_SOLVE)
    victim_calls, victim_s = phase_delta(PHASE_VICTIM_SELECT)
    base = fast if inputs.spec.columnar else reference
    return {
        "times": {
            "ref_us": ref_us,
            "traced_us": traced_us,
            "loop_us": loop_us,
            "fast_us": fast_us,
            "metrics_us": metrics_us,
            "routing_us": phase_delta(PHASE_ROUTING)[1] / measured * 1e6,
            "scheme_us": phase_delta(PHASE_SCHEME)[1] / measured * 1e6,
            "dp_solve_us": stats.ratio(dp_s, dp_calls) * 1e6,
            "victim_select_us": stats.ratio(victim_s, victim_calls) * 1e6,
            "prepare_s": fast.prepare_seconds,
            # Service time over chunks of 20 requests: the tail a stall
            # (a collection, an eviction storm) would show in.
            "p99_ms": stats.nearest_rank(
                base.chunk_seconds(warmup, count), 0.99
            ) / _LADDER_CHUNK * 1e3,
        },
        "counts": {
            "requests": measured,
            "dp_solves": dp_calls,
            "victim_selects": victim_calls,
            "hits": registry.total("hits"),
            "misses": registry.total("misses"),
            "insertions": registry.total("insertions"),
            "evictions": sum(o.evicted_objects for o in tail),
        },
        "consistent": (
            reference.result.summary == instrumented.result.summary
            == fast.result.summary == collector.summary()
        ),
    }


def ladder(inputs: Inputs, seconds: float) -> dict:
    """Replay a prefix of the workload's trace up the simulator rungs.

    Reference loop untraced, reference loop under PhaseTimers with its
    outcomes recorded, engine loop with the scheme replaced by a replay
    of those outcomes, collector alone, and the columnar fast path.
    Every figure covers the requests after the warm-up prefix only; the
    prefix shrinks with ``seconds`` so a quick run stays quick.  Returns
    the median reading of every rung (``times``), the exact counts,
    whether the rungs agreed, and the finished per-layer metrics.
    """
    count = prefix_requests(inputs, seconds)
    count -= count % _LADDER_CHUNK
    warmup = min(LADDER_WARMUP, count // 4)
    warmup -= warmup % _LADDER_CHUNK
    prefix = inputs.columnar.view(0, count)
    trace = prefix.to_trace()
    rounds = [
        _ladder_round(inputs, prefix, trace, warmup)
        for _ in range(LADDER_ROUNDS)
    ]
    counts = rounds[0]["counts"]
    times = {
        key: stats.median([r["times"][key] for r in rounds])
        for key in rounds[0]["times"]
    }
    consistent = all(
        r["consistent"] and r["counts"] == counts for r in rounds
    )
    requests = counts["requests"]
    return {
        "times": times,
        "requests": requests,
        "consistent": consistent,
        "layers": {
            "routing.request_path_us": times["routing_us"],
            "schemes.process_request_us": times["scheme_us"],
            "core.dp_solve_us": times["dp_solve_us"],
            "core.dp_solves_per_req": counts["dp_solves"] / requests,
            "cache.victim_select_us": times["victim_select_us"],
            "cache.victim_selects_per_req": counts["victim_selects"] / requests,
            "cache.hit_ratio": stats.ratio(
                counts["hits"], counts["hits"] + counts["misses"]
            ),
            "cache.insertions_per_req": counts["insertions"] / requests,
            "cache.evictions_per_req": counts["evictions"] / requests,
            "metrics.record_us": times["metrics_us"],
            # What is left of the scheme-free loop once routing and the
            # collector are taken out: trace iteration and dispatch.
            # Below the timers' own cost it reads 0.
            "sim.engine.self_us": max(
                0.0,
                times["loop_us"] - times["routing_us"] - times["metrics_us"],
            ),
            "sim.fastpath.us_per_req": times["fast_us"],
            "sim.fastpath.speedup_vs_ref": stats.ratio(
                times["ref_us"], times["fast_us"]
            ),
            "sim.fastpath.prepare_s": times["prepare_s"],
        },
    }


def put_ladder(out: RunResult, rungs: dict) -> None:
    for name, value in rungs["layers"].items():
        out.put(name, value, rungs["requests"])
    out.check(
        rungs["consistent"],
        "ladder rungs (reference, instrumented, collector replay, fast "
        "path) disagree on the summary or the counts of the same requests",
    )


def put_generation(out: RunResult, inputs: Inputs) -> None:
    """Time the program's two trace builders at this workload's size."""
    generator = BoeingLikeTraceGenerator(workload_config(inputs.total))
    generator.catalog  # built on demand; keep it out of both timings
    started = time.perf_counter()
    generator.generate_columnar()
    columnar_s = time.perf_counter() - started
    started = time.perf_counter()
    generator.generate()
    reference_s = time.perf_counter() - started
    out.put("workload.generate_columnar_s", columnar_s, inputs.total)
    out.put("workload.generate_s", reference_s, inputs.total)


def run_layers(spec: WorkloadSpec, seed: int, seconds: float) -> RunResult:
    """The traced run of a simulator workload: the ladder on its trace.

    `sim-fast` under instruments leaves the fast path for the reference
    loop, so its tracing overhead is the instrumented loop against the
    kernels -- the cliff ROADMAP item 2 wants gone.
    """
    out = RunResult(spec.name, seed, seconds, traced=True)
    inputs = build_inputs(spec, seed, spec.segment_requests(seconds))
    rungs = ladder(inputs, seconds)
    times, requests = rungs["times"], rungs["requests"]
    put_ladder(out, rungs)
    put_generation(out, inputs)
    out.put("loadgen.lat_p99_ms", times["p99_ms"], requests // _LADDER_CHUNK)
    out.put(
        "obs.tracing_overhead_ratio",
        stats.ratio(
            times["traced_us"],
            times["fast_us"] if spec.columnar else times["ref_us"],
        ),
        requests,
    )
    out.put(
        "ledger.closure_ratio",
        stats.ratio(times["loop_us"] + times["scheme_us"], times["ref_us"]),
        requests,
    )
    out.attempted = requests
    return out
