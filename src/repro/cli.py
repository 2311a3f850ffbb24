"""Command-line interface: ``cascade-repro`` / ``python -m repro``.

Subcommands:

* ``table1``  -- regenerate Table 1 (en-route topology characteristics).
* ``sweep``   -- run a cache-size sweep (the engine behind Figures 6-10)
  and print the metric table (optionally ASCII charts / JSON output).
* ``radius``  -- the MODULO cache-radius ablation.
* ``analyze`` -- workload statistics and Zipf fit of a trace CSV.
* ``replay``  -- replay a trace CSV against one scheme on one
  architecture and print its metrics.
* ``sim``     -- run each scheme once at one cache size; with
  ``--audit`` the run executes under the full correctness audit layer
  (invariant sweeps, differential oracles, shadow replay), and the
  instrumentation flags (``--trace-out``, ``--node-stats``,
  ``--prom-out``, ``--timers``, ``--timeseries-window``) attach the
  observability layer of :mod:`repro.obs`.
* ``trace``   -- filter / summarize a JSONL event trace saved by
  ``sim --trace-out``.
* ``audit-selftest`` -- prove the audit layer detects seeded mutations.
* ``serve``   -- run a topology as a live cluster of asyncio cache
  nodes speaking the coordinated protocol over TCP, one ``/metrics``
  endpoint per node, drain-and-snapshot on SIGINT/SIGTERM (see
  :mod:`repro.serve` and ``docs/serving.md``).
* ``loadgen`` -- drive a served cluster from a generated trace in
  sequential / closed-loop / open-loop mode and report modelled metrics
  plus wall-clock latency percentiles.

Examples::

    cascade-repro table1 --seed 0
    cascade-repro sweep --arch en-route --schemes lru,coordinated \
        --sizes 0.01,0.1 --scale small
    cascade-repro radius --arch hierarchical --radii 1,2,4 --size 0.03
    cascade-repro sim --audit --scale small
    cascade-repro sim --schemes coordinated --trace-out run.jsonl \
        --node-stats --timers
    cascade-repro trace run.jsonl --kinds placement,eviction
    cascade-repro serve --scheme coordinated --manifest cluster.json &
    cascade-repro loadgen --manifest cluster.json --mode closed \
        --concurrency 8
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Sequence

from repro.experiments.charts import render_figure
from repro.experiments.presets import (
    DEFAULT_CACHE_SIZES,
    SMALL_SCALE,
    STANDARD_SCALE,
    build_architecture,
)
from repro.experiments.results_io import save_points_json, save_run_records
from repro.experiments.sweeps import (
    PROVISION_PROFILES,
    run_cache_size_sweep,
    run_modulo_radius_sweep,
    run_provisioning_sweep,
)
from repro.experiments.tables import (
    format_sweep_table,
    format_table1,
    topology_characteristics,
)
from repro.sim.factory import SCHEME_NAMES
from repro.verify.violations import AuditViolation

_SCALES = {"small": SMALL_SCALE, "standard": STANDARD_SCALE}
_DEFAULT_METRICS = (
    "latency",
    "response_ratio",
    "byte_hit_ratio",
    "traffic",
    "hops",
    "cache_load",
)


def _csv_floats(text: str) -> List[float]:
    return [float(x) for x in text.split(",") if x]


def _csv_ints(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x]


def _csv_strs(text: str) -> List[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--arch",
        choices=("en-route", "hierarchical"),
        default="en-route",
        help="cascaded caching architecture",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="small",
        help="workload preset scale",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--theta", type=float, default=None, help="override Zipf parameter"
    )


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    """Execution-layer flags shared by the runner-backed grid commands."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for the grid",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="JSONL checkpoint file streaming finished points",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip points already present in --checkpoint",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one line per finished grid point",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="run every point under the correctness audit layer "
        "(violations are reported and fail the command)",
    )
    parser.add_argument(
        "--node-stats",
        action="store_true",
        help="attach the per-node stat registry to every executed point "
        "(snapshots land in the run records / checkpoint sidecar)",
    )


def _preset(args: argparse.Namespace):
    preset = _SCALES[args.scale].with_seed(args.seed)
    if args.theta is not None:
        preset = preset.with_theta(args.theta)
    return preset


def _add_coherency_args(parser: argparse.ArgumentParser) -> None:
    """The coherency flag group shared by sim / serve / loadgen."""
    group = parser.add_argument_group(
        "coherency",
        "invalidation transport (see repro.coherency and "
        "docs/coherency.md); without --coherency, updates use the "
        "paper's implicit in-band design",
    )
    group.add_argument(
        "--coherency",
        choices=("inband", "channel"),
        default=None,
        help="invalidation transport: piggybacked in-band inv frames or "
        "the out-of-band pub/sub channel",
    )
    group.add_argument(
        "--channel-poll-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="channel mode, simulator only: trace time between subscriber "
        "polls (0 = zero-latency delivery, the oracle configuration)",
    )
    group.add_argument(
        "--group-count",
        type=int,
        default=0,
        help="bucket the catalog into this many invalidation groups, so "
        "one update event invalidates many objects (0 = one group per "
        "object)",
    )
    group.add_argument(
        "--group-skew",
        type=float,
        default=0.8,
        help="Zipf skew of the group-size distribution (with --group-count)",
    )


def _build_coherency(args: argparse.Namespace):
    """Optional CoherencyConfig from the coherency flag group.

    Raises ValueError on inconsistent flags (including the combinations
    CoherencyConfig itself rejects) so callers print the message and
    exit 2.
    """
    from repro.coherency import CoherencyConfig

    if args.coherency is None:
        if args.channel_poll_interval or args.group_count:
            raise ValueError(
                "--channel-poll-interval / --group-count require --coherency"
            )
        return None
    return CoherencyConfig(
        mode=args.coherency,
        poll_interval=args.channel_poll_interval,
        group_count=args.group_count or None,
        group_skew=args.group_skew,
    )


def _build_updates(coherency, groups, num_objects, duration, rate, seed):
    """The update-event stream behind ``--update-rate``.

    With grouped coherency the stream targets whole groups -- both
    modes then invalidate the same object sets (in-band expands each
    group event to per-object inv broadcasts), which is what makes the
    in-band vs. channel comparison apples-to-apples.  Without groups it
    targets single objects.
    """
    if rate <= 0:
        return []
    from repro.workload.updates import (
        generate_group_update_events,
        generate_update_events,
    )

    if coherency is not None and coherency.grouped:
        if groups is None:
            groups = coherency.build_groups(num_objects)
        return generate_group_update_events(groups, duration, rate, seed=seed)
    return generate_update_events(num_objects, duration, rate, seed=seed)


def _format_coherency(stats: dict, indent: str = "    ") -> str:
    """One-paragraph human summary of a coherency accounting dict."""
    p50 = stats.get("staleness_p50")
    p99 = stats.get("staleness_p99")
    staleness = (
        "staleness p50/p99 " f"{p50:.4f} / {p99:.4f}"
        if p50 is not None and p99 is not None
        else "no staleness windows"
    )
    lines = [
        f"{indent}coherency[{stats['mode']}]: "
        f"{stats['events_published']} events, "
        f"protocol {stats['protocol_bytes']} B "
        f"(inv {stats['inv_bytes']} B, channel {stats['channel_bytes']} B)",
        f"{indent}  stale hits {stats['stale_hits']} "
        f"({stats['stale_bytes']} B), "
        f"copies invalidated {stats['copies_invalidated']}, {staleness}",
    ]
    extras = []
    for key in ("catchups", "gaps", "duplicates", "event_drops"):
        if stats.get(key):
            extras.append(f"{key} {stats[key]}")
    pending = stats.get("pending")
    if pending:
        extras.append(f"pending {pending}")
    if extras:
        lines.append(f"{indent}  channel health: {', '.join(extras)}")
    return "\n".join(lines)


def _cmd_table1(args: argparse.Namespace) -> int:
    preset = _preset(args)
    arch = build_architecture("en-route", preset.workload, seed=args.seed)
    print("Table 1: System Parameters for En-Route Architecture")
    print(format_table1(topology_characteristics(arch)))
    return 0


def _grid_observer(args: argparse.Namespace):
    """Progress printer + record collector for runner-backed commands.

    Returns ``(progress_callback, records)``: the callback prints one
    line per finished point when ``--progress`` is set, and always
    accumulates the per-point run records so they can be persisted next
    to the sweep results.
    """
    records: list = []

    def on_progress(event) -> None:
        records.append(event.record)
        if args.progress:
            print(f"  {event.format()}", flush=True)

    return on_progress, records


def _report_grid(records, save: str | None, audited: bool = False) -> int:
    """Print the grid's observability summary; persist records if saving.

    Returns the number of audit violations across the grid (always 0
    for unaudited runs), so commands can fail loudly on a dirty audit.
    """
    executed = [r for r in records if not r.reused]
    reused = len(records) - len(executed)
    busy = sum(r.duration_seconds for r in executed)
    line = f"\n{len(executed)} points executed ({busy:.1f}s simulated)"
    if reused:
        line += f", {reused} reused from checkpoint"
    print(line)
    violations = 0
    if audited:
        checks = sum(r.audit_checks for r in records)
        violations = sum(len(r.audit_violations) for r in records)
        if violations:
            print(f"AUDIT: {checks} checks, {violations} VIOLATIONS:")
            for record in records:
                for raw in record.audit_violations:
                    violation = AuditViolation.from_dict(raw)
                    print(f"  {record.scheme}: {violation.format()}")
        else:
            print(f"audit: {checks} checks across the grid, no violations")
    if save:
        records_path = str(save) + ".records.json"
        save_run_records(records, records_path)
        print(f"run records written to {records_path}")
    return violations


def _check_resume(args: argparse.Namespace) -> bool:
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return False
    return True


def _cmd_sweep(args: argparse.Namespace) -> int:
    preset = _preset(args)
    unknown = set(args.schemes) - set(SCHEME_NAMES)
    if unknown:
        print(
            f"unknown schemes: {sorted(unknown)}; "
            f"expected names from {sorted(SCHEME_NAMES)}",
            file=sys.stderr,
        )
        return 2
    if not _check_resume(args):
        return 2
    if args.profiles and not args.provision:
        print("--profiles requires --provision", file=sys.stderr)
        return 2
    profiles = None
    if args.provision:
        names = args.profiles or sorted(PROVISION_PROFILES)
        unknown_profiles = set(names) - set(PROVISION_PROFILES)
        if unknown_profiles:
            print(
                f"unknown provisioning profiles: {sorted(unknown_profiles)}; "
                f"expected names from {sorted(PROVISION_PROFILES)}",
                file=sys.stderr,
            )
            return 2
        profiles = {name: PROVISION_PROFILES[name] for name in names}
    generator = preset.generator()
    trace = generator.generate()
    arch = build_architecture(args.arch, preset.workload, seed=args.seed)
    on_progress, records = _grid_observer(args)
    sweep_kwargs = dict(
        scheme_names=args.schemes,
        cache_sizes=args.sizes,
        scheme_params={"modulo": {"radius": args.radius}},
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        progress=on_progress,
        audit=args.audit,
        node_stats=args.node_stats,
    )
    if profiles is not None:
        points = run_provisioning_sweep(
            arch, trace, generator.catalog, profiles=profiles, **sweep_kwargs
        )
        title = (
            f"{args.arch} provisioning sweep "
            f"({preset.name} scale, seed {args.seed}, "
            f"profiles {', '.join(sorted(profiles))})"
        )
    else:
        points = run_cache_size_sweep(
            arch, trace, generator.catalog, **sweep_kwargs
        )
        title = f"{args.arch} sweep ({preset.name} scale, seed {args.seed})"
    print(format_sweep_table(points, args.metrics, title=title))
    if args.chart:
        for metric in args.metrics:
            print()
            print(render_figure(points, metric, title=f"{metric}:"))
    if args.save:
        save_points_json(points, args.save)
        print(f"\nsaved {len(points)} points to {args.save}")
    violations = _report_grid(records, args.save, audited=args.audit)
    return 1 if violations else 0


def _cmd_radius(args: argparse.Namespace) -> int:
    if not _check_resume(args):
        return 2
    preset = _preset(args)
    generator = preset.generator()
    trace = generator.generate()
    arch = build_architecture(args.arch, preset.workload, seed=args.seed)
    on_progress, records = _grid_observer(args)
    points = run_modulo_radius_sweep(
        arch,
        trace,
        generator.catalog,
        radii=args.radii,
        relative_cache_size=args.size,
        dcache_ratio=args.dcache_ratio,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        progress=on_progress,
        audit=args.audit,
        node_stats=args.node_stats,
    )
    print(
        format_sweep_table(
            points,
            args.metrics,
            title=f"MODULO radius ablation on {args.arch} (cache {args.size:.1%})",
        )
    )
    violations = _report_grid(records, None, audited=args.audit)
    return 1 if violations else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.workload.stats import fit_zipf, summarize_trace
    from repro.workload.trace import read_trace_csv

    trace = read_trace_csv(args.trace)
    stats = summarize_trace(trace)
    print(f"trace: {args.trace}")
    print(f"  requests          {stats.requests}")
    print(f"  unique objects    {stats.unique_objects}")
    print(f"  unique clients    {stats.unique_clients}")
    print(f"  duration          {stats.duration:.1f} s")
    print(f"  mean request rate {stats.mean_request_rate:.2f} /s")
    print(f"  mean object size  {stats.mean_size:.0f} B")
    print(f"  median size       {stats.median_size:.0f} B")
    print(f"  total bytes       {stats.total_bytes}")
    try:
        fit = fit_zipf(trace)
    except ValueError as error:
        print(f"  zipf fit          unavailable ({error})")
        return 0
    print(f"  zipf theta        {fit.theta:.3f} (r^2 = {fit.r_squared:.3f})")
    print(f"  top-decile share  {fit.top_decile_share:.1%}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.compare import compare_points
    from repro.experiments.results_io import load_points_json

    baseline = load_points_json(args.baseline)
    candidate = load_points_json(args.candidate)
    report = compare_points(
        baseline,
        candidate,
        metrics=args.metrics,
        relative_tolerance=args.tolerance,
    )
    print(report.format())
    return 0 if report.ok else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.costs.model import LatencyCostModel
    from repro.sim.config import SimulationConfig
    from repro.sim.engine import SimulationEngine
    from repro.workload.trace import read_trace_csv

    if args.scheme not in SCHEME_NAMES:
        print(
            f"unknown scheme {args.scheme!r}; "
            f"expected one of {sorted(SCHEME_NAMES)}",
            file=sys.stderr,
        )
        return 2
    trace = read_trace_csv(args.trace)
    if len(trace) == 0:
        print("trace is empty", file=sys.stderr)
        return 2
    num_clients = max(r.client_id for r in trace) + 1
    num_servers = max(r.server_id for r in trace) + 1
    # The trace itself defines the object volume base.
    sizes_by_object = {r.object_id: r.size for r in trace}
    total_bytes = sum(sizes_by_object.values())
    mean_size = total_bytes / len(sizes_by_object)

    from repro.workload.generator import WorkloadConfig

    workload = WorkloadConfig(
        num_objects=max(sizes_by_object) + 1,
        num_servers=num_servers,
        num_clients=num_clients,
        num_requests=len(trace),
    )
    arch = build_architecture(args.arch, workload, seed=args.seed)
    cost = LatencyCostModel(arch.network, mean_size)
    config = SimulationConfig(relative_cache_size=args.size)
    capacity = config.capacity_bytes(total_bytes)
    dentries = config.dcache_entries(total_bytes, mean_size)

    from repro.sim.factory import build_scheme

    scheme = build_scheme(args.scheme, cost, capacity, dentries)
    result = SimulationEngine(arch, cost, scheme).run(trace)
    s = result.summary
    print(f"{args.scheme} on {args.arch}, cache {args.size:.2%} "
          f"({result.requests_measured} measured requests)")
    print(f"  mean latency      {s.mean_latency:.5f}")
    print(f"  latency p50/p90/p99  "
          f"{s.latency_percentiles[0]:.5f} / {s.latency_percentiles[1]:.5f} "
          f"/ {s.latency_percentiles[2]:.5f}")
    print(f"  response ratio    {s.mean_response_ratio:.3e}")
    print(f"  byte hit ratio    {s.byte_hit_ratio:.4f}")
    print(f"  mean hops         {s.mean_hops:.3f}")
    print(f"  cache load/req    {s.mean_cache_load:.0f} B")
    return 0


def _scheme_path(base: str, scheme: str, multi: bool) -> str:
    """Per-scheme output path: insert ``.{scheme}`` before the suffix.

    Only applied when several schemes share one ``--*-out`` flag, so a
    single-scheme run writes exactly the path the user asked for.
    """
    if not multi:
        return base
    from pathlib import Path

    path = Path(base)
    if path.suffix:
        return str(path.with_name(f"{path.stem}.{scheme}{path.suffix}"))
    return f"{base}.{scheme}"


def _build_sim_instruments(args: argparse.Namespace, scheme: str, multi: bool):
    """The per-scheme ``Instruments`` bundle for ``repro sim`` (or None).

    Returns ``(instruments, trace_writer)``; the writer must be closed
    by the caller after the run.
    """
    from repro.obs import Instruments, JsonlTraceWriter, PhaseTimers, Probe
    from repro.obs.registry import StatRegistry

    writer = None
    probe = None
    if args.trace_out:
        writer = JsonlTraceWriter(_scheme_path(args.trace_out, scheme, multi))
        probe = Probe(
            writer,
            sample_every=args.trace_sample_every,
            sample_rate=args.trace_sample_rate,
            seed=args.probe_seed,
        )
    registry = (
        StatRegistry()
        if args.node_stats or args.prom_out or args.snapshot_every
        else None
    )
    timers = PhaseTimers() if args.timers else None
    if probe is None and registry is None and timers is None:
        return None, None
    return (
        Instruments(
            probe=probe,
            registry=registry,
            timers=timers,
            snapshot_every=args.snapshot_every,
        ),
        writer,
    )


def _cmd_sim(args: argparse.Namespace) -> int:
    from repro.experiments.runner import GridTask, execute_point
    from repro.metrics.timeseries import (
        IntervalMetricsCollector,
        series_to_csv,
        series_to_json,
    )
    from repro.obs.export import format_node_stats, prometheus_text
    from repro.sim.config import SimulationConfig
    from repro.verify.auditor import AuditConfig

    preset = _preset(args)
    unknown = set(args.schemes) - set(SCHEME_NAMES)
    if unknown:
        print(
            f"unknown schemes: {sorted(unknown)}; "
            f"expected names from {sorted(SCHEME_NAMES)}",
            file=sys.stderr,
        )
        return 2
    if args.timeseries_out and not args.timeseries_window:
        print("--timeseries-out requires --timeseries-window", file=sys.stderr)
        return 2
    try:
        coherency = _build_coherency(args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if coherency is not None and not args.update_rate:
        print("--coherency requires --update-rate > 0 "
              "(a coherency mode with no updates measures nothing)",
              file=sys.stderr)
        return 2
    generator = preset.generator()
    trace = (
        generator.generate_columnar() if args.columnar else generator.generate()
    )
    updates = _build_updates(
        coherency,
        None,
        generator.catalog.num_objects,
        trace.duration,
        args.update_rate,
        args.seed,
    )
    arch = build_architecture(args.arch, preset.workload, seed=args.seed)
    audit: bool | AuditConfig = False
    if args.audit:
        # Collecting mode so one bad scheme does not hide the others'
        # violations; shadow replay on -- sim is the thorough front.
        audit = AuditConfig(
            audit_every=args.audit_every,
            shadow_replay=True,
            strict=False,
        )
    config = SimulationConfig(
        relative_cache_size=args.size, dcache_ratio=args.dcache_ratio
    )
    header = f"{args.arch} ({preset.name} scale, seed {args.seed}), " \
             f"cache {args.size:.2%}"
    if args.audit:
        header += f", audited every {args.audit_every} requests"
    if updates:
        header += f", {len(updates)} update events"
        if coherency is not None:
            header += f" via {coherency.mode}"
    print(header)
    multi = len(args.schemes) > 1
    total_violations = 0
    points = []
    for name in args.schemes:
        task = GridTask(scheme=name, config=config, params={})
        instruments, writer = _build_sim_instruments(args, name, multi)
        interval = (
            IntervalMetricsCollector(args.timeseries_window)
            if args.timeseries_window
            else None
        )
        try:
            point, record = execute_point(
                arch,
                trace,
                generator.catalog,
                task,
                audit=audit,
                instruments=instruments,
                interval_collector=interval,
                updates=updates,
                coherency=coherency,
            )
        finally:
            if writer is not None:
                writer.close()
        points.append(point)
        s = point.summary
        line = (
            f"  {name:14s} latency {s.mean_latency:8.5f}  "
            f"byte-hit {s.byte_hit_ratio:.4f}  hops {s.mean_hops:.3f}"
        )
        if args.audit:
            if record.audit_violations:
                line += (
                    f"  [{record.audit_checks} checks, "
                    f"{len(record.audit_violations)} VIOLATIONS]"
                )
            else:
                line += f"  [{record.audit_checks} checks, audit ok]"
        print(line, flush=True)
        if point.coherency is not None:
            print(_format_coherency(point.coherency))
        for raw in record.audit_violations:
            print(f"    {AuditViolation.from_dict(raw).format()}")
        total_violations += len(record.audit_violations)
        if writer is not None:
            print(f"    trace: {writer.events_written} events -> {writer.path}")
        if args.node_stats and record.node_stats is not None:
            print(format_node_stats(record.node_stats))
        if args.prom_out and record.node_stats is not None:
            prom_path = _scheme_path(args.prom_out, name, multi)
            with open(prom_path, "w") as f:
                f.write(prometheus_text(record.node_stats))
            print(f"    prometheus dump -> {prom_path}")
        if args.timers and instruments is not None:
            print(instruments.timers.format())
        if interval is not None:
            series = interval.series()
            if args.timeseries_out:
                out_path = _scheme_path(args.timeseries_out, name, multi)
                text = (
                    series_to_json(series)
                    if out_path.endswith(".json")
                    else series_to_csv(series)
                )
                with open(out_path, "w") as f:
                    f.write(text)
                print(f"    timeseries: {len(series)} windows -> {out_path}")
            else:
                print(series_to_csv(series), end="")
    if args.save:
        save_points_json(points, args.save)
        print(f"saved {len(points)} points to {args.save}")
    if args.audit:
        verdict = (
            "audit clean: no violations"
            if not total_violations
            else f"audit FAILED: {total_violations} violations"
        )
        print(verdict)
    return 1 if total_violations else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import read_trace_events, summarize_trace_events
    from repro.obs.probe import EVENT_KINDS

    kinds = args.kinds or None
    if kinds:
        unknown = set(kinds) - set(EVENT_KINDS)
        if unknown:
            print(
                f"unknown event kinds: {sorted(unknown)} "
                f"(valid: {', '.join(EVENT_KINDS)})",
                file=sys.stderr,
            )
            return 2
    try:
        events = read_trace_events(args.trace, kinds=kinds)
        if args.events:
            for shown, event in enumerate(events):
                if args.limit and shown >= args.limit:
                    break
                print(json.dumps(event, separators=(",", ":")))
            return 0
        summary = summarize_trace_events(events)
    except OSError as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 2
    print(f"trace: {args.trace}")
    print(summary.format())
    return 0


def _cmd_audit_selftest(args: argparse.Namespace) -> int:
    from repro.verify.selftest import run_selftest

    report = run_selftest()
    print(report.format())
    return 0 if report.ok else 1


def _serve_manifest(
    args: argparse.Namespace,
    addresses,
    metrics,
    shards=None,
    coherency=None,
    channel=None,
) -> dict:
    """Everything a remote load generator needs to target this cluster.

    Topology, attachment and routing are deterministic functions of
    (arch, scale, seed, theta), so shipping those parameters lets the
    client rebuild the exact architecture instead of serializing it.
    ``shards`` maps shard id -> owned node ids; a single-process serve
    is recorded as one shard owning everything.  ``coherency`` is the
    serve-side CoherencyConfig (or None); ``channel`` carries the
    broker address and group parameters a channel-mode client needs.
    """
    if shards is None:
        shards = {0: sorted(addresses)}
    document = {
        "scheme": args.scheme,
        "arch": args.arch,
        "scale": args.scale,
        "seed": args.seed,
        "theta": args.theta,
        "relative_cache_size": args.size,
        "dcache_ratio": args.dcache_ratio,
        "warmup_fraction": args.warmup,
        "num_shards": getattr(args, "shards", 1),
        "max_inflight": getattr(args, "max_inflight", None),
        "shards": {
            str(shard): nodes for shard, nodes in sorted(shards.items())
        },
        "nodes": {str(n): list(a) for n, a in sorted(addresses.items())},
        "metrics": {str(n): list(a) for n, a in sorted(metrics.items())},
        "coherency": coherency.to_dict() if coherency is not None else None,
    }
    if channel is not None:
        document["channel"] = channel
    return document


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    from pathlib import Path

    from repro.serve import Cluster, ResilienceConfig, RetryPolicy, TCPTransport
    from repro.sim.config import SimulationConfig

    if args.scheme not in SCHEME_NAMES:
        print(
            f"unknown scheme {args.scheme!r}; "
            f"expected one of {sorted(SCHEME_NAMES)}",
            file=sys.stderr,
        )
        return 2
    try:
        coherency = _build_coherency(args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if coherency is not None and coherency.poll_interval:
        print(
            "--channel-poll-interval is a simulator knob; the live "
            "channel pushes events to subscribers (set it to 0)",
            file=sys.stderr,
        )
        return 2
    if (
        coherency is not None
        and coherency.mode == "channel"
        and args.shards > 1
    ):
        print(
            "--coherency channel is not supported with --shards > 1 "
            "(the channel broker lives in the serve process)",
            file=sys.stderr,
        )
        return 2
    preset = _preset(args)
    generator = preset.generator()
    arch = build_architecture(args.arch, preset.workload, seed=args.seed)
    config = SimulationConfig(
        relative_cache_size=args.size,
        dcache_ratio=args.dcache_ratio,
        warmup_fraction=args.warmup,
    )
    fault_plan = None
    if args.fault_plan:
        from repro.faults import FaultPlan

        try:
            fault_plan = FaultPlan.from_json_file(args.fault_plan)
        except (OSError, ValueError, KeyError) as error:
            print(
                f"cannot load fault plan {args.fault_plan}: {error}",
                file=sys.stderr,
            )
            return 2
    resilience = ResilienceConfig(
        retry=RetryPolicy(attempts=args.retry_attempts)
    )
    tracing = None
    if args.trace_out:
        from repro.serve import TracingConfig

        tracing = TracingConfig(
            path=args.trace_out, sample_every=args.trace_sample_every
        )

    if args.shards > 1:
        if fault_plan is not None:
            print(
                "--fault-plan is not supported with --shards > 1 "
                "(inject faults on a single-process serve)",
                file=sys.stderr,
            )
            return 2
        return _serve_sharded(
            args, arch, generator, config, resilience, preset, coherency
        )

    async def run() -> None:
        transport = TCPTransport(host=args.host, call_timeout=args.rpc_timeout)
        if fault_plan is not None:
            from repro.faults import FaultInjector, FaultyTransport

            transport = FaultyTransport(transport, FaultInjector(fault_plan))
            print(fault_plan.describe(), flush=True)
        cluster = Cluster.build(
            arch,
            generator.catalog,
            args.scheme,
            config=config,
            transport=transport,
            resilience=resilience,
            seed=args.seed,
            max_inflight=args.max_inflight,
            tracing=tracing,
            coherency=coherency,
        )
        addresses = await cluster.start()
        metrics = {}
        if not args.no_metrics:
            metrics = await cluster.enable_metrics(host=args.host)
        channel = None
        if cluster.broker is not None:
            channel = {
                "broker": list(cluster.broker_address),
                "groups": dict(cluster.groups.params),
            }
        manifest = _serve_manifest(
            args, addresses, metrics, coherency=coherency, channel=channel
        )
        Path(args.manifest).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        banner = (
            f"serving {len(addresses)} nodes: {args.scheme} on {args.arch} "
            f"({preset.name} scale, seed {args.seed})"
        )
        if coherency is not None:
            banner += f", coherency {coherency.mode}"
            if cluster.broker is not None:
                banner += f" (broker on {cluster.broker_address})"
        print(banner, flush=True)
        print(f"manifest -> {args.manifest}", flush=True)
        snapshot_path = Path(args.snapshot) if args.snapshot else None
        await cluster.serve_forever(snapshot_path=snapshot_path)
        if fault_plan is not None:
            injected = transport.injector.summary()
            print(
                "injected faults: "
                + ", ".join(f"{k}={v}" for k, v in injected.items())
            )
        if snapshot_path is not None:
            print(f"drained; state snapshot -> {snapshot_path}")

    asyncio.run(run())
    return 0


def _serve_sharded(
    args, arch, generator, config, resilience, preset, coherency
) -> int:
    """Multi-process serve: one worker per shard, coordinated over pipes.

    The parent never hosts a node -- it spawns the shard workers, writes
    the merged manifest, and sleeps on SIGINT/SIGTERM; shutdown drains
    every worker and (with ``--snapshot``) lands the final per-node
    stats on disk.  ``coherency`` (in-band only) changes nothing on the
    workers -- every node answers ``inv`` frames -- and is recorded in
    the manifest for the load generator.
    """
    import json
    import signal as signal_module
    import threading
    from pathlib import Path

    from repro.serve.shard import ShardedCluster

    cluster = ShardedCluster(
        arch,
        generator.catalog,
        args.scheme,
        num_shards=args.shards,
        config=config,
        resilience=resilience,
        seed=args.seed,
        host=args.host,
        max_inflight=args.max_inflight,
        rpc_timeout=args.rpc_timeout,
        metrics=not args.no_metrics,
        trace_path=args.trace_out,
        trace_sample_every=args.trace_sample_every,
    )
    addresses = cluster.start()
    shards = {
        shard: cluster.plan.nodes_of(shard) for shard in range(args.shards)
    }
    manifest = _serve_manifest(
        args,
        addresses,
        cluster.metrics_addresses,
        shards=shards,
        coherency=coherency,
    )
    Path(args.manifest).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"serving {len(addresses)} nodes over {args.shards} shard processes: "
        f"{args.scheme} on {args.arch} ({preset.name} scale, seed {args.seed})",
        flush=True,
    )
    print(f"manifest -> {args.manifest}", flush=True)
    stop = threading.Event()
    for sig in (signal_module.SIGINT, signal_module.SIGTERM):
        signal_module.signal(sig, lambda *_: stop.set())
    stop.wait()
    final = cluster.stop()
    if args.snapshot:
        snap = {
            "scheme": args.scheme,
            "architecture": arch.name,
            "num_shards": args.shards,
            "nodes": {str(n): final[n] for n in sorted(final)},
        }
        Path(args.snapshot).write_text(
            json.dumps(snap, indent=2, sort_keys=True) + "\n"
        )
        print(f"drained; state snapshot -> {args.snapshot}")
    return 0


def _load_manifest(path: str, wait: float) -> dict:
    """Read a serve manifest, waiting for the server to publish it."""
    import json
    import time
    from pathlib import Path

    deadline = time.monotonic() + wait
    manifest_path = Path(path)
    while True:
        if manifest_path.exists():
            text = manifest_path.read_text()
            if text.strip():  # fully written (serve writes atomically enough)
                return json.loads(text)
        if time.monotonic() >= deadline:
            raise FileNotFoundError(
                f"manifest {path} not published within {wait:.0f}s "
                "(is `repro serve` running?)"
            )
        time.sleep(0.1)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.coherency import CoherencyConfig
    from repro.costs.model import LatencyCostModel
    from repro.serve import ClusterClient, LoadGenerator, TCPTransport
    from repro.workload.groups import GroupAssignment
    from repro.workload.trace import Trace

    try:
        requested = _build_coherency(args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        manifest = _load_manifest(args.manifest, args.wait)
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    # The serve manifest is authoritative for the coherency mode -- the
    # cluster was built with it.  Flags here only assert expectations;
    # the one liberty allowed is requesting in-band against a server
    # that configured nothing (in-band is the implicit default).
    manifest_raw = manifest.get("coherency")
    coherency = (
        CoherencyConfig.from_dict(manifest_raw) if manifest_raw else None
    )
    if requested is not None:
        if coherency is None:
            if requested.mode != "inband":
                print(
                    "--coherency channel requested, but the serve manifest "
                    "has no coherency section (restart serve with "
                    "--coherency channel)",
                    file=sys.stderr,
                )
                return 2
            coherency = requested
        elif requested.to_dict() != coherency.to_dict():
            print(
                f"--coherency flags disagree with the serve manifest "
                f"(server was started with {manifest_raw})",
                file=sys.stderr,
            )
            return 2
    scale = _SCALES[manifest["scale"]].with_seed(manifest["seed"])
    if manifest.get("theta") is not None:
        scale = scale.with_theta(manifest["theta"])
    generator = scale.generator()
    trace = generator.generate()
    if args.requests and args.requests < len(trace):
        trace = Trace(trace.records[: args.requests])
    arch = build_architecture(
        manifest["arch"], scale.workload, seed=manifest["seed"]
    )
    cost_model = LatencyCostModel(arch.network, generator.catalog.mean_size)
    addresses = {
        int(node): (host, port)
        for node, (host, port) in manifest["nodes"].items()
    }
    groups = None
    broker_address = None
    channel_info = manifest.get("channel")
    if channel_info is not None:
        groups = GroupAssignment.from_params(channel_info["groups"])
        broker_address = tuple(channel_info["broker"])
    elif coherency is not None:
        groups = coherency.build_groups(generator.catalog.num_objects)
    updates = _build_updates(
        coherency,
        groups,
        generator.catalog.num_objects,
        trace.duration,
        args.update_rate,
        manifest["seed"],
    )
    if updates and args.mode == "closed":
        print(
            "--update-rate requires --mode sequential or open "
            "(closed mode has no notion of trace time to pace updates)",
            file=sys.stderr,
        )
        return 2
    client = ClusterClient(
        arch,
        cost_model,
        addresses,
        TCPTransport(),
        coherency=coherency,
        groups=groups,
        broker_address=broker_address,
    )
    loadgen = LoadGenerator(
        client,
        trace,
        updates=updates,
        warmup_fraction=manifest["warmup_fraction"],
    )

    async def run():
        try:
            return await loadgen.run(
                mode=args.mode,
                concurrency=args.concurrency,
                speedup=args.speedup,
                max_errors=args.max_errors,
                open_inflight_limit=args.inflight_limit or None,
                busy_retries=args.busy_retries,
            )
        finally:
            await client.close()

    report = asyncio.run(run())
    s = report.summary
    print(
        f"{manifest['scheme']} on {manifest['arch']}: {report.mode} mode, "
        f"{report.requests_total} requests "
        f"({report.requests_measured} measured)"
    )
    if report.requests_per_second is None:
        print("  throughput        n/a (degenerate measurement window)")
    else:
        print(f"  throughput        {report.requests_per_second:8.0f} req/s")
    if report.wall_latency_mean is None:
        print("  wall latency      n/a (no completed requests)")
    else:
        print(
            f"  wall latency      mean {report.wall_latency_mean * 1e3:.3f} ms, "
            f"p50/p90/p99 {report.wall_latency_percentiles[0] * 1e3:.3f} / "
            f"{report.wall_latency_percentiles[1] * 1e3:.3f} / "
            f"{report.wall_latency_percentiles[2] * 1e3:.3f} ms"
        )
    print(f"  modelled latency  {s.mean_latency:.5f}")
    print(f"  byte hit ratio    {s.byte_hit_ratio:.4f}")
    print(f"  hit ratio         {s.hit_ratio:.4f}")
    print(f"  mean hops         {s.mean_hops:.3f}")
    if report.errors:
        print(f"  errors            {report.errors}")
    if report.rejected or report.shed or report.busy_retries:
        print(
            f"  backpressure      rejected {report.rejected}, "
            f"shed {report.shed}, busy retries {report.busy_retries}"
        )
    if report.updates_applied:
        print(
            f"  updates           {report.updates_applied} applied, "
            f"{report.copies_invalidated} copies invalidated"
        )
    if report.coherency is not None:
        print(_format_coherency(report.coherency, indent="  "))
    if report.aborted:
        print(f"  aborted           errors exceeded --max-errors "
              f"({args.max_errors}); partial report")
    if args.report_out:
        import json

        document = report.to_dict()
        # Context keys so the warehouse can label the row without
        # needing the manifest next to the report.
        document["scheme"] = manifest["scheme"]
        document["arch"] = manifest["arch"]
        with open(args.report_out, "w") as f:
            json.dump(document, f, indent=2, sort_keys=True)
        print(f"  report -> {args.report_out}")
    return 0


def _cmd_warehouse(args: argparse.Namespace) -> int:
    from repro.obs.warehouse import (
        CANNED_QUERIES,
        Warehouse,
        format_table,
        write_csv,
    )

    with Warehouse(args.db) as warehouse:
        if args.action == "ingest":
            failures = 0
            for path in args.paths:
                try:
                    result = warehouse.ingest(path)
                except (OSError, ValueError) as error:
                    print(f"{path}: {error}", file=sys.stderr)
                    failures += 1
                    continue
                print(result.format_line())
            return 1 if failures else 0
        if args.action == "query":
            if args.sql:
                headers, rows = warehouse.sql(args.sql)
            elif args.name:
                try:
                    headers, rows = warehouse.query(args.name)
                except KeyError as error:
                    print(error.args[0], file=sys.stderr)
                    return 2
            else:
                print("canned queries (repro warehouse query NAME):")
                for name in sorted(CANNED_QUERIES):
                    print(f"  {name:<18} {CANNED_QUERIES[name].description}")
                return 0
            if args.csv:
                sys.stdout.write(write_csv(headers, rows))
            else:
                print(format_table(headers, rows))
            return 0
        if args.action == "report":
            print(warehouse.report())
            return 0
        # poll: scrape the /metrics endpoints of a running serve cluster.
        import time

        from repro.obs.warehouse import poll_metrics

        try:
            manifest = _load_manifest(args.manifest, args.wait)
        except FileNotFoundError as error:
            print(str(error), file=sys.stderr)
            return 2
        for i in range(args.count):
            if i:
                time.sleep(args.interval)
            added = poll_metrics(warehouse, manifest, scraped_at=time.time())
            print(f"scrape {i + 1}/{args.count}: {added} samples")
        return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="cascade-repro",
        description="Reproduction of coordinated cascaded-cache management "
        "(Tang & Chanson, ICDE 2003)",
    )
    parser.add_argument(
        "--version",
        "-V",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="regenerate Table 1")
    _add_common(table1)
    table1.set_defaults(func=_cmd_table1)

    sweep = sub.add_parser("sweep", help="cache-size sweep (Figures 6-10)")
    _add_common(sweep)
    sweep.add_argument(
        "--schemes",
        type=_csv_strs,
        default=list(SCHEME_NAMES),
        help="comma-separated scheme names",
    )
    sweep.add_argument(
        "--sizes",
        type=_csv_floats,
        default=list(DEFAULT_CACHE_SIZES),
        help="comma-separated relative cache sizes",
    )
    sweep.add_argument("--radius", type=int, default=4, help="MODULO radius")
    sweep.add_argument(
        "--metrics",
        type=_csv_strs,
        default=list(_DEFAULT_METRICS),
        help="comma-separated metric names",
    )
    _add_grid_args(sweep)
    sweep.add_argument(
        "--provision",
        action="store_true",
        help="joint cache-sizing mode: rerun every (scheme, size) point "
        "under each budget-preserving per-level capacity profile",
    )
    sweep.add_argument(
        "--profiles",
        type=_csv_strs,
        default=None,
        help="comma-separated provisioning profile names "
        f"(default: all of {', '.join(sorted(PROVISION_PROFILES))})",
    )
    sweep.add_argument(
        "--chart",
        action="store_true",
        help="also render each metric as an ASCII chart",
    )
    sweep.add_argument(
        "--save",
        default=None,
        help="write the sweep points to this JSON file",
    )
    sweep.set_defaults(func=_cmd_sweep)

    radius = sub.add_parser("radius", help="MODULO cache-radius ablation")
    _add_common(radius)
    radius.add_argument(
        "--radii", type=_csv_ints, default=[1, 2, 3, 4, 5, 6]
    )
    radius.add_argument("--size", type=float, default=0.03)
    radius.add_argument(
        "--dcache-ratio",
        type=float,
        default=3.0,
        help="d-cache size as a multiple of the main cache's object count",
    )
    radius.add_argument(
        "--metrics",
        type=_csv_strs,
        default=["latency", "byte_hit_ratio", "cache_load"],
    )
    _add_grid_args(radius)
    radius.set_defaults(func=_cmd_radius)

    analyze = sub.add_parser("analyze", help="statistics of a trace CSV")
    analyze.add_argument("trace", help="trace CSV path")
    analyze.set_defaults(func=_cmd_analyze)

    compare = sub.add_parser(
        "compare", help="diff two saved sweep-result JSON files"
    )
    compare.add_argument("baseline", help="baseline results JSON")
    compare.add_argument("candidate", help="candidate results JSON")
    compare.add_argument(
        "--tolerance", type=float, default=0.02, help="relative tolerance"
    )
    compare.add_argument(
        "--metrics",
        type=_csv_strs,
        default=["latency", "byte_hit_ratio", "hops", "cache_load"],
    )
    compare.set_defaults(func=_cmd_compare)

    replay = sub.add_parser("replay", help="replay a trace CSV")
    replay.add_argument("trace", help="trace CSV path")
    replay.add_argument(
        "--arch",
        choices=("en-route", "hierarchical"),
        default="en-route",
    )
    replay.add_argument("--scheme", default="coordinated")
    replay.add_argument(
        "--size", type=float, default=0.03, help="relative cache size"
    )
    replay.add_argument("--seed", type=int, default=0)
    replay.set_defaults(func=_cmd_replay)

    sim = sub.add_parser(
        "sim", help="run each scheme once (with optional --audit)"
    )
    _add_common(sim)
    sim.add_argument(
        "--schemes",
        type=_csv_strs,
        default=list(SCHEME_NAMES),
        help="comma-separated scheme names",
    )
    sim.add_argument(
        "--size", type=float, default=0.03, help="relative cache size"
    )
    sim.add_argument(
        "--dcache-ratio",
        type=float,
        default=3.0,
        help="d-cache size as a multiple of the main cache's object count",
    )
    sim.add_argument(
        "--update-rate",
        type=float,
        default=0.0,
        help="drive a Poisson stream of server-side updates at this "
        "aggregate rate (events per unit trace time; 0 = read-only)",
    )
    sim.add_argument(
        "--save",
        default=None,
        help="write the per-scheme points (with coherency accounting) "
        "to this JSON file (ingestable by `repro warehouse ingest`)",
    )
    _add_coherency_args(sim)
    sim.add_argument(
        "--columnar",
        action="store_true",
        help="build the trace as arrays (generate_columnar, bit-identical "
        "to the default) and take the batched fast path where eligible; "
        "audit and instrumentation flags fall back to the reference loop",
    )
    sim.add_argument(
        "--audit",
        action="store_true",
        help="run under the full correctness audit layer "
        "(invariant sweeps, differential oracles, shadow replay)",
    )
    sim.add_argument(
        "--audit-every",
        type=int,
        default=1000,
        help="requests between periodic invariant sweeps",
    )
    obs = sim.add_argument_group(
        "instrumentation",
        "opt-in observability (see repro.obs); with several --schemes, "
        "output paths get a .{scheme} infix",
    )
    obs.add_argument(
        "--trace-out",
        default=None,
        help="write a JSONL event trace to this path",
    )
    obs.add_argument(
        "--trace-sample-every",
        type=int,
        default=1,
        help="keep every Nth event per kind (systematic sampling)",
    )
    obs.add_argument(
        "--trace-sample-rate",
        type=float,
        default=1.0,
        help="keep each event with this probability (seeded, see --probe-seed)",
    )
    obs.add_argument(
        "--probe-seed",
        type=int,
        default=0,
        help="seed of the probabilistic sampler (deterministic traces)",
    )
    obs.add_argument(
        "--node-stats",
        action="store_true",
        help="print the per-node stat registry table after each run",
    )
    obs.add_argument(
        "--prom-out",
        default=None,
        help="write the per-node counters as Prometheus text to this path",
    )
    obs.add_argument(
        "--timers",
        action="store_true",
        help="time the routing / scheme / DP-solve / victim-selection "
        "phases and print the profile",
    )
    obs.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        help="take a registry snapshot every N requests "
        "(emitted as 'snapshot' trace events)",
    )
    obs.add_argument(
        "--timeseries-window",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="bin outcomes into windows of this width "
        "(prints CSV unless --timeseries-out is given)",
    )
    obs.add_argument(
        "--timeseries-out",
        default=None,
        help="write the windowed series here (.json for JSON, else CSV)",
    )
    sim.set_defaults(func=_cmd_sim)

    trace_cmd = sub.add_parser(
        "trace", help="filter / summarize a saved JSONL event trace"
    )
    trace_cmd.add_argument("trace", help="JSONL trace path (from sim --trace-out)")
    trace_cmd.add_argument(
        "--kinds",
        type=_csv_strs,
        default=None,
        help="comma-separated event kinds to keep",
    )
    trace_cmd.add_argument(
        "--events",
        action="store_true",
        help="print matching events instead of the summary",
    )
    trace_cmd.add_argument(
        "--limit",
        type=int,
        default=0,
        help="with --events: stop after N events (0 = no limit)",
    )
    trace_cmd.set_defaults(func=_cmd_trace)

    selftest = sub.add_parser(
        "audit-selftest",
        help="prove the audit layer detects seeded mutations",
    )
    selftest.set_defaults(func=_cmd_audit_selftest)

    serve = sub.add_parser(
        "serve", help="run a topology as a live TCP cluster of cache nodes"
    )
    _add_common(serve)
    serve.add_argument(
        "--scheme", default="coordinated", help="caching scheme to serve"
    )
    serve.add_argument(
        "--size", type=float, default=0.03, help="relative cache size"
    )
    serve.add_argument(
        "--dcache-ratio",
        type=float,
        default=3.0,
        help="d-cache size as a multiple of the main cache's object count",
    )
    serve.add_argument(
        "--warmup",
        type=float,
        default=0.5,
        help="warmup fraction recorded in the manifest for load generators",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address for all nodes"
    )
    serve.add_argument(
        "--manifest",
        default="cluster.json",
        help="write node/metrics addresses to this JSON file",
    )
    serve.add_argument(
        "--snapshot",
        default=None,
        help="write a cluster state snapshot here on graceful shutdown",
    )
    serve.add_argument(
        "--no-metrics",
        action="store_true",
        help="do not start the per-node /metrics HTTP endpoints",
    )
    serve.add_argument(
        "--fault-plan",
        default=None,
        help="inject faults from this JSON plan into node-to-node calls "
        "(see examples/fault_plan.json)",
    )
    serve.add_argument(
        "--rpc-timeout",
        type=float,
        default=None,
        help="per-RPC deadline in seconds for node-to-node calls "
        "(default: wait forever)",
    )
    serve.add_argument(
        "--retry-attempts",
        type=int,
        default=3,
        help="total tries per upstream call before failing over",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split the topology over this many worker processes "
        "(tree-contiguous node assignment; 1 = single process)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="per-node admission bound: shed request walks past this many "
        "in flight with a retryable `busy` frame (default: unbounded)",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        help="record per-hop request spans to this JSONL file (with "
        "--shards > 1 each shard writes PATH.shardN.jsonl); off by "
        "default, and the untraced request path is bit-identical",
    )
    serve.add_argument(
        "--trace-sample-every",
        type=int,
        default=1,
        help="trace every Nth ingress request (1 = every request); "
        "sampling decides at ingress, so sampled traces are complete",
    )
    _add_coherency_args(serve)
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen", help="drive a served cluster from a generated trace"
    )
    loadgen.add_argument(
        "--manifest",
        default="cluster.json",
        help="manifest JSON written by `serve`",
    )
    loadgen.add_argument(
        "--mode",
        choices=("sequential", "closed", "open"),
        default="closed",
        help="driving mode (sequential replays in exact trace order)",
    )
    loadgen.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="closed-loop worker count",
    )
    loadgen.add_argument(
        "--speedup",
        type=float,
        default=1000.0,
        help="open-loop trace time compression factor",
    )
    loadgen.add_argument(
        "--requests",
        type=int,
        default=0,
        help="truncate the trace to its first N requests (0 = full trace)",
    )
    loadgen.add_argument(
        "--wait",
        type=float,
        default=10.0,
        help="seconds to wait for the manifest to appear",
    )
    loadgen.add_argument(
        "--report-out",
        "--json",
        dest="report_out",
        default=None,
        help="also write the full report as JSON here (ingestable by "
        "`repro warehouse ingest`)",
    )
    loadgen.add_argument(
        "--max-errors",
        type=int,
        default=0,
        help="abort (gracefully, still emitting the report) once this many "
        "request errors have been counted",
    )
    loadgen.add_argument(
        "--inflight-limit",
        type=int,
        default=0,
        help="open-loop only: cap in-flight requests, shedding fires past "
        "the cap (0 = unbounded)",
    )
    loadgen.add_argument(
        "--busy-retries",
        type=int,
        default=2,
        help="client-side retries when a node sheds with a `busy` frame "
        "before counting the request as rejected",
    )
    loadgen.add_argument(
        "--update-rate",
        type=float,
        default=0.0,
        help="interleave a Poisson stream of origin updates at this "
        "aggregate rate (sequential/open modes; 0 = read-only)",
    )
    _add_coherency_args(loadgen)
    loadgen.set_defaults(func=_cmd_loadgen)

    warehouse = sub.add_parser(
        "warehouse",
        help="sqlite results warehouse: ingest artifacts, run canned "
        "comparison queries",
    )
    warehouse.add_argument(
        "--db",
        default="warehouse.sqlite",
        help="warehouse database path (created on first use)",
    )
    wsub = warehouse.add_subparsers(dest="action", required=True)
    w_ingest = wsub.add_parser(
        "ingest",
        help="ingest artifacts (results/checkpoint/run records/bench "
        "baselines/loadgen reports/span traces/prometheus scrapes); "
        "idempotent -- re-ingesting changes zero rows",
    )
    w_ingest.add_argument("paths", nargs="+", help="artifact files")
    w_query = wsub.add_parser(
        "query", help="run a canned comparison query (no name: list catalog)"
    )
    w_query.add_argument("name", nargs="?", default=None)
    w_query.add_argument(
        "--sql", default=None, help="run this SQL instead of a canned query"
    )
    w_query.add_argument(
        "--csv", action="store_true", help="emit CSV instead of a table"
    )
    wsub.add_parser(
        "report", help="table row counts plus every non-empty canned query"
    )
    w_poll = wsub.add_parser(
        "poll",
        help="scrape a running cluster's /metrics endpoints into the "
        "warehouse timeseries",
    )
    w_poll.add_argument(
        "--manifest",
        default="cluster.json",
        help="manifest JSON written by `serve`",
    )
    w_poll.add_argument(
        "--count", type=int, default=1, help="number of scrapes"
    )
    w_poll.add_argument(
        "--interval",
        type=float,
        default=5.0,
        help="seconds between scrapes",
    )
    w_poll.add_argument(
        "--wait",
        type=float,
        default=10.0,
        help="seconds to wait for the manifest to appear",
    )
    warehouse.set_defaults(func=_cmd_warehouse)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # A downstream pager/head closed the pipe mid-print (e.g.
        # ``repro warehouse query ... | head``).  Point stdout at
        # devnull so the interpreter's exit-time flush cannot raise
        # again, and report the conventional failure code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
