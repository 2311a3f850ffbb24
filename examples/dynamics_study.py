"""Cache dynamics: warm-up, a flash crowd, and an invalidation storm.

Uses the interval-metrics collector to watch the coordinated scheme's
behavior *over time* instead of as one steady-state mean:

1. warm-up: byte hit ratio climbs as descriptors accumulate;
2. flash crowd: one cold object suddenly gets hot mid-trace -- watch the
   hit ratio absorb the surge;
3. invalidation storm: server-side updates knock copies out -- watch hit
   ratio dip and recover.

Run:  python examples/dynamics_study.py
"""

from __future__ import annotations

from repro import (
    LatencyCostModel,
    SimulationConfig,
    SimulationEngine,
    build_architecture,
    build_scheme,
)
from repro.metrics.timeseries import IntervalMetricsCollector
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.scenarios import inject_flash_crowd
from repro.workload.updates import generate_update_events

WORKLOAD = WorkloadConfig(
    num_objects=400,
    num_servers=10,
    num_clients=50,
    num_requests=15_000,
    zipf_theta=0.8,
    seed=33,
)
WINDOWS = 12


def sparkline(values, width=40) -> str:
    """Render a value series as a text bar chart, one row per window."""
    peak = max(values) or 1.0
    rows = []
    for i, value in enumerate(values):
        bar = "#" * max(1, int(width * value / peak)) if value > 0 else ""
        rows.append(f"  w{i:02d} {value:6.3f} |{bar}")
    return "\n".join(rows)


def run_with_series(trace, updates=()):
    generator = BoeingLikeTraceGenerator(WORKLOAD)
    catalog = generator.catalog
    arch = build_architecture("en-route", WORKLOAD, seed=2)
    cost = LatencyCostModel(arch.network, catalog.mean_size)
    config = SimulationConfig(relative_cache_size=0.03)
    capacity = config.capacity_bytes(catalog.total_bytes)
    dentries = config.dcache_entries(catalog.total_bytes, catalog.mean_size)
    scheme = build_scheme("coordinated", cost, capacity, dentries)
    collector = IntervalMetricsCollector(trace.duration / WINDOWS)
    SimulationEngine(arch, cost, scheme).run(
        trace, updates=updates, observers=[collector]
    )
    return [s for s in collector.series() if s.requests > 0]


def main() -> None:
    generator = BoeingLikeTraceGenerator(WORKLOAD)
    base_trace = generator.generate()
    catalog = generator.catalog

    print("== warm-up: byte hit ratio per window (plain trace) ==")
    series = run_with_series(base_trace)
    print(sparkline([s.byte_hit_ratio for s in series]))
    print()

    print("== flash crowd on object 9 during windows 6-8 ==")
    start = base_trace.duration * 0.5
    crowded = inject_flash_crowd(
        base_trace, catalog, object_id=9, start=start,
        duration=base_trace.duration * 0.25, extra_rate=40.0,
        num_clients=WORKLOAD.num_clients, seed=7,
    )
    series = run_with_series(crowded)
    print(sparkline([s.byte_hit_ratio for s in series]))
    print("The surge is absorbed: extra requests hit fresh nearby copies,")
    print("so the hit ratio rises rather than collapsing.")
    print()

    print("== invalidation storm (10 updates/s) ==")
    updates = generate_update_events(
        WORKLOAD.num_objects, base_trace.duration, update_rate=10.0, seed=3
    )
    series = run_with_series(base_trace, updates=updates)
    print(sparkline([s.byte_hit_ratio for s in series]))
    print("Updates keep knocking copies out; the hit ratio plateaus lower "
          "than the quiet run.")


if __name__ == "__main__":
    main()
