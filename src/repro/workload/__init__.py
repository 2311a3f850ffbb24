"""Workload substrate: object catalogs, Zipf popularity, traces.

The paper drives its simulation with the (proprietary, now unavailable)
Boeing proxy traces of March 1999.  This package provides (a) a trace file
format with reader/writer so any real trace can be plugged in, and (b) a
synthetic generator reproducing the statistical properties the paper relies
on: Zipf-like object popularity [Breslau et al. 1999], heavy-tailed object
sizes, Poisson request arrivals and random client/server placement.
"""

from repro.workload.catalog import ObjectCatalog, SizeDistribution
from repro.workload.zipf import ZipfSampler
from repro.workload.trace import (
    ColumnarTrace,
    Trace,
    TraceRecord,
    read_trace_csv,
    read_trace_csv_columnar,
    write_trace_csv,
    write_trace_csv_columnar,
)
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.groups import GroupAssignment
from repro.workload.scenarios import (
    inject_flash_crowd,
    inject_invalidation_storm,
    inject_scan,
)
from repro.workload.stats import fit_zipf, summarize_trace
from repro.workload.updates import (
    GroupUpdateEvent,
    UpdateEvent,
    expand_group_events,
    generate_group_update_events,
    generate_update_events,
)

__all__ = [
    "BoeingLikeTraceGenerator",
    "ColumnarTrace",
    "GroupAssignment",
    "GroupUpdateEvent",
    "ObjectCatalog",
    "SizeDistribution",
    "Trace",
    "TraceRecord",
    "UpdateEvent",
    "WorkloadConfig",
    "ZipfSampler",
    "expand_group_events",
    "fit_zipf",
    "generate_group_update_events",
    "generate_update_events",
    "inject_flash_crowd",
    "inject_invalidation_storm",
    "inject_scan",
    "read_trace_csv",
    "read_trace_csv_columnar",
    "summarize_trace",
    "write_trace_csv",
    "write_trace_csv_columnar",
]
