"""Workload substrate: object catalogs, Zipf popularity, traces.

The paper drives its simulation with the (proprietary, now unavailable)
Boeing proxy traces of March 1999.  This package provides (a) a trace file
format with reader/writer so any real trace can be plugged in, and (b) a
synthetic generator reproducing the statistical properties the paper relies
on: Zipf-like object popularity [Breslau et al. 1999], heavy-tailed object
sizes, Poisson request arrivals and random client/server placement.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "catalog": ("ObjectCatalog", "SizeDistribution"),
    "zipf": ("ZipfSampler",),
    "trace": (
        "ColumnarTrace", "Trace", "TraceRecord", "read_trace_csv",
        "read_trace_csv_columnar", "write_trace_csv", "write_trace_csv_columnar",
    ),
    "generator": ("BoeingLikeTraceGenerator", "WorkloadConfig"),
    "groups": ("GroupAssignment",),
    "scenarios": ("inject_flash_crowd", "inject_invalidation_storm", "inject_scan"),
    "stats": ("fit_zipf", "summarize_trace"),
    "updates": (
        "GroupUpdateEvent", "UpdateEvent", "expand_group_events",
        "generate_group_update_events", "generate_update_events",
    ),
})
