"""``repro.obs``: the opt-in per-node instrumentation layer.

Four parts (see ``docs/architecture.md``, "Observing a run"):

* :mod:`repro.obs.probe` -- structured, sampleable events;
* :mod:`repro.obs.registry` -- the per-node cache stat registry;
* :mod:`repro.obs.timers` -- lightweight phase timers;
* :mod:`repro.obs.export` -- JSONL traces, node tables, Prometheus text;
* :mod:`repro.obs.spans` -- cross-shard request-tree reconstruction;
* :mod:`repro.obs.warehouse` -- the sqlite results warehouse.

Everything hangs off an :class:`~repro.obs.instruments.Instruments`
bundle, a run observer passed to ``SimulationEngine.run(...,
instruments=...)``; with no bundle (the default) the simulator runs the
exact uninstrumented path.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "export": (
        "JsonlTraceWriter", "escape_label_value", "format_node_stats",
        "parse_prometheus_text", "prometheus_text", "read_trace_events",
        "summarize_trace_events",
    ),
    "instruments": ("CacheObserver", "DcacheObserver", "Instruments"),
    "probe": ("EVENT_KINDS", "Probe"),
    "registry": ("NodeStats", "StatRegistry"),
    "spans": ("Span", "SpanTree", "reconstruct_traces"),
    "timers": ("PhaseTimers",),
    "warehouse": ("Warehouse",),
})
