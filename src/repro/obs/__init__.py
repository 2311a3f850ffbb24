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

from repro.obs.export import (
    JsonlTraceWriter,
    escape_label_value,
    format_node_stats,
    parse_prometheus_text,
    prometheus_text,
    read_trace_events,
    summarize_trace_events,
)
from repro.obs.instruments import CacheObserver, DcacheObserver, Instruments
from repro.obs.probe import EVENT_KINDS, Probe
from repro.obs.registry import NodeStats, StatRegistry
from repro.obs.spans import Span, SpanTree, reconstruct_traces
from repro.obs.timers import PhaseTimers
from repro.obs.warehouse import Warehouse

__all__ = [
    "CacheObserver",
    "DcacheObserver",
    "EVENT_KINDS",
    "Instruments",
    "JsonlTraceWriter",
    "NodeStats",
    "PhaseTimers",
    "Probe",
    "Span",
    "SpanTree",
    "StatRegistry",
    "Warehouse",
    "escape_label_value",
    "format_node_stats",
    "parse_prometheus_text",
    "prometheus_text",
    "read_trace_events",
    "reconstruct_traces",
    "summarize_trace_events",
]
