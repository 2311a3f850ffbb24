"""Metrics: the six performance measures of the paper's evaluation."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "collector": ("MetricsCollector", "MetricsSummary"),
})
