"""Time-series metrics: per-window aggregates over a run.

The paper reports steady-state means; for studying *dynamics* -- warm-up
convergence, reaction to flash crowds or invalidation storms -- an
:class:`IntervalMetricsCollector` observing a run (``SimulationEngine.run(
..., observers=[collector])``) bins every outcome, warm-up included,
into fixed-width time windows and reports a series of per-window
snapshots.  :func:`series_to_csv` / :func:`series_to_json` serialize a
series for the CLI's ``--timeseries-out``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import List, Sequence

from repro.schemes.base import RequestOutcome


@dataclass(frozen=True)
class IntervalSnapshot:
    """Aggregates of one time window.

    ``hit_ratio`` is the *request* hit ratio (fraction of requests served
    by any cache) -- the byte-weighted counterpart is ``byte_hit_ratio``.
    ``mean_read_load`` / ``mean_write_load`` are the cache-byte traffic
    rates of the window: bytes served from caches, and bytes written
    into caches by placements, per second of window width.

    New fields are appended at the end with defaults so existing
    positional construction keeps working.
    """

    window_start: float
    window_end: float
    requests: int
    mean_latency: float
    byte_hit_ratio: float
    mean_hops: float
    hit_ratio: float = 0.0
    mean_read_load: float = 0.0
    mean_write_load: float = 0.0

    @property
    def midpoint(self) -> float:
        return (self.window_start + self.window_end) / 2


class IntervalMetricsCollector:
    """Bins request outcomes into fixed-width windows.

    Windows are aligned at ``t = 0``; empty windows between active ones
    are emitted with zero requests so series stay evenly spaced.
    """

    def __init__(self, window_seconds: float) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.window_seconds = window_seconds
        self._windows: dict[int, List] = {}

    def begin(self, engine, collector) -> None:
        pass

    def end(self, requests_total: int) -> dict:
        return {}

    def record(self, outcome: RequestOutcome, latency: float, now: float) -> None:
        """Bin one outcome served at time ``now``."""
        self.outcome(-1, now, None, outcome, latency, True)

    def outcome(self, index, now, object_id, outcome, latency, measured) -> None:
        if now < 0:
            raise ValueError("time must be non-negative")
        window = int(now // self.window_seconds)
        bucket = self._windows.setdefault(
            window, [0, 0.0, 0, 0, 0, 0, 0, 0]
        )
        size = outcome.size
        hops = outcome.hit_index
        bucket[0] += 1                       # requests
        bucket[1] += latency                 # latency sum
        bucket[2] += size                    # bytes requested
        if hops < len(outcome.path) - 1:     # served by a cache
            bucket[3] += size                # bytes cache-served
            bucket[5] += 1                   # cache hits
            bucket[6] += size                # bytes read from caches
        bucket[4] += hops                    # hops sum
        bucket[7] += size * len(outcome.inserted_nodes)  # bytes written

    def series(self) -> List[IntervalSnapshot]:
        """Snapshots for every window from the first to the last active one."""
        if not self._windows:
            return []
        first = min(self._windows)
        last = max(self._windows)
        width = self.window_seconds
        snapshots: List[IntervalSnapshot] = []
        for index in range(first, last + 1):
            start = index * width
            end = start + width
            bucket = self._windows.get(index)
            if bucket is None or bucket[0] == 0:
                snapshots.append(
                    IntervalSnapshot(start, end, 0, 0.0, 0.0, 0.0)
                )
                continue
            (
                requests,
                latency_sum,
                req_bytes,
                hit_bytes,
                hops_sum,
                hits,
                read_bytes,
                write_bytes,
            ) = bucket
            snapshots.append(
                IntervalSnapshot(
                    window_start=start,
                    window_end=end,
                    requests=requests,
                    mean_latency=latency_sum / requests,
                    byte_hit_ratio=hit_bytes / req_bytes if req_bytes else 0.0,
                    mean_hops=hops_sum / requests,
                    hit_ratio=hits / requests,
                    mean_read_load=read_bytes / width,
                    mean_write_load=write_bytes / width,
                )
            )
        return snapshots


def series_to_csv(series: Sequence[IntervalSnapshot]) -> str:
    """Render a snapshot series as CSV text (header + one row per window)."""
    names = [f.name for f in fields(IntervalSnapshot)]
    lines = [",".join(names)]
    for snap in series:
        row = asdict(snap)
        lines.append(",".join(_format_csv_value(row[name]) for name in names))
    return "\n".join(lines) + "\n"


def _format_csv_value(value) -> str:
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def series_to_json(series: Sequence[IntervalSnapshot]) -> str:
    """Render a snapshot series as a JSON array of objects."""
    return json.dumps([asdict(snap) for snap in series], indent=2) + "\n"
