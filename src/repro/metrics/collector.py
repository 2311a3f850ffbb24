"""Metric aggregation for simulation runs.

The collector accumulates, per served request, the measures reported in
the paper's evaluation (section 4):

* **access latency** -- total cost from the requester to the serving node
  (Figures 6a, 9a);
* **response ratio** -- latency divided by object size, eliminating the
  object-size effect (Figures 6b, 9b);
* **byte hit ratio** -- bytes served by caches over bytes requested, a
  proxy for origin-server load reduction (Figures 7a, 10a);
* **network traffic** -- byte x hops per request (Figure 7b);
* **hops traveled** -- links crossed before hitting the object
  (Figure 8a);
* **cache read/write load** -- aggregate bytes read from and written into
  caches per request (Figures 8b, 10b).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Tuple

from repro.schemes.base import RequestOutcome

# Reservoir size for latency percentiles: large enough for stable p99 at
# the trace scales used here, small enough to be memory-trivial.
_RESERVOIR_SIZE = 8192


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregated results over the measurement window of one run.

    ``latency_percentiles`` holds (p50, p90, p99) estimated from a
    fixed-size reservoir sample of per-request latencies -- an extension
    beyond the paper, which reports means only.
    """

    requests: int
    mean_latency: float
    mean_response_ratio: float
    byte_hit_ratio: float
    hit_ratio: float
    mean_traffic_byte_hops: float
    mean_hops: float
    mean_read_load: float
    mean_write_load: float
    latency_percentiles: Tuple[float, float, float] = (
        math.nan,
        math.nan,
        math.nan,
    )

    @property
    def mean_cache_load(self) -> float:
        """Aggregate read + write bytes per request (Figures 8b, 10b)."""
        return self.mean_read_load + self.mean_write_load

    @property
    def read_load_share(self) -> float:
        """Fraction of the cache load that is (useful) read load."""
        total = self.mean_cache_load
        return self.mean_read_load / total if total > 0 else 0.0


class MetricsCollector:
    """Accumulates per-request measurements and produces a summary."""

    def __init__(self) -> None:
        self._requests = 0
        # Deterministic reservoir sampler: identical runs yield identical
        # percentile estimates.
        self._reservoir: list[float] = []
        self._rng = random.Random(0x5EED)
        self._latency = 0.0
        self._response_ratio = 0.0
        self._bytes_requested = 0
        self._bytes_cache_served = 0
        self._cache_hits = 0
        self._byte_hops = 0.0
        self._hops = 0
        self._bytes_read = 0
        self._bytes_written = 0

    @property
    def requests(self) -> int:
        return self._requests

    @classmethod
    def from_totals(
        cls, totals: dict, reservoir: list[float]
    ) -> "MetricsCollector":
        """Rebuild a collector from :meth:`totals` output plus a reservoir.

        Inverse of :meth:`totals`, used by the simulation engine's fast
        path: kernels accumulate the same raw totals inline (bit-for-bit
        the reference accumulation order) and restore them here, so
        :meth:`summary` stays the single source of derived metrics.  The
        reservoir must have been filled with the collector's deterministic
        sampling rule for percentiles to match.
        """
        collector = cls()
        collector._requests = totals["requests"]
        collector._latency = totals["latency_sum"]
        collector._response_ratio = totals["response_ratio_sum"]
        collector._bytes_requested = totals["bytes_requested"]
        collector._bytes_cache_served = totals["bytes_cache_served"]
        collector._cache_hits = totals["cache_hits"]
        collector._byte_hops = totals["byte_hops"]
        collector._hops = totals["hops"]
        collector._bytes_read = totals["bytes_read"]
        collector._bytes_written = totals["bytes_written"]
        collector._reservoir = list(reservoir)
        return collector

    def totals(self) -> dict:
        """Raw accumulator snapshot (consumed by the audit layer).

        Every value is the running total exactly as accumulated, so an
        independent replay of the same outcome stream must reproduce each
        one bit-for-bit.
        """
        return {
            "requests": self._requests,
            "latency_sum": self._latency,
            "response_ratio_sum": self._response_ratio,
            "bytes_requested": self._bytes_requested,
            "bytes_cache_served": self._bytes_cache_served,
            "cache_hits": self._cache_hits,
            "byte_hops": self._byte_hops,
            "hops": self._hops,
            "bytes_read": self._bytes_read,
            "bytes_written": self._bytes_written,
        }

    def record(self, outcome: RequestOutcome, latency: float) -> None:
        """Record one request's outcome with its modelled access latency.

        Reads the outcome's fields once and derives hops, cache service
        and read/write bytes from them exactly as the
        :class:`RequestOutcome` properties do.
        """
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self._requests += 1
        requests = self._requests
        reservoir = self._reservoir
        if len(reservoir) < _RESERVOIR_SIZE:
            reservoir.append(latency)
        else:
            # Inline rng.randrange(requests): the identical getrandbits
            # stream, so the sampled reservoir (and every percentile) is
            # unchanged, without two call frames per request.
            getrandbits = self._rng.getrandbits
            nbits = requests.bit_length()
            slot = getrandbits(nbits)
            while slot >= requests:
                slot = getrandbits(nbits)
            if slot < _RESERVOIR_SIZE:
                reservoir[slot] = latency
        size = outcome.size
        hops = outcome.hit_index
        self._latency += latency
        self._response_ratio += latency / size
        self._bytes_requested += size
        if hops < len(outcome.path) - 1:  # served by a cache
            self._bytes_cache_served += size
            self._cache_hits += 1
            self._bytes_read += size
        self._byte_hops += size * hops
        self._hops += hops
        self._bytes_written += size * len(outcome.inserted_nodes)

    def summary(self) -> MetricsSummary:
        if self._requests == 0:
            raise ValueError("no requests recorded")
        n = self._requests
        ordered = sorted(self._reservoir)
        # Nearest-rank percentile: the smallest value with at least q*n
        # samples at or below it, i.e. index ceil(q*n) - 1.  (Truncating
        # q*n overshoots by one: p50 of two samples must be the smaller.)
        percentiles = tuple(
            ordered[max(0, math.ceil(q * len(ordered)) - 1)]
            for q in (0.50, 0.90, 0.99)
        )
        return MetricsSummary(
            latency_percentiles=percentiles,
            requests=n,
            mean_latency=self._latency / n,
            mean_response_ratio=self._response_ratio / n,
            byte_hit_ratio=(
                self._bytes_cache_served / self._bytes_requested
                if self._bytes_requested
                else 0.0
            ),
            hit_ratio=self._cache_hits / n,
            mean_traffic_byte_hops=self._byte_hops / n,
            mean_hops=self._hops / n,
            mean_read_load=self._bytes_read / n,
            mean_write_load=self._bytes_written / n,
        )
