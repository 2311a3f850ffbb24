"""Sample arithmetic: percentiles, segment medians, update slicing."""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence, Tuple


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q * n`` samples at or below it (the collector's convention)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


median = statistics.median


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def group_samples(
    segments: Sequence[Sequence[float]], min_size: int
) -> List[List[float]]:
    """Merge consecutive segments until every group has ``min_size``
    samples, so a p99 always has ten samples beyond it.  A short tail is
    folded into the last full group; if even the pooled samples fall
    short there is one group with everything."""
    groups: List[List[float]] = []
    current: List[float] = []
    for samples in segments:
        current.extend(samples)
        if len(current) >= min_size:
            groups.append(current)
            current = []
    if current:
        if groups:
            groups[-1].extend(current)
        else:
            groups.append(current)
    return groups


def grouped_percentile(
    segments: Sequence[Sequence[float]], q: float, min_size: int
) -> Tuple[float, int]:
    """Median across segment groups of each group's nearest-rank
    percentile; also returns the total sample count."""
    groups = group_samples(segments, min_size)
    value = median([nearest_rank(group, q) for group in groups])
    return value, sum(len(group) for group in groups)


def slice_updates(
    updates: Sequence, segment_end_times: Sequence[float]
) -> Tuple[List[list], list]:
    """Split a time-ordered update stream across consecutive segments.

    Segment ``k`` ends at ``segment_end_times[k]`` (the time of its last
    request).  A sequential replay fires an update before the first
    request whose time is >= the update's, so an update belongs to the
    first segment whose end time is >= its own; updates past the last
    request never fire and are returned separately.  Every event lands
    in exactly one place.
    """
    slices: List[list] = [[] for _ in segment_end_times]
    late: list = []
    k = 0
    for event in updates:
        while k < len(segment_end_times) and event.time > segment_end_times[k]:
            k += 1
        if k == len(segment_end_times):
            late.append(event)
        else:
            slices[k].append(event)
    return slices, late


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    total = sum(weights)
    return sum(v * w for v, w in zip(values, weights)) / total


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def signed_worsening(
    base: float, new: float, better: str
) -> Optional[float]:
    """How much worse ``new`` is than ``base`` as a share of ``base``
    (negative = better).  ``None`` when the base is zero."""
    if not base:
        return None
    change = (new - base) / abs(base)
    return change if better == "lower" else -change
