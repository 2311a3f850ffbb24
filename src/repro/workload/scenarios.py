"""Non-stationary workload scenarios (stress extensions).

The paper's traces are replayed as-is; these helpers synthesize the two
classic adversarial patterns for caches so the schemes' adaptivity can be
stressed:

* :func:`inject_flash_crowd` -- a sudden burst of requests for one object
  over a time window (a breaking-news workload).  A good cascaded scheme
  reacts by replicating the object close to clients for the duration.
* :func:`inject_scan` -- a one-pass sequential sweep over many cold
  objects (a crawler).  Scans pollute recency-based caches; admission- or
  cost-aware schemes should shrug them off.
* :func:`inject_invalidation_storm` -- a burst of correlated *group*
  update events (a site-wide template push).  This is the coherency
  stress: in-band mode pays one inv broadcast per member object while
  channel mode pays one event per group (see :mod:`repro.coherency`).

All helpers return new, time-sorted sequences and leave inputs untouched.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.workload.catalog import ObjectCatalog
from repro.workload.trace import ColumnarTrace, Trace
from repro.workload.updates import GroupUpdateEvent


def _merge(base: Trace, *extra: np.ndarray) -> Trace:
    """``base`` plus the ``extra`` columns, time-sorted column by column.

    The sort is stable, so at equal time base rows stay before injected
    ones, and no record is built.
    """
    columns = [np.concatenate(pair) for pair in zip(base.columns.arrays, extra)]
    order = np.argsort(columns[0], kind="stable")
    return ColumnarTrace(*(column[order] for column in columns)).to_trace()


def inject_flash_crowd(
    trace: Trace,
    catalog: ObjectCatalog,
    object_id: int,
    start: float,
    duration: float,
    extra_rate: float,
    num_clients: int,
    seed: int = 0,
) -> Trace:
    """Add a Poisson burst of requests for one object during a window."""
    if duration <= 0 or extra_rate <= 0:
        raise ValueError("duration and extra_rate must be positive")
    if num_clients < 1:
        raise ValueError("need at least one client")
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(extra_rate * duration))
    times = np.sort(rng.random(count) * duration) + start
    clients = rng.integers(num_clients, size=count)
    return _merge(
        trace,
        times,
        clients,
        np.full(count, object_id),
        np.full(count, catalog.server(object_id)),
        np.full(count, catalog.size(object_id)),
    )


def inject_scan(
    trace: Trace,
    catalog: ObjectCatalog,
    start: float,
    inter_arrival: float,
    object_ids: List[int] | None = None,
    client_id: int = 0,
) -> Trace:
    """Add a one-pass sequential scan over objects starting at ``start``."""
    if inter_arrival <= 0:
        raise ValueError("inter_arrival must be positive")
    ids = np.asarray(
        object_ids if object_ids is not None else range(catalog.num_objects),
        dtype=np.int64,
    )
    return _merge(
        trace,
        start + np.arange(len(ids)) * inter_arrival,
        np.full(len(ids), client_id),
        ids,
        catalog.servers[ids],
        catalog.sizes[ids],
    )


def inject_invalidation_storm(
    updates: Sequence[GroupUpdateEvent],
    group_ids: Sequence[int],
    start: float,
    duration: float,
    storm_rate: float,
    seed: int = 0,
) -> List[GroupUpdateEvent]:
    """Add a Poisson burst of updates over correlated groups.

    During ``[start, start + duration]`` the listed ``group_ids`` are
    hammered with extra update events at aggregate rate ``storm_rate``
    (targets drawn uniformly over the listed groups -- the correlation
    *is* the small target set).  Returns a new time-sorted stream.
    """
    if duration <= 0 or storm_rate <= 0:
        raise ValueError("duration and storm_rate must be positive")
    if not group_ids:
        raise ValueError("need at least one target group")
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(storm_rate * duration))
    times = np.sort(rng.random(count) * duration) + start
    targets = rng.integers(len(group_ids), size=count)
    extra = [
        GroupUpdateEvent(time=float(t), group_id=int(group_ids[g]))
        for t, g in zip(times, targets)
    ]
    return sorted(list(updates) + extra, key=lambda e: e.time)
